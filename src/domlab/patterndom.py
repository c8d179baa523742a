"""Pattern-domination solvers: dominating cliques, independent sets, induced
matchings, and generic patterns via dominating-k-set listing plus isomorphism."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import Graph, heavy_vertices
from .multidom import (
    Problem,
    Solution,
    _edge_sets_isomorphic,
    build_candidate_families,
    list_2_dominating_sets,
    pair_join,
)

MAX_PATTERN_SIZE = 8


class PatternTooLargeError(ValueError):
    """Isomorphism checking is factorial in the pattern size; capped at 8."""


@dataclass(frozen=True)
class Pattern:
    """Simple undirected graph on vertex set [0, k); the shape a dominating
    set is asked to induce."""

    k: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"pattern needs k >= 1, got {self.k}")
        for u, v in self.edges:
            if not (0 <= u < v < self.k):
                raise ValueError(f"bad pattern edge ({u},{v}) for k={self.k}")

    @classmethod
    def from_edges(cls, k: int, edges: Iterable[tuple[int, int]]) -> "Pattern":
        return cls(k, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @classmethod
    def clique(cls, k: int) -> "Pattern":
        return cls.from_edges(k, itertools.combinations(range(k), 2))

    @classmethod
    def edgeless(cls, k: int) -> "Pattern":
        return cls.from_edges(k, [])

    @classmethod
    def matching(cls, k: int) -> "Pattern":
        if k % 2:
            raise ValueError(f"perfect matching needs even k, got {k}")
        return cls.from_edges(k, [(2 * i, 2 * i + 1) for i in range(k // 2)])

    @classmethod
    def path(cls, k: int) -> "Pattern":
        return cls.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def _load_json(source):
    """JSON from a stream, from text that starts with "{", or else from the
    file at path `source`."""
    if hasattr(source, "read"):
        return json.load(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def load_pattern(source) -> Pattern:
    """Parse {"k": int, "edges": [[i, j], ...]} from a path, string, or stream."""
    data = _load_json(source)
    return Pattern.from_edges(int(data["k"]), [tuple(e) for e in data["edges"]])


def enumerate_cliques(G: Graph, t: int) -> list[tuple[int, ...]]:
    """All t-cliques, sorted within and lexicographic across. For t >= 2 the
    count is asserted against the (2m)^{t/2} bound."""
    if t < 1:
        raise ValueError(f"clique size must be >= 1, got {t}")
    out: list[tuple[int, ...]] = []

    def extend(clique: list[int], common: int, start: int):
        if len(clique) == t:
            out.append(tuple(clique))
            return
        for v in range(start, G.n):
            if (common >> v) & 1:
                clique.append(v)
                extend(clique, common & G.neighbor_mask(v), v + 1)
                clique.pop()

    extend([], G.full_mask(), 0)
    if t >= 2:
        assert len(out) ** 2 <= (2 * G.m) ** t, "clique count exceeds (2m)^{t/2}"
    return out


def _first_2_dominating_pair(G: Graph, adjacent: bool,
                             alive: int | None = None) -> tuple[int, int] | None:
    """First pair of `list_2_dominating_sets(G, alive)` that is an edge of G
    (`adjacent`) or is not one, or None."""
    for u, v in list_2_dominating_sets(G, alive):
        if G.has_edge(u, v) == adjacent:
            return u, v
    return None


def _drawn(members: Iterable[tuple], kept: list) -> Iterator[tuple]:
    """Each of `members` in turn, appended to `kept` as it is drawn: kept[i]
    is the i-th member a lazy consumer such as `pair_join` has reached."""
    for member in members:
        kept.append(member)
        yield member


def solve_dominating_clique(G: Graph, k: int) -> Solution | None:
    """First k-clique (in the half-split scan order) whose closed neighborhood
    is all of V, or None.

    For k >= 3 the rows are the (k-1)//2-cliques extended by one heavy vertex
    and the columns the k//2-cliques. Both clique lists are enumerated in
    full and the columns are materialised, but the rows are drawn lazily by
    `pair_join`: the join costs only the rows drawn before the first hit,
    and on a NO instance all of them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    problem = Problem("clique", k)
    if k == 1:
        # heavy at k = 1 means |N[v]| = n: the universal vertices
        for v in heavy_vertices(G, 1):
            return Solution(problem, (v,))
        return None
    if k == 2:
        pair = _first_2_dominating_pair(G, adjacent=True)
        return None if pair is None else Solution(problem, pair)
    r1 = enumerate_cliques(G, (k - 1) // 2)
    r2 = enumerate_cliques(G, k // 2)
    heavy = heavy_vertices(G, k)
    rows: list[tuple[int, ...]] = []
    drawn = _drawn((S + (h,) for S in r1 for h in heavy), rows)
    for i, j in pair_join(G, drawn, r2, 1, "tuple"):
        union = set(rows[i]) | set(r2[j])
        if len(union) != k:
            continue
        cand = tuple(sorted(union))
        if all(G.has_edge(u, v) for u, v in itertools.combinations(cand, 2)):
            return Solution(problem, cand)
    return None


def solve_dominating_indepset(G: Graph, k: int) -> Solution | None:
    """Recursion on heavy vertices of the current instance: pick heavy v,
    delete N[v], solve for k-1; bases are the universal vertex (k=1) and
    non-adjacent dominating pairs (k=2)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    verts = _indepset_search(G, k, None)
    if verts is None:
        return None
    return Solution(Problem("indepset", k), verts)


def _indepset_search(G: Graph, k: int, alive: int | None) -> tuple[int, ...] | None:
    """The search on the subgraph induced by the vertex bitmask `alive` (None
    for all of V), in G's ids: deleting N[v] clears its bits. The ids keep
    their order, so each level tries heavy vertices in the order a relabelled
    copy would."""
    if k == 1:
        for v in heavy_vertices(G, 1, alive):
            return (v,)
        return None
    if k == 2:
        return _first_2_dominating_pair(G, adjacent=False, alive=alive)
    for v in heavy_vertices(G, k, alive):
        rest_alive = (G.full_mask() if alive is None else alive) & ~G.closed_mask(v)
        rest = _indepset_search(G, k - 1, rest_alive)
        if rest is not None:
            return tuple(sorted((v,) + rest))
    return None


def solve_dominating_induced_matching(G: Graph, k: int) -> Solution | None:
    """Dominating set of k vertices inducing exactly k/2 independent edges.

    Splits the k/2 matching edges into edge subsets of sizes ceil(k/4) and
    floor(k/4); a `pair_join` pair of endpoint sets certifies domination and
    the induced-matching shape is checked on the endpoint union. The
    C(m, floor(k/4)) column subsets are materialised; the C(m, ceil(k/4))
    row subsets are drawn lazily by `pair_join`, so the cost depends on the
    rows drawn before the first hit (all of them on a NO instance).
    """
    if k % 2 or k < 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    problem = Problem("matching", k)
    if k == 2:
        pair = _first_2_dominating_pair(G, adjacent=True)
        return None if pair is None else Solution(problem, pair, {"matching_edges": [pair]})
    edges = list(G.edges())
    fam_s: list[tuple[tuple[int, int], ...]] = []
    ends_s = (sum(es, ()) for es in _drawn(itertools.combinations(edges, (k + 3) // 4), fam_s))
    fam_t = list(itertools.combinations(edges, k // 4))
    ends_t = [sum(et, ()) for et in fam_t]
    for i, j in pair_join(G, ends_s, ends_t, 1, "tuple"):
        chosen = fam_s[i] + fam_t[j]
        ends = [v for e in chosen for v in e]
        if len(set(ends)) != k:
            continue
        cand = tuple(sorted(ends))
        induced = [e for e in itertools.combinations(cand, 2) if G.has_edge(*e)]
        if len(induced) == k // 2 and set(induced) == set(chosen):
            return Solution(problem, cand, {"matching_edges": sorted(chosen)})
    return None


def list_dominating_ksets(G: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets S with N[S] = V, each yielded once.

    For k >= 2 this reuses the quota-1 candidate-family split (every
    dominating set contains a heavy vertex) and `pair_join`, lazily: a
    consumer that stops early stops the search.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        yield from ((v,) for v in heavy_vertices(G, 1))
        return
    if k > G.n:
        return
    fam_s, fam_t = build_candidate_families(G, k, 1)
    seen: set[tuple[int, ...]] = set()
    for i, j in pair_join(G, fam_s.members, fam_t.members, 1, "tuple"):
        # disjoint members of sizes summing to k: the union has k vertices
        cand = tuple(sorted(fam_s.members[i] + fam_t.members[j]))
        if cand not in seen:
            seen.add(cand)
            yield cand


def solve_pattern_domination(G: Graph, H: Pattern) -> Solution | None:
    """First dominating k-set inducing a subgraph isomorphic to H."""
    if H.k > MAX_PATTERN_SIZE:
        raise PatternTooLargeError(f"pattern size {H.k} exceeds {MAX_PATTERN_SIZE}")
    problem = Problem("pattern", H.k, pattern_edges=H.edges)
    for S in list_dominating_ksets(G, H.k):
        pos = {v: i for i, v in enumerate(S)}
        local = frozenset(
            (pos[u], pos[v]) for u, v in itertools.combinations(S, 2) if G.has_edge(u, v))
        if _edge_sets_isomorphic(H.k, local, H.edges):
            return Solution(problem, S)
    return None
