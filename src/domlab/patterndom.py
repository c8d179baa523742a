"""Pattern-domination solvers: dominating cliques, independent sets, induced
matchings, and generic patterns via dominating-k-set listing plus isomorphism;
and `solve`, which decides any Problem with these, the multidom solvers or an oracle."""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import add, and_, itemgetter, or_
from typing import Iterable, Iterator, Sequence

from . import multidom, oracles
from .graph import Graph, heavy_vertices, iter_heavy_vertices
from .multidom import (
    VARIANTS,
    CandidateFamily,
    PatternTooLargeError,
    Problem,
    Solution,
    _is_int,
    _set_mask,
    _shape_error,
    build_candidate_families,
    check_pattern_size,
    check_r_window,
    list_2_dominating_sets,
    pair_join,
)


@dataclass(frozen=True)
class Pattern:
    """Simple undirected graph on vertex set [0, k); the shape a dominating
    set is asked to induce."""

    k: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        Problem("pattern", self.k, pattern_edges=self.edges)  # the one rule for k and edges

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


def _load_object(source, kind: str, fields: tuple[str, ...], shape: str) -> tuple[dict, str]:
    """The JSON object in `source` (a stream, text that starts with "{", or
    else a file path) and a label naming the source for error messages.
    Raises ValueError, naming the source, when the text is not JSON (or is
    nested too deep to decode) or not an object, or lacks one of `fields`;
    OSError when the file cannot be read.

    A file is read as bytes and decoded as strict UTF-8, so invalid UTF-8
    raises UnicodeDecodeError (a ValueError) and a BOM stays in the text,
    where `json.loads` refuses it; "\r\n" and "\r" then become "\n", as in
    a text-mode read, so a JSON error gives the same position."""
    try:
        if hasattr(source, "read"):
            where = f"{kind} {getattr(source, 'name', 'stream')}"
            data = json.load(source)
        elif (text := str(source)).lstrip().startswith("{"):
            where = f"{kind} text"
            data = json.loads(text)
        else:
            where = f"{kind} file {source}"
            with open(text, "rb", buffering=0) as fh:
                text = fh.read().decode()
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object {shape}")
    for field in fields:
        if field not in data:
            raise ValueError(f"{where}: missing field {field!r}")
    return data, where


def load_pattern(source) -> Pattern:
    """Parse {"k": int, "edges": [[i, j], ...]} from a path, string, or stream.

    Malformed input raises ValueError naming the source and the missing or
    ill-typed field."""
    data, where = _load_object(source, "pattern", ("k", "edges"),
                               '{"k": int, "edges": [[i, j], ...]}')
    k, edges = data["k"], data["edges"]
    if not _is_int(k):
        raise ValueError(f"{where}: field 'k' must be an integer, got {type(k).__name__}")
    if not isinstance(edges, list):
        raise ValueError(f"{where}: field 'edges' must be a list of [i, j] pairs, "
                         f"got {type(edges).__name__}")
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"{where}: edges[{i}] is not a pair of integers: {e!r:.40}")
    try:
        return Pattern.from_edges(k, edges)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def enumerate_cliques(G: Graph, t: int) -> list[tuple[int, ...]]:
    """All t-cliques, sorted within and lexicographic across.

    A clique grows from its lowest vertex through higher neighbours only. A
    partial clique C carries its candidates: the vertices above max(C)
    adjacent to all of C, in increasing order. They start as the listed
    neighbours of C's first vertex above it, and adding v keeps those above
    v among v's higher neighbours. The cost is O(n + m) plus, for each
    partial clique with c candidates, O(c^2) set lookups, with no scan over
    all n vertices per clique and no n-bit mask."""
    if t < 1:
        raise ValueError(f"clique size must be >= 1, got {t}")
    n = G.n
    if t == 1:
        return [(v,) for v in range(n)]
    # higher[v]: the neighbours of v above v, in increasing order
    higher = [nbrs[bisect_right(nbrs, v):] for v, nbrs in enumerate(G.adj)]
    above = list(map(frozenset, higher)) if t > 2 else []
    out: list[tuple[int, ...]] = []
    for u in range(n):
        # (clique, candidates), popped in lexicographic order of clique
        stack = [((u,), higher[u])]
        while stack:
            clique, cand = stack.pop()
            need = t - len(clique)
            if need == 1:
                out.extend(map(add, itertools.repeat(clique), zip(cand)))
                continue
            children = []
            for i in range(len(cand) - need + 1):
                v = cand[i]
                later = [w for w in cand[i + 1:] if w in above[v]]
                if len(later) >= need - 1:
                    children.append((clique + (v,), later))
            stack.extend(reversed(children))
    return out


def _first_shaped(G: Graph, problem: Problem,
                  sets: Iterable[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The first of the sorted candidate tuples `sets` that has the shape of
    `problem` (see `_shape_error`), or None. `sets` is read only as far as
    the hit."""
    return next((S for S in sets if _shape_error(G, problem, S) is None), None)


def _sorted_unions(G: Graph, rows: CandidateFamily | Iterable[tuple[tuple[int, ...], int, int]],
                   cols: Sequence[tuple[int, ...]] | CandidateFamily,
                   **options) -> Iterator[tuple[int, ...]]:
    """`tuple(sorted(S + T))` over the pairs of `pair_join(G, rows, cols, 1,
    "tuple", **options)`, in their order; `rows` is a family or runs. The
    runs are drawn lazily: a consumer that stops at a union costs only the
    runs up to its own, and since `pair_join` yields the pairs of a row
    before it draws the next, only the run drawn last is held. `options`
    (`stats`, `allowed`) go to the join."""
    return (tuple(sorted(S + T)) for S, T in pair_join(G, rows, cols, 1, "tuple", **options))


def solve_dominating_clique(G: Graph, k: int, stats: dict | None = None) -> Solution | None:
    """First k-clique (in the half-split scan order) whose closed neighborhood
    is all of V, or None.

    For k >= 3 the rows are the cliques S + (h,) of a (k-1)//2-clique S and
    a heavy h adjacent to all of S, in the order of a scan over every (S, h)
    (a row left out holds a non-edge, so the first hit is the same), and
    the columns the k//2-cliques, one list when k is odd and the sizes
    agree. The rows of one S go to the join as one run (S, AND(N(s)) &
    heavy, 0), and an S with no such h gives none. With no heavy vertex
    there is no row, nor a k-set when k > n, and no clique is listed.
    Otherwise the clique lists are enumerated in full and the columns are
    materialised, but the runs are drawn lazily.

    A union of two cliques is a clique iff every column vertex is adjacent
    to every row vertex, so the join gets the open neighbourhoods as its
    `allowed` masks (`pair_join`, "Pair-lemma filter"): a row pairs only
    with the columns inside the common neighbours of its vertices, and
    every union it yields is a clique. The pairs dropped are unions that
    `_first_shaped` would reject, so the first hit is the same. A `stats`
    dict gets the join's counters, and none when there is no join.
    """
    problem = Problem("clique", k)
    if k <= 2:
        # heavy at k = 1 means |N[v]| = n: the universal vertices
        sets = zip(heavy_vertices(G, 1)) if k == 1 else list_2_dominating_sets(G)
    else:
        heavy = _set_mask(heavy_vertices(G, k))
        if k > G.n or not heavy:
            return None
        r1 = enumerate_cliques(G, (k - 1) // 2)
        r2 = r1 if k % 2 else enumerate_cliques(G, k // 2)
        masks = (reduce(and_, map(G.neighbor_mask, S), heavy) for S in r1)
        rows = ((S, B, 0) for S, B in zip(r1, masks) if B)
        sets = _sorted_unions(G, rows, r2, stats=stats, allowed=G.neighbor_mask)
    cand = _first_shaped(G, problem, sets)
    return None if cand is None else Solution(problem, cand)


def solve_dominating_indepset(G: Graph, k: int, stats: dict | None = None) -> Solution | None:
    """Branching on heavy vertices: pick heavy v, delete N[v], solve for k-1;
    the bases are the universal vertices (k=1) and non-adjacent dominating
    pairs (k=2). Depth-first on an explicit stack, one frame per chosen
    vertex: the bitmask `alive` of its subgraph, in G's ids so heavy vertices
    come in a relabelled copy's order, and the heavy vertices left to try
    there, tested lazily (`iter_heavy_vertices`) only as far as the vertex
    the frame takes. A subgraph with fewer vertices than still needed gets
    no frame."""
    problem = Problem("indepset", k)
    chosen: list[int] = []  # chosen[i]: the vertex frames[i] has taken
    frames: list[tuple[int | None, Iterator[int]]] = []  # alive: None for V, never 0
    alive = None
    while True:
        left = k - len(chosen)
        if left <= 2:
            sets = (zip(iter_heavy_vertices(G, 1, alive)) if left == 1
                    else list_2_dominating_sets(G, alive))
            # an independent set is one at every size, so `problem` tests the rest
            if (rest := _first_shaped(G, problem, sets)) is not None:
                return Solution(problem, tuple(sorted(chosen + list(rest))))
        elif (G.n if alive is None else alive.bit_count()) >= left:
            frames.append((alive, iter_heavy_vertices(G, left, alive)))
        # take the next untried vertex of the deepest frame that has one
        while frames and (v := next(frames[-1][1], None)) is None:
            frames.pop()
        if not frames:
            return None
        chosen[len(frames) - 1:] = [v]
        alive = (frames[-1][0] or G.full_mask()) & ~G.closed_mask(v)


def solve_dominating_induced_matching(G: Graph, k: int,
                                      stats: dict | None = None) -> Solution | None:
    """Dominating set of k vertices inducing exactly k/2 independent edges.

    Splits the k/2 matching edges into edge subsets of sizes ceil(k/4) and
    floor(k/4), and joins their endpoint tuples with `_sorted_unions`; the
    first union that induces a perfect matching is the answer. The row
    tuples S, in the order of `combinations` over the sorted edges, go to
    the join as runs: the consecutive rows with one S[:-1] differ only in
    the higher end of their last edge, which increases, so they form the
    run (S[:-1], OR of 1 << S[-1], 0) in the same row order.
    Every dominating k-set holds a heavy vertex, so with none, or with
    k > n, the answer is None before any edge subset is listed. Otherwise
    the C(m, floor(k/4)) column subsets, then the C(m, ceil(k/4)) row
    subsets, are counted and refused past `MAX_TRANSVERSALS`
    (OracleBudgetError) before either is listed. The columns are then
    materialised and the rows drawn lazily, so the cost depends on the rows
    drawn before the first hit (all of them on a NO instance). The
    certificate's `matching_edges` are the edges the solution induces. A
    `stats` dict gets the join's counters, and none when there is no join.
    """
    problem = Problem("matching", k)
    if k > G.n or not heavy_vertices(G, k):
        return None
    if k == 2:
        sets = list_2_dominating_sets(G)
    else:
        budget = oracles.MAX_TRANSVERSALS
        for side, size in (("columns", k // 4), ("rows", (k + 3) // 4)):
            if (count := comb(G.m, size)) > budget:
                raise oracles.OracleBudgetError(f"the induced-matching {side} are C({G.m}, {size}) "
                                                f"= {count} edge subsets, more than {budget}")
        edges = list(G.edges())
        tuples = (sum(es, ()) for es in itertools.combinations(edges, (k + 3) // 4))
        rows = ((P, reduce(or_, (1 << S[-1] for S in run)), 0)
                for P, run in itertools.groupby(tuples, itemgetter(slice(-1))))
        cols = [sum(et, ()) for et in itertools.combinations(edges, k // 4)]
        sets = _sorted_unions(G, rows, cols, stats=stats)
    cand = _first_shaped(G, problem, sets)
    return None if cand is None else _matching_solution(G, problem, cand)


def _matching_solution(G: Graph, problem: Problem, cand: tuple[int, ...]) -> Solution:
    """`cand`, with the edges it induces as the certificate's `matching_edges`."""
    induced = [e for e in itertools.combinations(cand, 2) if G.has_edge(*e)]
    return Solution(problem, cand, {"matching_edges": induced})


def list_dominating_ksets(G: Graph, k: int, stats: dict | None = None) -> Iterator[tuple[int, ...]]:
    """All k-subsets S with N[S] = V, each yielded once.

    Every dominating set contains a heavy vertex, so with none nothing is
    yielded. For k >= 2 this reuses the quota-1 candidate-family split and
    `pair_join`, lazily: a consumer that stops early stops the search, and
    the row family goes in whole, walked by prefix runs, so the member
    tuples are built only once a union is found. It
    raises OracleBudgetError once it has drawn `MAX_TRANSVERSALS` unions,
    duplicates included, and would draw another. A `stats` dict gets the
    join's counters (`pair_join`) once the first union is asked for.
    """
    heavy = heavy_vertices(G, k)  # a ValueError for k < 1
    if k == 1:
        yield from zip(heavy)
        return
    if k > G.n or not heavy:
        return
    fam_s, fam_t = build_candidate_families(G, k, 1)
    budget = oracles.MAX_TRANSVERSALS
    seen: set[tuple[int, ...]] = set()
    # disjoint members of sizes summing to k: each union has k vertices
    for drawn, cand in enumerate(_sorted_unions(G, fam_s, fam_t, stats=stats), 1):
        if drawn > budget:
            raise oracles.OracleBudgetError(f"the dominating {k}-set listing drew more "
                                            f"than {budget} unions")
        if cand not in seen:
            seen.add(cand)
            yield cand


def solve_pattern_domination(G: Graph, H: Pattern, stats: dict | None = None) -> Solution | None:
    """First dominating k-set inducing a subgraph isomorphic to H; `stats`
    as in `list_dominating_ksets`."""
    check_pattern_size(H.k)
    problem = Problem("pattern", H.k, pattern_edges=H.edges)
    cand = _first_shaped(G, problem, list_dominating_ksets(G, H.k, stats))
    return None if cand is None else Solution(problem, cand)


# Problem.kind -> (the Pattern builder's name, or None when the Problem carries
# the edges; the fast solver's name, called with k, or with the Pattern if there
# is no builder), both looked up when called, so a tracer's wrapper runs.
SHAPES = {
    "clique": ("clique", "solve_dominating_clique"),
    "indepset": ("edgeless", "solve_dominating_indepset"),
    "matching": ("matching", "solve_dominating_induced_matching"),
    "pattern": (None, "solve_pattern_domination"),
}


def check_algo(problem: Problem, algo: str) -> None:
    """A ValueError naming what `algo` cannot take: the algo itself, or an r
    outside the pipeline's k-1, fast's 1..k-1 or brute's 1..k. It reads no
    graph, so `bench` runs it before it draws one."""
    kind, k, r = problem.kind, problem.k, problem.r
    if algo not in ("fast", "brute", "pipeline"):
        raise ValueError(f"no algo {algo!r} for a Problem of kind {kind!r}")
    if algo == "pipeline" and not (kind == "multiple" and r == k - 1):
        raise ValueError(f"the pipeline needs kind 'multiple' with r = k-1, got r={r}, k={k}")
    if kind in VARIANTS and algo in ("fast", "brute"):
        check_r_window(r, k, below_k=algo == "fast")


def solve(G: Graph, problem: Problem, algo: str = "fast",
          stats: dict | None = None) -> Solution | None:
    """The first solution of `problem` on G that `algo` finds, or None.

    "fast" runs `solve_multidom_fast` on the multiple and tuple kinds, and
    the solver `SHAPES` names on the others. "pipeline" runs
    `solve_multidom_kminus1`, on the multiple kind with r = k-1 only. Each
    gets `stats`, and its join (`pair_join`) fills it; the indepset solver
    runs none. "brute" fills no `stats`: it runs `oracle_multidom` or
    `oracle_pattern` once `oracles.check_scan_budget` passes (else
    OracleBudgetError), or answers a shape with k > n at once; every
    Solution carries `problem` itself.
    `check_algo`'s ValueError comes first, before any budget.
    """
    check_algo(problem, algo)
    kind, k, r = problem.kind, problem.k, problem.r
    if algo == "brute":
        oracles.check_scan_budget(G.n, problem)
    if kind in VARIANTS:
        if algo == "brute":
            return oracles.oracle_multidom(G, k, r, kind)
        if algo == "pipeline":
            return multidom.solve_multidom_kminus1(G, k, stats=stats)
        return multidom.solve_multidom_fast(G, k, r, kind, stats=stats)
    build, name = SHAPES[kind]
    H = Pattern(k, problem.pattern_edges) if build is None else None
    if algo == "brute":  # with k > n there is no k-subset, and no k-vertex Pattern is built
        found = k <= G.n and oracles.oracle_pattern(G, H or getattr(Pattern, build)(k))
        if found and kind == "matching":
            return _matching_solution(G, problem, found.vertices)
        return Solution(problem, found.vertices) if found else None
    return globals()[name](G, H or k, stats=stats)
