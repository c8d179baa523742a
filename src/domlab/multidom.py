"""Solvers for r-Multiple and r-Tuple k-Dominating Set.

Covers the candidate-family level-matrix algorithm, 2-dominating-pair
listing, the clique-graph pipeline for r = k-1, and unbalanced k-clique
detection with the triangle-grouping construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_, sub
from typing import Iterable, Iterator, Sequence

from .algebra import covering_pairs, iter_bits
from .graph import Graph, heavy_vertices

VARIANTS = ("multiple", "tuple")


@dataclass(frozen=True)
class Problem:
    """What a Solution claims to solve.

    kinds: multiple | tuple (with r), dominating, clique, indepset, matching,
    pattern (with pattern_edges on vertices 0..k-1).
    """

    kind: str
    k: int
    r: int | None = None
    pattern_edges: frozenset[tuple[int, int]] | None = None


@dataclass(frozen=True)
class Solution:
    problem: Problem
    vertices: tuple[int, ...]
    certificate: dict | None = None


@dataclass(frozen=True)
class CandidateFamily:
    """All vertex subsets of a fixed size containing at least `quota` heavy
    vertices, lexicographically sorted."""

    size: int
    quota: int
    members: tuple[tuple[int, ...], ...]


class KPartiteGraph:
    """k-partite graph with cross-part adjacency stored as bit rows.

    adj[i][a][j] is the bitmask over part j of neighbors of vertex a in
    part i. Intra-part edges are forbidden.
    """

    __slots__ = ("sizes", "adj")

    def __init__(self, sizes: Sequence[int], edges: Iterable[tuple[tuple[int, int], tuple[int, int]]]):
        self.sizes = tuple(sizes)
        k = len(self.sizes)
        self.adj = [[[0] * k for _ in range(s)] for s in self.sizes]
        for (i, a), (j, b) in edges:
            if i == j:
                raise ValueError(f"intra-part edge in part {i}: {a}-{b}")
            if not (0 <= i < k and 0 <= j < k and 0 <= a < self.sizes[i] and 0 <= b < self.sizes[j]):
                raise ValueError(f"edge out of range: ({i},{a})-({j},{b})")
            self.adj[i][a][j] |= 1 << b
            self.adj[j][b][i] |= 1 << a

    @property
    def k(self) -> int:
        return len(self.sizes)

    def has_edge(self, i: int, a: int, j: int, b: int) -> bool:
        return (self.adj[i][a][j] >> b) & 1 == 1

    def edges(self) -> Iterable[tuple[tuple[int, int], tuple[int, int]]]:
        """Cross edges as ((i, a), (j, b)) with i < j, lexicographic."""
        for i in range(self.k):
            for a in range(self.sizes[i]):
                for j in range(i + 1, self.k):
                    for b in iter_bits(self.adj[i][a][j]):
                        yield ((i, a), (j, b))


def _set_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _edge_sets_isomorphic(k: int, edges_a: frozenset[tuple[int, int]],
                          edges_b: frozenset[tuple[int, int]]) -> bool:
    """Graph isomorphism on vertex set [0, k) by permutation search with
    degree-sequence pruning. Intended for k <= 8."""
    if len(edges_a) != len(edges_b):
        return False
    deg_a = [0] * k
    deg_b = [0] * k
    for u, v in edges_a:
        deg_a[u] += 1
        deg_a[v] += 1
    for u, v in edges_b:
        deg_b[u] += 1
        deg_b[v] += 1
    if sorted(deg_a) != sorted(deg_b):
        return False
    for perm in itertools.permutations(range(k)):
        if any(deg_a[v] != deg_b[perm[v]] for v in range(k)):
            continue
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges_b for u, v in edges_a):
            return True
    return False


def diagnose_solution(G: Graph, problem: Problem, vertices: Sequence[int]) -> str | None:
    """None when `vertices` solves `problem` on G; otherwise a message naming
    the violated condition."""
    S = tuple(sorted(vertices))
    if len(set(S)) != len(S):
        return "duplicate vertices in solution"
    if len(S) != problem.k:
        return f"solution has {len(S)} vertices, expected k={problem.k}"
    if any(v < 0 or v >= G.n for v in S):
        return "vertex id out of range"
    smask = _set_mask(S)
    kind = problem.kind

    if kind in ("multiple", "tuple"):
        r = problem.r
        if r is None:
            return "problem is missing r"
        for v in range(G.n):
            if kind == "multiple":
                if (smask >> v) & 1:
                    continue
                hits = (G.neighbor_mask(v) & smask).bit_count()
            else:
                hits = (G.closed_mask(v) & smask).bit_count()
            if hits < r:
                return f"vertex {v} has {hits} < {r} dominators"
        return None

    covered = 0
    for v in S:
        covered |= G.closed_mask(v)
    if covered != G.full_mask():
        missed = next(v for v in range(G.n) if not (covered >> v) & 1)
        return f"vertex {missed} is not dominated"

    if kind == "dominating":
        return None

    induced = [(u, v) for u, v in itertools.combinations(S, 2) if G.has_edge(u, v)]
    k = problem.k
    if kind == "clique":
        if len(induced) != k * (k - 1) // 2:
            return "solution does not induce a clique"
        return None
    if kind == "indepset":
        if induced:
            u, v = induced[0]
            return f"solution vertices {u},{v} are adjacent"
        return None
    if kind == "matching":
        if k % 2:
            return "matching size k must be even"
        deg = {v: 0 for v in S}
        for u, v in induced:
            deg[u] += 1
            deg[v] += 1
        if len(induced) != k // 2 or any(d != 1 for d in deg.values()):
            return "solution does not induce a perfect matching"
        return None
    if kind == "pattern":
        if problem.pattern_edges is None:
            return "problem is missing pattern edges"
        pos = {v: i for i, v in enumerate(S)}
        local = frozenset((pos[u], pos[v]) for u, v in induced)
        if not _edge_sets_isomorphic(k, local, problem.pattern_edges):
            return "induced subgraph is not isomorphic to the pattern"
        return None
    return f"unknown problem kind {kind!r}"


def verify_solution(G: Graph, problem: Problem, vertices: Sequence[int]) -> bool:
    """Direct definition check of the variant/pattern condition."""
    return diagnose_solution(G, problem, vertices) is None


def solve_multidom_bruteforce(G: Graph, k: int, r: int, variant: str) -> Solution | None:
    """Exhaustive scan over all k-subsets in lexicographic order; first
    feasible subset wins. Ground truth for the fast solvers."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (1 <= r <= k <= G.n):
        raise ValueError(f"need 1 <= r <= k <= n, got r={r}, k={k}, n={G.n}")
    problem = Problem(variant, k, r)
    mask_of = G.neighbor_mask if variant == "multiple" else G.closed_mask
    masks = [mask_of(v) for v in range(G.n)]
    for S in itertools.combinations(range(G.n), k):
        smask = _set_mask(S)
        ok = True
        for v in range(G.n):
            if variant == "multiple" and (smask >> v) & 1:
                continue
            if (masks[v] & smask).bit_count() < r:
                ok = False
                break
        if ok:
            return Solution(problem, S)
    return None


def build_candidate_families(G: Graph, k: int, r: int) -> tuple[CandidateFamily, CandidateFamily]:
    """The two families whose disjoint unions cover every k-set with >= r
    heavy vertices: sizes ceil((k-r)/2)+floor(r/2) and floor((k-r)/2)+ceil(r/2),
    with heavy quotas floor(r/2) and ceil(r/2).

    Each family is built heavy-first: for j = quota..min(size, h) every
    j-subset of the h heavy vertices is joined with every (size-j)-subset of
    the light ones, so the cost is proportional to the members kept (plus one
    sort), not to C(n, size). The members come out in lexicographic order,
    the order of a filtered `combinations(range(n), size)` scan.
    """
    if not (1 <= r <= k - 1):
        raise ValueError(f"need 1 <= r <= k-1, got r={r}, k={k}")
    heavy = heavy_vertices(G, k)
    heavy_set = set(heavy)
    light = [v for v in range(G.n) if v not in heavy_set]
    size_s = (k - r + 1) // 2 + r // 2
    quota_s = r // 2
    size_t = (k - r) // 2 + (r + 1) // 2
    quota_t = (r + 1) // 2

    def members(size: int, quota: int) -> tuple[tuple[int, ...], ...]:
        out = [tuple(sorted(H + L))
               for j in range(quota, min(size, len(heavy)) + 1)
               for H in itertools.combinations(heavy, j)
               for L in itertools.combinations(light, size - j)]
        out.sort()
        return tuple(out)

    return (CandidateFamily(size_s, quota_s, members(size_s, quota_s)),
            CandidateFamily(size_t, quota_t, members(size_t, quota_t)))


def _at_least(masks: Iterable[int], r: int, full: int) -> list[int]:
    """Saturating bit-sliced count of `masks`: entry b (0 <= b <= r) has the
    bits set in at least b of them, so entry 0 is `full`."""
    if r == 1:
        return [full, full & reduce(or_, masks, 0)]
    ge = [full] + [0] * r
    for m in masks:
        for b in range(r, 0, -1):
            ge[b] |= ge[b - 1] & m
    return ge


def _column_masks(n: int, cols: Sequence[tuple[int, ...]]) -> list[int]:
    """masks[u]: the bitmask of the indices j with u in cols[j], for u < n.

    Each `masks[u] |= 1 << j` copies u's mask, so a vertex that sits in
    many of a long list of columns costs time quadratic in the column
    count. Past 16 columns per vertex (about 30 members per vertex at
    member sizes 2 and 3) the bits go into one byte buffer per vertex
    instead, each converted once: n * len(cols) / 8 byte steps plus one per
    member. With fewer columns the buffers cost more than the copies they
    save (measured crossover 10-30 members per vertex, CPython 3.11 on
    x86-64), as for the single-vertex columns of `list_2_dominating_sets`.
    """
    if len(cols) <= 16 * n:
        masks = [0] * n
        for j, T in enumerate(cols):
            for u in T:
                masks[u] |= 1 << j
        return masks
    bufs = list(map(bytearray, itertools.repeat((len(cols) + 7) >> 3, n)))
    for j, T in enumerate(cols):
        byte, bit = j >> 3, 1 << (j & 7)
        for u in T:
            bufs[u][byte] |= bit
    return list(map(int.from_bytes, bufs, itertools.repeat("little")))


def pair_join(G: Graph, rows: Iterable[tuple[int, ...]], cols: Sequence[tuple[int, ...]],
              r: int, variant: str, universe: int | None = None,
              stats: dict | None = None) -> Iterator[tuple[int, int]]:
    """Every (i, j) whose i-th row member and member cols[j] are disjoint and
    whose union dominates every vertex of `universe` (a vertex bitmask,
    default all of V) at least r times under `variant`. With members inside
    `universe`, this is the join on the subgraph `universe` induces.

    `rows` may be any iterable, a generator included: it is walked once, and
    only as far as the consumer reads pairs, so a caller that stops at the
    first pair never builds the rows after its row. `cols` must be a
    sequence; every column enters the bitmasks before the first row is drawn.

    "multiple" counts open-neighborhood dominators and exempts the union's own
    vertices; "tuple" counts closed-neighborhood dominators at every vertex.
    With r = 1 the tuple variant is plain domination. For r > 1 a member's
    vertices must be distinct.

    Pairs come lazily in row-major order, lowest j first within a row: the
    order of a nested scan over rows, then cols. A row's gap masks are the
    columns that meet it (the disjointness rule), then, for each vertex v
    the row leaves at level c < r, the columns that give v fewer than r - c
    dominators; `algebra.covering_pairs` reports the columns left over.
    Those column masks of v (`below[v]`) are built the first time a row
    draws v, so vertices no row leaves short cost nothing.

    Row certificate. Consecutive rows often share a prefix P = S[:-1] (the
    lexicographic families, clique rows S + (h,), matching endpoint
    tuples). Let b = S[-1]. A vertex w outside N[b] gets the same level from
    S as from P, in both variants and under any `universe`: b neither
    dominates w nor, under "multiple", exempts it. So each gap mask that P
    gives such a w is a gap mask of S too, as are the columns meeting P. On
    the second row of a run the join picks K_P: vertices short under P,
    lowest level first (their gap masks are the widest), then lowest degree
    first (few N[b] meet them), until their gap masks under P and the
    columns meeting P cover every column. A later row P + (b,) whose N[b]
    misses K_P then has no pair, and one AND replaces its gap walk. The
    first row of each run, the rows of a prefix with no such K_P, and
    size-1 rows (empty P) are walked as above. Certified rows yield nothing
    and every other row is walked unchanged, so the pairs and their order
    are exactly those of the plain walk.

    With a `stats` dict, `stats["rows_drawn"]` and `stats["rows_certified"]`
    (rows skipped by a certificate) are set to 0, then counted as rows are
    drawn.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    multiple = variant == "multiple"
    nbr = G.neighbor_mask
    # contains[u]: the columns that hold u
    contains = _column_masks(G.n, cols)
    full = (1 << len(cols)) - 1
    vfull = G.full_mask() if universe is None else universe
    # below[v][b]: the columns that give v fewer than b dominators
    below: list[list[int] | None] = [None] * G.n
    # one vertex mask per distinct degree, lowest degree first; built by
    # the first certificate
    buckets: list[int] = []

    def below_of(v: int) -> list[int]:
        nbrs = G.adjacency(v) if multiple else G.adjacency(v) + (v,)
        ge = _at_least(map(contains.__getitem__, nbrs), r, full)
        if multiple:
            ge = [m | contains[v] for m in ge]
        below[v] = [full ^ m for m in ge]
        return below[v]

    def levels(S: tuple[int, ...]) -> list[int]:
        if multiple:
            smask = _set_mask(S)
            return [m | smask for m in _at_least(map(nbr, S), r, vfull)]
        return _at_least((nbr(s) | 1 << s for s in S), r, vfull)

    def gaps(S: tuple[int, ...]) -> Iterator[int]:
        yield from (contains[s] for s in S)
        lev = levels(S)
        for c in range(r):
            for v in iter_bits(lev[c] ^ lev[c + 1]):
                yield (below[v] or below_of(v))[r - c]

    def certificate(P: tuple[int, ...]) -> int | None:
        """K_P as a vertex mask, or None when P's short vertices leave a
        column uncovered."""
        covered = reduce(or_, map(contains.__getitem__, P), 0)
        if covered == full:
            return 0
        if not buckets:
            by_degree: dict[int, int] = {}
            offsets = G.offsets
            for v, d in enumerate(map(sub, itertools.islice(offsets, 1, None), offsets)):
                by_degree[d] = by_degree.get(d, 0) | 1 << v
            buckets.extend(by_degree[d] for d in sorted(by_degree))
        lev = levels(P)
        chosen = 0
        for c in range(r):
            short = lev[c] ^ lev[c + 1]
            for bucket in buckets:
                ws = bucket & short
                if not ws:
                    continue
                for w in iter_bits(ws):
                    covered |= (below[w] or below_of(w))[r - c]
                    chosen |= 1 << w
                    if covered == full:
                        return chosen
                short ^= ws
                if not short:
                    break
        return None

    if stats is not None:
        stats["rows_drawn"] = stats["rows_certified"] = 0

    def row_gaps() -> Iterator[Iterable[int]]:
        closed = G.closed_mask
        prefix, cert, pending = None, None, False
        for S in rows:
            if stats is not None:
                stats["rows_drawn"] += 1
            P = S[:-1]
            if P != prefix:
                prefix, cert, pending = P, None, bool(P)
            elif pending:
                cert, pending = certificate(P), False
            if cert is not None and not closed(S[-1]) & cert:
                if stats is not None:
                    stats["rows_certified"] += 1
                yield (full,)  # no pair: one gap mask covering every column
            else:
                yield gaps(S)

    return covering_pairs(row_gaps(), len(cols))


def solve_multidom_fast(G: Graph, k: int, r: int, variant: str,
                        stats: dict | None = None, threads: int = 1) -> Solution | None:
    """Candidate-family solver: a disjoint pair (S, T) is a solution iff every
    vertex collects at least r domination levels from the two sides.

    The first pair of `pair_join` over the two families, i.e. the first hit
    of a row-major scan, is returned. Levels are counted with saturation at
    r; by the identity min(r,a)+min(r,b) >= r <=> a+b >= r this decides
    exactly the min-degree >= r condition of the truncated polynomial
    product (modelled by `tests/reference_algebra.py`, which a differential
    test compares with `pair_join`). `threads` is accepted for
    compatibility and has no effect.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (1 <= r <= k - 1):
        raise ValueError(f"fast solver needs 1 <= r <= k-1, got r={r}, k={k}")
    fam_s, fam_t = build_candidate_families(G, k, r)
    if stats is not None:
        stats["candidate_family_sizes"] = [len(fam_s.members), len(fam_t.members)]
        stats["product_dims"] = [len(fam_s.members), G.n, len(fam_t.members)]
        stats["scalar_op_count"] = len(fam_s.members) * G.n * len(fam_t.members)
    for i, j in pair_join(G, fam_s.members, fam_t.members, r, variant, stats=stats):
        return Solution(Problem(variant, k, r), tuple(sorted(fam_s.members[i] + fam_t.members[j])))
    return None


def list_2_dominating_sets(G: Graph, alive: int | None = None) -> list[tuple[int, int]]:
    """All pairs (u, v), u < v, with N[u] ∪ N[v] = V, in lexicographic order.

    With a vertex bitmask `alive`, the pairs of alive vertices that dominate
    every alive vertex: the dominating pairs of the subgraph `alive` induces,
    by their ids in G.

    A dominating pair has |N[u]| + |N[v]| >= n, so one of its vertices is in
    `heavy_vertices(G, 2)`. Only those h vertices are joined against all n;
    each pair is normalised to (min, max), kept once and sorted: O(n + m +
    h*n) mask operations plus a sort of the pairs found. With no heavy
    vertex the answer is empty and nothing beyond the heavy scan runs.
    """
    heavy = heavy_vertices(G, 2, alive)
    if not heavy:
        return []
    heavy_set = set(heavy)
    cols = range(G.n) if alive is None else tuple(iter_bits(alive))
    pairs = []
    for i, j in pair_join(G, [(u,) for u in heavy], [(v,) for v in cols], 1, "tuple", alive):
        u, v = heavy[i], cols[j]
        if u < v:
            pairs.append((u, v))
        elif v not in heavy_set:  # a heavy v < u already met u in its own row
            pairs.append((v, u))
    pairs.sort()
    return pairs


def build_clique_graph(G: Graph, k: int) -> tuple[KPartiteGraph, list[list[int]]]:
    """k-partite graph whose k-cliques correspond to pairwise-dominating
    k-sets: parts 1..k-1 are copies of the heavy set, part k a copy of V;
    cross edges join distinct originals that form a dominating pair.

    Edges are read off one dominating-partner bitmask per vertex, so past
    `list_2_dominating_sets` the cost is O(k^2 * h) plus the edges emitted."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    heavy = list(heavy_vertices(G, k))
    labels = [list(heavy) for _ in range(k - 1)] + [list(range(G.n))]
    # partners[u]: the vertices v with N[u] ∪ N[v] = V
    partners = [0] * G.n
    for u, v in list_2_dominating_sets(G):
        partners[u] |= 1 << v
        partners[v] |= 1 << u
    heavy_index = {v: b for b, v in enumerate(heavy)}
    edges = []
    for a, u in enumerate(heavy):
        all_partners = list(iter_bits(partners[u]))
        heavy_partners = [heavy_index[v] for v in all_partners if v in heavy_index]
        for i in range(k - 1):
            for j in range(i + 1, k - 1):
                edges.extend(((i, a), (j, b)) for b in heavy_partners)
            edges.extend(((i, a), (k - 1, v)) for v in all_partners)
    return KPartiteGraph([len(p) for p in labels], edges), labels


def grouping_parameters(k: int, gamma: Fraction) -> tuple[int, int] | None:
    """Triangle-grouping split (alpha, beta) with alpha + 2*beta + 1 = k,
    where beta = (k-1+1/gamma)/3. Requires k-1+1/gamma to be an integer
    divisible by 3 and 2/gamma < k-1; returns None otherwise.

    Library-only: no solver or CLI path passes `gamma`, so the grouped
    triangle search runs only when a caller of `detect_unbalanced_kclique`
    asks for it. Feeding it from generator parameters would change which
    clique the pipeline finds first."""
    g = Fraction(gamma)
    if not (0 < g <= 1):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    t = k - 1 + 1 / g
    if t.denominator != 1 or t.numerator % 3 != 0:
        return None
    if 2 / g >= k - 1:
        return None
    beta = t.numerator // 3
    alpha = k - 1 - 2 * beta
    if alpha <= 0 or beta <= 0:
        return None
    return alpha, beta


def _range_cliques(kp: KPartiteGraph, parts: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All transversal cliques (one vertex per listed part, pairwise adjacent),
    lazily, in lexicographic index order over `parts`.

    A branch carries, for each part not yet chosen, the bitmask of its
    vertices adjacent to every chosen vertex, and stops as soon as one of
    those masks is empty."""

    def extend(idx: int, masks: list[int], chosen: list[tuple[int, int]]):
        if idx == len(parts):
            yield tuple(chosen)
            return
        j, rest, later = parts[idx], masks[1:], parts[idx + 1:]
        for b in iter_bits(masks[0]):
            row = kp.adj[j][b]
            narrowed = [mask & row[p] for mask, p in zip(rest, later)]
            if all(narrowed):
                chosen.append((j, b))
                yield from extend(idx + 1, narrowed, chosen)
                chosen.pop()

    masks = [(1 << kp.sizes[j]) - 1 for j in parts]
    return extend(0, masks, []) if all(masks) else iter(())


def _joins_clique(kp: KPartiteGraph, w1: tuple[tuple[int, int], ...],
                  w2: tuple[tuple[int, int], ...]) -> bool:
    return all(kp.has_edge(i, a, j, b) for i, a in w1 for j, b in w2)


def _grouped_triangle(kp: KPartiteGraph, alpha: int, beta: int) -> tuple[tuple[int, int], ...] | None:
    k = kp.k
    parts1 = list(range(alpha + 1))
    parts2 = list(range(alpha + 1, alpha + 1 + beta))
    parts3 = list(range(alpha + 1 + beta, k))
    w1 = list(_range_cliques(kp, parts1))
    w2 = list(_range_cliques(kp, parts2))
    w3 = list(_range_cliques(kp, parts3))
    if not (w1 and w2 and w3):
        return None
    # compatibility bit rows towards W3, then triangle scan over W1 x W2
    w1_to_3 = [_set_mask(c for c, x in enumerate(w3) if _joins_clique(kp, a, x)) for a in w1]
    w2_to_3 = [_set_mask(c for c, x in enumerate(w3) if _joins_clique(kp, b, x)) for b in w2]
    for ia, a in enumerate(w1):
        for ib, b in enumerate(w2):
            if not _joins_clique(kp, a, b):
                continue
            both = w1_to_3[ia] & w2_to_3[ib]
            if both:
                ic = (both & -both).bit_length() - 1
                return tuple(sorted(a + b + w3[ic]))
    return None


def detect_unbalanced_kclique(kp: KPartiteGraph,
                              gamma: Fraction | None = None) -> tuple[tuple[int, int], ...] | None:
    """One vertex per part forming a clique, or None.

    With a gamma hint satisfying the grouping conditions, partial cliques are
    grouped into three blocks and a triangle is searched; otherwise plain
    backtracking over parts ordered by increasing size. The grouped path is
    library-only: `solve_multidom_kminus1` and the CLI never pass `gamma`,
    and the two paths may return different cliques.
    """
    params = grouping_parameters(kp.k, gamma) if gamma is not None else None
    if params is not None:
        return _grouped_triangle(kp, *params)
    order = sorted(range(kp.k), key=lambda i: (kp.sizes[i], i))
    for first in _range_cliques(kp, order):
        return tuple(sorted(first))
    return None


def solve_multidom_kminus1(G: Graph, k: int) -> Solution | None:
    """(k-1)-Multiple k-Dominating Set through the clique-graph pipeline.

    A k-clique of the pairwise-domination graph maps to a solution whose
    members are all closed-dominated >= k-1 times. Solutions with a weakly
    dominated member (legal under the V\\S convention, e.g. {a,b,d} in the
    path a-b-c-d) have no clique image, so a candidate-family pass completes
    the search when the clique side comes up empty.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    problem = Problem("multiple", k, k - 1)
    kp, labels = build_clique_graph(G, k)
    wit = detect_unbalanced_kclique(kp)
    if wit is not None:
        verts = tuple(sorted(labels[i][a] for i, a in wit))
        return Solution(problem, verts, {"clique_witness": list(wit)})
    fallback = solve_multidom_fast(G, k, k - 1, "multiple")
    if fallback is not None:
        return Solution(problem, fallback.vertices, {"clique_witness": None})
    return None
