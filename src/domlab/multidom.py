"""Solvers for r-Multiple and r-Tuple k-Dominating Set.

Covers the candidate-family level-matrix algorithm, 2-dominating-pair
listing, the clique-graph pipeline for r = k-1, and unbalanced k-clique
detection, the last two on one bitmask clique walker (`_near_rows`). At
r = k-1 the fast solver and the pipeline's fallback find the family
join's first hit with one depth-first search (`_near_first`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from operator import add, and_, itemgetter, or_, rshift, sub
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import iter_bits
from .graph import Graph, _index_mask, heavy_vertices

VARIANTS = ("multiple", "tuple")
KINDS = VARIANTS + ("clique", "indepset", "matching", "pattern")
# the keys the fast solvers set in a `stats` dict, the last five by
# `pair_join`: rows a hold mask drops count as certified, and `below_built`
# can be 0, since only certificates build `below[v]` when a join reads short sets
STATS_KEYS = ("candidate_family_sizes", "columns_kept",
              "rows_drawn", "rows_certified", "gap_masks", "below_built")
MAX_PATTERN_SIZE = 8


class PatternTooLargeError(ValueError):
    """Isomorphism checking is factorial in the pattern size; capped at 8."""


def check_pattern_size(k: int) -> None:
    """Refuse a k-vertex pattern above MAX_PATTERN_SIZE (PatternTooLargeError)."""
    if k > MAX_PATTERN_SIZE:
        raise PatternTooLargeError(f"pattern size {k} exceeds {MAX_PATTERN_SIZE}")


def check_r_window(r: int, k: int, *, below_k: bool) -> None:
    """A ValueError unless 1 <= r <= k, or r <= k-1 when `below_k`: the
    r window of every solver, oracle and reduction that takes an r."""
    if not 1 <= r <= k - below_k:
        raise ValueError(f"need 1 <= r <= k{'-1' if below_k else ''}, got r={r}, k={k}")


def _is_int(x) -> bool:
    return type(x) is int  # JSON true/false load as bool, a subclass of int


@dataclass(frozen=True)
class Problem:
    """What a Solution claims to solve, checked when built: a ValueError
    names the field. `kind` is in KINDS; `k` an int >= 1, even for matching;
    `r` an int >= 1 for multiple and tuple (r > k is degenerate but allowed),
    else None; `pattern_edges` only for pattern, on vertices 0..k-1. A bool
    is not an int here. A `Pattern` is checked as its pattern Problem."""

    kind: str
    k: int
    r: int | None = None
    pattern_edges: frozenset[tuple[int, int]] | None = None

    def __post_init__(self):
        kind, k, r, edges = self.kind, self.k, self.r, self.pattern_edges
        if kind not in KINDS:
            raise ValueError(f"Problem kind must be one of {', '.join(KINDS)}, got {kind!r}")
        if not (_is_int(k) and k >= 1):
            raise ValueError(f"Problem k must be an int >= 1, got {k!r}")
        if kind == "matching" and k % 2:
            raise ValueError(f"Problem k must be even for kind 'matching', got {k}")
        if kind in VARIANTS and not (_is_int(r) and r >= 1) or kind not in VARIANTS and r is not None:
            need = "an int >= 1" if kind in VARIANTS else "None"
            raise ValueError(f"Problem r must be {need} for kind {kind!r}, got {r!r}")
        if kind == "pattern" and not (isinstance(edges, frozenset) and all(
                type(e) is tuple and len(e) == 2 and all(map(_is_int, e)) and 0 <= e[0] < e[1] < k
                for e in edges)):
            raise ValueError(f"Problem pattern_edges must be a frozenset of int pairs (u, v), "
                             f"0 <= u < v < k={k}, got {edges!r:.60}")
        if kind != "pattern" and edges is not None:
            raise ValueError(f"Problem pattern_edges must be None for kind {kind!r}")


@dataclass(frozen=True)
class Solution:
    problem: Problem
    vertices: tuple[int, ...]
    certificate: dict | None = None


@dataclass(frozen=True)
class CandidateFamily:
    """All vertex subsets of a fixed size containing at least `quota` heavy
    vertices, lexicographically sorted.

    The family is stored as `count` members laid out in `blocks`. A block
    (offset, prefix, left, start, in_heavy) holds the members from index
    `offset` on: prefix + t for each t in combinations(ids[start:], left),
    where ids is `heavy` (G's heavy ids, sorted) when in_heavy is true and
    range(n) otherwise.

    Four views are derived from the blocks, each only when asked for:
    - `members`, the member tuples in order, expanded on first use and then
      kept. A join reads it only past its first pair, so a NO solve builds none.
    - `member(j)`, members[j], decoded alone from its block until `members` is built.
    - `runs()`, the members grouped by their prefix of size - 1.
    - `column_masks[u]`, the bitmask of the indices j with u in members[j],
      for u < n, as a `ColumnList` has it. `_block_masks` builds it when a
      join first asks, then it is kept: a family on both sides builds it once.
    """

    size: int
    quota: int
    count: int
    n: int
    heavy: tuple[int, ...]
    blocks: tuple[tuple[int, tuple[int, ...], int, int, bool], ...]

    def __len__(self) -> int:
        return self.count

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        spaces = (range(self.n), self.heavy)
        out: list[tuple[int, ...]] = []
        for _, prefix, left, start, in_heavy in self.blocks:
            ids = spaces[in_heavy][start:]
            # zip builds the 1-tuples faster than combinations(ids, 1)
            tails = itertools.combinations(ids, left) if left > 1 else zip(ids)
            out.extend(map(add, itertools.repeat(prefix), tails))
        return tuple(out)

    def member(self, j: int) -> tuple[int, ...]:
        """members[j]; until `members` is built, a bisect of the block offsets and
        an index (left = 1) or a skip over the block's tails, at most its expansion."""
        if "members" in self.__dict__:
            return self.members[j]
        offset, prefix, left, start, in_heavy = self.blocks[
            bisect_right(self.blocks, j, key=itemgetter(0)) - 1]
        ids = (self.heavy if in_heavy else range(self.n))[start:]
        if left == 1:
            return prefix + (ids[j - offset],)
        return prefix + next(itertools.islice(itertools.combinations(ids, left), j - offset, None))

    @cached_property
    def column_masks(self) -> list[int]:
        return _block_masks(self.n, self.heavy, self.blocks, self.count)

    def runs(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """The members as runs (P, B, i0), in order, for a family of size
        >= 1: the members P + (b,) for each vertex b of the mask B, lowest
        first, starting at member index i0. A block with left = 1 is one
        run over ids[start:]. A block with left >= 2 gives one run per head
        of combinations(ids[start:-1], left - 1), over the ids after the
        head. The ids after v are the bits of the id mask above v."""
        spaces = (range(self.n), self.heavy)
        masks = ((1 << self.n) - 1, _set_mask(self.heavy))
        for offset, prefix, left, start, in_heavy in self.blocks:
            ids, space = spaces[in_heavy], masks[in_heavy]
            if left == 1:
                yield prefix, space >> ids[start] << ids[start], offset
                continue
            for head in itertools.combinations(ids[start:-1], left - 1):
                B = space >> head[-1] + 1 << head[-1] + 1
                yield prefix + head, B, offset
                offset += B.bit_count()


def _block_masks(n: int, heavy: Sequence[int],
                 blocks: Sequence[tuple[int, tuple[int, ...], int, int, bool]],
                 count: int) -> list[int]:
    """Column masks of `count` members laid out as `blocks` (see
    `CandidateFamily`): masks[u] has bit j when u is in member j, for u < n.

    - Each prefix vertex of a block takes the block's whole index range, one
      OR per prefix vertex.
    - A left = 1 block gives ids[i] the bit offset + i - start for each
      i >= start: a diagonal. It enters a running sum over the ids as
      1 << (offset - start + len(ids)), at index start; at index i the sum
      shifted right by len(ids) - i holds the bits of every diagonal begun
      so far. Blocks are disjoint, so no two diagonals of one sum share a
      bit.
    - The tails combinations(ids[start:], left) of a left >= 2 block are,
      over local indices, a suffix of combinations(range(L), left) for the
      longest L any block of that `left` draws from: the last
      C(len(ids) - start, left) of them, on the last len(ids) - start
      local indices. So one `_tail_masks(L, left)` serves every such
      block: shifted down past the members it drops, then up to the
      block's offset.
    So a block costs one OR per prefix vertex, plus one shift pair per tail
    id when left >= 2; the diagonals cost n + len(heavy) shifts, and each
    tail size its `_tail_masks` once. `ColumnList.column_masks` sets one
    bit per member vertex instead, or lists one index per member vertex
    for `_index_mask`.
    """
    masks = [0] * n
    spaces = (range(n), heavy)
    # longest[left]: the most ids a tail of that size draws from
    longest: dict[int, int] = {}
    for _, _, left, start, in_heavy in blocks:
        if left > 1:
            longest[left] = max(longest.get(left, 0), len(spaces[in_heavy]) - start)
    tails = {left: _tail_masks(size, left) for left, size in longest.items()}
    # enters[in_heavy][i]: the diagonals that begin at index i
    enters = ([0] * n, [0] * len(heavy))
    ends = itertools.chain((block[0] for block in blocks[1:]), (count,))
    for (offset, prefix, left, start, in_heavy), end in zip(blocks, ends):
        span = ((1 << (end - offset)) - 1) << offset
        for v in prefix:
            masks[v] |= span
        ids = spaces[in_heavy]
        if left == 1:
            enters[in_heavy][start] |= 1 << (offset - start + len(ids))
            continue
        size, most = len(ids) - start, longest[left]
        drop = comb(most, left) - comb(size, left)
        for v, tail in zip(ids[start:], tails[left][most - size:]):
            masks[v] |= tail >> drop << offset
    for ids, enter in zip(spaces, enters):
        diagonals = itertools.accumulate(enter, or_)
        for v, bits in zip(ids, map(rshift, diagonals, range(len(ids), 0, -1))):
            masks[v] |= bits
    return masks


def _tail_masks(size: int, left: int) -> list[int]:
    """Column masks of combinations(range(size), left), for left >= 2: one
    block per first element a, with prefix (a,) and tails of left - 1."""
    blocks, offset = [], 0
    for a in range(size - left + 1):
        blocks.append((offset, (a,), left - 1, a + 1, False))
        offset += comb(size - 1 - a, left - 1)
    return _block_masks(size, (), blocks, offset)


@dataclass(frozen=True)
class ColumnList:
    """Columns given as a sequence of member tuples, with the views of a
    `CandidateFamily` that `pair_join` reads: `member(j)`, `members`, len()
    and `column_masks`, built on first use, then kept.

    Each member vertex ORs in its column's bit, which copies an int as wide
    as the column index. When the vertices are in 128 or more columns on
    average, each vertex's column indices are listed first instead, each
    once even where a column repeats the vertex (as a matching column of
    two edges with a shared end does), and `_index_mask` builds its mask
    once, in time linear in the column count: 2.3-2.7x faster on the
    triangle columns of a dominating clique at k = 6 on dense graphs (set
    `dense-clique` of `bench/bench_solve.py`), slower below 128 per vertex."""

    n: int
    members: Sequence[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.members)

    def member(self, j: int) -> tuple[int, ...]:
        return self.members[j]

    @cached_property
    def column_masks(self) -> list[int]:
        if sum(map(len, self.members)) < 128 * self.n:
            masks = [0] * self.n
            for j, T in enumerate(self.members):
                for u in T:
                    masks[u] |= 1 << j
            return masks
        columns: list[list[int]] = [[] for _ in range(self.n)]
        for j, T in enumerate(self.members):
            for u in T:  # a vertex T repeats gets j once
                L = columns[u]
                if not L or L[-1] != j:
                    L.append(j)
        return list(map(_index_mask, columns))


class _ColumnGaps(dict):
    """gaps[v]: the columns of `cols` that hold v or a vertex outside
    allowed(v), built the first time v is looked up, by the cheaper of two
    counts: an OR of the column masks of the vertices outside allowed(v),
    or, as every column holds t distinct vertices, all but the columns
    that the vertices inside it hold t times (a saturating count of about
    t steps a vertex)."""

    def __init__(self, cols: CandidateFamily | ColumnList, allowed: Callable[[int], int]):
        super().__init__()
        self.contains, self.allowed = cols.column_masks, allowed
        self.t, self.full = len(cols.member(0)) if len(cols) else 0, (1 << len(cols)) - 1
        self.vfull = (1 << len(self.contains)) - 1

    def __missing__(self, v: int) -> int:
        inside = self.allowed(v)
        outside = self.vfull ^ inside
        if self.t * (size := inside.bit_count()) < outside.bit_count():
            # few inside vertices are read by their bits, not by an
            # n-character selector: the same masks, in the same order. A
            # bit costs O(n / 64) words and the selector O(n) in all; timed
            # at t = 3, they cross near n / 16 inside vertices up to
            # n = 500, then at a count that grows slowly (100 at n = 5,000,
            # 180 at 50,000), so below min(n, 512) / 16 the bits are cheaper
            masks = (map(self.contains.__getitem__, iter_bits(inside))
                     if 16 * size < min(len(self.contains), 512)
                     else itertools.compress(self.contains, _bit_flags(inside)))
            ok = _at_least(masks, self.t, self.full)
            gap = self.full ^ ok[self.t]
        else:
            gap = reduce(or_, itertools.compress(self.contains, _bit_flags(outside)), 0)
        self[v] = gap = gap | self.contains[v]
        return gap


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int) -> bytes:
    """Entry i is bit i of `mask`, for i below its bit length: a selector
    for `itertools.compress`."""
    return f"{mask:b}"[::-1].encode().translate(_BIT_FLAGS)


class KPartiteGraph:
    """k-partite graph with cross-part adjacency stored as bit rows.

    adj[i][a][j] is the bitmask over part j of neighbours of vertex a in
    part i. Intra-part edges and negative part sizes are refused with a
    ValueError.
    """

    __slots__ = ("sizes", "adj")

    def __init__(self, sizes: Sequence[int], edges: Iterable[tuple[tuple[int, int], tuple[int, int]]]):
        self.sizes = tuple(sizes)
        if min(self.sizes, default=0) < 0:
            raise ValueError(f"part sizes must be nonnegative, got {min(self.sizes)}")
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
    what the vertices violate: the first vertex dominated too few times, then
    the shape (`_shape_error`). Domination is counted from the adjacency
    lists of the solution's vertices, in O(n + their degrees) time, with no
    vertex mask. A pattern above MAX_PATTERN_SIZE raises PatternTooLargeError."""
    if problem.kind == "pattern":
        check_pattern_size(problem.k)
    S = tuple(sorted(vertices))
    if len(set(S)) != len(S):
        return "duplicate vertices in solution"
    if len(S) != problem.k:
        return f"solution has {len(S)} vertices, expected k={problem.k}"
    if any(v < 0 or v >= G.n for v in S):
        return "vertex id out of range"
    kind = problem.kind
    r = problem.r if kind in VARIANTS else 1
    # hits[v]: the solution's vertices in N(v), and then in N[v]
    hits = [0] * G.n
    for v in itertools.chain.from_iterable(map(G.adj.__getitem__, S)):
        hits[v] += 1
    for s in S:
        # under "multiple" the solution's own vertices are exempt
        hits[s] = r if kind == "multiple" else hits[s] + 1
    for v, h in enumerate(hits):
        if h < r:
            if kind in VARIANTS:
                return f"vertex {v} has {h} < {r} dominators"
            return f"vertex {v} is not dominated"
    return _shape_error(G, problem, S)


def _shape_error(G: Graph, problem: Problem, S: tuple[int, ...]) -> str | None:
    """None when S, with no vertex repeated, induces the shape `problem` asks
    for (a clique, an independent set, a perfect matching, or the pattern up
    to isomorphism), else a message naming what S violates. Domination is not
    checked; multiple and tuple have no shape."""
    kind, k = problem.kind, problem.k
    if kind in VARIANTS:
        return None
    if len(set(S)) != len(S):
        return "duplicate vertices in solution"
    if kind == "clique":
        if all(G.has_edge(u, v) for u, v in itertools.combinations(S, 2)):
            return None
        return "solution does not induce a clique"
    induced = [(u, v) for u, v in itertools.combinations(S, 2) if G.has_edge(u, v)]
    if kind == "indepset":
        if induced:
            u, v = induced[0]
            return f"solution vertices {u},{v} are adjacent"
        return None
    if kind == "matching":
        # k/2 edges that touch all k vertices touch each exactly once
        if len(induced) != k // 2 or len(set(itertools.chain.from_iterable(induced))) != k:
            return "solution does not induce a perfect matching"
        return None
    pos = {v: i for i, v in enumerate(S)}
    local = frozenset((pos[u], pos[v]) for u, v in induced)
    if not _edge_sets_isomorphic(k, local, problem.pattern_edges):
        return "induced subgraph is not isomorphic to the pattern"
    return None


def verify_solution(G: Graph, problem: Problem, vertices: Sequence[int]) -> bool:
    """Direct definition check of the variant/pattern condition."""
    return diagnose_solution(G, problem, vertices) is None


def _family_shapes(k: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(size, heavy quota) of the row and the column family for (k, r); a
    ValueError for r outside 1..k-1."""
    check_r_window(r, k, below_k=True)
    return ((k - r + 1) // 2 + r // 2, r // 2), ((k - r) // 2 + (r + 1) // 2, (r + 1) // 2)


def closed_form_family_size(n: int, n_heavy: int, size: int, quota: int) -> int:
    """Number of size-subsets of n vertices with at least `quota` of the
    `n_heavy` heavy ones: the nonzero terms j >= quota of C(h, j) * C(n - h, size - j)."""
    return sum(comb(n_heavy, j) * comb(n - n_heavy, size - j)
               for j in range(max(quota, size - (n - n_heavy)), min(size, n_heavy) + 1))


def build_candidate_families(G: Graph, k: int, r: int) -> tuple[CandidateFamily, CandidateFamily]:
    """The two families whose disjoint unions cover every k-set with >= r
    heavy vertices: sizes ceil((k-r)/2)+floor(r/2) and floor((k-r)/2)+ceil(r/2),
    with heavy quotas floor(r/2) and ceil(r/2).

    Each family is built by `_candidate_family`. When k and r are both even
    the two families are equal, and one `CandidateFamily`, with its masks,
    serves both.
    """
    shape_s, shape_t = _family_shapes(k, r)
    heavy = heavy_vertices(G, k)
    fam_s = _candidate_family(G.n, heavy, *shape_s)
    if shape_t == shape_s:
        return fam_s, fam_s
    return fam_s, _candidate_family(G.n, heavy, *shape_t)


def _candidate_family(n: int, heavy: tuple[int, ...], size: int, quota: int) -> CandidateFamily:
    """The size-subsets of range(n) with at least `quota` ids of the sorted
    `heavy`, in lexicographic order, the order of a filtered
    `combinations(range(n), size)` scan, built by a depth-first walk over
    prefixes. With q heavy vertices still owed and `left` places to fill, a
    prefix takes its next vertex v only while at least q heavy ids are >= v,
    so every prefix leads to a member. Once q = 0 every tail is a
    `combinations` of the ids after the prefix, and once left = q of the
    heavy ids after it; each such prefix is recorded as one block of the
    family (see `CandidateFamily`), with its member count, and no member
    tuple is built. The cost is O(n) plus one step per prefix walked, at
    most (members kept) x size, not C(n, size), with no sort.
    """
    h = len(heavy)
    is_heavy = bytearray(n)
    for v in heavy:
        is_heavy[v] = 1
    count = 0
    blocks = []
    # (prefix, start, left, q), popped in lexicographic order of prefix;
    # for every entry at least q heavy ids are >= start
    stack = [((), 0, size, quota)] if quota <= h else []
    while stack:
        prefix, start, left, q = stack.pop()
        if q <= 0:
            blocks.append((count, prefix, left, start, False))
            count += comb(n - start, left)
        elif left == q:
            first = bisect_left(heavy, start)
            blocks.append((count, prefix, left, first, True))
            count += comb(h - first, left)
        else:
            # the last v with q heavy ids >= v is heavy[h - q]
            stop = min(n - left, heavy[h - q]) + 1
            stack.extend((prefix + (v,), v + 1, left - 1, q - is_heavy[v])
                         for v in reversed(range(start, stop)))
    return CandidateFamily(size, quota, count, n, heavy, tuple(blocks))


def _near_columns(G: Graph, heavy: tuple[int, ...], k: int, r: int,
                  variant: str) -> list[tuple[int, ...]] | None:
    """The members T of the column family of (k, r) that can be part of a
    solution, in family order. None for a column shape other than
    |T| = quota + 1 with L = r - (k - |T|) >= 1, and as soon as r times the
    columns kept exceeds n: past that bound `pair_join` reads no short set
    ("Column short sets"), and its `below[v]` walk drops the same columns.

    A solution's row has k - |T| vertices, so every vertex outside the
    solution takes at least L dominators from T. T is kept when its short
    set, the vertices it leaves below level L, has at most k - |T| vertices
    under "multiple" (they must be the row's, which T does not exempt), and
    none under "tuple", where every vertex has r closed dominators in the
    solution.

    Every member is a quota-set Q of heavy ids plus one vertex c. A vertex
    w that Q leaves short stays short unless c is in N[w] and Q gives w
    exactly L - 1, or c = w under "multiple". One saturating count of those
    misses, capped at one past the allowance, gives every valid c for Q at
    once. A member with every vertex heavy has several such Q; it is built
    only from its lowest quota ids, where c is light or a heavy id above
    Q's, so each member is built once. The members are then sorted into
    family order.
    """
    size, quota = _family_shapes(k, r)[1]
    level = r - (k - size)
    if size - quota != 1 or level < 1:
        return None
    multiple = variant == "multiple"
    allowed = k - size if multiple else 0
    vfull = G.full_mask()
    heavy_mask = _set_mask(heavy)
    found: list[tuple[int, ...]] = []
    for Q in itertools.combinations(heavy, quota):
        lev = _levels(G, Q, level, multiple)
        short, rescuable = vfull ^ lev[level], lev[level - 1]
        misses = (vfull ^ G.closed_mask(w) if rescuable >> w & 1
                  else vfull ^ 1 << w if multiple else vfull for w in iter_bits(short))
        failed = _at_least(misses, allowed + 1, vfull)[allowed + 1]
        valid = vfull & ~(failed | heavy_mask & (2 << Q[-1]) - 1)
        found.extend(tuple(sorted(Q + (c,))) for c in iter_bits(valid))
        if r * len(found) > G.n:
            return None
    return sorted(found)


def near_partners(G: Graph, miss: int, alive: int | None = None,
                  dominating: list[int] | None = None) -> list[int]:
    """near[a]: the bitmask of the vertices b != a of the vertex mask `alive`
    (default V) that leave at most `miss` vertices of `alive` outside
    N[a] ∪ N[b]; 0 for every a outside `alive`. With miss = 0 these are a's
    dominating partners in the subgraph `alive` induces, by their ids in G.
    A list `dominating` of n zeros gets those partners, the near pairs that
    leave no vertex out, from the same scan.

    With s(v) = |N[v] ∩ alive| and d(v) the closed degree, s(v) <= d(v),
    equal when `alive` is V. A pair needs s(a) + s(b) >= |alive| - miss, so
    its vertex of larger s has 2·s >= |alive| - miss. Only those vertices
    start a scan, and s is counted only where d passes that test first. A
    start a tests the partners b with d(b) >= |alive| - miss - s(a), a
    suffix of the alive vertices sorted by d, then id, once per pair. Both
    degree filters are `Graph.degree_at_least`; until G keeps its list of
    high-degree vertices, a `max` over the degrees comes first. When no d
    passes, every mask is 0 and no vertex mask is built.
    """
    return _near_partners(G, miss, alive, dominating)[0] or [0] * G.n


def _near_partners(G: Graph, miss: int, alive: int | None,
                   dominating: list[int] | None = None) -> tuple[list[int] | None, list[int]]:
    """(`near_partners`, the vertices scanned in increasing order), or
    (None, []) when no vertex starts a scan; near is 0 off the scanned."""
    full = G.full_mask() if alive is None else alive
    need = full.bit_count() - miss
    if G._high is None and 2 * (max(map(len, G.adj), default=0) + 1) < need:
        return None, []
    # starts[v] = N[v] ∩ alive, for the vertices whose d passes first
    starts = {v: nv for v in G.degree_at_least(-(-need // 2) - 1)
              if full >> v & 1 and 2 * (nv := G.closed_mask(v) & full).bit_count() >= need}
    if not starts:
        return None, []
    near = [0] * G.n
    # only the alive vertices some start can pair with, d >= low, are sorted
    # and need a mask; every start is among them
    low = need - max(map(int.bit_count, starts.values()))
    scanned = [v for v in G.degree_at_least(low - 1) if full >> v & 1]
    order = sorted(scanned, key=lambda v: len(G.adj[v]))
    ordered = [len(G.adj[v]) + 1 for v in order]
    masks = [G.closed_mask(v) & full for v in order]
    for a, na in starts.items():
        lo = bisect_left(ordered, need - na.bit_count())
        for b, nb in zip(order[lo:], masks[lo:]):
            # a pair of two starts is tested from its larger id
            if b >= a and b in starts:
                continue
            out = full ^ (na | nb)
            if out.bit_count() <= miss:
                near[a] |= 1 << b
                near[b] |= 1 << a
                if not out and dominating is not None:
                    dominating[a] |= 1 << b
                    dominating[b] |= 1 << a
    return near, scanned


def _near_rows(near: Sequence[int], heavy: int, size: int, quota: int,
               full: int) -> Iterator[tuple[int, ...]]:
    """The size-subsets of the vertices in `full` that hold at least `quota`
    ids of the vertex mask `heavy` and are cliques of the graph `near`,
    lazily and in lexicographic order.

    An explicit stack of (prefix, candidates, heavy still owed): the
    candidates are the vertices above the prefix's last that are near every
    prefix vertex. A child is tried while left - 1 candidates lie above it,
    and kept only while it owes no more heavy vertices than it has places
    left and its candidates still hold enough vertices, and enough heavy
    ones, to finish a row. Rows of two or more start only at a vertex with
    a near partner. `_range_cliques` lists the transversal cliques of a
    `KPartiteGraph` as these rows, with heavy = quota = 0.
    """
    stack = [((), full if size == 1 else full & reduce(or_, near, 0), quota)]
    while stack:
        prefix, cands, owed = stack.pop()
        left = size - len(prefix)
        if left == 1:
            last = cands if owed <= 0 else cands & heavy if owed == 1 else 0
            yield from map(add, itertools.repeat(prefix), zip(iter_bits(last)))
            continue
        children = []
        for v in itertools.islice(iter_bits(cands), max(0, cands.bit_count() - left + 1)):
            rest = cands >> (v + 1) << (v + 1) & near[v]
            still = owed - (heavy >> v & 1)
            if (still < left and rest.bit_count() >= left - 1
                    and (rest & heavy).bit_count() >= still):
                children.append((prefix + (v,), rest, still))
        stack.extend(reversed(children))


def _levels(G: Graph, X: Sequence[int], r: int, multiple: bool) -> list[int]:
    """`_at_least` over the members X, capped at r: entry c holds the
    vertices X dominates at least c times, by open neighbourhoods with X's
    own vertices in every level when `multiple`, else by closed ones."""
    if multiple:
        own = _set_mask(X)
        return [m | own for m in _at_least(map(G.neighbor_mask, X), r, G.full_mask())]
    return _at_least(map(G.closed_mask, X), r, G.full_mask())


def _at_least(masks: Iterable[int], r: int, full: int) -> list[int]:
    """Saturating bit-sliced count of `masks`: entry b (0 <= b <= r) has the
    bits set in at least b of them, so entry 0 is `full`."""
    if r == 1:
        return [full, full & reduce(or_, masks, 0)]
    if r == 2:
        one = two = 0
        for m in masks:
            two |= one & m
            one |= m
        return [full, full & one, full & two]
    if r == 3:
        one = two = three = 0
        for m in masks:
            three |= two & m
            two |= one & m
            one |= m
        return [full, full & one, full & two, full & three]
    ge = [full] + [0] * r
    for m in masks:
        for b in range(r, 0, -1):
            ge[b] |= ge[b - 1] & m
    return ge


def _hold_masks(misses: Sequence[Sequence[int]], s: int, prefix: int) -> tuple[int, int]:
    """(hold, always) for the rows P + (b,) of s vertices of the vertex mask
    `prefix` = P, where misses[j][s] (`_column_misses`) is column j's short
    set Z. Z fits the row when Z ⊆ P ∪ {b}. `hold` has bit b when some Z
    fits that row (-1: every b), and `always` holds the columns no row fits."""
    hold = always = 0
    for j, miss in enumerate(misses):
        out = miss[s] & ~prefix
        if not out:
            hold = -1
        elif out & out - 1:
            always |= 1 << j
        else:
            hold |= out
    return hold, always


def _column_misses(G: Graph, T: Sequence[int], r: int, multiple: bool) -> list[int]:
    """misses[c]: the vertices T gives fewer than r - c dominators, for
    c < r, its own exempt under "multiple". `_at_least` entry c does not
    depend on its cap, so misses[s] is T's short set for rows of s vertices."""
    full = G.full_mask()
    return [full ^ m for m in _levels(G, T, r, multiple)[:0:-1]]


def pair_join(G: Graph, rows: CandidateFamily | Iterable[tuple[tuple[int, ...], int, int]],
              cols: CandidateFamily | ColumnList | Sequence[tuple[int, ...]],
              r: int, variant: str, stats: dict | None = None,
              allowed: Callable[[int], int] | None = None,
              ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every member pair (S, T), S a row and T a column, that is disjoint and
    whose union dominates every vertex at least r times under `variant`.

    `rows` is a `CandidateFamily`, walked by its `runs()`, or any iterable
    of runs (below), a generator included, `()` when there is none. It is
    walked once, and only as far as the consumer reads pairs, so a caller
    that stops at the first pair never builds the runs after its row. `cols` is a
    `CandidateFamily` or a `ColumnList`, and a plain sequence of member
    tuples is wrapped as a `ColumnList` on entry. The join reads only its
    `member(j)`, `members`, len() and lazy `column_masks`, fetched when the
    first row is drawn. Member tuples are built when the column short sets
    are read, or for pairs: the first pair's column alone; later pairs
    expand the family once.

    "multiple" counts open-neighborhood dominators and exempts the union's own
    vertices; "tuple" counts closed-neighborhood dominators at every vertex.
    With r = 1 the tuple variant is plain domination. For r > 1 a member's
    vertices must be distinct.

    Pairs come lazily in row-major order, lowest column index first within a
    row: the order of a nested scan over rows, then cols. S is the row as
    drawn, so a consumer holds no row but the last. A row's gap masks are
    the columns that meet it (the disjointness rule), then, for each vertex
    v the row leaves at level c < r, the columns that give v fewer than
    r - c dominators. The row ORs them into `seen`, stopping once `seen`
    holds every column, and yields the columns left over. Those column
    masks of v (`below[v]`) are built the first time a row draws v, so
    vertices no row leaves short cost nothing.

    Runs. Rows come only as runs (P, B, i0): the rows P + (b,) for each
    vertex b of the non-zero mask B, lowest first, the first of them at
    row index i0 (read only by the self-join). Each run is a new prefix,
    with its own prefix state and certificate, even when the run before
    it had the same P.

    Levels per prefix. The loop keeps, for the run's prefix P, the OR of
    the column masks of P's members and levels(P): entry c holds the
    vertices P dominates at least c times (plus P's own vertices under
    "multiple"), capped at r. The empty prefix of size-1 rows has
    [V, 0, ...]. A walked row's levels are one saturating step from P's:
    lev[c] = lp[c] | lp[c - 1] & m, with m = N[b] under "tuple" and
    m = N(b) under "multiple", where bit b then joins every level. So each
    run builds its levels once, for its certificate and all its rows.

    Row certificate. A vertex w outside N[b] gets the same level from
    S = P + (b,) as from P, in both variants: b neither dominates w nor,
    under "multiple", exempts it. So each gap mask that P gives such a w is
    a gap mask of S too, as are the columns meeting P. Let K be vertices
    short under P whose gap masks under P and the columns meeting P cover
    every column, and `hit` the OR of N[w] over w in K: the b whose N[b]
    meets K. A row P + (b,) with b outside `hit` has no pair, and
    `B &= hit` drops every such row of a run with one AND. K_P takes P's
    short vertices lowest level first (widest gap masks), then lowest
    degree (few N[b] meet them), then lowest id. A cover costs about one
    row walk, so only when hit(K_P) leaves two or more rows of the run is
    K'_P built from the short vertices after K_P, in that order, and
    hit(K_P) & hit(K'_P) kept. A run of two or more rows is certified
    before its first row, or, in a held join (below), whose hold mask
    already drops rows, before its second. One-row runs, runs with no
    K_P, and size-1 rows (empty P) are walked.

    Self-join. When `rows` is `cols`, a family joined with itself, each
    unordered pair is yielded once: a row skips the columns below its own
    index, and K'_P covers those below its run's first row. K_P does not,
    so it, and the choice to build K'_P, are the plain join's, and K'_P is
    a prefix of the plain one: a self-join walks a subset of its rows.
    Such a pair was already met as its mirror, when the earlier member was
    the row, so the first pair, and the first appearance of every union,
    are unchanged. Otherwise dropped rows yield nothing and every other row
    is walked unchanged, so the pairs and their order are exactly those of
    the plain walk.

    Column short sets. A row S of s < r vertices pairs with a column T
    only if S holds T's short set Z_T, the vertices T gives fewer than
    r - s dominators (its own exempt under "multiple"): S gives any other
    vertex at most s. Under "tuple" a column with a non-empty Z_T pairs
    with no row, and the rule still holds. When r * len(cols) <= n, the
    join counts each column's levels once, before its first prefix of such
    rows (`_column_misses`, whose entry s is Z_T), and then:
    - Hold mask per prefix. Before a prefix P's first row, one pass over
      the columns ANDs into `hit` the b with Z_T ⊆ P ∪ {b} for some T; the
      other rows of P's runs are dropped. The columns whose Z_T has two
      vertices outside P fit no row of P, so P's certificate counts them
      as covered.
    - Direct check. Each column still live is checked against the same
      `_column_misses` in place of the `below[v]` walk: it fails when a
      vertex S leaves at level c < r gets fewer than r - c dominators from
      it, r ANDs per column. A column whose Z_T ⊄ S fails it too: S leaves
      a vertex v of Z_T outside S at some level c <= s, and T gives v
      fewer than r - s <= r - c dominators.
    The rule is a cost bound, not a tuning value. S leaves every vertex
    outside it short, so the walk may OR up to n - s masks per row and
    build up to n `below[v]`, each from N(v), though it stops once every
    column is seen. With r * len(cols) <= n, the direct check costs at
    most n ANDs per row and builds nothing per vertex; the hold pass costs
    at most n / r steps per prefix, and the short sets one level count per
    column, once. With more columns the direct check can cost more than
    the walk it replaces and the hold pass more than the prefix's own
    levels, so the join walks as above. Each filter drops only pairs that
    fail, so the pairs and their order are unchanged.

    Pair-lemma filter. `allowed`, when given, maps each vertex v to a
    vertex mask, and the join then yields only the pairs with
    T ⊆ allowed(s) for every s in S, in the same order; every column must
    then hold the same number of distinct vertices. A solver passes it
    when any two vertices of a solution are related, as in a clique. The
    columns v rules out, those holding v or a vertex outside allowed(v)
    (`_ColumnGaps`), are built the first time a prefix or a row holds v,
    and stand where the columns meeting v stand without `allowed`: ORed
    once per prefix into what each of its rows skips, and once per row.
    So the certificates count them as covered, and `gap_masks` counts them
    as before. The join binds its per-vertex column lookup once, so an
    unfiltered join pays no step per row for the filter.

    With a `stats` dict, `columns_kept` is set to len(cols), and four
    counters to 0 and then counted as rows are drawn: `rows_drawn`;
    `rows_certified`, the rows a certificate or a hold mask drops;
    `gap_masks`, the gap masks ORed, by walked rows and by certificates
    alike; and `below_built`, the `below[v]` lists built, which only
    certificates build when the short sets are read, so it can be 0. The rows a run drops are counted when the next row is
    walked, and the rest when the run ends, so `rows_drawn` stops at the
    row of the last pair read.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    multiple = variant == "multiple"
    nbr = G.neighbor_mask
    cols = cols if isinstance(cols, (CandidateFamily, ColumnList)) else ColumnList(G.n, cols)
    mirrored = rows is cols
    runs = rows.runs() if isinstance(rows, CandidateFamily) else rows
    full = (1 << len(cols)) - 1
    adj = G.adj
    # below[v][b]: the columns that give v fewer than b dominators
    below: list[list[int] | None] = [None] * G.n
    # one vertex mask per distinct degree, lowest degree first; built by
    # the first certificate
    buckets: list[int] = []
    # with r * len(cols) <= n, rows of size s < r read the columns' short
    # sets: col_miss[j], `_column_misses` of column j, built for every column
    # by the first prefix of such rows
    short_sets = r * len(cols) <= G.n
    col_miss: list[list[int]] = []

    def below_of(v: int) -> list[int]:
        if stats is not None:
            stats["below_built"] += 1
        contains = cols.column_masks
        nbrs = adj[v] if multiple else itertools.chain(adj[v], (v,))
        ge = _at_least(map(contains.__getitem__, nbrs), r, full)
        own = contains[v]
        below[v] = [full ^ (m | own) for m in ge] if multiple else [full ^ m for m in ge]
        return below[v]

    def certificate(P: tuple[int, ...], skipped: int, mirror: int, lp: list[int], rows: int) -> int:
        """`hit` for K_P, ANDed with `hit` for K'_P when K_P leaves two or
        more of the run's `rows`; -1 with no K_P. Each row of the run skips
        the columns of `skipped`, and in a self-join those of `mirror`,
        which only K'_P counts (see "Self-join")."""
        if stats is not None:
            stats["gap_masks"] += len(P)
        if skipped | mirror == full:
            return 0
        if not buckets:
            by_degree: dict[int, int] = {}
            for v, d in enumerate(map(len, adj)):
                by_degree[d] = by_degree.get(d, 0) | 1 << v
            buckets.extend(by_degree[d] for d in sorted(by_degree))
        covered, hit, first = skipped, 0, -1
        for c in range(r):
            short = lp[c] ^ lp[c + 1]
            for bucket in buckets:
                ws = bucket & short
                if not ws:
                    continue
                for w in iter_bits(ws):
                    covered |= (below[w] or below_of(w))[r - c]
                    hit |= G.closed_mask(w)
                    if stats is not None:
                        stats["gap_masks"] += 1
                    if covered == full:
                        rows &= hit
                        if not rows & rows - 1:
                            return first & hit
                        # K'_P: the short vertices after K_P, in the same order
                        covered, hit, first, rows = skipped | mirror, 0, hit, 0
                short ^= ws
                if not short:
                    break
        return first

    if stats is not None:
        stats.update(dict.fromkeys(STATS_KEYS[2:], 0), columns_kept=len(cols))

    def walk() -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        members, blocked = None, None
        for P, run, i0 in runs:
            if blocked is None:
                # blocked[u]: the columns a row holding u rules out (without
                # `allowed`, those holding u), fetched when the first row is drawn
                blocked = cols.column_masks if allowed is None else _ColumnGaps(cols, allowed)
            # hit: the rows of P that may pair (-1: all); always: the
            # columns no row of P pairs with
            hit, always = -1, 0
            held = short_sets and len(P) + 1 < r
            if held:
                if not col_miss:
                    col_miss.extend(_column_misses(G, T, r, multiple) for T in cols.members)
                hit, always = _hold_masks(col_miss, len(P) + 1, _set_mask(P))
            pending = bool(P) and hit != 0 and run & run - 1 != 0
            if hit:
                # the columns P rules out, levels(P), and levels(P) one level up
                cp = reduce(or_, map(blocked.__getitem__, P), 0)
                lp = _levels(G, P, r, multiple)
                up = [0] + lp[:-1]
            rest = run  # the rows of the run not yet counted
            while rest:
                # before the run's first row, or before its second when held
                if pending and (not held or rest != run):
                    # a self-joined run skips the columns of earlier rows
                    mirror = (1 << i0) - 1 if mirrored else 0
                    hit, pending = hit & certificate(P, cp | always, mirror, lp, rest & hit), False
                live = rest & hit
                if not live:
                    break
                bit = live & -live
                b = bit.bit_length() - 1
                # the rows of `rest` below b are held or certified
                drawn = rest & (bit << 1) - 1
                rest ^= drawn
                if stats is not None:
                    stats["rows_drawn"] += drawn.bit_count()
                    stats["rows_certified"] += drawn.bit_count() - 1
                seen = cp | blocked[b]
                if mirrored:
                    seen |= (1 << i0 + (run & bit - 1).bit_count()) - 1
                ored = len(P) + 1
                if seen != full:
                    # lev[c] = lp[c] | lp[c - 1] & m, with b exempt under "multiple"
                    if multiple:
                        m, own = nbr(b), 1 << b
                    else:
                        m, own = nbr(b) | 1 << b, 0
                    lev = [x | y & m | own for x, y in zip(lp, up)]
                    if held:
                        # shorts_at[c]: the vertices S leaves at level c
                        shorts_at = [lev[c] ^ lev[c + 1] for c in range(r)]
                        for j in iter_bits(full ^ seen):
                            if any(map(and_, shorts_at, col_miss[j])):
                                seen |= 1 << j
                    else:
                        for c in range(r):
                            short = lev[c] ^ lev[c + 1]
                            while short and seen != full:
                                low = short & -short
                                short ^= low
                                v = low.bit_length() - 1
                                seen |= (below[v] or below_of(v))[r - c]
                                ored += 1
                if stats is not None:
                    stats["gap_masks"] += ored
                if seen != full:
                    S = P + (b,)
                    js = iter_bits(full ^ seen)
                    if members is None:
                        yield S, cols.member(next(js))
                        members = cols.members
                    for j in js:
                        yield S, members[j]
            if rest and stats is not None:
                stats["rows_drawn"] += rest.bit_count()
                stats["rows_certified"] += rest.bit_count()

    return walk()


def solve_multidom_fast(G: Graph, k: int, r: int, variant: str,
                        stats: dict | None = None, threads: int = 1) -> Solution | None:
    """Candidate-family solver: a disjoint pair (S, T) is a solution iff every
    vertex collects at least r domination levels from the two sides.

    The first pair of `pair_join` over the two families, i.e. the first hit
    of a row-major scan, is returned. `_family_shapes` refuses an r outside
    1..k-1, and `pair_join` an unknown variant, with a ValueError.
    Levels are counted with saturation at r; by the identity
    min(r,a)+min(r,b) >= r <=> a+b >= r this decides
    exactly the min-degree >= r condition of the truncated polynomial
    product (modelled by `tests/reference_algebra.py`, which a differential
    test compares with `pair_join`). `threads` is accepted for
    compatibility and has no effect.

    The row family goes to the join as a `CandidateFamily`, so it is
    walked one prefix run at a time and no member tuple is built unless a
    pair is found. When k and r are both even the two families are one
    object, joined with itself: each unordered pair comes once, and the
    first pair is the same.

    At r = k-1 no join runs: `_near_first` walks the near cliques for the
    join's first pair directly.

    For r <= k-2 the columns are cut by a subset lemma. In a solution X,
    a vertex outside X has >= r dominators in X, so a column T of
    t >= k-r+1 members gives it at least L = r - (k-t) >= 1: T leaves at
    most the row's k-t vertices below L, its short set Z_T, under
    "multiple", and none under "tuple" (closed dominators, every vertex),
    and every row that pairs with T holds Z_T. When the column shape
    (t, q) has t = q + 1 and t >= k-r+1, `_near_columns` keeps the columns
    that pass, from the heavy q-sets, while r times them is at most n; past
    that bound, or for another shape, the two families are joined uncut.
    The cut keeps a subsequence, and what it drops has no pair: the first
    hit is the same. With none kept, `None` comes before any row is built.
    Otherwise the rows go to the join as their `CandidateFamily`, and the
    join reads the short sets: a hold mask per prefix drops the rows that
    hold no Z_T, a row skips the columns whose Z_T it lacks, and the few
    columns left are checked against their own levels instead of building
    `below[v]` (`pair_join`, "Column short sets"). The row certificate
    then drops, one prefix run at a time, the rows that pair with no kept
    column. On sparse hub graphs that leaves only the first hit's row to
    walk. A solution dominates V, so it holds a heavy vertex
    (|N[v]|·k >= n): with none, or with k > n, `None` comes before any row
    or column.

    With a `stats` dict, `candidate_family_sizes` holds the sizes of the
    two families before any cut, `columns_kept` the columns the join
    receives, and `rows_drawn` (with `pair_join`'s other counters) counts
    only the rows that reach the join; at r = k-1 only the sizes are set.
    """
    shape_s = _family_shapes(k, r)[0]
    heavy = heavy_vertices(G, k)
    if r == k - 1:
        if stats is not None:
            stats["candidate_family_sizes"] = _family_sizes(G, k, r, heavy)
        near = near_partners(G, k - 2 if variant == "multiple" else 0)
        found = _near_first(G, k, variant, _set_mask(heavy), near)
        return None if found is None else Solution(Problem(variant, k, r), found)
    if not heavy or k > G.n:
        return _first_pair(G, k, r, variant, heavy, (), (), stats)
    cols = _near_columns(G, heavy, k, r, variant)
    if cols is None:
        fam_s, fam_t = build_candidate_families(G, k, r)
        return _first_pair(G, k, r, variant, heavy, fam_s, fam_t, stats)
    rows = _candidate_family(G.n, heavy, *shape_s) if cols else ()
    return _first_pair(G, k, r, variant, heavy, rows, cols, stats)


def _near_first(G: Graph, k: int, variant: str, in_heavy: int,
                near: Sequence[int]) -> tuple[int, ...] | None:
    """The sorted vertices of the first pair the r = k-1 join yields, or
    None: `pair_join` over the rows S, the near cliques of the row family
    (s = k - k//2 vertices, at most one outside the vertex mask `in_heavy`
    of the heavy ids), and the columns T, the near cliques of t = k//2
    heavy ids, keeping the pairs whose column is near every row vertex.
    Here near = `near_partners(G, miss)`, miss = k-2 under "multiple" and 0
    under "tuple". By the pair lemma (a vertex outside a solution X has
    >= k-1 neighbours in X, so N[a] ∪ N[b] misses at most the other k-2
    members for a, b in X, and none under "tuple") this join has the first
    hit of the uncut one.

    Swap lemma. If a heavy g of S lies above some h of T, then
    (S - g + h, T - h + g) is a pair of the same union with a smaller row.
    So in the first pair every heavy id of S lies below min(T). A
    depth-first walk, on an explicit stack, picks S and then T, each in
    increasing ids, T's above S's top heavy id (not its last member, which
    may be the light one): it meets the pairs of that form in join order,
    and the first that is a solution is the join's first pair.

    Under "tuple" every near k-clique is a solution: a vertex two members
    miss would leave them not near. Under "multiple", X is a solution iff
    each vertex outside X misses at most one member, so a vertex two
    members miss is forced into X. A prefix carries `missed`, the vertices
    some member misses, so adding v forces `missed & ~N[v]` with one AND.
    A child is dropped when a forced vertex lies outside its candidates,
    more are forced than places are left, or its candidates cannot fill
    the places with enough heavy ids. Every member after a heavy child lies
    above it, so a heavy child needs left - 1 candidates above it and may
    not lie above the lowest forced vertex; a light last member of S is
    exempt, since T can still take the ids below it. The last member is
    checked at once: the set is a solution when nothing outside it is forced.
    """
    full = G.full_mask()
    cands = full & reduce(or_, near, 0)
    if k > G.n or in_heavy.bit_count() < k - 1 or cands.bit_count() < k:
        return None
    t = k // 2
    miss = [0] * G.n  # miss[v]: the vertices outside N[v], under "multiple"
    if variant == "multiple":
        for v in iter_bits(cands):
            miss[v] = full ^ G.closed_mask(v)
    # (members, candidates for the next one, missed, forced outside the
    # members, places left, light id free); every forced vertex is a candidate
    stack = [(0, cands, 0, 0, k, True)]
    while stack:
        X, cands, missed, out, left, light = stack.pop()
        # a heavy child needs left - 1 candidates above it
        todo = cands
        for _ in range(left - 1):
            todo ^= 1 << todo.bit_length() - 1
        if light and left - 1 == t:
            todo |= cands & ~in_heavy
        if out:
            # a heavy member above the lowest forced vertex would leave it out
            todo &= ((out & -out) << 1) - 1 | (~in_heavy if light else 0)
        if left == 2:
            # the last member u, a heavy id, is the forced vertex if there
            # is one; the first v and u that leave nothing forced win
            while todo:
                bit = todo & -todo
                todo ^= bit
                v = bit.bit_length() - 1
                rest = cands & near[v] & in_heavy
                if t > 1 or in_heavy & bit:
                    rest = rest >> (v + 1) << (v + 1)
                forced = (out | missed & miss[v]) & ~(X | bit)
                if not rest or forced & forced - 1 or forced & ~rest:
                    continue
                missed_v = (missed | miss[v]) & ~(X | bit)
                last = forced or rest
                while last:
                    low = last & -last
                    last ^= low
                    if not missed_v & miss[low.bit_length() - 1]:
                        return tuple(iter_bits(X | bit | low))
            continue
        # children go on the stack highest first, so the lowest is walked first
        left -= 1
        while todo:
            v = todo.bit_length() - 1
            bit = 1 << v
            todo ^= bit
            Xv = X | bit
            forced = (out | missed & miss[v]) & ~Xv
            rest = cands & near[v]
            # every later member lies above v, but T's ids only above S's top
            # heavy id, which a light last member of S does not raise
            if not light or left != t or in_heavy & bit:
                rest = rest >> (v + 1) << (v + 1)
            free = light and left > t and in_heavy & bit
            if light and not free:
                rest &= in_heavy
            if (forced & ~rest or forced.bit_count() > left or rest.bit_count() < left
                    or free and (rest & in_heavy).bit_count() < left - 1):
                continue
            stack.append((Xv, rest, missed | miss[v], forced, left, free))
    return None


def _family_sizes(G: Graph, k: int, r: int, heavy: tuple[int, ...]) -> list[int]:
    """The uncut sizes of the two candidate families of (k, r) on `heavy`,
    from `closed_form_family_size`."""
    return [closed_form_family_size(G.n, len(heavy), *shape) for shape in _family_shapes(k, r)]


def _first_pair(G: Graph, k: int, r: int, variant: str, heavy: tuple[int, ...],
                rows: CandidateFamily | Iterable[tuple[tuple[int, ...], int, int]],
                cols: CandidateFamily | Sequence[tuple[int, ...]], stats: dict | None) -> Solution | None:
    """The solution of the first pair `pair_join` yields over `rows` and
    `cols`, or None. A `stats` dict gets the uncut family sizes of (k, r)
    (`_family_sizes`) and the join's five counters (`pair_join`)."""
    if stats is not None:
        stats["candidate_family_sizes"] = _family_sizes(G, k, r, heavy)
    pair = next(pair_join(G, rows, cols, r, variant, stats=stats), None)
    return None if pair is None else Solution(Problem(variant, k, r), tuple(sorted(pair[0] + pair[1])))


def list_2_dominating_sets(G: Graph, alive: int | None = None) -> list[tuple[int, int]]:
    """All pairs (u, v), u < v, with N[u] ∪ N[v] = V, in lexicographic order.

    With a vertex bitmask `alive`, the pairs of alive vertices that dominate
    every alive vertex: the dominating pairs of the subgraph `alive` induces,
    by their ids in G.

    The pairs are read off `near_partners(G, 0, alive)`, each from the
    partner mask of its smaller vertex, over only the vertices that call
    scanned, in id order, which is already lexicographic: the degree filters
    (one pass over the n degrees in all on a sparse graph), one mask test
    per (start, candidate partner) pair, and the pairs found. With no vertex
    of |N[v]| >= |alive|/2 the answer is empty, and neither a vertex mask
    nor the n partner masks are built.
    """
    near, scanned = _near_partners(G, 0, alive)
    return [(u, v) for u in scanned for v in iter_bits(near[u] >> u << u)]


def build_clique_graph(G: Graph, k: int) -> tuple[KPartiteGraph, list[list[int]]]:
    """k-partite graph whose k-cliques correspond to pairwise-dominating
    k-sets: parts 1..k-1 are copies of the heavy set, part k a copy of V;
    cross edges join distinct originals that form a dominating pair.

    The explicit reference construction: `solve_multidom_kminus1` finds the
    same first clique on partner masks without building this graph, and the
    tests compare the two. Edges are read off one dominating-partner bitmask
    per vertex, so past `near_partners(G, 0)` the cost is O(k^2 * h) plus
    the edges emitted."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    heavy = list(heavy_vertices(G, k))
    labels = [list(heavy) for _ in range(k - 1)] + [list(range(G.n))]
    # partners[u]: the vertices v with N[u] ∪ N[v] = V
    partners = near_partners(G, 0)
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


def _range_cliques(kp: KPartiteGraph, parts: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All transversal cliques (one vertex per listed part, pairwise adjacent),
    lazily, in lexicographic index order over `parts`: no part holds an edge,
    so they are the `_near_rows` cliques of size len(parts) on the parts'
    vertices, numbered part after part in `parts` order."""
    firsts = list(itertools.accumulate((kp.sizes[j] for j in parts), initial=0))
    # the parts' id ranges are disjoint, so summing the shifted rows ORs them
    near = [sum(row[p] << o for p, o in zip(parts, firsts)) for j in parts for row in kp.adj[j]]
    rows = _near_rows(near, 0, len(parts), 0, (1 << firsts[-1]) - 1) if parts else [()]
    for S in rows:
        yield tuple(zip(parts, map(sub, S, firsts)))


def detect_unbalanced_kclique(kp: KPartiteGraph) -> tuple[tuple[int, int], ...] | None:
    """One vertex per part forming a clique, sorted by part, or None: the
    first `_near_rows` clique on the parts' vertices, numbered part after
    part in order of increasing part size (`_range_cliques`). The grouped
    triangle search of Eisenbrand & Grandoni, which pays off only with fast
    matrix multiplication, is a test-side model (`tests/reference_cliquegraph.py`).
    """
    order = sorted(range(kp.k), key=lambda i: (kp.sizes[i], i))
    for first in _range_cliques(kp, order):
        return tuple(sorted(first))
    return None


def solve_multidom_kminus1(G: Graph, k: int, stats: dict | None = None) -> Solution | None:
    """(k-1)-Multiple k-Dominating Set through the clique-graph pipeline.

    A k-clique of the pairwise-domination graph maps to a solution whose
    members are all closed-dominated >= k-1 times. Solutions with a weakly
    dominated member (legal under the V\\S convention, e.g. {a,b,d} in the
    path a-b-c-d) have no clique image, so a candidate-family pass completes
    the search when the clique side comes up empty.

    Every stage reads one heavy set, `heavy_vertices(G, k)`, and one partner
    scan, near = `near_partners(G, k - 2)`, which also lists the dominating
    partners: the near pairs a, b with N[a] ∪ N[b] = V (at k = 2, all of
    near), with no mask test of its own. The
    witness is the first (k-1)-clique S of heavy vertices in that graph, in
    lexicographic order, whose members share a dominating partner v, the
    lowest such: [(i, heavy index of S[i]) ...] + [(k-1, v)]. That is the
    clique `detect_unbalanced_kclique(build_clique_graph(G, k))` returns.
    Its search puts the k-1 heavy parts first, and sorting the heavy half of
    a clique never makes it larger, so the first clique has increasing heavy
    indices and ends at the lowest common partner. No `KPartiteGraph` is
    built.

    With no witness, `_near_first` on the same heavy set and near masks
    returns the first hit of `solve_multidom_fast` at r = k-1, so the
    stages are witness, then search. A `stats` dict gets
    `candidate_family_sizes` only from the search, and nothing after a
    witness.
    """
    problem = Problem("multiple", k, k - 1)  # a ValueError for k < 2
    heavy = heavy_vertices(G, k)
    dom = [0] * G.n
    near = near_partners(G, k - 2, dominating=dom)
    in_heavy = _set_mask(heavy)
    for S in _near_rows(dom, 0, k - 1, 0, in_heavy):
        common = reduce(and_, map(dom.__getitem__, S))
        if common:
            v = (common & -common).bit_length() - 1
            witness = [(i, bisect_left(heavy, a)) for i, a in enumerate(S)] + [(k - 1, v)]
            return Solution(problem, tuple(sorted(S + (v,))), {"clique_witness": witness})
    if stats is not None:
        stats["candidate_family_sizes"] = _family_sizes(G, k, k - 1, heavy)
    found = _near_first(G, k, "multiple", in_heavy, near)
    return None if found is None else Solution(problem, found, {"clique_witness": None})
