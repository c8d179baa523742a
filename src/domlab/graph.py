"""Immutable sparse-graph core: adjacency lists, neighborhood queries, heavy vertices, file I/O."""

from __future__ import annotations

import gc
import json
import os
import re
from bisect import bisect_left, bisect_right
from functools import wraps
from itertools import compress, islice, repeat
from math import isqrt
from operator import ge
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class GraphFormatError(ValueError):
    """Malformed graph input: bad line, out-of-range vertex id, or self-loop."""


MAX_VERTICES = 10**6
"""Largest vertex count a file header may declare. Loading is O(n + m), so a
header alone could otherwise ask for memory far beyond what the file holds;
a larger count is rejected before anything is allocated."""


def _gc_paused(build):
    """`build` with the cyclic garbage collector off while it runs, if it was
    on, and back on afterwards, also on an error; a nested call changes
    nothing. Only the two adjacency-list builders use it (see `Graph`)."""
    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class Graph:
    """Simple undirected graph stored as one sorted neighbour list per vertex.

    Memory model: construction builds `adj`, where adj[v] lists the
    neighbours of v in increasing order, and counts `m`; the graph keeps
    both: O(n + m) words plus a list header per vertex. The library's
    readers read `adj` and never write to it; `adjacency(v)` hands out a
    tuple copy, so no caller can change the graph through it. A vertex's
    neighbourhood bitmask (read by `neighbor_mask`, `closed_mask` and
    `has_edge`) is built on first use and cached, so memory grows by about
    n/64 words for each vertex a solver asks about, never for the others.
    A build takes O(deg(v) + n) time (`_index_mask`), so a hub of degree
    n/2 costs no time quadratic in n, as the sum of its neighbours' bits
    would. `heavy_vertices(G, k)` keeps its answer per k. The first degree
    query at or above T = max(1, isqrt(2m)) keeps the ids of the vertices
    of degree >= T: at most 2m/T, about √(2m), ints. The graph is
    logically immutable: the caches only hold what a query would compute
    anyway, so a Graph can be shared freely across workers.

    The cyclic garbage collector tracks the n lists, so a held graph adds n
    objects to every full collection (with one G(10^4, 3·10^4) held, 4.2–4.7
    ms against 2.1–2.3 ms for a flat tuple store, on one 2-vCPU host).

    Both builders, the constructor and the loaders' bulk path, run with the
    cyclic garbage collector paused (and restored, also on an error). They
    create one list or set per vertex; with the collector on, those n
    containers set off young collections and promote survivors, which leads
    to full collections whose cost grows with the caller's whole heap, not
    with the graph. None of those containers can form a cycle, so the pause
    leaves nothing for the collector to find. Two caveats: the collector
    state is global to the process, so another thread's collections wait
    until the build ends; and an `edges` iterable is consumed while the
    collector is paused, so the cycles its own code makes are found only at
    the next collection after the build.
    """

    __slots__ = ("n", "m", "adj", "_masks", "_heavy", "_high")

    @_gc_paused
    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        adj = list(map(sorted, nbrs))
        self._store(n, adj, sum(map(len, adj)) // 2)

    @classmethod
    @_gc_paused
    def _from_flat(cls, n: int, flat: list[int]) -> "Graph":
        """Graph on the edges (flat[0], flat[1]), (flat[2], flat[3]), ...: the
        loaders' bulk path. Canonical edges (0 <= u < v < n, the pairs (u, v)
        strictly increasing) fill each adjacency list in order, and are
        checked edge by edge in the same loop that places them; at the first
        edge that breaks the order, and for n < 0, the whole list goes to the
        constructor, which sorts, dedups and names the first bad edge.

        Each edge is compared with the one before it: a repeated u needs a
        larger v; a new u must exceed the previous u and be below its own v.
        From the sentinel (-1, n) before the first edge, every edge placed
        then has 0 <= u < v, and a v >= n fails as an IndexError on its
        adjacency list. That includes a first edge (-1, v) with v > n, the
        one edge the sentinel's repeated-u test lets through."""
        if n >= 0:
            adj: list[list[int]] = [[] for _ in range(n)]
            pu, pv = -1, n
            it = iter(flat)
            try:
                for u, v in zip(it, it):
                    if u == pu:
                        if v <= pv:
                            break
                    elif u < pu or u >= v:
                        break
                    adj[u].append(v)
                    adj[v].append(u)
                    pu, pv = u, v
                else:
                    G = cls.__new__(cls)
                    G._store(n, adj, len(flat) // 2)
                    return G
            except IndexError:  # v >= n
                pass
        it = iter(flat)
        return cls(n, zip(it, it))

    def _store(self, n: int, adj: list[list[int]], m: int) -> None:
        """Keep the sorted adjacency lists `adj`, which hold m edges."""
        self.n, self.m, self.adj = n, m, adj
        self._masks: dict[int, int] = {}
        self._heavy: dict[int, tuple[int, ...]] = {}
        self._high: list[int] | None = None  # see `degree_at_least`

    def degree_at_least(self, t: int, lo: int = 0) -> Iterator[int]:
        """The vertices v >= lo of degree >= t, lazily and in increasing order.

        A t at or above T = max(1, isqrt(2m)) filters `_high`, the at most
        2m/T vertices of degree >= T, listed by the first such query; a
        smaller t scans all n degrees. So a sparse graph, whose thresholds
        lie above T, pays one pass over its n degrees in all."""
        adj, split = self.adj, max(1, isqrt(2 * self.m))
        if t < split:
            return compress(range(lo, self.n), map(ge, map(len, islice(adj, lo, None)), repeat(t)))
        if self._high is None:
            self._high = list(compress(range(self.n), map(ge, map(len, adj), repeat(split))))
        ids = self._high[bisect_left(self._high, lo):]
        return compress(ids, map(ge, map(len, map(adj.__getitem__, ids)), repeat(t)))

    def adjacency(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return tuple(self.adj[v])

    def neighbor_mask(self, v: int) -> int:
        """Bitmask of N(v); built on the first call for v, then cached."""
        mask = self._masks.get(v)
        if mask is None:
            self._check(v)
            mask = self._masks[v] = self._build_mask(v)
        return mask

    def _build_mask(self, v: int) -> int:
        return _index_mask(self.adj[v])

    def closed_mask(self, v: int) -> int:
        return self.neighbor_mask(v) | 1 << v

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return (self.neighbor_mask(u) >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically."""
        for u, nbrs in enumerate(self.adj):
            yield from ((u, v) for v in nbrs if v > u)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(map(tuple, self.adj))))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _index_mask(indices: Sequence[int]) -> int:
    """The bitmask with bit i set for each i of `indices`, which are distinct,
    nonnegative and ascending: O(d + w) time for d indices below
    w = indices[-1] + 1.

    The sum of their bits (their OR, as they are distinct) copies about
    d·w/60 int digits. It is taken while d < 16, or d < 128 and 32·d < w,
    where that stays below 2w and the sum is the faster path. Otherwise a
    buffer of w ASCII digits gets a "1" at each index and is parsed once in
    base 2, which CPython does in linear time: on one 2-vCPU host 3x faster
    than the sum for d = 600, w = 1,200."""
    d = len(indices)
    if d < 16 or 32 * d < min(indices[-1] + 1, 4096):
        return sum(map((1).__lshift__, indices))
    digits = bytearray(b"0") * (indices[-1] + 1)
    for i in indices:
        digits[i] = 49  # b"1"
    return int(digits[::-1], 2)


def heavy_vertices(G: Graph, k: int) -> tuple[int, ...]:
    """`iter_heavy_vertices(G, k)` as a tuple, kept by G per k: at most
    2km/n + k vertices are heavy in all of V."""
    if k not in G._heavy:
        G._heavy[k] = tuple(iter_heavy_vertices(G, k))
    return G._heavy[k]


def iter_heavy_vertices(G: Graph, k: int, alive: int | None = None) -> Iterator[int]:
    """The heavy vertices of the subgraph that the bitmask `alive` (by default
    V) induces, by their ids in G: the v with |N[v] ∩ alive| * k >= |alive|.
    They come lazily and in increasing order, so a caller that stops at a
    vertex tests no later one; a ValueError for k < 1 comes at the call.

    Since |N[v] ∩ alive| <= deg(v) + 1, a degree filter runs first, from
    the lowest alive vertex on (`Graph.degree_at_least`), and only the
    candidates it passes read a mask (none when `alive` is V).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size = G.n if alive is None else alive.bit_count()
    min_degree = -(-size // k) - 1
    # no vertex below the lowest alive one is a candidate (alive = 0 has none)
    lo = 0 if size == G.n else max((alive & -alive).bit_length() - 1, 0)
    candidates = G.degree_at_least(min_degree, lo)
    if size == G.n:  # alive is all of V, where |N[v] ∩ alive| = deg(v) + 1
        return candidates
    return (v for v in candidates
            if (alive >> v) & 1 and (G.closed_mask(v) & alive).bit_count() * k >= size)


def delete_closed_neighborhood(G: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on V \\ N[v] with compacted ids.

    Returns (subgraph, id_map) where id_map[new_id] = original id.

    Library-only: the solvers search the subgraph in place, through an
    `alive` vertex mask over the original ids (see `iter_heavy_vertices`).
    """
    gone = G.closed_mask(v)
    keep = [u for u in range(G.n) if not (gone >> u) & 1]
    new_id = {u: i for i, u in enumerate(keep)}
    edges = [
        (new_id[u], new_id[w])
        for u, w in G.edges()
        if u in new_id and w in new_id
    ]
    return Graph(len(keep), edges), tuple(keep)


def _read_text(source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text()
    if isinstance(source, bytes):
        return source.decode()
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode()
    return data


# the blank and '#' comment lines before the first significant one; the
# class excludes the line boundaries of str.splitlines, which the readers use
_PREAMBLE = re.compile(r"\s*(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*\s*)*")


def load_graph(source) -> Graph:
    """Parse a graph from a path, byte string, or open stream, in the format
    that the first line neither blank nor a '#' comment shows: DIMACS when it
    starts with a letter, else an edge list.

    - edge list: first line "n m", then "u v" per line, 0-indexed, '#' comments.
    - DIMACS: "p edge n m" header, "e u v" lines, 1-indexed, 'c' comments.

    The header's m must equal the number of edge lines, so a truncated file
    is an error. Duplicate and reversed edge lines are deduplicated (and
    still count as lines); self-loops are errors. A header n above
    `MAX_VERTICES` is an error, raised as soon as the header is read.

    Edge-list text of the shape `save_graph` writes ("n m" and then m lines
    "u v", single spaces, "\n" endings, no leading zeros) is read in one bulk
    pass, and its first character, a digit, decides its format alone. Every
    other edge-list text is read line by line; a valid one loads to the same
    Graph, and an invalid one fails with the same error.
    """
    text = _read_text(source)
    start = _PREAMBLE.match(text).end()
    if text[start:start + 1].isalpha():
        return _parse_dimacs(text)
    return _parse_edgelist(text)


def _check_vertex_count(header_line: int, n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"line {header_line}: header declares {n} vertices, more than the limit {MAX_VERTICES}")


def _check_edge_count(header_line: int, m: int, found: int) -> None:
    if found != m:
        raise GraphFormatError(f"line {header_line}: header declares {m} edges, found {found}")


def _edgelist_ints(lineno: int, raw: str) -> list[int] | None:
    """The integers on one edge-list line; None for a blank or comment line."""
    parts = raw.split("#", 1)[0].split()
    if not parts:
        return None
    try:
        return list(map(int, parts))
    except ValueError:
        raise GraphFormatError(f"line {lineno}: not integers: {raw!r}") from None


_DELETE_DIGITS = str.maketrans("", "", "0123456789")


def _canonical_edgelist(text: str) -> tuple[int, list[int]] | None:
    """(n, [u0, v0, u1, v1, ...]) when `text` has the shape `save_graph`
    writes: "n m\n", then exactly m lines "u v\n" of ASCII digits with no
    leading zeros. None for any other text.

    The shape is checked and the 2m integers read in a few passes of C code:
    deleting the digits must leave " \n" m times, and the body, once every
    separator is a comma, is a JSON list of integers."""
    header, newline, body = text.partition("\n")
    if not newline or header.translate(_DELETE_DIGITS) != " ":
        return None
    # digits after the last "\n" would pass the shape check below; a body
    # that ends in "\n" also makes [:-1] below drop a separator, not a digit
    if body and not body.endswith("\n"):
        return None
    try:
        n, m = map(int, header.split(" "))
    except ValueError:  # an empty token, or too many digits to convert
        return None
    if n > MAX_VERTICES:
        return None
    # m copies of " \n" fill a string of length 2m exactly, so the count
    # needs no string whose size a header alone could set
    shape = body.translate(_DELETE_DIGITS)
    if len(shape) != 2 * m or shape.count(" \n") != m:
        return None
    try:
        flat = json.loads("[" + body.replace(" ", ",").replace("\n", ",")[:-1] + "]")
    except ValueError:  # a leading zero, an empty token, or too many digits
        return None
    return n, flat


def _parse_edgelist(text: str) -> Graph:
    canonical = _canonical_edgelist(text)
    if canonical is not None:
        return Graph._from_flat(*canonical)
    n = None
    flat: list[int] = []
    # the first line holding integers is the header; an error names its line
    for lineno, raw in enumerate(text.splitlines(), 1):
        nums = _edgelist_ints(lineno, raw)
        if nums is None:
            continue
        if len(nums) != 2:
            raise GraphFormatError(f"line {lineno}: expected "
                                   + ("header 'n m'" if n is None else "edge 'u v'"))
        if n is None:
            (n, m), header_line = nums, lineno
            _check_vertex_count(header_line, n)
        else:
            flat += nums
    if n is None:
        raise GraphFormatError("empty input: missing 'n m' header")
    _check_edge_count(header_line, m, len(flat) // 2)
    return Graph._from_flat(n, flat)


def _parse_dimacs(text: str) -> Graph:
    n = None
    flat: list[int] = []
    error = None  # the first bad edge line, reported after the edge count
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: second problem line, the first is "
                                       f"line {header_line}: {raw!r}")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"line {lineno}: bad problem line: {raw!r}")
            try:
                n, m, header_line = int(parts[2]), int(parts[3]), lineno
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex or edge count is not an integer: {raw!r}") from None
            _check_vertex_count(header_line, n)
            continue
        if parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before 'p edge' header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: not integers: {raw!r}") from None
            if error is None:
                if not (1 <= u <= n and 1 <= v <= n):
                    error = f"line {lineno}: edge ({u},{v}) out of range 1..{n}"
                elif u == v:
                    error = f"line {lineno}: self-loop at vertex {u}"
            flat += (u - 1, v - 1)
            continue
        raise GraphFormatError(f"line {lineno}: unrecognized line: {raw!r}")
    if n is None:
        raise GraphFormatError("missing 'p edge n m' header")
    _check_edge_count(header_line, m, len(flat) // 2)
    if error is not None:
        raise GraphFormatError(error)
    return Graph._from_flat(n, flat)


def save_graph(G: Graph, target=None) -> str:
    """Serialize as an edge list, edges sorted: the shape `load_graph` reads
    in one bulk pass. Returns the text; writes to `target` (path or stream)
    when given, a path in place (`write_text`)."""
    names = list(map(str, range(G.n)))  # each vertex's decimal name, converted once
    blocks = [f"{G.n} {G.m}"]
    for u, nbrs in enumerate(G.adj):
        if higher := nbrs[bisect_right(nbrs, u):]:
            blocks.append(f"{u} " + f"\n{u} ".join(map(names.__getitem__, higher)))
    text = "\n".join(blocks) + "\n"
    if target is not None:
        write_text(target, text)
    return text


def write_text(target, text: str) -> None:
    """Write `text` to `target`, a path or a text stream; every file domlab
    writes goes through here.

    A path is overwritten in place: opened without O_TRUNC, written from the
    start, then cut to the new length only if it was longer. On ext4
    (default `auto_da_alloc`), closing a truncated and rewritten file starts
    its writeback, and the next truncating open of it waits for that I/O, so
    re-generating the same files stalled for tens of milliseconds each. The
    bytes, the inode, symlink following and an existing file's mode are as
    with a truncating write; a FIFO or /dev/stdout, whose size reads 0, is
    never truncated. Nothing is fsynced. An unwritable path raises OSError."""
    if not isinstance(target, (str, os.PathLike)):
        target.write(text)
        return
    data = text.encode()
    with open(os.open(target, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.flush()
        if os.fstat(fh.fileno()).st_size > len(data):
            fh.truncate(len(data))
