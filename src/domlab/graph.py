"""Immutable sparse-graph core: CSR adjacency, neighborhood queries, heavy vertices, file I/O."""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Malformed graph input: bad line, out-of-range vertex id, or self-loop."""


class Graph:
    """Simple undirected graph stored as compressed sorted adjacency.

    Immutable after construction: all queries are read-only, so a Graph can be
    shared freely across workers.
    """

    __slots__ = ("n", "offsets", "neighbors", "_nbr_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        offsets = [0]
        neighbors: list[int] = []
        for v in range(n):
            neighbors.extend(sorted(adj[v]))
            offsets.append(len(neighbors))
        self.n = n
        self.offsets = tuple(offsets)
        self.neighbors = tuple(neighbors)
        nbr_mask = []
        for v in range(n):
            m = 0
            for u in adj[v]:
                m |= 1 << u
            nbr_mask.append(m)
        self._nbr_mask = tuple(nbr_mask)

    @property
    def m(self) -> int:
        return len(self.neighbors) // 2

    def adjacency(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        self._check(v)
        return self.offsets[v + 1] - self.offsets[v]

    def degstar(self, v: int) -> int:
        """Closed-neighborhood size |N[v]| = deg(v) + 1."""
        return self.degree(v) + 1

    def neighbor_mask(self, v: int) -> int:
        self._check(v)
        return self._nbr_mask[v]

    def closed_mask(self, v: int) -> int:
        self._check(v)
        return self._nbr_mask[v] | 1 << v

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        return (self._nbr_mask[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in self.adjacency(u):
                if v > u:
                    yield (u, v)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.neighbors == other.neighbors and self.offsets == other.offsets

    def __hash__(self) -> int:
        return hash((self.n, self.offsets, self.neighbors))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def closed_neighborhood(G: Graph, v: int) -> tuple[int, ...]:
    """N[v] = N(v) ∪ {v}, sorted."""
    return tuple(sorted(G.adjacency(v) + (v,)))


def heavy_vertices(G: Graph, k: int) -> tuple[int, ...]:
    """Vertices with |N[v]| >= n/k, compared exactly (|N[v]|*k >= n).

    A counting argument bounds the result size by 2km/n + k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return tuple(v for v in range(G.n) if G.degstar(v) * k >= G.n)


def delete_closed_neighborhood(G: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on V \\ N[v] with compacted ids.

    Returns (subgraph, id_map) where id_map[new_id] = original id.
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


def load_graph(source, fmt: str = "edgelist") -> Graph:
    """Parse a graph from a path, byte string, or open stream.

    Formats:
    - edgelist: first line "n m", then "u v" per line, 0-indexed, '#' comments.
    - dimacs: "p edge n m" header, "e u v" lines, 1-indexed, 'c' comments.

    The header's m must equal the number of edge lines, so a truncated file
    is an error. Duplicate and reversed edge lines are deduplicated (and
    still count as lines); self-loops are errors.
    """
    text = _read_text(source)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise ValueError(f"unknown graph format: {fmt!r}")


def _check_edge_count(header_line: int, m: int, edges: list) -> None:
    if len(edges) != m:
        raise GraphFormatError(f"line {header_line}: header declares {m} edges, found {len(edges)}")


def _parse_edgelist(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: not integers: {raw!r}") from None
        if n is None:
            if len(nums) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            n, m, header_line = nums[0], nums[1], lineno
            continue
        if len(nums) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        edges.append((nums[0], nums[1]))
    if n is None:
        raise GraphFormatError("empty input: missing 'n m' header")
    _check_edge_count(header_line, m, edges)
    return Graph(n, edges)


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"line {lineno}: bad problem line: {raw!r}")
            try:
                n, m, header_line = int(parts[2]), int(parts[3]), lineno
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex or edge count is not an integer: {raw!r}") from None
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
            edges.append((u - 1, v - 1))
            continue
        raise GraphFormatError(f"line {lineno}: unrecognized line: {raw!r}")
    if n is None:
        raise GraphFormatError("missing 'p edge n m' header")
    _check_edge_count(header_line, m, edges)
    return Graph(n, edges)


def save_graph(G: Graph, target=None, fmt: str = "edgelist") -> str:
    """Serialize canonically (sorted edges). Returns the text; writes to
    `target` (path or stream) when given."""
    buf = io.StringIO()
    if fmt == "edgelist":
        buf.write(f"{G.n} {G.m}\n")
        for u, v in G.edges():
            buf.write(f"{u} {v}\n")
    elif fmt == "dimacs":
        buf.write(f"p edge {G.n} {G.m}\n")
        for u, v in G.edges():
            buf.write(f"e {u + 1} {v + 1}\n")
    else:
        raise ValueError(f"unknown graph format: {fmt!r}")
    text = buf.getvalue()
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    elif target is not None:
        target.write(text)
    return text
