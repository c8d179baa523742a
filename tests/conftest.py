from __future__ import annotations

import itertools
import random

from domlab import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(seed, n: int, p: float) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def dimacs_text(G: Graph) -> str:
    """G as DIMACS text: "p edge n m", then "e u v" per edge, 1-indexed."""
    return f"p edge {G.n} {G.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in G.edges())
