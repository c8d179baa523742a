from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

from domlab import Graph


def perfbench_workloads():
    """perfbench/workloads.py as a module. It is registered under its name
    before it runs: its dataclass looks its module up by name."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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


def _runs(rows):
    """Tuple rows as `pair_join` runs (P, B, 0), lazily and in row order: a
    run grows while S[:-1] stays the same and S[-1] increases, and any other
    row, a shuffled or repeated one included, starts a new run. A run is
    yielded once the row after it is drawn."""
    P = B = None
    for S in rows:
        if B is not None and S[:-1] == P and S[-1] >= B.bit_length():
            B |= 1 << S[-1]
            continue
        if B is not None:
            yield P, B, 0
        P, B = S[:-1], 1 << S[-1]
    if B is not None:
        yield P, B, 0
