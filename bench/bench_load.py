"""Graph-load benchmark: `load_graph` on sparse G(n, 3n) edge lists.

    python3 bench/bench_load.py                      # writes BENCH_load.json
    python3 bench/bench_load.py --src OTHER/src --out BENCH_load_parent.json

For each n in NS and each heap, one fresh child process generates the
`save_graph` text of a seeded G(n, 3n) and checks once, untimed, that
`load_graph` of it, and of a copy with every edge reversed and the lines
shuffled (which the bulk path hands to the constructor), equals
`Graph(n, edges)`; the child exits non-zero if not. One more untimed load,
under `tracemalloc`, gives the bytes per edge that the loaded graph holds
and the peak bytes per edge traced during the load. The child then
optionally allocates a ballast of
BALLAST_LISTS live lists (the heap of a caller that holds other data), runs
`gc.collect()`, and times REPEATS loads of the same bytes, with a
`gc.collect()` before each one. During the timed loads a `gc.callbacks`
hook counts the collections of each generation, summed over the loads. The counts are
deterministic for a given Python and source tree; the times compare only
between runs on the same host from source paths of equal length (the path
length is recorded), since both move timings in the repeats' pure-Python
loops.

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records one hash of its `domlab/*.py`. One case runs
alone as `--case '[N, BALLAST]'` (see `_harness.py`).
"""

from __future__ import annotations

import gc
import random
import sys
import time
import tracemalloc

import _harness

NS = (10**3, 10**4, 10**5)
DENSITY = 3            # m = DENSITY * n
BALLAST_LISTS = 300_000
REPEATS = 15
SEED = 1


def sparse_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct random edges (u, v), u < v, on n vertices, sorted."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def edge_text(n: int, edges: list[tuple[int, int]]) -> bytes:
    """The edge list "n m", then "u v" per edge in the order given."""
    return (f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)).encode()


def run_case(case: list[int]) -> dict:
    """One case [n, ballast], in this process: REPEATS timed loads of
    G(n, DENSITY·n)."""
    from domlab.graph import Graph, load_graph

    n, ballast = case
    edges = sparse_edges(n, DENSITY * n, SEED)
    # the `save_graph` text, written here so that the bytes loaded do not
    # depend on the tree measured
    data = edge_text(n, edges)
    scrambled = [(v, u) for u, v in edges]
    random.Random(SEED).shuffle(scrambled)
    expected = Graph(n, edges)
    if load_graph(data) != expected or load_graph(edge_text(n, scrambled)) != expected:
        raise SystemExit(f"n={n}: load_graph differs from Graph(n, edges)")
    del edges, scrambled, expected
    gc.collect()
    tracemalloc.start()
    G = load_graph(data)
    held_bytes, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del G
    held = [[i] for i in range(ballast)]
    counts = {"gen0": 0, "gen1": 0, "gen2": 0}

    def count(phase, info):
        if phase == "start":
            counts[f"gen{info['generation']}"] += 1

    times_ms = []
    for _ in range(REPEATS):
        gc.collect()
        gc.callbacks.append(count)
        start = time.perf_counter()
        G = load_graph(data)
        times_ms.append((time.perf_counter() - start) * 1000.0)
        gc.callbacks.remove(count)
        assert G.m == DENSITY * n
        del G
    return {
        "n": n, "m": DENSITY * n, "heap": "ballast" if ballast else "fresh",
        "ballast_lists": len(held), "loads": REPEATS,
        "held_bytes_per_edge": round(held_bytes / (DENSITY * n), 1),
        "peak_bytes_per_edge": round(peak_bytes / (DENSITY * n), 1),
        "collections_during_loads": counts, **_harness.quartiles("load_ms", times_ms, 3),
    }


if __name__ == "__main__":
    sys.exit(_harness.main(
        __file__, __doc__, {"benchmark": "load_graph of save_graph text, G(n, 3n)",
                            "seed": SEED, "repeats": REPEATS},
        lambda: [[n, ballast] for n in NS for ballast in (0, BALLAST_LISTS)], run_case))
