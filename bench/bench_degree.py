"""Degree-query benchmark: the sparse-wide solves, with the passes each one
makes over the graph's adjacency lists.

    python3 bench/bench_degree.py                      # writes BENCH_degree.json
    python3 bench/bench_degree.py --src OTHER/src --out BENCH_degree_parent.json

The cases are the 28 instances of the sparse-wide workload at seed 1,
blocks 0-3 (`perfbench/workloads.py`): per block two `a-clique` and one
`a-indepset` NO at n = 600, one `b-hubs` YES at n = 100, two
`c-indep-hubs` YES at n = 1,200 and one `d-load` NO at n = 10^4. Each is
drawn by the workload's own seeded generator, with its certified answer,
and measured in one fresh child process.

The child loads the instance's edge-list bytes (the text the workload
solves) and solves it with `patterndom.solve`. Once, untimed, the solve
runs on a graph whose `adj` is a list subclass that counts each iteration
over it (`adj_iterations`: a `map(len, adj)`, `islice(adj, ...)` or
`enumerate(adj)` is one, an index is none), and the child records the
answer, T = max(1, isqrt(2m)) and the length of the graph's kept list of
vertices of degree >= T (`high_listed`, null when no query built it, and
at a tree that has no such list). It exits non-zero when the answer differs
from the certified one or a YES does not verify. Then REPEATS timed
rounds, each after a `gc.collect()`, time a fresh `load_graph` of the
bytes and, straight after it as the benchmark does, the solve, and give
their medians and quartiles. Answers and counters are deterministic;
times compare only between runs on the same host from source paths of
equal length (the path length is recorded).

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records a hash of its `graph.py`. One case runs
alone as `--case` followed by its JSON (see `_harness.py`).
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import _harness
from _harness import ROOT

REPEATS = 9
SEED = 1
BLOCKS = range(4)
SET = "sparse-wide"
sys.path[1:1] = [str(ROOT), str(ROOT / "perfbench")]  # after the measured src, put first by main


class CountingList(list):
    """A list that counts the iterations over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _block(block: int, work: Path) -> list:
    import workloads

    return workloads.WORKLOADS[SET].block(SEED, block, 0, work)


def cases() -> list[dict]:
    """Every solve measured: its set, group, name, block and slot."""
    with tempfile.TemporaryDirectory() as work:
        return [{"set": SET, "group": inst.group, "name": f"{SET}-b{block}-s{slot}",
                 "block": block, "slot": slot}
                for block in BLOCKS for slot, inst in enumerate(_block(block, Path(work)))]


def run_case(case: dict) -> dict:
    """One solve, in this process: the untimed check and counters, then
    REPEATS timed load and solve pairs."""
    with tempfile.TemporaryDirectory() as work:
        inst = _block(case["block"], Path(work))[case["slot"]]
    import workloads
    from domlab import multidom, patterndom
    from domlab.graph import load_graph

    if inst.group != case["group"]:
        raise SystemExit(f"{case['name']}: the workload draws {inst.group}, not {case['group']}")
    G0 = inst.make_graph()
    data = workloads._edge_bytes(G0.n, list(G0.edges()))
    G = load_graph(data)
    G.adj = CountingList(G.adj)
    sol = patterndom.solve(G, inst.problem)
    if (sol is not None) != inst.expected:
        raise SystemExit(f"{case['name']}: the solver answers {sol is not None}, "
                         f"the certified answer is {inst.expected}")
    if sol is not None and not multidom.verify_solution(G0, inst.problem, sol.vertices):
        raise SystemExit(f"{case['name']}: {sol.vertices} does not verify")
    high = getattr(G, "_high", None)
    out = dict(case, n=G0.n, m=G0.m, answer=None if sol is None else list(sol.vertices),
               split=max(1, math.isqrt(2 * G0.m)),
               high_listed=None if high is None else len(high),
               adj_iterations=G.adj.iterations)
    load_ms, solve_ms = [], []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        G = load_graph(data)
        loaded = time.perf_counter()
        patterndom.solve(G, inst.problem)
        end = time.perf_counter()
        load_ms.append((loaded - start) * 1000.0)
        solve_ms.append((end - loaded) * 1000.0)
    return dict(out, **_harness.quartiles("load_ms", load_ms, 4),
                **_harness.quartiles("solve_ms", solve_ms, 4))


def _summary(entries: list[dict]) -> dict:
    """Per group: the solves, YES answers, the adjacency-list iterations per
    solve (each distinct count with its number of solves), and the median
    of the per-solve load and solve medians."""
    out = {}
    for name in dict.fromkeys(e["group"] for e in entries):
        group = [e for e in entries if e["group"] == name]
        out[name] = {"solves": len(group), "yes": sum(e["answer"] is not None for e in group),
                     "adj_iterations": {str(c): sum(e["adj_iterations"] == c for e in group)
                                        for c in sorted({e["adj_iterations"] for e in group})},
                     "load_ms_median_of_medians": round(
                         statistics.median(e["load_ms_median"] for e in group), 4),
                     "solve_ms_median_of_medians": round(
                         statistics.median(e["solve_ms_median"] for e in group), 4)}
    return out


if __name__ == "__main__":
    sys.exit(_harness.main(
        __file__, __doc__, {"benchmark": "degree queries on the sparse-wide solves",
                            "repeats": REPEATS, "seed": SEED}, "graph.py", cases, run_case,
        _summary))
