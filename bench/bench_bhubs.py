"""Near-column join benchmark: `solve_multidom_fast` where the column family
is cut to its near columns (`multidom._near_columns`) before the join, or
the cut passes n / r columns and the join takes the uncut families.

    python3 bench/bench_bhubs.py                      # writes BENCH_bhubs.json
    python3 bench/bench_bhubs.py --src OTHER/src --out BENCH_bhubs_parent.json

Three sets of graphs, all built from recipes of `tests/golden/make_golden.py`:

- `b-hubs`: the 50 graphs of the sparse-wide benchmark's `b-hubs` group,
  seeds 1-10 and blocks 0-4 (n = 100, five hubs, every other vertex joined
  to three of them), at (k, r) = (5, 3). 10 to 13 columns are kept, at
  most n / r, so the join reads their short sets; every answer is YES.
- `dense`: 30 G(80, 2500), every vertex heavy, at (5, 3): the first heavy
  quota-set already passes n / r columns, so the cut gives up and the join
  walks `below[v]` over the 82,160 columns of the family.
- `ov-near`: the golden `ov-multidom-4` recipe (an ov_to_multidom graph,
  n = 42) at seeds 1-20, at (5, 3) and (6, 4): the cut would keep 28 to 32
  columns, more than n / r, so it gives up and the join walks `below[v]`
  over the families, many rows per solve; every answer is NO.

Each solve is measured in one fresh child process. One solve with a
`stats` dict gives every `STATS_KEYS` counter, the rows walked
(`rows_drawn - rows_certified`) and the answer, which is checked once,
untimed, with `verify_solution` when it is YES (the child exits non-zero
if it does not verify). Then REPEATS timed solves, each on a new `Graph`
of the same edges built outside the timer and after a `gc.collect()`,
give the median and quartiles of the unscaled wall time.
Counters and answers are deterministic; times compare only between runs
on the same host from source paths of equal length (the path length is
recorded).

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records a hash of its `multidom.py`. One case
runs alone as `--case` followed by its JSON (see `_harness.py`).
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

import _harness
from _harness import ROOT

REPEATS = 7
OV_NEAR_SEEDS = range(1, 21)


def cases() -> list[dict]:
    """Every solve measured: its set, recipe name, recipe and problem."""
    sys.path.insert(0, str(ROOT))
    from tests.golden import make_golden

    out = [{"set": "b-hubs", "name": name, "recipe": recipe, "problem": recipe["only"]}
           for name, recipe in make_golden.B_HUBS.items()]
    out += [{"set": "dense", "name": name, "recipe": recipe, "problem": recipe["only"]}
            for name, recipe in make_golden.DENSE_NEAR.items()]
    base = make_golden.INSTANCES["ov-multidom-4"]
    for k, r in ((5, 3), (6, 4)):
        out += [{"set": "ov-near", "name": f"ov-multidom-4-s{seed}", "recipe": dict(base, seed=seed),
                 "problem": ["multiple", k, r]} for seed in OV_NEAR_SEEDS]
    return out


def run_case(case: dict) -> dict:
    """One solve, in this process: its counters, answer and REPEATS timed
    solves."""
    sys.path.insert(0, str(ROOT))
    from domlab.graph import Graph
    from domlab.multidom import STATS_KEYS, solve_multidom_fast, verify_solution
    from tests.golden import make_golden

    G0 = make_golden.build_graph(case["recipe"])
    n, edges = G0.n, list(G0.edges())
    variant, k, r = case["problem"]
    stats: dict = {}
    sol = solve_multidom_fast(Graph(n, edges), k, r, variant, stats=stats)
    if sol is not None and not verify_solution(G0, sol.problem, sol.vertices):
        raise SystemExit(f"{case['name']} at {case['problem']}: {sol.vertices} does not verify")
    out = dict(case, n=n, m=len(edges),
               answer=None if sol is None else list(sol.vertices),
               counters={key: stats[key] for key in STATS_KEYS},
               rows_walked=stats["rows_drawn"] - stats["rows_certified"])
    times_ms = []
    for _ in range(REPEATS):
        G = Graph(n, edges)
        gc.collect()
        start = time.perf_counter()
        solve_multidom_fast(G, k, r, variant)
        times_ms.append((time.perf_counter() - start) * 1000.0)
    return dict(out, **_harness.quartiles("solve_ms", times_ms, 4))


def _span(values: list[int]) -> list[int]:
    return [min(values), max(values)]


def _summary(entries: list[dict]) -> dict:
    out = {}
    for name in dict.fromkeys(e["set"] for e in entries):
        group = [e for e in entries if e["set"] == name]
        medians = [e["solve_ms_median"] for e in group]
        out[name] = {"solves": len(group), "yes": sum(e["answer"] is not None for e in group),
                     "rows_walked": _span([e["rows_walked"] for e in group]),
                     "below_built": _span([e["counters"]["below_built"] for e in group]),
                     "columns_kept": _span([e["counters"]["columns_kept"] for e in group]),
                     "solve_ms_median_of_medians": round(statistics.median(medians), 4),
                     "solve_ms_total_of_medians": round(sum(medians), 3)}
    return out


if __name__ == "__main__":
    sys.exit(_harness.main(
        __file__, __doc__, {"benchmark": "solve_multidom_fast on the near-column path",
                            "repeats": REPEATS}, "multidom.py", cases, run_case, _summary))
