"""Near-column join benchmark: `solve_multidom_fast` where the column family
is cut to its near columns (`multidom._near_columns`) before the join.

    python3 bench/bench_bhubs.py                      # writes BENCH_bhubs.json
    python3 bench/bench_bhubs.py --src OTHER/src --out BENCH_bhubs_parent.json

Three sets of graphs, all built from recipes of `tests/golden/make_golden.py`:

- `b-hubs`: the 50 graphs of the sparse-wide benchmark's `b-hubs` group,
  seeds 1-10 and blocks 0-4 (n = 100, five hubs, every other vertex joined
  to three of them), at (k, r) = (5, 3). 10 to 13 columns are kept, at
  most n / r, so the join reads their short sets; every answer is YES.
- `dense`: 30 G(80, 2500), every vertex heavy, at (5, 3): 79 to 80
  thousand columns are kept, so the join walks `below[v]`.
- `ov-near`: the golden `ov-multidom-4` recipe (an ov_to_multidom graph,
  n = 42) at seeds 1-20, at (5, 3) and (6, 4): 28 to 32 columns, more than
  n / r, so the join walks `below[v]`, many rows per solve; every answer
  is NO. Reading the short sets there cost more than the walk.

Each solve is measured in one fresh child process. One solve with a
`stats` dict gives every `STATS_KEYS` counter, the rows walked
(`rows_drawn - rows_certified`) and the answer. Then REPEATS timed solves,
each on a new `Graph` of the same edges built outside the timer and after
a `gc.collect()`, give the median and quartiles of the unscaled wall time.
Counters and answers are deterministic; times compare only between runs
on the same host from source paths of equal length (the path length is
recorded).

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records a hash of its `multidom.py`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
    from domlab.multidom import STATS_KEYS, solve_multidom_fast
    from tests.golden import make_golden

    G0 = make_golden.build_graph(case["recipe"])
    n, edges = G0.n, list(G0.edges())
    variant, k, r = case["problem"]
    stats: dict = {}
    sol = solve_multidom_fast(Graph(n, edges), k, r, variant, stats=stats)
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
    q1, median, q3 = statistics.quantiles(times_ms, n=4, method="inclusive")
    out.update(solve_ms_median=round(median, 4), solve_ms_q1=round(q1, 4),
               solve_ms_q3=round(q3, 4), solve_ms_iqr=round(q3 - q1, 4))
    return out


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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory whose domlab is measured")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_bhubs.json")
    ap.add_argument("--case", help=argparse.SUPPRESS)  # one JSON case, run in a child process
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    if args.case:
        print(json.dumps(run_case(json.loads(args.case))))
        return 0
    entries = []
    for case in cases():
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src", str(src),
                               "--case", json.dumps(case)],
                              check=True, capture_output=True, text=True)
        entries.append(json.loads(proc.stdout))
        print(proc.stdout.strip(), file=sys.stderr)
    header = {
        "benchmark": "solve_multidom_fast on the near-column path",
        "repeats": REPEATS,
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "python": platform.python_version(),
                 "src_path_len": len(str(src))},
        "multidom_py_sha256": hashlib.sha256((src / "domlab" / "multidom.py").read_bytes()).hexdigest()[:16],
        "summary": _summary(entries),
    }
    # one case per line, so a diff of two files names the solves that moved
    text = json.dumps(header, indent=1)[:-2]
    text += ',\n "cases": [\n' + ",\n".join("  " + json.dumps(e) for e in entries) + "\n ]\n}\n"
    args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
