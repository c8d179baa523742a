"""Solve benchmark: every solve a perf claim rests on, each (graph,
problem) once, with the work counters of its join and its passes over the
adjacency lists.

    python3 bench/bench_solve.py                      # writes BENCH_solve.json
    python3 bench/bench_solve.py --src OTHER/src --out BENCH_solve_parent.json

Ten sets of solves:

- `ov-multidom-no`: the 28 instances of the ov-multidom-no workload at
  seed 1, blocks 0-3 (`perfbench/workloads.py`): 16 `no-r2`, 8 `yes-r2`
  and 4 `no-r3`, multiple domination at k = 4, whose time is the join;
- `certified-mix`: the `hdom-path`, `is-pipeline-no` and `matching-k6`
  instances of the certified-mix workload at seed 1, block 0, solved as
  its command line solves them (the pipeline for is-multidom);
- `sparse-wide`: the sparse-wide workload at seed 1, blocks 0-3, per block
  two `a-clique` and one `a-indepset` NO at n = 600, two `c-indep-hubs`
  YES at n = 1,200 and one `d-load` NO at n = 10^4. Its slot-3 `b-hubs`
  instances are left out: they are `b-hubs-1-0..3` of the next set;
- `b-hubs`: the 50 planted-hub graphs of `tests/golden/make_golden.py`,
  seeds 1-10 and blocks 0-4 (n = 100, five hubs, every other vertex joined
  to three of them), at (k, r) = (5, 3). 10 to 13 near columns are kept,
  at most n / r, so the join reads their short sets;
- `dense`: 30 G(80, 2500), every vertex heavy, at (5, 3): the first heavy
  quota-set already passes n / r columns, so the cut gives up and the join
  walks `below[v]` over the 82,160 columns of the family;
- `ov-near`: the golden `ov-multidom-4` recipe (an ov_to_multidom graph,
  n = 42) at seeds 1-20, at (5, 3) and (6, 4): the cut would keep 28 to 32
  columns, more than n / r, so it gives up and the join walks the families;
- `clique-hub`: `solve_dominating_clique` at k = 5 on
  `planted_hub_graph(Random(s), 300, 5, 4)` for s = 1, 2, whose one join
  pairs clique rows with every edge of a heavy-rich graph;
- `shape-no`: certified NO shape targets, four seeds per group, drawn as
  certified-mix draws its NO sources: `no-dom-clique-k4`, `ov_to_hdom` on a
  clique of 4 solved as a dominating clique, and `no-matching-k4` and
  `no-matching-k6`, `ov_to_induced_matching` at k = 4 and 6. Their joins
  walk clique and matching rows as runs;
- `dense-clique`: `solve_dominating_clique` at k = 6 on the dense
  `_random_gnm(Random(f"dc:{n}:{m}"), n, m)` graphs G(80, 2,500) and
  G(60, 1,500). Their columns, the 40,677 and 20,763 triangles, hold 128
  or more members per vertex on average, so `ColumnList` builds their
  masks from listed column indices;
- `pipeline`: `solve_multidom_kminus1` (`--algo pipeline`) at r = k-1 on
  random `_random_gnm` graphs. Group `no`: G(80, 2,500) and G(100, 4,000)
  at k = 4 and 5, NO instances, which the search rules out before any
  join. Group `fallback-yes`: six YES instances with
  no clique witness, where the search runs and then the join finds the
  first hit, so they carry the search's cost. Each is the first seed
  `pipeline-yes:{n}:{m}:{k}:{s}`, s = 0, 1, ..., whose pipeline answer is
  a YES without a witness, for (n, m, k) = (20, 140, 4), (30, 320, 4),
  (40, 600, 4), (25, 240, 5), (45, 800, 5) and (40, 510, 3).

The workload instances carry the workload's certified answer, and the
`shape-no` sources are drawn until `solve_ov_bruteforce` answers NO. The
other sets pin `want` in the case table: `b-hubs` is YES by construction;
`dense`, `ov-near`, `clique-hub`, `dense-clique` and `pipeline` were pinned
from the solvers (`dense` YES and `ov-near` NO at b96fcdb), as no decider
independent of them reaches these sizes (ROADMAP item 13), so they catch
an answer that moves, not one that was wrong when pinned.

Each solve is measured in one fresh child process. The child builds the
graph and writes its edge-list bytes with `workloads._edge_bytes`, so the
bytes loaded do not depend on the tree measured. One untimed
`solve(G, problem, algo, stats)` of `load_graph` of the bytes
(`counted_solve`) counts:

- `joins`, 1 when the solve ran a join (`stats` holds `rows_drawn`),
  else 0, and the join's `columns_kept`, `rows_drawn`, `rows_certified`,
  `gap_masks` and `below_built`, read from `stats`, 0 without a join;
- `adj_iterations`, the iterations over the graph's `adj` (a
  `map(len, adj)`, `islice(adj, ...)` or `enumerate(adj)` is one, an
  index is none), and `high_listed`, the length of the graph's kept list
  of vertices of degree >= max(1, isqrt(2m)), null when no query built it.

It exits non-zero when the answer differs from the certified or pinned
one, or when a YES does not verify. Then REPEATS timed rounds, each after
a `gc.collect()`, time `load_graph` of the bytes and, straight after it as
the benchmark does, the solve, and give their medians and quartiles. A
tier-1 test compares every case's `counted_solve` with the committed
BENCH_solve.json, so a change that moves a counter regenerates the file.

The counters also hold `rows_walked`, `rows_drawn - rows_certified`. The
summary has one entry per (set, group): the solves, the YES answers, each
counter as [sum, min, max] (null when no solve has it), and the median and
total of the per-case load and solve medians. Answers and counters are
deterministic; times compare only between runs on the same host from
source paths of equal length (the path length is recorded).

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records one hash of its `domlab/*.py`. One case
runs alone as `--case` followed by its JSON (see `_harness.py`).
"""

from __future__ import annotations

import functools
import gc
import random
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
MIX_GROUPS = ("hdom-path", "is-pipeline-no", "matching-k6")
# the groups of a sparse-wide block's slots, in the order
# `workloads._sparse_wide_block` adds them; the child checks each one
SPARSE_SLOTS = ("a-clique", "a-indepset", "a-clique", "b-hubs", "c-indep-hubs",
                "c-indep-hubs", "d-load")
OV_NEAR_SEEDS = range(1, 21)
OV_NEAR_SHAPES = ((5, 3), (6, 4))  # (k, r)
CLIQUE_HUB_SEEDS = (1, 2)
SHAPE_NO_SEEDS = (1, 2, 3, 4)
SHAPE_NO_GROUPS = {"no-dom-clique-k4": 4, "no-matching-k4": 4, "no-matching-k6": 6}  # group: k
DENSE_CLIQUE_GRAPHS = ((80, 2500), (60, 1500))  # (n, m)
PIPELINE_NO_GRAPHS = ((80, 2500), (100, 4000))  # (n, m), each at k = 4 and 5
PIPELINE_YES = ((20, 140, 4, 0), (30, 320, 4, 1), (40, 600, 4, 5), (25, 240, 5, 1),
                (45, 800, 5, 4), (40, 510, 3, 61))  # (n, m, k, first fallback-YES seed s)
JOIN_COUNTERS = ("columns_kept", "rows_drawn", "rows_certified", "gap_masks", "below_built")
COUNTERS = ("joins", *JOIN_COUNTERS, "rows_walked", "adj_iterations", "high_listed")
sys.path[1:1] = [str(ROOT), str(ROOT / "perfbench")]  # after the measured src, put first by main


class CountingList(list):
    """A list that counts the iterations over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _pinned(set_name: str, group: str, name: str, recipe: dict, problem: list, want: bool) -> dict:
    return {"set": set_name, "group": group, "name": name, "recipe": recipe, "problem": problem,
            "want": want}


def cases() -> list[dict]:
    """Every solve measured: its set, group and name, and either its
    workload block and slot, its shape-no draw, or its `make_golden`
    recipe, problem and pinned answer."""
    import workloads
    from tests.golden import make_golden

    out = [{"set": "ov-multidom-no", "group": f"{'yes' if want else 'no'}-r{r}",
            "name": f"ov-multidom-no-b{block}-s{slot}", "block": block, "slot": slot}
           for block in BLOCKS for slot, (want, r, *_) in enumerate(workloads.OV_BLOCK)]
    out += [{"set": "certified-mix", "group": label, "name": f"certified-mix-b0-s{slot}",
             "block": 0, "slot": slot}
            for slot, (label, *_) in enumerate(workloads.MIX_BLOCK) if label in MIX_GROUPS]
    out += [{"set": "sparse-wide", "group": group, "name": f"sparse-wide-b{block}-s{slot}",
             "block": block, "slot": slot}
            for block in BLOCKS for slot, group in enumerate(SPARSE_SLOTS) if group != "b-hubs"]
    out += [_pinned("b-hubs", "b-hubs", name, recipe, recipe["only"], True)
            for name, recipe in make_golden.B_HUBS.items()]
    out += [_pinned("dense", "dense", name, recipe, recipe["only"], True)
            for name, recipe in make_golden.DENSE_NEAR.items()]
    base = make_golden.INSTANCES["ov-multidom-4"]
    out += [_pinned("ov-near", f"k{k}-r{r}", f"ov-multidom-4-s{seed}-k{k}", dict(base, seed=seed),
                    ["multiple", k, r], False)
            for k, r in OV_NEAR_SHAPES for seed in OV_NEAR_SEEDS]
    out += [_pinned("clique-hub", "clique-hub", f"clique-hub-s{seed}",
                    {"generator": "planted-hub", "seed": seed, "n": 300, "hubs": 5, "r": 4},
                    ["clique", 5], False) for seed in CLIQUE_HUB_SEEDS]
    out += [{"set": "shape-no", "group": group, "name": f"{group}-s{seed}", "k": k, "seed": seed}
            for group, k in SHAPE_NO_GROUPS.items() for seed in SHAPE_NO_SEEDS]
    out += [_pinned("dense-clique", "dense-clique", f"dense-clique-{n}-{m}",
                    {"generator": "gnm", "seed": f"dc:{n}:{m}", "n": n, "m": m},
                    ["clique", 6], True) for n, m in DENSE_CLIQUE_GRAPHS]
    out += [_pinned("pipeline", "no", f"pipeline-{n}-{m}-k{k}",
                    {"generator": "gnm", "seed": f"pipeline:{n}:{m}", "n": n, "m": m},
                    ["multiple", k, k - 1], False) for n, m in PIPELINE_NO_GRAPHS for k in (4, 5)]
    out += [_pinned("pipeline", "fallback-yes", f"pipeline-yes-{n}-{m}-k{k}",
                    {"generator": "gnm", "seed": f"pipeline-yes:{n}:{m}:{k}:{s}", "n": n, "m": m},
                    ["multiple", k, k - 1], True) for n, m, k, s in PIPELINE_YES]
    return out


@functools.cache
def _block(set_name: str, block: int) -> list:
    """The instances of one workload block at SEED, built once per process:
    every case of the block reads its own slot. Their `make_graph` reads no
    file, so the block's work directory can go once it is built."""
    import workloads

    with tempfile.TemporaryDirectory() as work:
        return workloads.WORKLOADS[set_name].block(SEED, block, 0, Path(work))


def _instance(case: dict):
    """(graph, problem, algo, certified or pinned answer) of the case."""
    from domlab import reductions
    from domlab.multidom import Problem
    from domlab.patterndom import Pattern
    from tests.golden import make_golden
    import workloads

    if "recipe" in case:
        G = make_golden.build_graph(case["recipe"])
        algo = "pipeline" if case["set"] == "pipeline" else "fast"
        return G, Problem(*case["problem"]), algo, case["want"]
    if case["set"] == "shape-no":
        rng, k = random.Random(f"shape-no:{case['group']}:{case['seed']}"), case["k"]
        if case["group"].startswith("no-dom-clique"):
            inst = workloads._draw_ov(rng, [4] * k, 6, 0.3, 1, False)
            G = reductions.ov_to_hdom(inst, Pattern.clique(k)).graph
            return G, Problem("clique", k), "fast", False
        gen = reductions.ov_to_induced_matching(workloads._draw_ov(rng, [2] * k, 4, 0.5, 1, False))
        return gen.graph, gen.problem, "fast", False
    inst = _block(case["set"], case["block"])[case["slot"]]
    if inst.group != case["group"]:
        raise SystemExit(f"{case['name']}: the workload draws {inst.group}, not {case['group']}")
    algo = "pipeline" if inst.group.startswith("is-pipeline") else "fast"
    return inst.make_graph(), inst.problem, algo, inst.expected


def counted_solve(case: dict) -> tuple[dict, bytes, object, str]:
    """The untimed part of a case: the case with its n, m, answer and
    counters from one counted solve, its answer checked; and the bytes,
    problem and algo the timed rounds solve."""
    from domlab import multidom, patterndom
    from domlab.graph import load_graph
    import workloads

    G0, problem, algo, want = _instance(case)
    data = workloads._edge_bytes(G0.n, list(G0.edges()))
    G = load_graph(data)
    G.adj = CountingList(G.adj)
    stats: dict = {}
    sol = patterndom.solve(G, problem, algo, stats)
    if (sol is not None) != want:
        raise SystemExit(f"{case['name']}: the solver answers {sol is not None}, "
                         f"the certified or pinned answer is {want}")
    if sol is not None and not multidom.verify_solution(G0, problem, sol.vertices):
        raise SystemExit(f"{case['name']}: {sol.vertices} does not verify")
    joined = {key: stats.get(key, 0) for key in JOIN_COUNTERS}
    counters = dict(joins=int("rows_drawn" in stats), **joined,
                    rows_walked=joined["rows_drawn"] - joined["rows_certified"],
                    adj_iterations=G.adj.iterations,
                    high_listed=None if G._high is None else len(G._high))
    out = dict(case, n=G0.n, m=G0.m, answer=None if sol is None else list(sol.vertices),
               counters=counters)
    return out, data, problem, algo


def run_case(case: dict) -> dict:
    """One solve, in this process: `counted_solve`, then REPEATS timed
    load and solve pairs."""
    from domlab import patterndom
    from domlab.graph import load_graph

    out, data, problem, algo = counted_solve(case)
    load_ms, solve_ms = [], []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        G = load_graph(data)
        loaded = time.perf_counter()
        patterndom.solve(G, problem, algo)
        end = time.perf_counter()
        load_ms.append((loaded - start) * 1000.0)
        solve_ms.append((end - loaded) * 1000.0)
    return dict(out, **_harness.quartiles("load_ms", load_ms, 4),
                **_harness.quartiles("solve_ms", solve_ms, 4))


def _summary(entries: list[dict]) -> dict:
    """Per "set/group": the solves, YES answers, each counter as [sum, min,
    max] (null when no solve has it), and the median and total of the
    per-case load and solve medians."""
    out = {}
    for key in dict.fromkeys((e["set"], e["group"]) for e in entries):
        group = [e for e in entries if (e["set"], e["group"]) == key]
        row = {"solves": len(group), "yes": sum(e["answer"] is not None for e in group)}
        for name in COUNTERS:
            values = [e["counters"][name] for e in group if e["counters"][name] is not None]
            row[name] = [sum(values), min(values), max(values)] if values else None
        for phase in ("load_ms", "solve_ms"):
            medians = [e[f"{phase}_median"] for e in group]
            row[f"{phase}_median_of_medians"] = round(statistics.median(medians), 4)
            row[f"{phase}_total_of_medians"] = round(sum(medians), 3)
        out["/".join(key)] = row
    return out


if __name__ == "__main__":
    sys.exit(_harness.main(
        __file__, __doc__, {"benchmark": "solves of the benchmark workloads and the golden recipes",
                            "repeats": REPEATS, "seed": SEED}, cases, run_case, _summary))
