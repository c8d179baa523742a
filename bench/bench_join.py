"""Pair-join benchmark: the solves of the benchmark workloads whose time is
`multidom.pair_join`, with the join's work counters.

    python3 bench/bench_join.py                      # writes BENCH_join.json
    python3 bench/bench_join.py --src OTHER/src --out BENCH_join_parent.json

Six sets of solves:

- `ov-multidom-no`: the 28 instances of the ov-multidom-no workload at
  seed 1, blocks 0-3 (`perfbench/workloads.py`): 16 `no-r2`, 8 `yes-r2`
  and 4 `no-r3`, each `solve_multidom_fast(G, 4, r, "multiple")`;
- `certified-mix`: the `hdom-path`, `is-pipeline-no` and `matching-k6`
  instances of the certified-mix workload at seed 1, block 0, solved as
  its command line solves them (`domlab.solve`, the pipeline for
  is-multidom);
- `b-hubs`: the 50 planted-hub graphs of `bench/bench_bhubs.py`, at
  (k, r) = (5, 3), whose joins read the column short sets;
- `clique-hub`: `solve_dominating_clique` at k = 5 on
  `planted_hub_graph(Random(s), 300, 5, 4)` for s = 1, 2, whose one join
  pairs clique rows with every edge of a heavy-rich graph. Both are NO;
- `shape-no`: certified NO shape targets, four seeds per group, drawn as
  certified-mix draws its NO sources (`perfbench/workloads.py`):
  `no-dom-clique-k4`, `ov_to_hdom` on a clique of 4 solved as a dominating
  clique, and `no-matching-k4` and `no-matching-k6`, `ov_to_induced_matching`
  at k = 4 and 6. Their joins walk clique and matching rows as runs;
- `dense-clique`: `solve_dominating_clique` at k = 6 on the dense
  `cli._random_gnm(Random(f"dc:{n}:{m}"), n, m)` graphs G(80, 2,500) and
  G(60, 1,500), both YES. Their columns, the 40,677 and 20,763 triangles,
  hold 128 or more members per vertex on average, so `ColumnList` builds
  their masks from listed column indices.

Every other instance is drawn by the workload's own seeded generator, with
its certified answer; the `shape-no` sources are drawn until
`solve_ov_bruteforce` answers NO, and the `clique-hub` and `dense-clique`
answers are pinned in the case table, as no decider independent of the
solvers reaches them. Each solve is measured in one fresh child process.
One untimed solve sums the four `pair_join` counters (`rows_drawn`,
`rows_certified`, `gap_masks`, `below_built`) over every join it runs,
counts `members_built`, the member tuples its candidate families built
(len(members) for each family that expanded, plus one for each member
decoded alone by `CandidateFamily.member`, where the measured tree has
it), and checks the answer: the child exits non-zero when it differs
from the certified or pinned one or when a YES does not verify. Then
REPEATS timed solves, each on a new `Graph` of the same edges built
outside the timer and after a `gc.collect()`, give the median and
quartiles of the unscaled wall time.
Counters and answers are deterministic; times compare only between runs on
the same host from source paths of equal length (the path length is
recorded).

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records a hash of its `multidom.py`. One case
runs alone as `--case` followed by its JSON (see `_harness.py`).
"""

from __future__ import annotations

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
OV_BLOCKS = range(4)
MIX_GROUPS = ("hdom-path", "is-pipeline-no", "matching-k6")
CLIQUE_HUB_SEEDS = (1, 2)
SHAPE_NO_SEEDS = (1, 2, 3, 4)
SHAPE_NO_GROUPS = {"no-dom-clique-k4": 4, "no-matching-k4": 4, "no-matching-k6": 6}  # group: k
DENSE_CLIQUE_GRAPHS = ((80, 2500), (60, 1500))  # (n, m)
JOIN_COUNTERS = ("rows_drawn", "rows_certified", "gap_masks", "below_built")


def cases() -> list[dict]:
    """Every solve measured: its set, group, name and recipe."""
    sys.path[1:1] = [str(ROOT), str(ROOT / "perfbench")]
    import workloads
    from tests.golden import make_golden

    out = [{"set": "ov-multidom-no", "group": f"{'yes' if want else 'no'}-r{r}",
            "name": f"ov-multidom-no-b{block}-s{slot}", "block": block, "slot": slot}
           for block in OV_BLOCKS for slot, (want, r, *_) in enumerate(workloads.OV_BLOCK)]
    out += [{"set": "certified-mix", "group": label, "name": f"certified-mix-b0-s{slot}",
             "block": 0, "slot": slot}
            for slot, (label, *_) in enumerate(workloads.MIX_BLOCK) if label in MIX_GROUPS]
    out += [{"set": "b-hubs", "group": "b-hubs", "name": name, "recipe": recipe}
            for name, recipe in make_golden.B_HUBS.items()]
    out += [{"set": "clique-hub", "group": "clique-hub", "name": f"clique-hub-s{seed}",
             "seed": seed, "want": False} for seed in CLIQUE_HUB_SEEDS]
    out += [{"set": "shape-no", "group": group, "name": f"{group}-s{seed}", "k": k,
             "seed": seed, "want": False}
            for group, k in SHAPE_NO_GROUPS.items() for seed in SHAPE_NO_SEEDS]
    out += [{"set": "dense-clique", "group": "dense-clique", "name": f"dense-clique-{n}-{m}",
             "n": n, "m": m, "want": True} for n, m in DENSE_CLIQUE_GRAPHS]
    return out


def _instance(case: dict, work: Path):
    """(graph, problem, algo, certified answer) of the case."""
    from domlab import cli, reductions
    from domlab.graph import Graph
    from domlab.multidom import Problem
    from domlab.patterndom import Pattern
    from tests.golden import make_golden
    import workloads

    if case["set"] == "b-hubs":
        variant, k, r = case["recipe"]["only"]
        return make_golden.build_graph(case["recipe"]), Problem(variant, k, r), "fast", True
    if case["set"] == "clique-hub":
        edges = make_golden.planted_hub_graph(random.Random(case["seed"]), 300, 5, 4)
        return Graph(300, edges), Problem("clique", 5), "fast", case["want"]
    if case["set"] == "dense-clique":
        n, m = case["n"], case["m"]
        G = cli._random_gnm(random.Random(f"dc:{n}:{m}"), n, m)
        return G, Problem("clique", 6), "fast", case["want"]
    if case["set"] == "shape-no":
        rng, k = random.Random(f"shape-no:{case['group']}:{case['seed']}"), case["k"]
        if case["group"].startswith("no-dom-clique"):
            inst = workloads._draw_ov(rng, [4] * k, 6, 0.3, 1, case["want"])
            return (reductions.ov_to_hdom(inst, Pattern.clique(k)).graph, Problem("clique", k),
                    "fast", case["want"])
        inst = workloads._draw_ov(rng, [2] * k, 4, 0.5, 1, case["want"])
        gen = reductions.ov_to_induced_matching(inst)
        return gen.graph, gen.problem, "fast", case["want"]
    inst = workloads.WORKLOADS[case["set"]].block(SEED, case["block"], 0, work)[case["slot"]]
    if inst.group != case["group"]:
        raise SystemExit(f"{case['name']}: the workload draws {inst.group}, not {case['group']}")
    algo = "pipeline" if inst.group.startswith("is-pipeline") else "fast"
    return inst.make_graph(), inst.problem, algo, inst.expected


def run_case(case: dict) -> dict:
    """One solve, in this process: the untimed check, its join counters and
    REPEATS timed solves."""
    sys.path[1:1] = [str(ROOT), str(ROOT / "perfbench")]
    from domlab import multidom, patterndom
    from domlab.graph import Graph

    with tempfile.TemporaryDirectory() as work:
        G0, problem, algo, expected = _instance(case, Path(work))
    n, edges = G0.n, list(G0.edges())
    joins: list[dict] = []
    join, candidate_family = multidom.pair_join, multidom._candidate_family
    families: list = []
    member = getattr(multidom.CandidateFamily, "member", None)
    decoded = 0

    def counted(*args, stats=None, **options):
        joins.append({})
        return join(*args, stats=joins[-1], **options)

    def recording(*args):
        families.append(candidate_family(*args))
        return families[-1]

    def decoding(fam, j):
        nonlocal decoded
        decoded += "members" not in fam.__dict__
        return member(fam, j)

    multidom.pair_join = patterndom.pair_join = counted
    multidom._candidate_family = recording
    if member is not None:
        multidom.CandidateFamily.member = decoding
    try:
        sol = patterndom.solve(Graph(n, edges), problem, algo)
    finally:
        multidom.pair_join = patterndom.pair_join = join
        multidom._candidate_family = candidate_family
        if member is not None:
            multidom.CandidateFamily.member = member
    if (sol is not None) != expected:
        raise SystemExit(f"{case['name']}: the solver answers {sol is not None}, "
                         f"the certified answer is {expected}")
    if sol is not None and not multidom.verify_solution(G0, problem, sol.vertices):
        raise SystemExit(f"{case['name']}: {sol.vertices} does not verify")
    counters = {key: sum(stats[key] for stats in joins) for key in JOIN_COUNTERS}
    members_built = decoded + sum(len(fam.__dict__.get("members", ())) for fam in families)
    out = dict(case, n=n, m=len(edges), answer=None if sol is None else list(sol.vertices),
               joins=len(joins), counters=counters,
               rows_walked=counters["rows_drawn"] - counters["rows_certified"],
               members_built=members_built)
    times_ms = []
    for _ in range(REPEATS):
        G = Graph(n, edges)
        gc.collect()
        start = time.perf_counter()
        patterndom.solve(G, problem, algo)
        times_ms.append((time.perf_counter() - start) * 1000.0)
    return dict(out, **_harness.quartiles("solve_ms", times_ms, 4))


def _summary(entries: list[dict]) -> dict:
    """Per group: the solves, YES answers, each counter's sum, the rows
    walked, the member tuples built, and the median and sum of the
    per-solve medians."""
    out = {}
    for name in dict.fromkeys(e["group"] for e in entries):
        group = [e for e in entries if e["group"] == name]
        medians = [e["solve_ms_median"] for e in group]
        out[name] = {"solves": len(group), "yes": sum(e["answer"] is not None for e in group),
                     **{key: sum(e["counters"][key] for e in group) for key in JOIN_COUNTERS},
                     "rows_walked": sum(e["rows_walked"] for e in group),
                     "members_built": sum(e["members_built"] for e in group),
                     "solve_ms_median_of_medians": round(statistics.median(medians), 4),
                     "solve_ms_total_of_medians": round(sum(medians), 3)}
    return out


if __name__ == "__main__":
    sys.exit(_harness.main(
        __file__, __doc__, {"benchmark": "pair_join on the benchmark workloads' join-bound solves",
                            "repeats": REPEATS, "seed": SEED}, "multidom.py", cases, run_case,
        _summary))
