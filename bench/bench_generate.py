"""Certified-generation benchmark: the source decider, the reduction and the
`save_graph` text of one certified instance per case.

    python3 bench/bench_generate.py                      # writes BENCH_generate.json
    python3 bench/bench_generate.py --src OTHER/src --out BENCH_generate_parent.json

Three sets of cases:

- `certified-mix`: the source shapes of the certified-mix benchmark
  workload (ov-multidom, is-multidom, ov-hdom path and clique patterns,
  ov-matching), YES and NO as that workload draws them;
- `ov-multidom-no`: its three source shapes, two NO and one YES;
- `near-budget`: OV sources of three sets of 100 vectors at d = 12, one
  YES and one NO, whose 10^6 transversals sit exactly at the decider's
  budget.

A case names its generator and its source recipe. The child draws the
source from a seeded generator; a case with a `want` answer redraws until
the product scans of `tests/reference_oracles.py` give it, so the source
does not depend on the tree measured. Once, untimed, the child checks the
tree's decider against the product scan when the source has at most
CHECK_PRODUCT transversals: the answer, and for is-multidom the first
transversal of the source's complement (built pair by pair here); it
exits non-zero on a mismatch. Then REPEATS timed rounds, each after a
`gc.collect()`, time `reductions.build_target` (the reduction, with the
complement for is-multidom), the decider it returns, and `save_graph` of
the target, and give their medians and quartiles. The answer, the
target's n and m, the product size and the sha256 of the saved text are
recorded beside them; they do not vary between runs or trees. Times
compare only between runs on the same host from source paths of equal
length (the path length is recorded).

`--src` names the `src` directory whose `domlab` is measured, by default
this checkout's; the file records one hash of its `domlab/*.py`. One case
runs alone as `--case` followed by its JSON (see `_harness.py`).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import _harness
from _harness import ROOT

REPEATS = 9
CHECK_PRODUCT = 10**4  # the untimed check runs the product scan up to this size


def _ov(name, want, sizes, d, zero_prob, generator="ov-multidom", r=1, **extra):
    return dict(name=name, generator=generator, want=want, sizes=sizes, d=d,
                zero_prob=zero_prob, r=r, **extra)


def _is(name, want, part_size):
    # k = 4, gamma = 1/2: d*k' = (k-1)*1 + 2 = 5 source parts
    return dict(name=name, generator="is-multidom", want=want, parts=5,
                part_size=part_size, edge_prob=0.5, k=4, gamma="1/2", d=1)


def cases() -> list[dict]:
    """Every case measured: its set, name, generator and source recipe."""
    mix = [
        _ov("ov-multidom-k4-yes", True, [4] * 4, 8, 0.5, r=2),
        _is("is-multidom-yes", True, 3),
        _is("is-multidom-no", False, 2),
        _ov("hdom-path-k4-yes", True, [4] * 4, 6, 0.5, "ov-hdom", pattern="path"),
        _ov("hdom-clique-k4-yes", True, [4] * 4, 6, 0.5, "ov-hdom", pattern="clique"),
        _ov("hdom-path-k5-no", False, [2] * 5, 6, 0.3, "ov-hdom", pattern="path"),
        _ov("matching-k4-yes", True, [2] * 4, 4, 0.5, "ov-matching"),
        _ov("matching-k6-yes", True, [2] * 6, 4, 0.5, "ov-matching"),
    ]
    ov_no = [
        _ov("no-r2", False, [2, 2, 3, 3], 6, 0.3, r=2),
        _ov("yes-r2", True, [2, 3, 3, 3], 6, 0.5, r=2),
        _ov("no-r3", False, [3, 3, 4, 4], 12, 0.3, r=3),
    ]
    # no redraw: 10^6 transversals are past the product scan's check; their
    # seeds draw a YES at zero probability 0.3 and a NO at 0.1
    near = [_ov("ov-100x3-d12-yes", None, [100] * 3, 12, 0.3),
            _ov("ov-100x3-d12-no", None, [100] * 3, 12, 0.1)]
    return [dict(case, set=name, seed=f"{name}:{case['name']}")
            for name, group in (("certified-mix", mix), ("ov-multidom-no", ov_no),
                                ("near-budget", near)) for case in group]


def _complement(kp):
    """The cross-part complement, pair by pair through `has_edge`."""
    from domlab.multidom import KPartiteGraph

    return KPartiteGraph(kp.sizes, [
        ((i, a), (j, b)) for i, j in itertools.combinations(range(kp.k), 2)
        for a in range(kp.sizes[i]) for b in range(kp.sizes[j]) if not kp.has_edge(i, a, j, b)])


def _source(case: dict):
    """(source, generator parameter, product size, reference answer or None
    past CHECK_PRODUCT, complement for is-multidom), drawn until the
    reference answer is the case's `want` when it has one."""
    from domlab.multidom import KPartiteGraph
    from domlab.patterndom import Pattern
    from domlab.reductions import OVInstance
    from tests.reference_oracles import clique_product_scan, ov_product_scan

    rng = random.Random(case["seed"])
    while True:
        if case["generator"] == "is-multidom":
            sizes = [case["part_size"]] * case["parts"]
            source = KPartiteGraph(sizes, [
                ((i, a), (j, b)) for i, j in itertools.combinations(range(len(sizes)), 2)
                for a in range(sizes[i]) for b in range(sizes[j])
                if rng.random() < case["edge_prob"]])
            param = (case["k"], Fraction(case["gamma"]), case["d"])
            complement = _complement(source)
            product = math.prod(sizes)
            reference = (clique_product_scan(complement) is not None
                         if product <= CHECK_PRODUCT else None)
        else:
            source = OVInstance.from_lists(case["d"], [
                [tuple(int(rng.random() >= case["zero_prob"]) for _ in range(case["d"]))
                 for _ in range(size)] for size in case["sizes"]])
            pattern = case.get("pattern")
            param = (case["r"] if case["generator"] == "ov-multidom"
                     else getattr(Pattern, pattern)(source.k) if pattern else None)
            complement = None
            product = math.prod(case["sizes"])
            reference = (ov_product_scan(source, case["r"])
                         if product <= CHECK_PRODUCT else None)
        if case["want"] is None or reference == case["want"]:
            return source, param, product, reference, complement


def run_case(case: dict) -> dict:
    """One certified instance, in this process: the untimed check, its facts
    and REPEATS timed rounds of reduction, decider and `save_graph`."""
    sys.path.insert(0, str(ROOT))
    from domlab import oracles, reductions
    from domlab.graph import save_graph
    from tests.reference_oracles import clique_product_scan

    source, param, product, reference, complement = _source(case)
    out, decide = reductions.build_target(case["generator"], source, param)
    answer = decide()
    if reference is not None and answer != reference:
        raise SystemExit(f"{case['name']}: the decider answers {answer}, "
                         f"the product scan {reference}")
    if complement is not None and product <= CHECK_PRODUCT:
        first, expected = oracles.oracle_unbalanced_clique(complement), clique_product_scan(complement)
        if first != expected:
            raise SystemExit(f"{case['name']}: the clique oracle's first transversal is "
                             f"{first}, the product scan's {expected}")
    text = save_graph(out.graph)
    facts = dict(case, answer=answer, checked=reference is not None, n=out.graph.n,
                 m=out.graph.m, product=product,
                 text_sha256=hashlib.sha256(text.encode()).hexdigest()[:16])
    times: dict[str, list[float]] = {"reduction_ms": [], "decider_ms": [], "save_graph_ms": []}
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        out, decide = reductions.build_target(case["generator"], source, param)
        built = time.perf_counter()
        decide()
        decided = time.perf_counter()
        save_graph(out.graph)
        saved = time.perf_counter()
        times["reduction_ms"].append((built - start) * 1000.0)
        times["decider_ms"].append((decided - built) * 1000.0)
        times["save_graph_ms"].append((saved - decided) * 1000.0)
    for name, values in times.items():
        facts.update(_harness.quartiles(name.removesuffix("_ms"), values, 4))
    return facts


def _summary(entries: list[dict]) -> dict:
    """Per set: the cases, YES answers and each phase's sum of medians."""
    out = {}
    for name in dict.fromkeys(e["set"] for e in entries):
        group = [e for e in entries if e["set"] == name]
        out[name] = {"cases": len(group), "yes": sum(e["answer"] for e in group),
                     **{f"{phase}_total_of_medians": round(sum(e[f"{phase}_median"] for e in group), 3)
                        for phase in ("reduction", "decider", "save_graph")}}
    return out


if __name__ == "__main__":
    sys.exit(_harness.main(
        __file__, __doc__, {"benchmark": "certified generation: decider, reduction, save_graph",
                            "repeats": REPEATS, "check_product": CHECK_PRODUCT},
        cases, run_case, _summary))
