"""domlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ov-multidom-no --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one caller. One process solves one instance
at a time with threads=1 (the library and CLI default). A solve is timed
from the moment its graph input is handed over (edge-list bytes, or a file
for certified-mix) until the answer is returned; checking the answer against
its certified value happens outside the timed region.

A run builds a fixed, seed-determined list of instances sized from
--seconds, then makes several passes over it, each in a fresh order. An
instance's latency is the median of its passes. The instances are set up
afresh before each pass and once after the last; setup_s is the median of
those set-ups.

Times are reported in reference-speed milliseconds. The host this was tuned
on (2 vCPUs shared with other tenants, no steal time counted) switches
between speeds about 1.6x apart, from tens of milliseconds to minutes at a
time, which moves every wall-clock time of a run alike. So the run times a
fixed pure-Python probe, which calls no domlab code, before a solve when the
last probe is PROBE_EVERY_S old, and once after each pass. Each measured
time is scaled by PROBE_REF_MS over the mean of the probe just before it
starts and the probe just after it ends. A change to domlab moves the scaled
times as it moves wall time at constant host speed; a change of host speed
moves the probe as well and cancels. The details line keeps the unscaled
medians and the probe times.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics instead (see `traced`) and writes all spans under perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds run
details (tail percentile and sample count, failed fraction, calibration
time, host provenance). A failed solve is counted in `failed` and makes
`correct` false; it never stops the run. The exit code is 0 whenever a
result is printed, and non-zero when the domlab sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CALIB_REPEATS = 5    # calibration loops before and after measuring
TAIL_BEYOND = 10     # the tail percentile keeps at least this many samples above it
PROBE_EVERY_S = 0.02  # a host-speed probe before a solve when the last is older
PROBE_REF_MS = 1.6    # probe time that defines reference speed (about the
                      # uncontended speed of a 2-vCPU Xeon VM under Python 3.11)


def calibrate() -> float:
    """A fixed pure-Python big-int loop, in ms: host-speed drift diagnostic."""
    start = time.perf_counter()
    x, mask = 1, (1 << 512) - 1
    for i in range(200_000):
        x = (x * 3 + i) & mask
    return (time.perf_counter() - start) * 1000.0


_PROBE_RNG = random.Random(0)
_PROBE_MASKS = [_PROBE_RNG.getrandbits(40) for _ in range(48)]


def probe_work() -> int:
    """About 2 ms of the interpreter work domlab does most (a big-int loop and
    an all-pairs bitmask scan, as in the pair join), without calling domlab.
    Of the probes tried, these two slow down with host contention as much as
    the workloads' solves do (about 1.55x against 1.4-1.6x)."""
    x, mask = 1, (1 << 512) - 1
    for i in range(10_000):
        x = (x * 3 + i) & mask
    full, hits = (1 << 40) - 1, 0
    for a in _PROBE_MASKS:
        for b in _PROBE_MASKS:
            if a | b == full:
                hits += 1
    return x ^ hits


class HostSpeed:
    """Probe samples taken through a run, and the scale they give a time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time in s, probe ms), in time order

    def probe(self) -> None:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.samples.append((end, (end - start) * 1000.0))

    def probe_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the host speed from `start` to `end`, taken
        from the last probe before `start` and the first after `end`."""
        i = bisect.bisect_right(self.samples, (start, math.inf))
        j = bisect.bisect_left(self.samples, (end, -math.inf))
        around = self.samples[max(i - 1, 0):j + 1]
        return PROBE_REF_MS / statistics.fmean(ms for _, ms in around)


def import_domlab():
    if not (SRC / "domlab" / "__init__.py").is_file():
        sys.exit(f"error: domlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import domlab
    if Path(domlab.__file__).resolve().parent != (SRC / "domlab").resolve():
        sys.exit(f"error: imported domlab from {domlab.__file__}, not from {SRC}")
    return domlab


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "domlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class WrongAnswer(Exception):
    """A solve returned an answer that disagrees with its certificate."""


class Checker:
    """Compares each answer with its certified value; never raises."""

    def __init__(self, verify):
        self.verify = verify
        self.attempted = 0
        self.failed = 0

    def solve(self, inst, threads=1):
        """Timed solve plus untimed check. Returns (ms, vertices, ok)."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            raw = inst.run(threads)
            ms = (time.perf_counter() - start) * 1000.0
            vertices = inst.decode(raw)
            if (vertices is not None) != inst.expected:
                raise WrongAnswer(f"answer {vertices is not None}, certified {inst.expected}")
            if vertices is not None and not self.verify(inst.make_graph(), inst.problem, vertices):
                raise WrongAnswer(f"solution {vertices} fails verify_solution")
            return ms, vertices, True
        except WrongAnswer as exc:
            self.failed += 1
            print(f"instance {inst.iid} ({inst.group}): {exc}", file=sys.stderr)
        except Exception:  # a solve that raises is counted, never fatal
            self.failed += 1
            print(f"instance {inst.iid} ({inst.group}) raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
        return None, None, False


def blocks_for(workload: str, seconds: float, workloads) -> int:
    """Blocks so that the workload's passes take about `seconds` at the
    nominal block time, and never fewer than its minimum."""
    w = workloads.WORKLOADS[workload]
    return max(w.min_blocks, round(seconds / (w.passes * w.block_s)))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it: the (N - TAIL_BEYOND)-th smallest of N (the largest when N is
    too small, which only failed solves can cause)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload, seed, seconds, workloads, checker, work) -> tuple[dict, dict]:
    blocks = blocks_for(workload, seconds, workloads)
    passes = workloads.WORKLOADS[workload].passes
    calib = [calibrate() for _ in range(CALIB_REPEATS)]
    speed = HostSpeed()
    setup: list[tuple[float, float]] = []  # (start, end) of each set-up
    solves: dict[int, list[tuple[float, float]]] = {}  # iid -> [(start, ms)]
    # A fresh set-up before each pass and one after the last: set-up time is
    # sampled across the run, as solve times are.
    for rep in range(passes + 1):
        speed.probe()
        start = time.perf_counter()
        instances = workloads.build(workload, seed, blocks, work)
        end = time.perf_counter()
        setup.append((start, end))
        speed.probe()
        if rep == passes:
            break
        # a fresh order each pass spreads an instance's solves over the run
        order = list(instances)
        if rep:
            random.Random(f"{seed}:{rep}").shuffle(order)
        for inst in order:
            speed.probe_if_due()
            start = time.perf_counter()
            ms, _, ok = checker.solve(inst)
            if ok:
                solves.setdefault(inst.iid, []).append((start, ms))
        speed.probe()
    calib += [calibrate() for _ in range(CALIB_REPEATS)]
    measured = sum(ms for runs in solves.values() for _, ms in runs)
    raw = {iid: statistics.median(ms for _, ms in runs) for iid, runs in solves.items()}
    best = {iid: statistics.median(ms * speed.scale(at, at + ms / 1000.0) for at, ms in runs)
            for iid, runs in solves.items()}
    lat = [best[i.iid] for i in instances if i.iid in best]
    yes = [best[i.iid] for i in instances if i.expected and i.iid in best]
    no = [best[i.iid] for i in instances if not i.expected and i.iid in best]
    counts = {"instances": len(instances), "solved": len(lat), "yes": len(yes), "no": len(no)}
    # failed solves are left out; if every solve of a kind failed, the run
    # still reports (with correct = false) rather than abort
    lat, yes, no = lat or [0.0], yes or [0.0], no or [0.0]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median((end - start) * speed.scale(start, end) for start, end in setup), "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "latency_yes_p50_ms": (statistics.median(yes), "ms"),
        "latency_no_p50_ms": (statistics.median(no), "ms"),
        "instances_per_s": (len(lat) / max(sum(lat) / 1000.0, 1e-9), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        **counts, "passes": passes,
        "tail_percentile": round(tail_pct, 2), "tail_samples": counts["solved"],
        "failed_frac": checker.failed / max(1, checker.attempted),
        "measured_s": round(measured / 1000.0, 3),
        "calib_ms": round(statistics.median(calib), 3),
        "probe_ms": {"p50": round(statistics.median(ms for _, ms in speed.samples), 3),
                     "min": round(min(ms for _, ms in speed.samples), 3),
                     "max": round(max(ms for _, ms in speed.samples), 3),
                     "count": len(speed.samples)},
        "unscaled": {"latency_p50_ms": round(statistics.median(raw.values() or [0.0]), 3),
                     "setup_s": round(statistics.median(end - start for start, end in setup), 6)},
        "groups_p50_ms": {g: round(statistics.median(
            best[i.iid] for i in instances if i.group == g and i.iid in best), 3)
            for g in sorted({i.group for i in instances if i.iid in best})},
    }
    return metrics, detail


def traced(workload, seed, seconds, workloads, checker, work, domlab_spans) -> tuple[dict, dict]:
    """Per-layer run over the same instances as the end-to-end run.

    Pass A solves each instance untraced and then traced, back to back, so
    the pair sees the same host speed; its spans give the per-layer metrics
    and the tracing overhead. Pass B, traced with tracemalloc around
    load_graph, must repeat pass A's counters exactly.
    """
    rec = domlab_spans.Recorder()
    modules = domlab_spans.domlab_modules()
    calib = [calibrate() for _ in range(CALIB_REPEATS)]
    rec.install(modules)
    try:
        blocks = blocks_for(workload, seconds, workloads)
        instances = workloads.build(workload, seed, blocks, work)
    finally:
        rec.uninstall()
    setup_end = len(rec.spans)
    rec.counters.clear()

    def solve_traced(inst):
        rec.install(modules)
        rec.iid = inst.iid
        idx = rec.open("bench.instance")
        try:
            return checker.solve(inst)
        finally:
            rec.close(idx)
            rec.iid = -1
            rec.uninstall()

    untraced_ms = traced_ms = 0.0
    for inst in instances:
        ms, vertices, ok = checker.solve(inst)
        ms_traced, _, ok_traced = solve_traced(inst)
        if ok and ok_traced:
            untraced_ms += ms
            traced_ms += ms_traced
    pass_a_end = len(rec.spans)
    counters_a = rec.counters.copy()
    rec.counters.clear()
    rec.track_alloc = True
    for inst in instances:
        solve_traced(inst)
    rec.track_alloc = False
    counters_b = rec.counters.copy()

    # threads probe: each NO instance at threads=1 and threads=2, back to back
    t1 = t2 = 0.0
    if workload == "ov-multidom-no":
        for inst in instances:
            if inst.expected:
                continue
            ms1, answer1, ok1 = checker.solve(inst, threads=1)
            ms2, answer2, ok2 = checker.solve(inst, threads=2)
            if ok1 and ok2 and answer1 != answer2:
                checker.failed += 1
                print(f"instance {inst.iid}: threads=2 answer {answer2} differs "
                      f"from threads=1 answer {answer1}", file=sys.stderr)
            elif ok1 and ok2:
                t1 += ms1
                t2 += ms2
    calib += [calibrate() for _ in range(CALIB_REPEATS)]

    metrics = domlab_spans.layer_metrics(rec.spans, counters_a, setup_end, pass_a_end)
    setup_metrics = domlab_spans.layer_metrics(rec.spans, counters_a, 0, setup_end)
    for name in ("reductions.generate_ms", "reductions.source_check_ms", "oracles.source_ms"):
        metrics[name] = setup_metrics[name]
    metrics["graph.load_alloc_mb"] = rec.load_alloc_peak / 2**20
    metrics["multidom.threads2_ratio"] = t2 / t1 if t1 else 0.0
    metrics["bench.calib_ms"] = statistics.median(calib)
    metrics["bench.trace_overhead_frac"] = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0

    exact_a = domlab_spans.exact_counters(metrics, counters_a)
    exact_b = domlab_spans.exact_counters(domlab_spans.layer_metrics([], counters_b), counters_b)
    mismatches = {k: (exact_a.get(k), exact_b.get(k))
                  for k in sorted(set(exact_a) | set(exact_b)) if exact_a.get(k) != exact_b.get(k)}
    mismatches.update(compare_with_earlier_run(f"{workload}-s{seed}-b{blocks}", exact_a))
    for name, (was, now) in mismatches.items():
        print(f"counter {name} does not repeat: {was} then {now}", file=sys.stderr)

    spans_path = OUT / f"spans-{workload}-s{seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "instance"], "spans": rec.spans}))
    detail = {"instances": len(instances), "spans": len(rec.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "counter_mismatches": len(mismatches), "exact_counters": exact_a}
    return metrics, detail


def compare_with_earlier_run(key: str, exact: dict) -> dict:
    """Counters of an earlier traced run with the same instances, on
    identical sources, must match exactly; the first such run records them."""
    path = OUT / f"counters-{key}-{source_digest()}.json"
    if not path.exists():
        path.write_text(json.dumps(exact, sort_keys=True))
        return {}
    earlier = json.loads(path.read_text())
    return {f"earlier-run:{k}": (earlier.get(k), exact.get(k))
            for k in sorted(set(earlier) | set(exact)) if earlier.get(k) != exact.get(k)}


UNITS = {"_ms": "ms", "_mb": "MB", "_frac": "ratio", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    domlab = import_domlab()
    import spans as domlab_spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    # looked up at call time, so the traced run records the check as a span
    checker = Checker(lambda G, problem, vertices:
                      domlab.multidom.verify_solution(G, problem, vertices))
    try:
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, args.seconds, workloads,
                                     checker, work, domlab_spans)
            metrics = {k: (v, unit_of(k)) for k, v in metrics.items()}
            correct = checker.failed == 0 and not detail["counter_mismatches"]
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds, workloads,
                                         checker, work)
            correct = checker.failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "nproc": os.cpu_count(), "python": platform.python_version(),
                   "platform": platform.platform()})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
