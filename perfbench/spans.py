"""Span recorder for the traced run, and the per-layer metrics drawn from it.

Spans are recorded from the benchmark's side: each public domlab function
listed by `targets` is replaced, at every module attribute that refers to it,
by a wrapper that opens a span around the call and adds exact work counters.
`Recorder.uninstall` puts the originals back. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter
from math import comb

# Names ending in these suffixes are exact counters, compared between runs.
COUNTER_SUFFIXES = ("_count", "_calls", "_members", "_pairs", "_cells", "_bound", "_yielded")

PATTERN_SOLVERS = ("solve_dominating_clique", "solve_dominating_indepset",
                   "solve_dominating_induced_matching", "solve_pattern_domination")


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index, instance_id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.iid = -1
        self.counters: Counter = Counter()
        self.track_alloc = False
        self.load_alloc_peak = 0
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.iid])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, after):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(rec, idx, args, result)
            return result
        return wrapper

    def _wrap_load(self, fn, name, after):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            if rec.track_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if rec.track_alloc:
                    rec.load_alloc_peak = max(rec.load_alloc_peak,
                                              tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                rec.close(idx)
            return result
        return wrapper

    def _wrap_generator(self, fn, name, after):
        """Each step of the returned generator is its own span, so the
        consumer's work between steps stays outside it."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = rec.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec.close(idx)
                    rec.counters["patterndom.dom_ksets_yielded"] += 1
                    yield item
            return steps()
        return wrapper

    def install(self, modules) -> None:
        """Wrap every target at each attribute of `modules` (and of classes
        for methods) that holds the original object."""
        for owner, attr, name, kind, after in targets(modules):
            original = getattr(owner, attr)
            make = {"call": self._wrap, "load": self._wrap_load,
                    "generator": self._wrap_generator}[kind]
            wrapper = make(original, name, after)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()


# --- counters collected after a call returns --------------------------------

def _heavy(rec, idx, args, result):
    rec.counters["graph.heavy_count"] += len(result)


def _delete_closed(rec, idx, args, result):
    rec.counters["graph.delete_closed_calls"] += 1


def _families(rec, idx, args, result):
    G = args[0]
    fam_s, fam_t = result
    rec.counters["multidom.family_members"] += len(fam_s.members) + len(fam_t.members)
    rec.counters["multidom.families_enumerated"] += comb(G.n, fam_s.size) + comb(G.n, fam_t.size)
    if rec.parent_name(idx) == "multidom.fast":
        # the fast solver's scalar_op_count: |S| * n * |T|
        rec.counters["multidom.pair_bound"] += len(fam_s.members) * G.n * len(fam_t.members)


def _list2(rec, idx, args, result):
    rec.counters["multidom.list2_calls"] += 1
    rec.counters["multidom.list2_pairs"] += len(result)


def _pipeline(rec, idx, args, result):
    rec.counters["multidom.pipeline_runs"] += 1
    if result is not None and result.certificate.get("clique_witness") is not None:
        rec.counters["multidom.pipeline_clique_hits"] += 1


def _zero_pairs(rec, idx, args, result):
    A, B = args[0], args[1]
    rec.counters["algebra.zero_pairs_calls"] += 1
    rec.counters["algebra.zero_pairs_cells"] += A.rows * B.cols
    rec.counters["algebra.zero_pairs_hits"] += len(result)


def _cliques(rec, idx, args, result):
    rec.counters["patterndom.cliques_count"] += len(result)


def targets(modules):
    """(owner, attribute, span name, wrapper kind, counter hook) per target."""
    by_name = {m.__name__: m for m in modules}
    graph, multidom = by_name["domlab.graph"], by_name["domlab.multidom"]
    algebra, patterndom = by_name["domlab.algebra"], by_name["domlab.patterndom"]
    reductions, oracles = by_name["domlab.reductions"], by_name["domlab.oracles"]
    out = [
        (graph, "load_graph", "graph.load", "load", None),
        (graph, "heavy_vertices", "graph.heavy", "call", _heavy),
        (graph, "delete_closed_neighborhood", "graph.delete_closed", "call", _delete_closed),
        (multidom, "build_candidate_families", "multidom.families", "call", _families),
        (multidom, "solve_multidom_fast", "multidom.fast", "call", None),
        (multidom, "list_2_dominating_sets", "multidom.list2", "call", _list2),
        (multidom, "build_clique_graph", "multidom.clique_graph", "call", None),
        (multidom, "detect_unbalanced_kclique", "multidom.kclique", "call", None),
        (multidom, "solve_multidom_kminus1", "multidom.pipeline", "call", _pipeline),
        (multidom, "verify_solution", "multidom.verify", "call", None),
        (algebra, "complement_zero_pairs", "algebra.zero_pairs", "call", _zero_pairs),
        (algebra.BoolMatrix, "transpose", "algebra.transpose", "call", None),
        (patterndom, "enumerate_cliques", "patterndom.cliques", "call", _cliques),
        (patterndom, "list_dominating_ksets", "patterndom.dom_ksets", "generator", None),
        (reductions, "ov_to_multidom", "reductions.generate", "call", None),
        (reductions, "ov_to_hdom", "reductions.generate", "call", None),
        (reductions, "ov_to_induced_matching", "reductions.generate", "call", None),
        (reductions, "indepset_to_multidom", "reductions.generate", "call", None),
        (reductions, "solve_ov_bruteforce", "reductions.source_check", "call", None),
        (oracles, "oracle_unbalanced_clique", "oracles.source", "call", None),
        (by_name["domlab.cli"], "main", "cli.main", "call", None),
    ]
    out += [(patterndom, fn, "patterndom.solve", "call", None) for fn in PATTERN_SOLVERS]
    return out


def domlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "domlab" or name.startswith("domlab.")]


# --- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counters: Counter,
                  first: int = 0, last: int | None = None) -> dict[str, float]:
    """Per-layer timings (ms, summed over spans[first:last]) and exact counters.

    A span's self time is its duration minus its children's durations;
    children never overlap because traced solves run on one thread.
    """
    dur = [(s[2] - s[1]) / 1e6 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total: Counter = Counter()
    self_time: Counter = Counter()
    fallback = 0.0
    for i in range(first, len(spans) if last is None else last):
        s = spans[i]
        total[s[0]] += dur[i]
        self_time[s[0]] += dur[i] - child[i]
        if s[0] == "multidom.fast" and s[3] >= 0 and spans[s[3]][0] == "multidom.pipeline":
            fallback += dur[i]
    c = counters
    return {
        "graph.load_ms": total["graph.load"],
        "graph.heavy_ms": total["graph.heavy"],
        "graph.heavy_count": c["graph.heavy_count"],
        "graph.delete_closed_ms": total["graph.delete_closed"],
        "graph.delete_closed_calls": c["graph.delete_closed_calls"],
        "multidom.families_ms": total["multidom.families"],
        "multidom.family_members": c["multidom.family_members"],
        "multidom.family_keep_ratio": _ratio(c["multidom.family_members"],
                                             c["multidom.families_enumerated"]),
        "multidom.join_ms": self_time["multidom.fast"],
        "multidom.pair_bound": c["multidom.pair_bound"],
        "multidom.list2_ms": total["multidom.list2"],
        "multidom.list2_calls": c["multidom.list2_calls"],
        "multidom.list2_pairs": c["multidom.list2_pairs"],
        "multidom.clique_graph_ms": total["multidom.clique_graph"],
        "multidom.kclique_ms": total["multidom.kclique"],
        "multidom.pipeline_fallback_ms": fallback,
        "multidom.pipeline_clique_frac": _ratio(c["multidom.pipeline_clique_hits"],
                                                c["multidom.pipeline_runs"]),
        "multidom.verify_ms": total["multidom.verify"],
        "algebra.zero_pairs_ms": total["algebra.zero_pairs"],
        "algebra.zero_pairs_calls": c["algebra.zero_pairs_calls"],
        "algebra.zero_pairs_cells": c["algebra.zero_pairs_cells"],
        "algebra.zero_pairs_hit_ratio": _ratio(c["algebra.zero_pairs_hits"],
                                               c["algebra.zero_pairs_cells"]),
        "algebra.transpose_ms": total["algebra.transpose"],
        "patterndom.cliques_ms": total["patterndom.cliques"],
        "patterndom.cliques_count": c["patterndom.cliques_count"],
        "patterndom.dom_ksets_ms": total["patterndom.dom_ksets"],
        "patterndom.dom_ksets_yielded": c["patterndom.dom_ksets_yielded"],
        "patterndom.self_ms": sum(v for k, v in self_time.items() if k.startswith("patterndom.")),
        "reductions.generate_ms": total["reductions.generate"],
        "reductions.source_check_ms": total["reductions.source_check"],
        "oracles.source_ms": total["oracles.source"],
        "cli.self_ms": self_time["cli.main"],
    }


def exact_counters(metrics: dict[str, float], counters: Counter) -> dict[str, float]:
    """The counter metrics, the raw counts behind them, and the ratios made
    only of counts: everything that must repeat exactly for one seed."""
    out = {k: v for k, v in metrics.items() if k.endswith(COUNTER_SUFFIXES)}
    out.update(counters)
    for k in ("multidom.family_keep_ratio", "multidom.pipeline_clique_frac",
              "algebra.zero_pairs_hit_ratio"):
        out[k] = metrics[k]
    return dict(sorted(out.items()))
