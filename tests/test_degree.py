"""The degree query of `Graph` and its readers: `degree_at_least` against a
brute filter, and `heavy_vertices`, `iter_heavy_vertices`, `near_partners`
and `list_2_dominating_sets` against their scans over all n degrees,
kept here as they were before the graph kept its list of high-degree
vertices; then the adjacency-list passes of the sparse-wide benchmark
solves."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from bisect import bisect_left
from itertools import compress, islice, repeat
from math import isqrt
from operator import ge
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from domlab import Graph, OVInstance, graph, multidom, patterndom, solve_ov_bruteforce
from domlab.algebra import iter_bits

from .conftest import random_graph, star_graph
from .test_multidom import _reference_near


# --- the scans over all n degrees ---------------------------------------------

def _scan_iter_heavy_vertices(G, k, alive=None):
    size = G.n if alive is None else alive.bit_count()
    min_degree = -(-size // k) - 1
    lo = 0 if size == G.n else max((alive & -alive).bit_length() - 1, 0)
    degrees = map(len, islice(G.adj, lo, None))
    candidates = compress(range(lo, G.n), map(ge, degrees, repeat(min_degree)))
    if size == G.n:
        return candidates
    return (v for v in candidates
            if (alive >> v) & 1 and (G.closed_mask(v) & alive).bit_count() * k >= size)


def _scan_near_partners(G, miss, alive=None):
    n = G.n
    full = G.full_mask() if alive is None else alive
    need = full.bit_count() - miss
    if 2 * (max(map(len, G.adj), default=0) + 1) < need:
        return None
    lengths = list(map(len, G.adj))
    passing = map(ge, lengths, itertools.repeat(-(-need // 2) - 1))
    starts = {v: nv for v in itertools.compress(range(n), passing)
              if full >> v & 1 and 2 * (nv := G.closed_mask(v) & full).bit_count() >= need}
    if not starts:
        return None
    near = [0] * n
    low = need - max(map(int.bit_count, starts.values()))
    passing = map(ge, lengths, itertools.repeat(low - 1))
    order = sorted((v for v in itertools.compress(range(n), passing) if full >> v & 1),
                   key=lengths.__getitem__)
    ordered = [lengths[v] + 1 for v in order]
    masks = [G.closed_mask(v) & full for v in order]
    for a, na in starts.items():
        lo = bisect_left(ordered, need - na.bit_count())
        for b, nb in zip(order[lo:], masks[lo:]):
            if b >= a and b in starts:
                continue
            if (full ^ (na | nb)).bit_count() <= miss:
                near[a] |= 1 << b
                near[b] |= 1 << a
    return near


def _scan_list_2_dominating_sets(G, alive=None):
    near = _scan_near_partners(G, 0, alive) or ()
    return [(u, v) for u, partners in itertools.compress(enumerate(near), near)
            for v in iter_bits(partners >> u << u)]


def _split(G):
    return max(1, isqrt(2 * G.m))


# --- graphs ---------------------------------------------------------------------

def _hub_graph(seed, n, hubs, extra):
    """`hubs` vertices joined to about 3/4 of the rest, plus `extra` random
    edges: with n >= 8 the hubs' degrees lie above √(2m)."""
    rng = random.Random(f"degree-hubs:{seed}")
    hub_ids = rng.sample(range(n), min(hubs, n))
    edges = {(min(h, v), max(h, v)) for h in hub_ids for v in range(n)
             if v != h and rng.random() < 0.75}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra if n >= 2 else 0)}
    return Graph(n, sorted(edges))


@st.composite
def _graphs(draw):
    kind = draw(st.sampled_from(["random", "star", "hubs", "edgeless"]))
    n = draw(st.integers(0, 36))
    seed = draw(st.integers(0, 2**16))
    if kind == "random":
        return random_graph(f"degree:{seed}", n, draw(st.sampled_from([0.05, 0.2, 0.5, 0.9])))
    if kind == "star":
        return star_graph(max(n - 1, 0))
    if kind == "hubs":
        return _hub_graph(seed, n, draw(st.integers(1, 4)), draw(st.integers(0, n)))
    return Graph(n, [])


def test_hub_graphs_have_vertices_above_the_split():
    # so the strategy's hub graphs reach the list, not only the scan
    for seed in range(20):
        G = _hub_graph(seed, 30, 3, 10)
        assert list(G.degree_at_least(_split(G))), G


# --- the degree query -------------------------------------------------------------

def _brute(G, t, lo=0):
    return [v for v in range(lo, G.n) if len(G.adj[v]) >= t]


@given(_graphs(), st.booleans(), st.integers(0, 40))
@example(star_graph(20), True, 0)  # the hub alone has degree >= T = 6
@example(Graph(0, []), False, 0)
@example(Graph(6, []), True, 3)  # m = 0: T clamps to 1 and the list is empty
@settings(max_examples=300, deadline=None)
def test_degree_at_least_is_the_brute_filter(G, descending, lo):
    # every t in -1..n+1, T and T - 1 among them, from either end: the list
    # is built by the first query at or above T (T < n + 1 always)
    T = _split(G)
    thresholds = list(range(-1, G.n + 2))
    for t in reversed(thresholds) if descending else thresholds:
        assert list(G.degree_at_least(t)) == _brute(G, t), (G, t)
        assert list(G.degree_at_least(t, lo)) == _brute(G, t, lo), (G, t, lo)
        assert (G._high is None) == (not descending and t < T), (G, t)
    assert G._high == _brute(G, T) and len(G._high) * T <= 2 * G.m


# --- the readers, against the scans -----------------------------------------------

_ops = st.lists(st.tuples(st.sampled_from(["heavy", "iter_heavy", "near", "list2"]),
                          st.integers(1, 5), st.integers(0, 2**36), st.booleans()),
                min_size=1, max_size=8)


@given(_graphs(), _ops)
@example(star_graph(12), [("near", 0, 0, True), ("heavy", 1, 0, True)])
@example(_hub_graph(2, 30, 3, 12), [("heavy", 3, 0, True), ("list2", 1, 2**30 - 1 - 7, False),
                                    ("near", 2, 0, True), ("iter_heavy", 2, 2**29 - 5, False)])
@settings(max_examples=300, deadline=None)
def test_readers_equal_the_scans(G, ops):
    # one graph answers a sequence of calls, some before and some after its
    # list exists; a random `alive` is a random mask of G's vertices (or V)
    for op, k, bits, whole in ops:
        alive = None if whole else bits & G.full_mask()
        if op == "heavy":
            assert graph.heavy_vertices(G, k) == tuple(_scan_iter_heavy_vertices(G, k)), (G, k)
        elif op == "iter_heavy":
            got = list(graph.iter_heavy_vertices(G, k, alive))
            assert got == list(_scan_iter_heavy_vertices(G, k, alive)), (G, k, alive)
        elif op == "near":
            miss = k - 1
            got = multidom.near_partners(G, miss, alive)
            assert got == (_scan_near_partners(G, miss, alive) or [0] * G.n), (G, miss, alive)
            assert got == _reference_near(G, miss, alive), (G, miss, alive)
        else:
            got = multidom.list_2_dominating_sets(G, alive)
            assert got == _scan_list_2_dominating_sets(G, alive), (G, alive)


def test_near_partners_scan_only_what_they_mark():
    # every vertex with a partner is among the scanned ones, in id order
    for seed in range(30):
        G = _hub_graph(seed, 24, 1 + seed % 3, 20)
        for miss in range(3):
            near, scanned = multidom._near_partners(G, miss, None)
            if near is None:
                assert scanned == []
                continue
            assert scanned == sorted(scanned)
            assert [v for v in range(G.n) if near[v]] == [v for v in scanned if near[v]]


# --- passes over G.adj in the sparse-wide solves ----------------------------------

class CountingList(list):
    """A list that counts the iterations over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _sparse_wide_block(work: Path):
    root = Path(multidom.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    # registered first: its dataclass looks its module up by name
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS["sparse-wide"].block(1, 0, 0, work)


def test_sparse_wide_solves_pass_over_the_graph_once(tmp_path):
    # each sparse-wide solve reads all n degrees once: c-indep-hubs (three
    # passes before the graph kept its list) answers every threshold after
    # its first from the list, and the a-* NO solves stop after one `max`
    # and build no list
    seen = set()
    for inst in _sparse_wide_block(tmp_path):
        G = inst.make_graph()
        G.adj = CountingList(G.adj)
        sol = patterndom.solve(G, inst.problem)
        assert (sol is not None) == inst.expected and G.adj.iterations == 1, inst.group
        if inst.group.startswith("a-"):
            assert G._high is None, inst.group
        if inst.group == "c-indep-hubs":
            assert G._high is not None and len(G._high) * _split(G) <= 2 * G.m
        seen.add(inst.group)
    assert seen == {"a-clique", "a-indepset", "b-hubs", "c-indep-hubs", "d-load"}


# --- the OV source decider builds a set's masks when it first reaches it ----------

class _Unread(tuple):
    def __iter__(self):
        raise AssertionError("a set the search never reaches was read")


@pytest.mark.parametrize("r, unread", [(3, 1), (2, 2)])
def test_ov_bruteforce_reads_only_the_sets_it_reaches(r, unread):
    # d = 1, k = 3: a prefix of i + 1 sets is cut unless it has
    # r - (k - i - 1) zeros; sets 0 and 1 have none
    inst = OVInstance.from_lists(1, [[[1]], [[1]], [[0]]])
    object.__setattr__(inst, "sets", inst.sets[:unread] + tuple(map(_Unread, inst.sets[unread:])))
    assert solve_ov_bruteforce(inst, r) is False
