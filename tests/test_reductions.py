from __future__ import annotations

import hashlib
import itertools
import io
import json
import os
import random
import re
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from domlab import (
    Graph,
    KPartiteGraph,
    OVInstance,
    Pattern,
    Problem,
    indepset_to_multidom,
    load_ov,
    ov_to_hdom,
    ov_to_induced_matching,
    ov_to_multidom,
    save_graph,
    save_ov,
    solve,
    solve_ov_bruteforce,
    verify_reduction,
)
from domlab import multidom, oracles, reductions
from domlab.oracles import OracleBudgetError, oracle_multidom, oracle_unbalanced_clique
from domlab.reductions import indepset_groups, pad_special_coordinates

from .reference_oracles import clique_product_scan, ov_product_scan


def _random_ov(seed, sizes, d, zero_prob=0.5):
    rng = random.Random(seed)
    return OVInstance.from_lists(
        d, [[tuple(0 if rng.random() < zero_prob else 1 for _ in range(d))
             for _ in range(s)] for s in sizes])


def _random_kpartite(seed, sizes, p=0.5):
    rng = random.Random(seed)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    if rng.random() < p:
                        edges.append(((i, a), (j, b)))
    return KPartiteGraph(sizes, edges)


def test_ov_bruteforce_classic_pair():
    inst = OVInstance.from_lists(2, [[(0, 1)], [(1, 0)]])
    assert solve_ov_bruteforce(inst, 1)


def test_ov_bruteforce_all_ones():
    inst = OVInstance.from_lists(2, [[(1, 1)], [(1, 1)], [(1, 1)]])
    assert not solve_ov_bruteforce(inst, 1)
    assert not solve_ov_bruteforce(inst, 2)


def test_ov_bruteforce_all_zeros():
    inst = OVInstance.from_lists(2, [[(0, 0)]] * 3)
    assert solve_ov_bruteforce(inst, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(1, 4), min_size=2, max_size=5),
       st.integers(1, 6), st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]), st.integers(0, 4))
@example(0, [2, 3], 3, 1.0, 1)  # all-zero vectors at r = k
@example(0, [3, 1, 2], 4, 0.0, 0)  # all-one vectors
@example(5, [4, 4, 4, 4, 4], 5, 0.6, 4)  # r = k = 5
def test_ov_bruteforce_matches_the_product_scan(seed, sizes, d, zero_prob, r):
    # the cut search answers as the scan over every transversal, at every r
    inst = _random_ov(seed, sizes, d, zero_prob)
    r = r % inst.k + 1
    assert solve_ov_bruteforce(inst, r) == ov_product_scan(inst, r)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 4), max_size=5), st.floats(0.0, 1.0))
@example(0, [], 0.5)  # k = 0: the one empty transversal
@example(0, [3], 0.0)  # k = 1: the part's first vertex
@example(0, [2, 0, 3], 1.0)  # an empty part: no transversal
@example(0, [3, 3, 3, 3], 1.0)  # complete: the first transversal
def test_clique_oracle_matches_the_product_scan(seed, sizes, p):
    # the same answer and the same first transversal, in product order
    kp = _random_kpartite(seed, sizes, p)
    assert oracle_unbalanced_clique(kp) == clique_product_scan(kp)
    # the complement's bit rows are those of the pair-by-pair complement
    complement = [((i, a), (j, b)) for i, j in itertools.combinations(range(kp.k), 2)
                  for a in range(kp.sizes[i]) for b in range(kp.sizes[j])
                  if not kp.has_edge(i, a, j, b)]
    assert reductions._complement_kpartite(kp).adj == KPartiteGraph(kp.sizes, complement).adj


def test_clique_oracle_shares_no_code_with_the_generator(monkeypatch):
    # is-multidom lists its members with multidom._range_cliques; the oracle
    # that certifies its answer must not
    def listing(*args):
        raise AssertionError("the oracle called multidom._range_cliques")

    monkeypatch.setattr(multidom, "_range_cliques", listing)
    kp = _random_kpartite(3, [3, 3, 3], 0.7)
    assert oracle_unbalanced_clique(kp) == clique_product_scan(kp) is not None


def test_ov_json_round_trip(tmp_path):
    inst = _random_ov(3, [2, 3], 4)
    path = tmp_path / "ov.json"
    save_ov(inst, path)
    assert load_ov(path) == inst
    assert load_ov(save_ov(inst)) == inst
    assert load_ov(io.StringIO(save_ov(inst))) == inst
    with pytest.raises(ValueError, match="^OV source stream: "):
        load_ov(io.StringIO(save_ov(inst)[:-1]))


def test_ov_instance_validation():
    with pytest.raises(ValueError):
        OVInstance.from_lists(2, [[(0, 1)]])  # only one set
    with pytest.raises(ValueError):
        OVInstance.from_lists(2, [[(0, 1)], [(0,)]])  # wrong dimension
    with pytest.raises(ValueError):
        OVInstance.from_lists(1, [[(2,)], [(0,)]])  # non-binary


def test_ov_to_multidom_vertex_count():
    inst = OVInstance.from_lists(2, [[(0, 1)], [(1, 0)]])
    out = ov_to_multidom(inst, 1)
    # 1 + 1 vectors, 2 dimensions, (k+1)*C(k,r) = 3*2 redundant
    assert out.graph.n == 10
    assert out.params["redundant_vertices"] == 6


def test_ov_to_multidom_size_formula_random():
    for seed in range(25):
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        r = rng.randint(1, k - 1)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        d = rng.randint(1, 4)
        out = ov_to_multidom(_random_ov(seed, sizes, d), r)
        assert out.graph.n == sum(sizes) + d + (k + 1) * comb(k, r)
        assert len(out.id_map) == out.graph.n


def test_ov_to_multidom_forcing_one_vertex_per_part():
    # every brute-force solution picks exactly one vertex from each vector part
    for seed in range(20):
        inst = _random_ov(seed, [2, 2], 3, zero_prob=0.6)
        out = ov_to_multidom(inst, 1)
        sol = oracle_multidom(out.graph, 2, 1, "multiple")
        if sol is None:
            continue
        parts = [out.id_map[v][1] for v in sol.vertices]
        assert all(out.id_map[v][0] == "vector" for v in sol.vertices)
        assert sorted(parts) == [0, 1]


def test_ov_to_hdom_block_sizes():
    inst = _random_ov(1, [3, 2, 3], 2)
    out = ov_to_hdom(inst, Pattern.path(3))
    assert out.params["block_sizes"] == [4, 4, 4]
    big = _random_ov(1, [6, 2, 3], 2)
    assert ov_to_hdom(big, Pattern.path(3)).params["block_sizes"] == [4, 4, 6]


def test_ov_to_hdom_requires_matching_k():
    with pytest.raises(ValueError):
        ov_to_hdom(_random_ov(0, [1, 1], 2), Pattern.path(3))


def test_ov_matching_padding_dimension_count():
    inst = _random_ov(2, [1, 1, 1, 1], 3)
    out = ov_to_induced_matching(inst)
    assert out.params["d_padded"] == 3 + 4 * 5
    assert pad_special_coordinates(inst).d == 3 + 4 * 5


def test_ov_matching_padding_preserves_answer():
    for seed in range(30):
        inst = _random_ov(seed, [2, 1, 1, 2], 3, zero_prob=0.55)
        assert solve_ov_bruteforce(inst, 1) == solve_ov_bruteforce(
            pad_special_coordinates(inst), 1)


def test_ov_matching_rejects_odd_k():
    with pytest.raises(ValueError):
        ov_to_induced_matching(_random_ov(0, [1, 1, 1], 2))


def test_indepset_reduction_block_structure():
    src = _random_kpartite(0, [2, 2, 2])
    out = indepset_to_multidom(src, 2, Fraction(1, 2))
    roles = [role for role in out.id_map if role[0] == "redundant"]
    assert len(roles) == 2 * 3  # k blocks of size k+1
    assert out.params["k_prime"] == 3
    assert out.problem.kind == "multiple" and out.problem.r == 1


def test_indepset_reduction_part_count_mismatch():
    with pytest.raises(ValueError):
        indepset_to_multidom(_random_kpartite(0, [2, 2]), 2, Fraction(1, 2))


def test_kpartite_refuses_negative_part_size():
    with pytest.raises(ValueError, match="part sizes must be nonnegative, got -1"):
        KPartiteGraph([2, -1, 2], [])


def test_indepset_reduction_checks_the_transversal_budget_first(monkeypatch):
    def listed(*args):
        raise AssertionError("a transversal was listed before the budget check")

    monkeypatch.setattr(reductions, "_range_cliques", listed)
    monkeypatch.setattr(reductions, "_complement_kpartite", listed)
    # k = 2, gamma = 1/2: the last group is parts 1 and 2, 1001^2 > 10^6 transversals
    with pytest.raises(OracleBudgetError,
                       match=r"group 1 \(2 source parts\) has more than 1000000 transversals"):
        indepset_to_multidom(KPartiteGraph([1001] * 3, []), 2, Fraction(1, 2))


def test_indepset_groups_check_the_cross_pair_budget():
    # one transversal per group, but C(100002, 2) > 10^6 vertex pairs to draw
    with pytest.raises(OracleBudgetError,
                       match=r"100002 source parts have 5000150001 cross-part vertex pairs"):
        reductions.indepset_groups([1] * 100_002, 3, Fraction(1, 100_000), 1)
    # exactly at the budget: 1000 * 1000 pairs between two parts
    assert len(reductions.indepset_groups([1000, 1000, 0], 2, Fraction(1, 2), 1)) == 2


def test_indepset_part_count_owns_the_source_shape(monkeypatch):
    # d * k' with k' = (k-1)p + q, refused above the budget before a part is
    # listed; indepset_groups checks a source against it
    assert reductions.indepset_part_count(4, Fraction(2, 3), 2) == 2 * (3 * 2 + 3)
    with pytest.raises(OracleBudgetError,
                       match="^is-multidom would have 2000002 source parts, more than 1000000$"):
        reductions.indepset_part_count(3, Fraction(1, 2_000_000), 1)
    with pytest.raises(ValueError, match=r"^gamma must be in \(0, 1\), got 3/2$"):
        reductions.indepset_part_count(3, Fraction(3, 2), 1)
    with pytest.raises(ValueError, match="^need k >= 2 and d >= 1, got k=3, d=0$"):
        reductions.indepset_part_count(3, Fraction(1, 2), 0)
    with pytest.raises(ValueError, match=r"^source must have d\*k' = 3 parts, got 4$"):
        indepset_groups([1] * 4, 2, Fraction(1, 2), 1)
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", 3)
    assert reductions.indepset_part_count(2, Fraction(1, 2), 1) == 3
    with pytest.raises(OracleBudgetError, match="^is-multidom would have 4 source parts"):
        indepset_groups([1] * 4, 2, Fraction(1, 3), 1)


def test_indepset_groups_check_the_part_pair_budget():
    # empty parts hold no vertex pair, but a draw and its complement walk
    # every pair of parts: C(1415, 2) = 1,000,405 of them; C(1414, 2) passes
    with pytest.raises(OracleBudgetError,
                       match="^1415 source parts have 1000405 part pairs, more than 1000000$"):
        indepset_groups([0] * 1415, 2, Fraction(1, 1414), 1)
    assert len(indepset_groups([0] * 1414, 2, Fraction(1, 1413), 1)) == 2


def test_generated_graphs_are_simple_and_maps_total():
    inst = _random_ov(5, [2, 2, 2], 3)
    for out in (ov_to_multidom(inst, 1), ov_to_multidom(inst, 2),
                ov_to_hdom(inst, Pattern.clique(3))):
        assert len(out.id_map) == out.graph.n
        assert len(set(out.id_map)) == out.graph.n
        for u, v in out.graph.edges():
            assert u != v


def test_verify_reduction_ov_multidom_sample():
    for seed in range(20):
        rng = random.Random(seed)
        k = rng.choice([2, 3])
        r = rng.randint(1, k - 1)
        inst = _random_ov(seed, [rng.randint(1, 3) for _ in range(k)],
                          rng.randint(1, 4), zero_prob=0.6)
        assert verify_reduction("ov-multidom", inst, r)


def test_verify_reduction_yes_and_no_fixtures():
    yes = OVInstance.from_lists(2, [[(0, 0)], [(0, 0)], [(0, 0)], [(0, 0)]])
    no = OVInstance.from_lists(2, [[(1, 1)], [(1, 1)], [(1, 1)], [(1, 1)]])
    assert verify_reduction("ov-matching", yes)
    assert verify_reduction("ov-matching", no)
    assert verify_reduction("ov-multidom", yes, 2)
    assert verify_reduction("ov-multidom", no, 1)


def test_verify_reduction_is_multidom_complete_source():
    complete = KPartiteGraph(
        [2, 2, 2],
        [((i, a), (j, b)) for i in range(3) for j in range(i + 1, 3)
         for a in range(2) for b in range(2)])
    assert verify_reduction("is-multidom", complete, (2, Fraction(1, 2), 1))


def test_verify_reduction_is_multidom_builds_the_complement_once(monkeypatch):
    calls = []
    real = reductions._complement_kpartite

    def counted(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(reductions, "_complement_kpartite", counted)
    for seed in range(4):
        calls.clear()
        source = _random_kpartite(seed, [2, 2, 2])
        assert verify_reduction("is-multidom", source, (2, Fraction(1, 2), 1))
        assert calls == [source]


@pytest.mark.parametrize("call, message", [
    (lambda: solve_ov_bruteforce(_random_ov(0, [1, 1], 1), 3), "need 1 <= r <= k, got r=3, k=2"),
    (lambda: ov_to_multidom(_random_ov(0, [1, 1], 1), 2), "need 1 <= r <= k-1, got r=2, k=2"),
    (lambda: ov_to_hdom(_random_ov(0, [1, 1], 1), Pattern.path(2)), "need k >= 3, got 2"),
    (lambda: indepset_groups([1] * 3, 2, Fraction(1), 1), "gamma must be in (0, 1), got 1"),
    (lambda: indepset_groups([1] * 3, 1, Fraction(1, 2), 1), "need k >= 2 and d >= 1, got k=1, d=1"),
], ids=["bruteforce-r", "multidom-r", "hdom-k", "gamma", "indepset-k"])
def test_generators_refuse_r_k_and_gamma_outside_their_range(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_verify_reduction_unknown_generator():
    with pytest.raises(ValueError):
        verify_reduction("nope", _random_ov(0, [1, 1], 1), 1)


# SHA-256 of the saved graph plus the JSON of params and id_map, for fixed
# seeded sources: pins vertex numbering and role order, not just answers.
GENERATOR_DIGESTS = {
    "multidom-k3-r1": (lambda: ov_to_multidom(_random_ov(31, [2, 3, 1], 4), 1),
                       "1d0be8c4edb93bdf3b46f38011e0a0ab107b4578ec8400126745969d28cc52fd"),
    "multidom-k3-r2": (lambda: ov_to_multidom(_random_ov(32, [2, 3, 1], 4), 2),
                       "9ee8c6b7b4b3fd633b6aa3b69c9deff39c7ffd9477a268ddcec199b342c56287"),
    "multidom-k4-r1": (lambda: ov_to_multidom(_random_ov(41, [2, 3, 1, 2], 4), 1),
                       "6e31a95d9fde1f7847189302531bf31c457f310ce4ffeab40f20a7743508e3c9"),
    "multidom-k4-r2": (lambda: ov_to_multidom(_random_ov(42, [2, 3, 1, 2], 4), 2),
                       "f603f1463283f2954733a81ad882eb4d825bf87aa40aeda7849551bd73723145"),
    "multidom-k4-r3": (lambda: ov_to_multidom(_random_ov(43, [2, 3, 1, 2], 4), 3),
                       "5c3e6b3174f020068725e793293de94584072b834df690a140e60b391c3b900a"),
    "hdom-path": (lambda: ov_to_hdom(_random_ov(7, [2, 1, 3, 2], 3), Pattern.path(4)),
                  "694edc6128402dc396529c8ede70fc49e0047b0adc10b4803d5247490cd2843e"),
    "hdom-clique": (lambda: ov_to_hdom(_random_ov(8, [3, 2, 5], 3), Pattern.clique(3)),
                    "f48c26eddacacca25d47e3b3b471a3c82a42ef918e805392dabf08b01ba3efd9"),
    "matching-k4": (lambda: ov_to_induced_matching(_random_ov(9, [2, 1, 2, 1], 3)),
                    "a0b47a84f4afbecf8424516019400e4433e64cf376179671bb1c45c74389ecb4"),
    "matching-k6": (lambda: ov_to_induced_matching(_random_ov(11, [1, 2, 1, 1, 2, 1], 2)),
                    "cf85aa0f7f1e62e518703c1659195ce2f54bb5e92b4213944237555ddaf26b94"),
    "indepset-half": (lambda: indepset_to_multidom(_random_kpartite(12, [2, 2, 1, 2]), 3,
                                                   Fraction(1, 2)),
                      "265c6a0fbac9b9935b4e8f614b9c91c487fe50f7a97cbe07190d049795690e74"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(name):
    make, digest = GENERATOR_DIGESTS[name]
    out = make()
    blob = save_graph(out.graph) + json.dumps(
        [out.params, [list(map(str, role)) for role in out.id_map]])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_ov_bruteforce_checks_the_transversal_budget_first():
    # 101^3 > 10^6 transversals: refused before the first one is tried
    inst = OVInstance.from_lists(1, [[(1,)] * 101] * 3)
    with pytest.raises(OracleBudgetError, match="^3 sets have more than 1000000 transversals$"):
        solve_ov_bruteforce(inst, 1)
    # exactly at the budget: 100^3 transversals, and the first is orthogonal
    assert solve_ov_bruteforce(OVInstance.from_lists(1, [[(0,)] * 100] * 3), 1)


def test_verify_reduction_checks_the_target_size_before_building(monkeypatch):
    # 40 sets of one "11" vector at r = 20: C(40, 20) redundancy blocks of
    # 41 vertices each, refused before the target is built
    def build(*args):
        raise AssertionError("the target was built before the size budget check")

    monkeypatch.setattr(reductions, "ov_to_multidom", build)
    source = OVInstance.from_lists(2, [[(1, 1)]] * 40)
    with pytest.raises(OracleBudgetError, match=f"would have {40 + 2 + 41 * comb(40, 20)} "
                                                "target vertices, more than"):
        verify_reduction("ov-multidom", source, 20)


def test_saved_sidecar_rebuilds_the_target_problem(tmp_path):
    # an edgeless pattern keeps its empty edge list, not null
    inst = _random_ov(3, [1, 1, 1], 2)
    for out in (ov_to_hdom(inst, Pattern.from_edges(3, [])),
                ov_to_hdom(inst, Pattern.path(3)), ov_to_multidom(inst, 2)):
        reductions.save_reduction(out, tmp_path / "t.graph", tmp_path / "t.json")
        saved = json.loads((tmp_path / "t.json").read_text())["problem"]
        edges = saved["pattern_edges"]
        assert Problem(saved["kind"], saved["k"], saved["r"],
                       None if edges is None else frozenset(map(tuple, edges))) == out.problem


_SHORT_OV = OVInstance.from_lists(2, [[(0, 1)], [(1, 0)]])
_LONG_OV = OVInstance.from_lists(4, [[(0, 1, 1, 0), (1, 1, 0, 0)]] * 3)

# every writer of a domlab output file, as write(target, long): it writes the
# longer or the shorter of two outputs to `target`, a path or a stream
FILE_WRITERS = {
    "save_graph": lambda target, long: save_graph(
        Graph(9, [(0, v) for v in range(1, 9)]) if long else Graph(2, [(0, 1)]), target),
    "save_ov": lambda target, long: save_ov(_LONG_OV if long else _SHORT_OV, target),
    "save_reduction graph": lambda target, long: reductions.save_reduction(
        ov_to_multidom(_LONG_OV if long else _SHORT_OV, 1), target, io.StringIO()),
    "save_reduction sidecar": lambda target, long: reductions.save_reduction(
        ov_to_multidom(_LONG_OV if long else _SHORT_OV, 1), io.StringIO(), target),
}


@pytest.mark.parametrize("name", sorted(FILE_WRITERS))
def test_file_writers_overwrite_in_place(tmp_path, name):
    # a longer file is cut to exactly the new bytes, on the same inode
    write = FILE_WRITERS[name]
    path, fresh = tmp_path / "out", tmp_path / "fresh"
    write(path, True)
    inode, long_size = path.stat().st_ino, path.stat().st_size
    write(path, False)
    write(fresh, False)
    assert path.read_bytes() == fresh.read_bytes()
    assert len(fresh.read_bytes()) < long_size
    assert path.stat().st_ino == inode


@pytest.mark.parametrize("name", sorted(FILE_WRITERS))
def test_file_writers_follow_symlinks(tmp_path, name):
    write = FILE_WRITERS[name]
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    write(target, True)
    link.symlink_to(target)
    write(link, False)
    write(fresh, False)
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("name", sorted(FILE_WRITERS))
def test_file_writers_fill_streams(tmp_path, name):
    write = FILE_WRITERS[name]
    buf, path = io.StringIO(), tmp_path / "out"
    returned = write(buf, True)
    write(path, True)
    assert buf.getvalue() and buf.getvalue().encode() == path.read_bytes()
    if returned is not None:  # save_graph and save_ov return the text too
        assert returned == buf.getvalue()


def test_file_writers_never_open_with_truncation(tmp_path, monkeypatch):
    # a truncating open waits for the writeback of the file it replaces
    flags = []

    def recording_open(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    real_open = os.open
    monkeypatch.setattr(os, "open", recording_open)
    for name, write in FILE_WRITERS.items():
        for long in (False, True, False):  # create, grow, then shrink one file
            write(tmp_path / name, long)
    assert len(flags) == 3 * len(FILE_WRITERS)
    assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)


def test_save_graph_writes_to_a_fifo(tmp_path):
    # a FIFO's size reads 0, so the writer never tries to truncate it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    text = FILE_WRITERS["save_graph"](fifo, True)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [text.encode()]


def test_reduction_budgets_are_read_at_call_time(monkeypatch):
    # the budget is oracles.MAX_TRANSVERSALS as it stands when called, the
    # one the brute-force oracles enforce
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", 10)
    with pytest.raises(OracleBudgetError, match="C\\(6, 3\\) = 20 subsets, more than 10"):
        solve(Graph(6, []), Problem("multiple", 3, 1), "brute")
    with pytest.raises(OracleBudgetError, match="^3 sets have more than 10 transversals$"):
        solve_ov_bruteforce(OVInstance.from_lists(1, [[(0,)] * 5] * 3), 1)
    with pytest.raises(OracleBudgetError,
                       match=r"group 1 \(2 source parts\) has more than 10 transversals"):
        reductions.indepset_groups([5, 5, 5], 2, Fraction(1, 2), 1)
    with pytest.raises(OracleBudgetError,
                       match="ov-multidom would have 60 source vector entries, more than 10"):
        reductions.ov_budget("ov-multidom", [5, 5, 5], 4, 1)
