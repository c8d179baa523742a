"""Acceptance suite: one test per criterion, each ending in a printed
PASS line with the exercised counts and tolerances."""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from domlab import (
    Graph,
    KPartiteGraph,
    OVInstance,
    Pattern,
    Problem,
    build_candidate_families,
    complement_zero_pairs,
    detect_unbalanced_kclique,
    enumerate_cliques,
    grouping_parameters,
    heavy_vertices,
    oracle_multidom,
    oracle_pattern,
    oracle_unbalanced_clique,
    ov_to_hdom,
    ov_to_induced_matching,
    ov_to_multidom,
    indepset_to_multidom,
    solve_dominating_clique,
    solve_dominating_indepset,
    solve_dominating_induced_matching,
    solve_multidom_fast,
    solve_multidom_kminus1,
    verify_reduction,
    verify_solution,
)
from domlab.algebra import BoolMatrix
from domlab.cli import closed_form_family_size, main, _random_gnm

from .conftest import complete_graph, cycle_graph, path_graph, random_graph
from .reference_algebra import PolyMatrix, TruncatedPoly, poly_mat_mul


def _closed_form(G: Graph, k: int, fam) -> int:
    return closed_form_family_size(G.n, len(heavy_vertices(G, k)), fam.size, fam.quota)


@pytest.fixture(scope="module")
def multidom_sweep():
    """Criterion 1 data: fast vs oracle over >= 500 random graphs, every
    (k <= 5, r <= k-1), both variants."""
    t0 = time.perf_counter()
    records = []
    mismatches = []
    for seed in range(500):
        n = 5 + seed % 10  # 5..14
        p = (0.15, 0.3, 0.6)[seed % 3]
        G = random_graph(f"acc1:{seed}", n, p)
        for k in range(2, min(5, n) + 1):
            for r in range(1, k):
                for variant in ("multiple", "tuple"):
                    fast = solve_multidom_fast(G, k, r, variant)
                    oracle = oracle_multidom(G, k, r, variant)
                    records.append((G, k, r, variant, fast, oracle))
                    if (fast is None) != (oracle is None):
                        mismatches.append((seed, n, p, k, r, variant))
    return {"records": records, "mismatches": mismatches,
            "graphs": 500, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def pipeline_sweep():
    """Criterion 2 data: clique pipeline vs exact-k oracle, k in {3, 4}."""
    records = []
    mismatches = []
    for seed in range(300):
        n = 5 + seed % 10
        p = (0.2, 0.4, 0.6)[seed % 3]
        G = random_graph(f"acc2:{seed}", n, p)
        for k in (3, 4):
            if k > n:
                continue
            sol = solve_multidom_kminus1(G, k)
            oracle = oracle_multidom(G, k, k - 1, "multiple")
            records.append((G, k, sol, oracle))
            if (sol is None) != (oracle is None):
                mismatches.append((seed, n, p, k))
    return {"records": records, "mismatches": mismatches, "graphs": 300}


def test_criterion_01_multidom_oracle_equivalence(multidom_sweep):
    assert multidom_sweep["mismatches"] == []
    checked = 0
    for G, k, r, variant, fast, _ in multidom_sweep["records"]:
        if fast is not None:
            assert verify_solution(G, Problem(variant, k, r), fast.vertices)
            checked += 1
    assert multidom_sweep["elapsed"] < 120.0
    print(f"\nACCEPTANCE 1 PASS: fast=oracle on {len(multidom_sweep['records'])} "
          f"instances over {multidom_sweep['graphs']} graphs, 0 mismatches, "
          f"{checked} certificates verified, {multidom_sweep['elapsed']:.1f}s < 120s")


def test_criterion_02_pipeline_equivalence(pipeline_sweep):
    assert pipeline_sweep["mismatches"] == []
    for G, k, sol, _ in pipeline_sweep["records"]:
        if sol is not None:
            assert verify_solution(G, Problem("multiple", k, k - 1), sol.vertices)
    # fixtures: the oracle is authoritative for both
    p4 = solve_multidom_kminus1(path_graph(4), 3)
    assert p4 is not None and p4.vertices == (0, 1, 3)
    c6 = solve_multidom_kminus1(cycle_graph(6), 3)
    c6_oracle = oracle_multidom(cycle_graph(6), 3, 2, "multiple")
    assert (c6 is None) == (c6_oracle is None)
    if c6 is not None:
        assert verify_solution(cycle_graph(6), Problem("multiple", 3, 2), c6.vertices)
    print(f"\nACCEPTANCE 2 PASS: pipeline=oracle on {len(pipeline_sweep['records'])} "
          f"instances over {pipeline_sweep['graphs']} graphs, 0 mismatches; "
          f"P4(k=3)=YES fixture holds, C6(k=3) agrees with the exact-k oracle")


def test_criterion_03_heavy_vertex_property(multidom_sweep, pipeline_sweep):
    violations = 0
    checked = 0
    for G, k, r, _, _, oracle in multidom_sweep["records"]:
        if oracle is not None:
            checked += 1
            heavy = set(heavy_vertices(G, k))
            if sum(1 for v in oracle.vertices if v in heavy) < r:
                violations += 1
    for G, k, _, oracle in pipeline_sweep["records"]:
        if oracle is not None:
            checked += 1
            heavy = set(heavy_vertices(G, k))
            if sum(1 for v in oracle.vertices if v in heavy) < k - 1:
                violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 3 PASS: |S∩heavy| >= r for all {checked} oracle "
          f"solutions from criteria 1-2, 0 violations")


def test_criterion_04_family_exactness():
    checked = 0
    for seed in range(100):
        n = 5 + seed % 9
        G = random_graph(f"acc4:{seed}", n, (0.2, 0.4, 0.6)[seed % 3])
        for k in range(2, min(5, n) + 1):
            for r in range(1, k):
                for fam in build_candidate_families(G, k, r):
                    assert len(fam.members) == _closed_form(G, k, fam)
                    checked += 1
    print(f"\nACCEPTANCE 4 PASS: family sizes equal the closed-form binomial "
          f"count in {checked} checks over 100 graphs, exact equality")


def test_criterion_05_clique_count_bound():
    checked = 0
    for seed in range(200):
        n = 5 + seed % 8
        G = random_graph(f"acc5:{seed}", n, (0.25, 0.5, 0.75)[seed % 3])
        for t in (2, 3, 4, 5):
            count = len(enumerate_cliques(G, t))
            assert count ** 2 <= (2 * G.m) ** t
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: clique count <= (2m)^(t/2) in {checked} checks "
          f"(t in 2..5) over 200 graphs, 0 violations")


def test_criterion_06_pattern_solver_equivalence():
    compared = {"clique": 0, "indepset": 0, "matching": 0}
    for seed in range(300):
        n = 5 + seed % 8  # 5..12
        G = random_graph(f"acc6:{seed}", n, (0.2, 0.4, 0.6)[seed % 3])
        k = 1 + seed % 4
        k_even = 2 if k <= 2 else 4
        cases = [("clique", solve_dominating_clique, k, Pattern.clique(k)),
                 ("indepset", solve_dominating_indepset, k, Pattern.edgeless(k)),
                 ("matching", solve_dominating_induced_matching, k_even,
                  Pattern.matching(k_even))]
        for name, solver, kk, H in cases:
            got = solver(G, kk)
            want = oracle_pattern(G, H)
            assert (got is None) == (want is None), (seed, name, kk)
            if got is not None:
                assert verify_solution(G, Problem("pattern", kk, pattern_edges=H.edges),
                                       got.vertices)
            compared[name] += 1
    assert solve_dominating_indepset(cycle_graph(5), 2) is not None
    assert solve_dominating_induced_matching(cycle_graph(4), 4) is None
    assert solve_dominating_clique(complete_graph(4), 3) is not None
    print(f"\nACCEPTANCE 6 PASS: dom-clique/indepset/matching = oracle on "
          f"{compared} comparisons; fixtures C5/k=2 indepset YES, "
          f"C4/k=4 matching NO, K4/k=3 clique YES hold, 0 mismatches")


def _random_ov(seed, sizes, d, zero_prob=0.5):
    rng = random.Random(f"acc7:{seed}")
    return OVInstance.from_lists(
        d, [[tuple(0 if rng.random() < zero_prob else 1 for _ in range(d))
             for _ in range(s)] for s in sizes])


def _random_kpartite(seed, sizes, p):
    rng = random.Random(f"acc7kp:{seed}")
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    if rng.random() < p:
                        edges.append(((i, a), (j, b)))
    return KPartiteGraph(sizes, edges)


def test_criterion_07_reduction_certification():
    counts = {}

    n_checked = 0
    for seed in range(200):
        rng = random.Random(f"acc7a:{seed}")
        k = rng.choice([2, 3])
        r = rng.randint(1, k - 1)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        d = rng.randint(1, 4)
        inst = _random_ov(seed, sizes, d, zero_prob=rng.choice([0.3, 0.5, 0.7]))
        assert verify_reduction("ov-multidom", inst, r), (seed, k, r)
        out = ov_to_multidom(inst, r)
        assert out.graph.n == sum(sizes) + d + (k + 1) * comb(k, r)
        n_checked += 1
    counts["ov-multidom"] = n_checked

    n_checked = 0
    patterns = [Pattern.path(3), Pattern.clique(3), Pattern.edgeless(3)]
    for seed in range(200):
        rng = random.Random(f"acc7b:{seed}")
        sizes = [rng.randint(1, 3) for _ in range(3)]
        d = rng.randint(1, 4)
        H = patterns[seed % 3]
        inst = _random_ov(seed + 1000, sizes, d, zero_prob=rng.choice([0.4, 0.6]))
        assert verify_reduction("ov-hdom", inst, H), (seed, H)
        out = ov_to_hdom(inst, H)
        assert out.params["block_sizes"][:-1] == [4, 4]
        assert out.params["block_sizes"][-1] == max(4, max(sizes))
        n_checked += 1
    counts["ov-hdom"] = n_checked

    n_checked = 0
    for seed in range(200):
        rng = random.Random(f"acc7c:{seed}")
        sizes = [rng.randint(1, 2) for _ in range(4)]
        d = rng.randint(1, 3)
        inst = _random_ov(seed + 2000, sizes, d, zero_prob=rng.choice([0.5, 0.7]))
        assert verify_reduction("ov-matching", inst), seed
        out = ov_to_induced_matching(inst)
        assert out.params["d_padded"] == d + 4 * 5  # k+1 special coords per set
        n_checked += 1
    counts["ov-matching"] = n_checked

    n_checked = 0
    for seed in range(200):
        rng = random.Random(f"acc7d:{seed}")
        size = rng.choice([2, 2, 3])
        src = _random_kpartite(seed, [size] * 3, rng.choice([0.3, 0.5, 0.7]))
        assert verify_reduction("is-multidom", src, (2, Fraction(1, 2), 1)), seed
        out = indepset_to_multidom(src, 2, Fraction(1, 2), 1)
        redundant = [role for role in out.id_map if role[0] == "redundant"]
        assert len(redundant) == 2 * 3  # k blocks of size k+1
        n_checked += 1
    counts["is-multidom"] = n_checked

    print(f"\nACCEPTANCE 7 PASS: verify_reduction on {counts} random sources, "
          f"gadget size formulas exact ((k+1)·C(k,r) redundancy, k+1 special "
          f"coordinates per set, k blocks of size k+1), 0 failures")


def test_criterion_08_grouping_parameters():
    assert grouping_parameters(8, Fraction(1, 2)) == (1, 3)
    grouped_checked = fallback_checked = 0
    for seed in range(100):
        rng = random.Random(f"acc8:{seed}")
        kp = _random_kpartite(seed + 5000, [2] * 8, rng.choice([0.5, 0.6]))
        if seed % 2:
            choice = tuple(rng.randrange(2) for _ in range(8))
            extra = [((i, choice[i]), (j, choice[j]))
                     for i in range(8) for j in range(i + 1, 8)]
            kp = KPartiteGraph(kp.sizes, list(kp.edges()) + extra)
        grouped = detect_unbalanced_kclique(kp, Fraction(1, 2))
        oracle = oracle_unbalanced_clique(kp)
        assert (grouped is None) == (oracle is None), seed
        if grouped is not None:
            assert all(kp.has_edge(i, a, j, b)
                       for (i, a), (j, b) in itertools.combinations(grouped, 2))
        grouped_checked += 1
    for seed in range(50):
        # gamma=1/2 at k=5 fails the 2/gamma < k-1 condition: fallback path
        assert grouping_parameters(5, Fraction(1, 2)) is None
        rng = random.Random(f"acc8b:{seed}")
        kp = _random_kpartite(seed + 6000, [2] * 5, rng.choice([0.4, 0.6]))
        fallback = detect_unbalanced_kclique(kp, Fraction(1, 2))
        assert (fallback is None) == (oracle_unbalanced_clique(kp) is None), seed
        fallback_checked += 1
    print(f"\nACCEPTANCE 8 PASS: grouping_parameters(8,1/2)=(1,3); grouped path "
          f"= oracle on {grouped_checked} planted instances, fallback = oracle "
          f"on {fallback_checked}, 0 mismatches")


def test_criterion_09_algebra_kernels():
    rng = random.Random("acc9")
    for _ in range(1000):
        a, b, c = (rng.randint(1, 4) for _ in range(3))
        cap = rng.randint(0, 6)
        A = PolyMatrix.build(a, b, cap, lambda i, j: TruncatedPoly(
            cap, tuple(rng.randint(0, 3) for _ in range(cap + 1))))
        B = PolyMatrix.build(b, c, cap, lambda i, j: TruncatedPoly(
            cap, tuple(rng.randint(0, 3) for _ in range(cap + 1))))
        C = poly_mat_mul(A, B)
        for i in range(a):
            for j in range(c):
                acc = [0] * (cap + 1)
                for t in range(b):
                    for e1, c1 in enumerate(A[i, t].coeffs):
                        for e2, c2 in enumerate(B[t, j].coeffs):
                            acc[min(e1 + e2, cap)] += c1 * c2
                assert C[i, j].coeffs == tuple(acc)
    for r in range(1, 7):
        for x in range(3 * r + 1):
            for y in range(3 * r + 1):
                assert (min(r, x) + min(r, y) >= r) == (x + y >= r)
    for _ in range(500):
        a, b, c = rng.randint(1, 7), rng.randint(1, 9), rng.randint(1, 6)
        A = BoolMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(b)] for _ in range(a)], b)
        B = BoolMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(c)] for _ in range(b)], c)
        expected = [(i, j) for i in range(a) for j in range(c)
                    if all(A.get(i, t) * B.get(t, j) == 0 for t in range(b))]
        assert complement_zero_pairs(A, B) == expected
    print("\nACCEPTANCE 9 PASS: poly product = naive oracle on 1000 matrices; "
          "saturation-threshold equivalence exhaustive for a,b <= 3r, r <= 6; "
          "complement zero set = integer product on 500 matrices, 0 mismatches")


def test_criterion_10_determinism(tmp_path, capsys):
    for seed in range(40):
        G = random_graph(f"acc10:{seed}", 10, 0.35)
        runs = [solve_multidom_fast(G, 4, 2, "multiple", threads=t)
                for t in (1, 4, 1, 4)]
        assert len(set(map(repr, runs))) == 1
    rng = random.Random("acc10")
    for _ in range(20):
        A = PolyMatrix.build(5, 4, 3, lambda i, j: TruncatedPoly(
            3, tuple(rng.randint(0, 2) for _ in range(4))))
        B = PolyMatrix.build(4, 6, 3, lambda i, j: TruncatedPoly(
            3, tuple(rng.randint(0, 2) for _ in range(4))))
        assert poly_mat_mul(A, B, threads=1) == poly_mat_mul(A, B, threads=4)
        Ab = BoolMatrix.from_rows([[rng.randint(0, 1) for _ in range(6)]
                                   for _ in range(5)], 6)
        Bb = BoolMatrix.from_rows([[rng.randint(0, 1) for _ in range(7)]
                                   for _ in range(6)], 7)
        assert complement_zero_pairs(Ab, Bb, threads=1) == \
            complement_zero_pairs(Ab, Bb, threads=4)

    from domlab import save_graph
    gpath = tmp_path / "g.txt"
    save_graph(random_graph("acc10g:0", 9, 0.4), gpath)
    solve_outs = []
    for threads in ("1", "4", "1", "4"):
        main(["solve", str(gpath), "--problem", "multidom", "--k", "3", "--r", "2",
              "--threads", threads, "--json", "--no-timing"])
        solve_outs.append(capsys.readouterr().out)
    assert solve_outs[0] == solve_outs[2] and solve_outs[1] == solve_outs[3]
    # across thread counts only the echoed config may differ
    stripped = [json.loads(out) for out in solve_outs]
    for doc in stripped:
        doc.pop("config")
    assert all(doc == stripped[0] for doc in stripped)

    gen_outs = []
    for name in ("ga", "gb"):
        main(["generate", "--reduction", "ov-multidom", "--k", "3", "--r", "2",
              "--d", "3", "--sizes", "2,2,2", "--seed", "21",
              "--out", str(tmp_path / name)])
        capsys.readouterr()
        gen_outs.append(tuple((tmp_path / f"{name}{ext}").read_bytes()
                              for ext in (".graph", ".json", ".source.json")))
    assert gen_outs[0] == gen_outs[1]

    bench_argv = ["bench", "--n", "18", "--density", "2,4", "--k", "4", "--r", "2",
                  "--reps", "2", "--seed", "3", "--no-timing"]
    main(bench_argv)
    first = capsys.readouterr().out
    main(bench_argv)
    assert capsys.readouterr().out == first
    print("\nACCEPTANCE 10 PASS: solvers, products, CLI solve/generate/bench "
          "byte-identical across reruns and thread counts {1,4}")


def test_criterion_11_bench_scaling_signal(capsys):
    main(["bench", "--n", "16", "--density", "2,4", "--k", "4", "--r", "2",
          "--reps", "2", "--seed", "13", "--no-timing"])
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    by_density: dict[float, list[tuple[int, int]]] = {2.0: [], 4.0: []}
    for row in rows:
        n, rep = int(row[1]), int(row[5])
        dens = int(row[2]) / n
        assert dens in by_density
        rng = random.Random(f"13:{n}:{dens}:{rep}")
        G = _random_gnm(rng, n, int(round(dens * n)))
        fam_s, fam_t = build_candidate_families(G, 4, 2)
        predicted = _closed_form(G, 4, fam_s)
        reported = int(row[7])
        assert reported == len(fam_s.members)
        by_density[dens].append((reported, predicted))
    for dens, pairs in by_density.items():
        assert pairs, dens
        for reported, predicted in pairs:
            assert predicted > 0
            assert abs(reported / predicted - 1.0) <= 0.10
    ratio_reported = by_density[4.0][0][0] / by_density[2.0][0][0]
    ratio_predicted = by_density[4.0][0][1] / by_density[2.0][0][1]
    assert abs(ratio_reported / ratio_predicted - 1.0) <= 0.10
    print(f"\nACCEPTANCE 11 PASS: bench family sizes within 10% of the "
          f"closed-form prediction at m/n in {{2,4}}, n=16, k=4, r=2 "
          f"(density ratio {ratio_reported:.3f} vs predicted {ratio_predicted:.3f})")
