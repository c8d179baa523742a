from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from domlab import multidom
from domlab import (
    Graph,
    KPartiteGraph,
    Problem,
    build_candidate_families,
    build_clique_graph,
    delete_closed_neighborhood,
    detect_unbalanced_kclique,
    diagnose_solution,
    grouping_parameters,
    heavy_vertices,
    list_2_dominating_sets,
    list_dominating_ksets,
    oracle_unbalanced_clique,
    OVInstance,
    ov_to_multidom,
    solve_ov_bruteforce,
    solve_multidom_bruteforce,
    solve_multidom_fast,
    solve_multidom_kminus1,
    verify_solution,
)

from .conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph
from .reference_algebra import PolyMatrix, min_degree, poly_mat_mul, poly_mono


def test_bruteforce_c5_multiple():
    sol = solve_multidom_bruteforce(cycle_graph(5), 3, 2, "multiple")
    assert sol is not None and verify_solution(cycle_graph(5), sol.problem, sol.vertices)


def test_bruteforce_p4_distinguishes_variants():
    P4 = path_graph(4)
    assert solve_multidom_bruteforce(P4, 3, 2, "multiple").vertices == (0, 1, 3)
    assert solve_multidom_bruteforce(P4, 3, 2, "tuple") is None


def test_bruteforce_k4_tuple():
    sol = solve_multidom_bruteforce(complete_graph(4), 3, 3, "tuple")
    assert sol.vertices == (0, 1, 2)


def test_bruteforce_returns_lexicographically_least():
    G = cycle_graph(5)
    sol = solve_multidom_bruteforce(G, 3, 2, "multiple")
    earlier = [S for S in itertools.combinations(range(5), 3) if S < sol.vertices]
    assert all(not verify_solution(G, sol.problem, S) for S in earlier)


def test_verify_solution_examples():
    C5 = cycle_graph(5)
    assert verify_solution(C5, Problem("multiple", 3, 2), (0, 2, 4))
    assert not verify_solution(C5, Problem("multiple", 3, 2), (0, 1, 2))
    assert verify_solution(C5, Problem("multiple", 5, 1), (0, 1, 2, 3, 4))


def test_diagnose_names_the_failing_vertex():
    msg = diagnose_solution(cycle_graph(5), Problem("multiple", 3, 2), (0, 1, 2))
    assert "vertex 3" in msg


def test_family_sizes_k3_r1():
    fam_s, fam_t = build_candidate_families(cycle_graph(6), 3, 1)
    assert (fam_s.size, fam_s.quota) == (1, 0)
    assert (fam_t.size, fam_t.quota) == (2, 1)


def test_family_sizes_k4_r2():
    fam_s, fam_t = build_candidate_families(cycle_graph(6), 4, 2)
    assert (fam_s.size, fam_s.quota) == (2, 1)
    assert (fam_t.size, fam_t.quota) == (2, 1)


def test_family_members_k3_triangle():
    _, fam_t = build_candidate_families(complete_graph(3), 3, 1)
    assert fam_t.members == ((0, 1), (0, 2), (1, 2))


@given(st.integers(0, 300), st.integers(4, 10), st.integers(2, 5))
def test_family_cardinality_closed_form(seed, n, k):
    G = random_graph(seed, n, 0.35)
    for r in range(1, k):
        n_heavy = len(heavy_vertices(G, k))
        for fam in build_candidate_families(G, k, r):
            expected = sum(comb(n_heavy, j) * comb(n - n_heavy, fam.size - j)
                           for j in range(fam.quota, fam.size + 1))
            assert len(fam.members) == expected


@given(st.integers(0, 200), st.integers(4, 9), st.integers(2, 5))
def test_family_completeness(seed, n, k):
    # every k-set with >= r heavy vertices splits into a disjoint S|T pair
    G = random_graph(seed, n, 0.4)
    for r in range(1, k):
        heavy = set(heavy_vertices(G, k))
        fam_s, fam_t = build_candidate_families(G, k, r)
        s_members = set(fam_s.members)
        t_members = set(fam_t.members)
        for K in itertools.combinations(range(n), k):
            if sum(1 for v in K if v in heavy) < r:
                continue
            found = any(
                S in s_members and tuple(sorted(set(K) - set(S))) in t_members
                for S in itertools.combinations(K, fam_s.size))
            assert found, (K, r)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 11),
       st.sampled_from([0.15, 0.3, 0.6]), st.integers(2, 5), st.integers(1, 4),
       st.sampled_from(["multiple", "tuple"]))
def test_fast_agrees_with_bruteforce(seed, n, p, k, r, variant):
    if not (r <= k - 1 <= n - 1):
        return
    G = random_graph(seed, n, p)
    fast = solve_multidom_fast(G, k, r, variant)
    brute = solve_multidom_bruteforce(G, k, r, variant)
    assert (fast is None) == (brute is None)
    if fast is not None:
        assert verify_solution(G, fast.problem, fast.vertices)


def _reference_levels(G, member, r, variant):
    """Per-vertex domination count from `member`, capped at r; the multiple
    variant exempts the member's own vertices by giving them level r."""
    mmask = sum(1 << v for v in member)
    if variant == "multiple":
        return [r if (mmask >> v) & 1 else min(r, (G.neighbor_mask(v) & mmask).bit_count())
                for v in range(G.n)]
    return [min(r, (G.closed_mask(v) & mmask).bit_count()) for v in range(G.n)]


def _reference_fast(G, k, r, variant):
    """Row-major scan over the candidate families: the first disjoint pair
    whose capped levels add up to r at every vertex."""
    fam_s, fam_t = build_candidate_families(G, k, r)
    cols = [(T, _reference_levels(G, T, r, variant)) for T in fam_t.members]
    for S in fam_s.members:
        lev_s = _reference_levels(G, S, r, variant)
        for T, lev_t in cols:
            if set(S).isdisjoint(T) and all(a + b >= r for a, b in zip(lev_s, lev_t)):
                return tuple(sorted(S + T))
    return None


def _reference_dominating_ksets(G, k):
    """Row-major scan over the quota-1 families, first occurrence of each
    dominating k-set kept."""
    fam_s, fam_t = build_candidate_families(G, k, 1)
    out = []
    for S in fam_s.members:
        for T in fam_t.members:
            U = tuple(sorted(set(S) | set(T)))
            covered = 0
            for v in U:
                covered |= G.closed_mask(v)
            if len(U) == k and covered == G.full_mask() and U not in out:
                out.append(U)
    return out


def test_first_hits_match_row_major_reference():
    # pins which solution comes first, not only YES/NO
    for seed in range(300):
        rng = random.Random(f"first-hit:{seed}")
        n = rng.randint(2, 10)
        G = random_graph(seed, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        full = G.full_mask()
        assert list_2_dominating_sets(G) == [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if G.closed_mask(u) | G.closed_mask(v) == full]
        for k in range(2, min(5, n) + 1):
            assert list(list_dominating_ksets(G, k)) == _reference_dominating_ksets(G, k)
            for r in range(1, k):
                for variant in ("multiple", "tuple"):
                    sol = solve_multidom_fast(G, k, r, variant)
                    got = None if sol is None else sol.vertices
                    assert got == _reference_fast(G, k, r, variant), (seed, k, r, variant)


def _reference_families(G, k, r):
    """(size, quota, members) per family from the filtered scan over every
    size-subset in lexicographic order."""
    heavy = set(heavy_vertices(G, k))
    sizes = ((k - r + 1) // 2 + r // 2, r // 2), ((k - r) // 2 + (r + 1) // 2, (r + 1) // 2)
    return [(size, quota, tuple(c for c in itertools.combinations(range(G.n), size)
                                if sum(1 for v in c if v in heavy) >= quota))
            for size, quota in sizes]


def _reference_2_dominating_sets(G):
    full = G.full_mask()
    return [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
            if G.closed_mask(u) | G.closed_mask(v) == full]


def _reference_clique_graph(G, k):
    """The clique graph from a double loop over every part pair and every
    pair of labels, testing membership in the set of dominating pairs."""
    heavy = list(heavy_vertices(G, k))
    labels = [list(heavy) for _ in range(k - 1)] + [list(range(G.n))]
    dom2 = set(_reference_2_dominating_sets(G))
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            for a, u in enumerate(labels[i]):
                for b, v in enumerate(labels[j]):
                    if u != v and (min(u, v), max(u, v)) in dom2:
                        edges.append(((i, a), (j, b)))
    return KPartiteGraph([len(p) for p in labels], edges), labels


def _equivalence_graphs():
    """Seeded random graphs plus three fixed shapes: no heavy vertex (edgeless),
    one heavy vertex, below a quota of 2 (star), every vertex heavy (K8)."""
    graphs = [Graph(12, []), star_graph(11), complete_graph(8)]
    for seed in range(150):
        rng = random.Random(f"families:{seed}")
        graphs.append(random_graph(seed, rng.randint(1, 11), rng.choice([0.1, 0.3, 0.5, 0.8])))
    return graphs


def test_families_match_filtered_scan():
    shapes = set()
    for G in _equivalence_graphs():
        for k in range(2, min(G.n, 6) + 1):
            h = len(heavy_vertices(G, k))
            for r in range(1, k):
                got = [(f.size, f.quota, f.members) for f in build_candidate_families(G, k, r)]
                assert got == _reference_families(G, k, r), (G, k, r)
                shapes.add("none" if h == 0 else "all" if h == G.n
                           else "below-quota" if h < (r + 1) // 2 else "some")
    assert shapes == {"none", "below-quota", "all", "some"}


def test_2_dominating_sets_match_full_scan():
    # a pair (u, v) with only v heavy is found from v's row; the output
    # must still list it as (u, v)
    light_first = 0
    for G in _equivalence_graphs() + [Graph(5, [(i, 4) for i in range(4)])]:
        expected = _reference_2_dominating_sets(G)
        assert list_2_dominating_sets(G) == expected
        heavy = set(heavy_vertices(G, 2))
        light_first += sum(1 for u, v in expected if u not in heavy)
    assert light_first > 0


def test_clique_graph_matches_double_loop():
    for G in _equivalence_graphs():
        for k in range(2, min(G.n, 5) + 1):
            kp, labels = build_clique_graph(G, k)
            ref, ref_labels = _reference_clique_graph(G, k)
            assert (kp.sizes, kp.adj, labels) == (ref.sizes, ref.adj, ref_labels)


def test_2_dominating_sets_skip_join_without_heavy_vertex(monkeypatch):
    rng = random.Random("sparse-2000")
    n, edges = 2000, set()
    while len(edges) < 6000:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    G = Graph(n, sorted(edges))
    assert all(2 * G.degstar(v) < n for v in range(n))

    def fail(*args, **kwargs):
        raise AssertionError("pair_join called on a graph with no heavy vertex")

    monkeypatch.setattr(multidom, "pair_join", fail)
    assert list_2_dominating_sets(G) == []


def test_fast_reports_stats():
    stats = {}
    solve_multidom_fast(cycle_graph(6), 3, 1, "multiple", stats=stats)
    fam_s, fam_t = stats["candidate_family_sizes"]
    assert stats["product_dims"] == [fam_s, 6, fam_t]
    assert stats["scalar_op_count"] == fam_s * 6 * fam_t


def _reference_pair_join(G, rows, cols, r, variant, universe=None):
    """Nested row x column scan: the disjoint pairs whose capped levels add
    up to r at every vertex of `universe`. A repeated vertex counts once."""
    check = [v for v in range(G.n) if universe is None or (universe >> v) & 1]
    col_levels = [_reference_levels(G, T, r, variant) for T in cols]
    pairs = []
    for i, S in enumerate(rows):
        lev_s = _reference_levels(G, set(S), r, variant)
        for j, T in enumerate(cols):
            if set(S).isdisjoint(T) and all(lev_s[v] + col_levels[j][v] >= r for v in check):
                pairs.append((i, j))
    return pairs


def test_pair_join_matches_nested_reference():
    # lexicographic rows share prefixes and exercise the row certificate;
    # shuffled rows change prefix almost every row; with r = 1, rows may
    # repeat a vertex; rows also arrive as a generator
    certified = 0
    for seed in range(160):
        rng = random.Random(f"pair-join:{seed}")
        n = rng.randint(1, 9)
        G = random_graph(seed, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        universe = None if seed % 3 else rng.getrandbits(n)
        for variant in ("multiple", "tuple"):
            for r in (1, 2, 3):
                s_size, t_size = rng.randint(1, 3), rng.randint(1, 3)
                rows = list(itertools.combinations(range(n), s_size))
                cols = list(itertools.combinations(range(n), t_size))
                shuffled = rng.sample(rows, len(rows))
                repeats = [tuple(rng.randrange(n) for _ in range(s_size)) for _ in range(12)]
                for row_list in (rows, shuffled) + ((repeats,) if r == 1 else ()):
                    stats = {}
                    got = list(multidom.pair_join(G, iter(row_list), cols, r, variant,
                                                  universe, stats))
                    assert got == _reference_pair_join(G, row_list, cols, r, variant, universe), (
                        seed, variant, r, row_list)
                    assert stats["rows_drawn"] == len(row_list)
                    certified += stats["rows_certified"]
    assert certified > 0


def test_pair_join_matches_truncated_poly_product():
    # the ring model of the join: A[i, v] = x^(level rows[i] gives v) and
    # B[v, j] = x^(level cols[j] gives v), capped at r (x^r at v in the
    # member under "multiple"); (i, j) is a pair iff the members are
    # disjoint and min_degree((A·B)[i, j]) >= r. Lexicographic rows make the
    # prefix certificates fire; shuffled rows mostly change prefix.
    hits = misses = certified = 0
    for seed in range(300):
        rng = random.Random(f"ring:{seed}")
        n = rng.randint(3, 9)
        G = random_graph(f"ring:{seed}", n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        r = 1 + seed % 3
        rows = list(itertools.combinations(range(n), rng.randint(1, 2)))
        cols = list(itertools.combinations(range(n), rng.randint(1, 2)))
        order = rng.sample(range(len(rows)), len(rows))
        for variant in ("multiple", "tuple"):
            row_levels = [_reference_levels(G, S, r, variant) for S in rows]
            col_levels = [_reference_levels(G, T, r, variant) for T in cols]
            A = PolyMatrix.build(len(rows), n, r, lambda i, v: poly_mono(row_levels[i][v], r))
            B = PolyMatrix.build(n, len(cols), r, lambda v, j: poly_mono(col_levels[j][v], r))
            C = poly_mat_mul(A, B)
            ok = [[set(S).isdisjoint(T) and min_degree(C[i, j]) >= r
                   for j, T in enumerate(cols)] for i, S in enumerate(rows)]
            for perm in (range(len(rows)), order):
                expected = [(i, j) for i, p in enumerate(perm)
                            for j in range(len(cols)) if ok[p][j]]
                stats = {}
                got = list(multidom.pair_join(G, (rows[p] for p in perm), cols, r, variant,
                                              stats=stats))
                assert got == expected, (seed, variant, r, list(perm))
                certified += stats["rows_certified"]
            hits += sum(map(sum, ok))
            misses += sum(row.count(False) for row in ok)
    assert hits > 0 and misses > 0 and certified > 0


def _ov_multidom_no_instance():
    rng = random.Random("ov-multidom-no")
    while True:
        inst = OVInstance.from_lists(6, [[tuple(int(rng.random() >= 0.3) for _ in range(6))
                                          for _ in range(size)] for size in (2, 2, 3, 3)])
        if not solve_ov_bruteforce(inst, 2):
            return ov_to_multidom(inst, 2).graph


def test_pair_join_certifies_most_rows_on_ov_no_instance(monkeypatch):
    # every row of a NO instance is drawn; most share a prefix whose
    # certificate already covers every column, so they skip the gap walk
    G = _ov_multidom_no_instance()
    walks = []
    covering_pairs = multidom.covering_pairs

    def counting(row_gaps, cols):
        def counted():
            for gaps in row_gaps:
                drawn = []
                walks.append(drawn)
                yield (drawn.append(g) or g for g in gaps)
        return covering_pairs(counted(), cols)

    monkeypatch.setattr(multidom, "covering_pairs", counting)
    stats = {}
    assert solve_multidom_fast(G, 4, 2, "multiple", stats=stats) is None
    fam_s, _ = stats["candidate_family_sizes"]
    assert stats["rows_drawn"] == len(walks) == fam_s
    full = (1 << stats["candidate_family_sizes"][1]) - 1
    skipped = sum(1 for drawn in walks if drawn == [full])
    assert skipped >= stats["rows_certified"] >= 0.8 * fam_s


def test_fast_threaded_result_identical():
    for seed in range(30):
        G = random_graph(seed, 10, 0.3)
        a = solve_multidom_fast(G, 4, 2, "multiple", threads=1)
        b = solve_multidom_fast(G, 4, 2, "multiple", threads=4)
        assert a == b


def test_2_dominating_sets_star():
    assert list_2_dominating_sets(star_graph(4)) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_2_dominating_sets_c4_all_pairs():
    assert list_2_dominating_sets(cycle_graph(4)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_2_dominating_sets_k2():
    assert list_2_dominating_sets(complete_graph(2)) == [(0, 1)]


@given(st.integers(0, 300), st.integers(2, 10), st.floats(0.1, 0.9))
def test_2_dominating_sets_matches_definition(seed, n, p):
    G = random_graph(seed, n, p)
    full = G.full_mask()
    expected = [(u, v) for u in range(n) for v in range(u + 1, n)
                if G.closed_mask(u) | G.closed_mask(v) == full]
    assert list_2_dominating_sets(G) == expected


def test_clique_graph_k3_complete():
    kp, labels = build_clique_graph(complete_graph(3), 3)
    assert kp.sizes == (3, 3, 3)
    for i, j in itertools.combinations(range(3), 2):
        for a, b in itertools.product(range(3), repeat=2):
            assert kp.has_edge(i, a, j, b) == (labels[i][a] != labels[j][b])


def test_clique_graph_edgeless_has_no_edges():
    kp, _ = build_clique_graph(Graph(4, []), 2)
    assert not any(True for _ in kp.edges())


def test_clique_graph_edges_are_dominating_pairs():
    G = path_graph(4)
    kp, labels = build_clique_graph(G, 3)
    dom = set(list_2_dominating_sets(G))
    for (i, a), (j, b) in kp.edges():
        u, v = labels[i][a], labels[j][b]
        assert u != v and (min(u, v), max(u, v)) in dom


def test_clique_graph_cliques_are_solutions():
    # a transversal clique always maps to a verified (k-1)-multiple solution
    for seed in range(40):
        G = random_graph(seed, 9, 0.6)
        for k in (3, 4):
            kp, labels = build_clique_graph(G, k)
            wit = detect_unbalanced_kclique(kp)
            if wit is not None:
                verts = tuple(sorted(labels[i][a] for i, a in wit))
                assert verify_solution(G, Problem("multiple", k, k - 1), verts)


def test_tuple_solutions_map_to_cliques():
    # the closed-neighborhood (tuple) condition is what pairwise domination
    # certifies, so every tuple solution appears as a transversal clique
    for seed in range(40):
        G = random_graph(seed, 9, 0.6)
        for k in (3, 4):
            sol = solve_multidom_bruteforce(G, k, k - 1, "tuple")
            kp, labels = build_clique_graph(G, k)
            assert (sol is not None) == (detect_unbalanced_kclique(kp) is not None)


def test_pipeline_p4_yes():
    sol = solve_multidom_kminus1(path_graph(4), 3)
    assert sol is not None and sol.vertices == (0, 1, 3)


def test_pipeline_k4_yes():
    assert solve_multidom_kminus1(complete_graph(4), 3) is not None


def test_pipeline_c6_matches_bruteforce():
    # C6/k=3 has the exemption-legal solution {0,2,4}: every outside vertex
    # keeps both neighbors in the set, so the answer is YES (the clique stage
    # alone finds nothing because members 0,2,4 pairwise fail to dominate)
    C6 = cycle_graph(6)
    kp, _ = build_clique_graph(C6, 3)
    assert detect_unbalanced_kclique(kp) is None
    sol = solve_multidom_kminus1(C6, 3)
    brute = solve_multidom_bruteforce(C6, 3, 2, "multiple")
    assert sol is not None and brute is not None
    assert sol.vertices == brute.vertices == (0, 2, 4)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 11), st.sampled_from([3, 4]),
       st.floats(0.2, 0.7))
def test_pipeline_agrees_with_bruteforce(seed, n, k, p):
    if k > n:
        return
    G = random_graph(seed, n, p)
    sol = solve_multidom_kminus1(G, k)
    brute = solve_multidom_bruteforce(G, k, k - 1, "multiple")
    assert (sol is None) == (brute is None)
    if sol is not None:
        assert verify_solution(G, sol.problem, sol.vertices)


def test_grouping_parameters_k8():
    assert grouping_parameters(8, Fraction(1, 2)) == (1, 3)


def test_grouping_parameters_divisibility_fails():
    assert grouping_parameters(7, Fraction(1, 2)) is None


def test_grouping_parameters_size_condition_fails():
    assert grouping_parameters(4, Fraction(1, 3)) is None


def test_grouping_parameters_rejects_bad_gamma():
    with pytest.raises(ValueError):
        grouping_parameters(8, Fraction(3, 2))


def _random_kpartite(seed, sizes, p):
    rng = random.Random(seed)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    if rng.random() < p:
                        edges.append(((i, a), (j, b)))
    return KPartiteGraph(sizes, edges)


def _plant_transversal(kp: KPartiteGraph, choice):
    extra = [((i, choice[i]), (j, choice[j]))
             for i in range(kp.k) for j in range(i + 1, kp.k)]
    return KPartiteGraph(kp.sizes, list(kp.edges()) + extra)


def test_detect_complete_kpartite():
    kp = _random_kpartite(0, [2, 2, 2], 1.0)
    wit = detect_unbalanced_kclique(kp)
    assert wit is not None and len(wit) == 3


def test_detect_planted_triangle():
    kp = _random_kpartite(1, [3, 3, 3], 0.0)
    planted = _plant_transversal(kp, (1, 0, 2))
    assert detect_unbalanced_kclique(planted) == ((0, 1), (1, 0), (2, 2))


def test_detect_missing_edge_means_no():
    sizes = [1, 1, 1, 1]
    edges = [((i, 0), (j, 0)) for i in range(4) for j in range(i + 1, 4)]
    edges.remove(((0, 0), (3, 0)))
    kp = KPartiteGraph(sizes, edges)
    assert detect_unbalanced_kclique(kp) is None


def test_grouped_path_agrees_with_oracle_and_fallback():
    gamma = Fraction(1, 2)
    assert grouping_parameters(8, gamma) == (1, 3)
    for seed in range(40):
        kp = _random_kpartite(seed, [2] * 8, 0.55)
        if seed % 2:
            rng = random.Random(seed + 999)
            kp = _plant_transversal(kp, tuple(rng.randrange(2) for _ in range(8)))
        grouped = detect_unbalanced_kclique(kp, gamma)
        fallback = detect_unbalanced_kclique(kp)
        oracle = oracle_unbalanced_clique(kp)
        assert (grouped is None) == (oracle is None)
        assert (fallback is None) == (oracle is None)
        for wit in (grouped, fallback):
            if wit is not None:
                assert all(kp.has_edge(i, a, j, b)
                           for (i, a), (j, b) in itertools.combinations(wit, 2))


def _reference_range_cliques(kp, parts):
    """Transversal cliques by trying every vertex of each part in index order
    and testing its edges to the chosen ones."""

    def extend(idx, chosen):
        if idx == len(parts):
            yield tuple(chosen)
            return
        j = parts[idx]
        for b in range(kp.sizes[j]):
            if all(kp.has_edge(i, a, j, b) for i, a in chosen):
                chosen.append((j, b))
                yield from extend(idx + 1, chosen)
                chosen.pop()

    return extend(0, [])


def _kclique_cases():
    """Seeded random k-partite graphs, some with empty parts, plus the clique
    graphs of seeded random graphs."""
    rng = random.Random(2024)
    for seed in range(120):
        k = rng.randint(1, 6)
        sizes = [rng.choice((0, 1, 2, 3, 4)) if seed % 5 == 0 else rng.randint(1, 4)
                 for _ in range(k)]
        yield _random_kpartite(seed, sizes, rng.choice((0.3, 0.6, 0.9)))
    for seed in range(40):
        G = random_graph(seed, rng.randint(4, 9), rng.choice((0.4, 0.6, 0.8)))
        yield build_clique_graph(G, rng.randint(2, 4))[0]


def test_range_cliques_match_reference(monkeypatch):
    rng = random.Random(7)
    for kp in _kclique_cases():
        for parts in (list(range(kp.k)), rng.sample(range(kp.k), kp.k),
                      rng.sample(range(kp.k), rng.randint(0, kp.k))):
            assert list(multidom._range_cliques(kp, parts)) == list(_reference_range_cliques(kp, parts))
    # the first clique found, on the plain and on the gamma-grouped path
    # (k = 8 splits as (1, 3) under gamma = 1/2, k = 6 as (1, 2) under 1)
    grouped = []
    for seed in range(30):
        sizes = [2, 3, 0 if seed % 7 == 0 else 2, 2, 1, 2, 3, 2]
        grouped.append((_random_kpartite(seed, sizes, 0.85), Fraction(1, 2)))
        grouped.append((_random_kpartite(seed, [3, 2, 2, 3, 2, 2], 0.75), Fraction(1)))
    cases = [(kp, None) for kp in _kclique_cases()] + grouped
    found = [detect_unbalanced_kclique(kp, gamma) for kp, gamma in cases]
    monkeypatch.setattr(multidom, "_range_cliques", _reference_range_cliques)
    assert found == [detect_unbalanced_kclique(kp, gamma) for kp, gamma in cases]
    assert 10 <= sum(w is not None for w in found[-60:]) <= 50


def test_kpartite_rejects_intra_part_edges():
    with pytest.raises(ValueError):
        KPartiteGraph([2, 2], [((0, 0), (0, 1))])


def test_fast_rejects_r_equal_k():
    with pytest.raises(ValueError):
        solve_multidom_fast(cycle_graph(5), 3, 3, "multiple")


def _hub_graph(seed: int, n: int) -> Graph:
    """Random sparse graph plus a few high-degree hubs, so deleting a closed
    neighbourhood leaves subgraphs that still have heavy vertices."""
    rng = random.Random(seed)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12}
    for h in rng.sample(range(n), 3):
        edges |= {(min(h, v), max(h, v)) for v in range(n) if v != h and rng.random() < 0.6}
    return Graph(n, edges)


@pytest.mark.parametrize("seed", range(12))
def test_alive_mask_matches_deleted_subgraph(seed):
    G = _hub_graph(seed, 14 + seed)
    for v in range(G.n):
        sub, id_map = delete_closed_neighborhood(G, v)
        alive = G.full_mask() & ~G.closed_mask(v)
        levels = [(sub, id_map, alive)]
        if sub.n:  # one level deeper, through the first vertex left
            sub2, map2 = delete_closed_neighborhood(sub, 0)
            levels.append((sub2, tuple(id_map[u] for u in map2),
                           alive & ~G.closed_mask(id_map[0])))
        for sub, id_map, alive in levels:
            for k in range(1, 5):
                assert heavy_vertices(G, k, alive) == tuple(id_map[u] for u in heavy_vertices(sub, k))
            assert list_2_dominating_sets(G, alive) == [
                (id_map[a], id_map[b]) for a, b in list_2_dominating_sets(sub)]
