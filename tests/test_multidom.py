from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from domlab import cli, graph, multidom, patterndom
from domlab.graph import delete_closed_neighborhood
from domlab.multidom import (
    build_candidate_families,
    build_clique_graph,
    detect_unbalanced_kclique,
    list_2_dominating_sets,
    solve_multidom_fast,
    solve_multidom_kminus1,
)
from domlab.graph import heavy_vertices, iter_heavy_vertices
from domlab.oracles import OracleBudgetError, oracle_multidom
from domlab.patterndom import list_dominating_ksets
from domlab import (
    Graph,
    KPartiteGraph,
    Problem,
    Solution,
    diagnose_solution,
    indepset_to_multidom,
    oracle_unbalanced_clique,
    OVInstance,
    ov_to_hdom,
    ov_to_multidom,
    Pattern,
    solve_ov_bruteforce,
    verify_solution,
)

from .conftest import _runs, complete_graph, cycle_graph, path_graph, random_graph, star_graph
from .golden import make_golden
from .reference_algebra import PolyMatrix, min_degree, poly_mat_mul, poly_mono
from .reference_cliquegraph import detect_grouped, grouping_parameters


def test_bruteforce_c5_multiple():
    sol = oracle_multidom(cycle_graph(5), 3, 2, "multiple")
    assert sol is not None and verify_solution(cycle_graph(5), sol.problem, sol.vertices)


def test_bruteforce_p4_distinguishes_variants():
    P4 = path_graph(4)
    assert oracle_multidom(P4, 3, 2, "multiple").vertices == (0, 1, 3)
    assert oracle_multidom(P4, 3, 2, "tuple") is None


def test_bruteforce_k4_tuple():
    sol = oracle_multidom(complete_graph(4), 3, 3, "tuple")
    assert sol.vertices == (0, 1, 2)


def test_bruteforce_returns_lexicographically_least():
    G = cycle_graph(5)
    sol = oracle_multidom(G, 3, 2, "multiple")
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


# C6 (0-1-2-3-4-5-0) with the chord 0-3
CHORDED_C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
P3_EDGES = Pattern.path(3).edges


# (case number, Problem, solution, message); the numbers, and so the test
# ids, are those of the table when it also held the malformed Problems that
# test_problem_refuses_malformed_fields now builds. Case 15 checked domination
# under the kind 'weird'; a clique, which S = (0, 1) also is, takes its place
DIAGNOSE_CASES = [
    (0, Problem("multiple", 3, 2), (0, 1, 2), "vertex 4 has 0 < 2 dominators"),
    (2, Problem("tuple", 3, 2), (0, 1, 2), "vertex 4 has 0 < 2 dominators"),
    (3, Problem("tuple", 2, 1), (0, 1), "vertex 4 has 0 < 1 dominators"),
    (4, Problem("tuple", 2, 1), (0, 3), None),
    (5, Problem("clique", 2), (1, 4), "solution does not induce a clique"),
    (6, Problem("clique", 2), (0, 3), None),
    (7, Problem("indepset", 2), (0, 3), "solution vertices 0,3 are adjacent"),
    (8, Problem("indepset", 2), (1, 4), None),
    (10, Problem("matching", 4), (0, 1, 3, 4), "solution does not induce a perfect matching"),
    (11, Problem("matching", 4), (1, 2, 4, 5), None),
    (13, Problem("pattern", 3, pattern_edges=P3_EDGES), (0, 2, 4),
     "induced subgraph is not isomorphic to the pattern"),
    (14, Problem("pattern", 3, pattern_edges=P3_EDGES), (0, 1, 3), None),
    (15, Problem("clique", 2), (0, 1), "vertex 4 is not dominated"),
    (17, Problem("clique", 2), (0, 0), "duplicate vertices in solution"),
    (18, Problem("clique", 3), (0, 3), "solution has 2 vertices, expected k=3"),
    (19, Problem("clique", 2), (0, 6), "vertex id out of range"),
]


@pytest.mark.parametrize("problem, S, message", [
    pytest.param(*case, id=f"problem{i}-S{i}-{case[-1]}") for i, *case in DIAGNOSE_CASES])
def test_diagnose_pins_one_message_per_kind(problem, S, message):
    assert diagnose_solution(CHORDED_C6, problem, S) == message


MALFORMED = [
    ("weird", 2), ("dominating", 2),
    ("clique", 0), ("clique", -1), ("clique", 2.0), ("clique", True), ("matching", 3),
    ("multiple", 3), ("tuple", 3), ("multiple", 3, 0), ("tuple", 3, -4), ("multiple", 2, True),
    ("tuple", 2, True), ("multiple", 2, 1.5), ("clique", 2, 1), ("matching", 2, 0),
    ("pattern", 3), ("pattern", 3, None, [(0, 1)]), ("clique", 3, None, frozenset()),
    ("multiple", 3, 1, frozenset({(0, 1)})), ("pattern", 3, None, frozenset({(1, 0)})),
    ("pattern", 3, None, frozenset({(1, 1)})), ("pattern", 3, None, frozenset({(0, 3)})),
    ("pattern", 3, None, frozenset({(0, True)})), ("pattern", 3, None, frozenset({(0, 1, 2)})),
]
# the field each MALFORMED Problem breaks first
FIELDS = ["kind"] * 2 + ["k"] * 5 + ["r"] * 9 + ["pattern_edges"] * 9


@pytest.mark.parametrize("fields, field", list(zip(MALFORMED, FIELDS, strict=True)),
                         ids=["-".join(map(str, f)) for f in MALFORMED])
def test_problem_refuses_malformed_fields(fields, field):
    with pytest.raises(ValueError, match=f"^Problem {field} "):
        Problem(*fields)


@pytest.mark.parametrize("call, error, message", [
    (lambda: oracle_multidom(cycle_graph(5), 2, 1, "both"), ValueError, "unknown variant 'both'"),
    (lambda: multidom.pair_join(cycle_graph(5), _runs([(0,)]), [(1,)], 1, "both"), ValueError,
     "unknown variant 'both'"),
    # 101^3 transversals, refused before the first is tried
    (lambda: oracle_unbalanced_clique(KPartiteGraph([101] * 3, [])), OracleBudgetError,
     "3 parts have more than 1000000 transversals"),
], ids=["oracle-variant", "join-variant", "clique-oracle-budget"])
def test_oracles_and_join_refuse_what_they_cannot_take(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# (Problem, the answer on C5 of "fast" and of "brute"); None marks the
# ValueError of an r outside the algorithm's window (1..k-1 fast, 1..k brute)
C5_ANSWERS = [
    (Problem("multiple", 3, 2), True, True), (Problem("tuple", 2, 1), True, True),
    (Problem("multiple", 5, 5), None, True), (Problem("tuple", 2, 3), None, None),
    (Problem("clique", 2), False, False), (Problem("indepset", 2), True, True),
    (Problem("matching", 2), False, False),
    (Problem("pattern", 3, pattern_edges=P3_EDGES), True, True),
]


@pytest.mark.parametrize("problem, fast, brute", C5_ANSWERS)
def test_every_buildable_problem_solves_and_diagnoses(problem, fast, brute):
    C5 = cycle_graph(5)
    # a triangle with a pendant vertex: every shape at k = 2 has a solution
    paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    for algo, answer in (("fast", fast), ("brute", brute)):
        if answer is None:
            with pytest.raises(ValueError, match="need 1 <= r <= k"):
                patterndom.solve(C5, problem, algo)
            continue
        solution = patterndom.solve(C5, problem, algo)
        assert (solution is not None) == answer, algo
        if solution is not None:
            assert diagnose_solution(C5, problem, solution.vertices) is None
        # every algo's Solution carries the Problem asked, not an equivalent one
        for found in (solution, patterndom.solve(paw, problem, algo)):
            assert found is None or found.problem == problem, algo
    message = diagnose_solution(C5, problem, tuple(range(problem.k)))
    assert message is None or isinstance(message, str)


def test_diagnose_multiple_and_tuple_build_no_vertex_mask(monkeypatch):
    def no_mask(self, v):
        raise AssertionError(f"n-bit mask built for vertex {v}")

    monkeypatch.setattr(Graph, "_build_mask", no_mask)
    C5 = cycle_graph(5)
    assert diagnose_solution(C5, Problem("multiple", 3, 2), (0, 2, 4)) is None
    assert diagnose_solution(C5, Problem("multiple", 3, 2), (0, 1, 2)) == "vertex 3 has 1 < 2 dominators"
    assert diagnose_solution(C5, Problem("tuple", 3, 1), (0, 1, 3)) is None
    assert diagnose_solution(C5, Problem("tuple", 3, 2), (0, 1, 2)) == "vertex 3 has 1 < 2 dominators"


def test_shape_kinds_agree_with_their_patterns():
    """clique, indepset and matching verdicts equal those of the "pattern"
    problem on Pattern.clique, .edgeless and .matching, on every k-subset."""
    verdicts = set()
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        G = random_graph(seed, n, rng.choice((0.3, 0.5, 0.7)))
        for k in range(1, n + 1):
            shapes = [("clique", Pattern.clique(k)), ("indepset", Pattern.edgeless(k))]
            if k % 2 == 0:
                shapes.append(("matching", Pattern.matching(k)))
            for S in itertools.combinations(range(n), k):
                for kind, H in shapes:
                    verdict = verify_solution(G, Problem(kind, k), S)
                    assert verdict == verify_solution(G, Problem("pattern", k, pattern_edges=H.edges), S)
                    verdicts.add((kind, verdict))
    assert verdicts == {(kind, v) for kind in ("clique", "indepset", "matching") for v in (True, False)}


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
            assert multidom.closed_form_family_size(n, n_heavy, fam.size, fam.quota) == expected


def test_closed_form_sums_only_nonzero_terms():
    for n, n_heavy in itertools.product(range(8), repeat=2):
        if n_heavy > n:
            continue
        for size, quota in itertools.product(range(n + 3), range(4)):
            full = sum(comb(n_heavy, j) * comb(n - n_heavy, size - j)
                       for j in range(quota, size + 1))
            assert multidom.closed_form_family_size(n, n_heavy, size, quota) == full
    # the full sum would run 10^12 terms
    assert multidom.closed_form_family_size(5, 2, 10 ** 12, 1) == 0


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
    brute = oracle_multidom(G, k, r, variant)
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


def _planted_hub_graph(seed, n: int, hubs: int) -> Graph:
    """A sparse random background (about n edges) plus `hubs` vertices at
    random ids, each joined to about 40% of the others. The hubs are heavy
    for k >= 5, and light ids fall before, between and after the heavy ones
    (at n = 60 and k = 5 only the hubs are heavy)."""
    rng = random.Random(f"hubs:{seed}")
    hub_ids = rng.sample(range(n), hubs)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
    edges |= {(min(h, v), max(h, v)) for h in hub_ids for v in range(n)
              if v != h and rng.random() < 0.4}
    return Graph(n, sorted(edges))


def test_families_match_filtered_scan_on_hub_graphs():
    # member sizes 3-4 with quotas up to 3: the prefix recursion goes
    # several levels deep before it hands a tail to `combinations`
    reached = set()
    for seed, (n, k, hubs) in enumerate([(60, 5, 3), (48, 6, 4), (30, 7, 5), (20, 7, 2)]):
        G = _planted_hub_graph(seed, n, hubs)
        assert 0 < len(heavy_vertices(G, k)) < n
        for r in range(1, k):
            families = build_candidate_families(G, k, r)
            got = [(f.size, f.quota, f.members) for f in families]
            assert got == _reference_families(G, k, r), (n, k, r)
            for f in families:
                if f.members and f.size >= 3 and f.quota >= 2:
                    reached.add("b-hubs")
                if f.members and f.size >= 3 and f.quota == 0:
                    reached.add("quota-0")
    assert reached == {"b-hubs", "quota-0"}


def test_family_masks_match_column_masks():
    # the masks built from the blocks equal the per-member bit sets;
    # quota-0 families are one block over range(n) (left = size), quota
    # families add prefix blocks with vertex or heavy tails
    reached = set()
    hub_graphs = [_planted_hub_graph(seed, n, hubs)
                  for seed, (n, hubs) in enumerate([(40, 3), (30, 4), (24, 5), (18, 2)])]
    for G in _equivalence_graphs()[::3] + hub_graphs:
        for k in range(2, 8):
            for r in range(1, k):
                fam_s, fam_t = build_candidate_families(G, k, r)
                if fam_s is fam_t:
                    reached.add("shared")
                for fam in {id(fam_s): fam_s, id(fam_t): fam_t}.values():
                    assert fam.column_masks == multidom.ColumnList(G.n, fam.members).column_masks, (
                        G.n, k, r, fam.size, fam.quota)
                    for _, _, left, _, in_heavy in fam.blocks:
                        if in_heavy:
                            reached.add("heavy-tail")
                        if left == 2:
                            reached.add("left-2")
    assert reached == {"shared", "heavy-tail", "left-2"}


def test_column_list_masks_above_the_crossover(monkeypatch):
    # 10,660 columns on 40 vertices, 780 per vertex: each vertex's column
    # indices are listed and `_index_mask` builds its mask once; ten columns
    # set one bit per member vertex
    members = [T for size in (2, 3) for T in itertools.combinations(range(40), size)]
    # matching columns of two edges of the path 40-41-42-43: a shared end
    # repeats, and each of 40..43 has so few indices that `_index_mask` sums
    # them, where a repeated index would set the next column's bit
    path = [(40, 41), (41, 42), (42, 43)]
    matching = [sum(et, ()) for et in itertools.combinations(path, 2)]
    assert matching == [(40, 41, 41, 42), (40, 41, 42, 43), (41, 42, 42, 43)]
    built = []
    monkeypatch.setattr(multidom, "_index_mask",
                        lambda indices: built.append(len(indices)) or graph._index_mask(indices))
    for n, cols, listed in ((40, members, [780] * 40), (40, members[:10], []),
                            (44, members + matching, [780] * 40 + [2, 3, 3, 2])):
        built.clear()
        assert multidom.ColumnList(n, cols).column_masks == [
            sum(1 << j for j, T in enumerate(cols) if u in T) for u in range(n)]
        assert built == listed


def _join_instances():
    """(G, k) pairs: seeded ov_to_multidom targets (k = 4, r = 1..3) and
    random graphs."""
    out = []
    for seed in range(6):
        rng = random.Random(f"join-ov:{seed}")
        inst = OVInstance.from_lists(5, [[tuple(int(rng.random() >= 0.4) for _ in range(5))
                                          for _ in range(size)] for size in (2, 2, 3, 2)])
        out.append((ov_to_multidom(inst, 1 + seed % 3).graph, 4))
    for seed in range(40):
        rng = random.Random(f"join-random:{seed}")
        out.append((random_graph(f"join-random:{seed}", rng.randint(3, 10),
                                 rng.choice([0.2, 0.4, 0.6])), rng.randint(2, 5)))
    return out


class _RowLog(dict):
    """A `pair_join` stats dict that lists in `walked` the draw index of
    each row the join walks. A walked row adds the rows drawn up to it to
    `rows_drawn` and all but itself to `rows_certified`; the rows a run
    drops after its last walked row add equally to both."""

    def __init__(self):
        super().__init__()
        self.walked, self._step = [], 0

    def __setitem__(self, key, value):
        if key == "rows_drawn":
            self._step = value - self.get(key, 0)
        elif key == "rows_certified" and value - self.get(key, 0) == self._step - 1:
            self.walked.append(self["rows_drawn"] - 1)
        super().__setitem__(key, value)


def test_pair_join_family_columns_match_member_columns():
    # a CandidateFamily brings its block-built masks; a plain list of the
    # same members is wrapped as a `ColumnList`; a row family is walked run
    # by run (against another column object: an equal family is built again
    # for the shapes that coincide), and its members regrouped by `_runs`
    # give the same runs. Pairs agree, and so do the counters of all three
    # joins. Every row with a pair is walked
    pairs = 0
    for G, k in _join_instances():
        for r in range(1, k):
            fam_s, fam_t = build_candidate_families(G, k, r)
            if fam_t is fam_s:
                fam_t = multidom._candidate_family(G.n, fam_s.heavy, fam_s.size, fam_s.quota)
            index = {S: i for i, S in enumerate(fam_s.members)}
            for variant in multidom.VARIANTS:
                by_family, by_list, by_runs = _RowLog(), {}, _RowLog()
                got = list(multidom.pair_join(G, _runs(fam_s.members), fam_t, r, variant,
                                              stats=by_family))
                assert got == list(multidom.pair_join(G, _runs(fam_s.members), list(fam_t.members),
                                                      r, variant, stats=by_list)), (G.n, k, r)
                assert got == list(multidom.pair_join(G, fam_s, fam_t, r, variant,
                                                      stats=by_runs)), (G.n, k, r)
                assert by_family == by_list == by_runs
                assert by_family.walked == by_runs.walked
                assert len(by_runs.walked) == by_runs["rows_drawn"] - by_runs["rows_certified"]
                assert {index[S] for S, _ in got} <= set(by_runs.walked)
                pairs += len(got)
    assert pairs > 0


def test_family_runs_concatenate_to_the_members():
    # each run (P, B, i0) lists P + (b,) for b in B, lowest first, from
    # member index i0 on; the runs in order are the members in order
    runs = 0
    for seed in range(200):
        rng = random.Random(f"runs:{seed}")
        n = rng.randint(1, 12)
        heavy = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        size = rng.randint(1, min(n, 4))
        fam = multidom._candidate_family(n, heavy, size, rng.randint(0, size))
        listed = []
        for P, B, i0 in fam.runs():
            assert B and i0 == len(listed)
            listed += [P + (b,) for b in multidom.iter_bits(B)]
            runs += 1
        assert "members" not in fam.__dict__
        assert tuple(listed) == fam.members and len(fam) == len(fam.members), (n, heavy, size)
    assert runs > 0


def test_self_joined_family_yields_each_unordered_pair_once():
    # a family joined with itself yields the pairs of its member join whose
    # column index is above the row index, in order; against the run walk
    # of an equal, separately built family, which certifies on the same
    # schedule, it draws the same rows and walks no more of them. Families
    # above 600 members are left out, as the full member join is quadratic
    # in them.
    pairs = skipped = certified = 0
    for G, k in _join_instances():
        heavy = heavy_vertices(G, k)
        for size, quota in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
            fam = multidom._candidate_family(G.n, heavy, size, quota)
            if len(fam) > 600:
                continue
            twin = multidom._candidate_family(G.n, heavy, size, quota)
            index = {T: j for j, T in enumerate(fam.members)}
            for r in (1, 2, 3):
                for variant in multidom.VARIANTS:
                    once, plain = _RowLog(), _RowLog()
                    full = list(multidom.pair_join(G, twin, fam, r, variant, stats=plain))
                    expected = [(S, T) for S, T in full if index[T] > index[S]]
                    assert list(multidom.pair_join(G, fam, fam, r, variant, stats=once)) == expected
                    assert once["rows_drawn"] == plain["rows_drawn"] == len(fam)
                    assert once["rows_certified"] >= plain["rows_certified"]
                    assert once["gap_masks"] <= plain["gap_masks"]
                    assert once["below_built"] <= plain["below_built"]
                    assert set(once.walked) <= set(plain.walked)
                    pairs += len(expected)
                    skipped += len(full) - len(expected)
                    certified += once["rows_certified"]
    assert pairs > 0 and skipped > 0 and certified > 0


def test_two_cover_certificates_drop_only_rows_without_a_pair():
    # families of 1-3 vertices with heavy quota 0-2 over a random heavy set,
    # joined with another family and with themselves: the rows the
    # certificates drop, before a run's first row and by two covers, hold
    # no pair of the nested reference scan
    reached = set()
    for seed in range(120):
        rng = random.Random(f"two-cover:{seed}")
        n = rng.randint(4, 9)
        G = random_graph(f"two-cover:{seed}", n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        heavy = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        rows, cols = (multidom._candidate_family(n, heavy, size, rng.randint(0, min(2, size)))
                      for size in (rng.randint(1, 3), rng.randint(1, 3)))
        mirrored = seed % 2 == 0
        if mirrored:
            cols = rows
        for r in (1, 2, 3):
            for variant in multidom.VARIANTS:
                stats = {}
                got = list(multidom.pair_join(G, rows, cols, r, variant, stats=stats))
                expected = [(rows.members[i], cols.members[j])
                            for i, j in _reference_pair_join(G, rows.members, cols.members, r, variant)
                            if not mirrored or j > i]
                assert got == expected, (seed, r, variant)
                if stats["rows_certified"]:
                    reached.add((mirrored, variant))
    assert reached == {(mirrored, variant) for mirrored in (False, True)
                       for variant in multidom.VARIANTS}


def _record_expansions(monkeypatch) -> list:
    """Make `CandidateFamily.members` append each family to the returned
    list when it expands its member tuples."""
    expansions = []
    members = multidom.CandidateFamily.members

    def expand(fam):
        expansions.append(fam)
        return members.func(fam)

    counted = cached_property(expand)
    counted.__set_name__(multidom.CandidateFamily, "members")
    monkeypatch.setattr(multidom.CandidateFamily, "members", counted)
    return expansions


def test_no_solve_builds_no_member_tuple(monkeypatch):
    # a NO answer reads no pair, so no family expands its blocks into
    # member tuples; a first-hit YES decodes its one column alone, and only
    # a consumer that reads on, such as the k-set listing, expands the
    # column family, once
    families = []
    candidate_family = multidom._candidate_family

    def recording(*args):
        families.append(candidate_family(*args))
        return families[-1]

    monkeypatch.setattr(multidom, "_candidate_family", recording)
    expansions = _record_expansions(monkeypatch)
    assert solve_multidom_fast(_ov_multidom_no_instance(), 4, 2, "multiple") is None
    rng = random.Random("pattern-no")
    while True:
        inst = OVInstance.from_lists(4, [[tuple(int(rng.random() >= 0.3) for _ in range(4))
                                          for _ in range(2)] for _ in range(5)])
        if not solve_ov_bruteforce(inst, 1):
            break
    out = ov_to_hdom(inst, Pattern.path(5))
    assert patterndom.solve(out.graph, out.problem) is None
    assert len(families) == 3 and not expansions
    assert not any("members" in fam.__dict__ for fam in families)
    families.clear()
    G = complete_graph(8)
    for _ in range(2):
        assert solve_multidom_fast(G, 4, 2, "multiple") is not None
    assert len(families) == 2 and not expansions
    assert not any("members" in fam.__dict__ for fam in families)
    families.clear()
    assert len(list(list_dominating_ksets(G, 4))) == comb(8, 4)
    # the quota-0 rows are walked by their runs; the quota-1 columns expand once
    assert len(families) == 2 and list(map(id, expansions)) == [id(families[1])]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 4),
       st.sampled_from(["empty", "full", "some"]), st.integers(0, 511))
@example(6, 3, 0, "empty", 0)  # one left = 3 block over range(n)
@example(6, 3, 3, "full", 0)  # one left = 3 block over the heavy ids
@example(7, 4, 2, "some", 0b1010110)  # left = 1 and >= 2, over range(n) and the heavy ids
def test_family_member_decodes_members_without_building_them(n, size, quota, kind, mask):
    # member(j) equals the j-th set of a filtered combinations scan, for
    # every j, before `members` is built and after; quotas run 0..size
    quota = min(quota, size)
    heavy = {"empty": (), "full": tuple(range(n)),
             "some": tuple(v for v in range(n) if mask >> v & 1)}[kind]
    fam = multidom._candidate_family(n, heavy, size, quota)
    expected = [T for T in itertools.combinations(range(n), size)
                if len(set(T) & set(heavy)) >= quota]
    assert [fam.member(j) for j in range(len(fam))] == expected
    assert "members" not in fam.__dict__
    assert list(fam.members) == expected
    assert [fam.member(j) for j in range(len(fam))] == expected
    cols = multidom.ColumnList(n, expected)
    assert [cols.member(j) for j in range(len(cols))] == expected


def test_listing_consumer_reads_every_pair_from_one_expansion(monkeypatch):
    # a consumer that reads every pair gets the nested scan's pair list, in
    # order, with the column family expanded once; the first pair alone
    # expands nothing unless the join reads the column short sets
    expansions = _record_expansions(monkeypatch)
    read = 0
    for seed in range(80):
        rng = random.Random(f"listing:{seed}")
        n = rng.randint(4, 9)
        G = random_graph(f"listing:{seed}", n, rng.choice([0.3, 0.5, 0.8]))
        heavy = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        shapes = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(2)]
        shapes = [(size, min(quota, size)) for size, quota in shapes]
        for r in (1, 2):
            for variant in multidom.VARIANTS:
                rows, cols = (multidom._candidate_family(n, heavy, *shape) for shape in shapes)
                # rows shorter than r read the column short sets when
                # r * len(cols) <= n, which expands the columns first
                short_sets = r * len(cols) <= n and rows.size < r
                expansions.clear()
                first = next(multidom.pair_join(G, rows, cols, r, variant), None)
                assert [id(fam) for fam in expansions] == ([id(cols)] if short_sets else [])
                rows, cols = (multidom._candidate_family(n, heavy, *shape) for shape in shapes)
                expansions.clear()
                got = list(multidom.pair_join(G, rows, cols, r, variant))
                assert ([id(fam) for fam in expansions]
                        == ([id(cols)] if short_sets or len(got) > 1 else []))
                expected = [(rows.members[i], cols.members[j])
                            for i, j in _reference_pair_join(G, rows.members, cols.members, r, variant)]
                assert got == expected and first == (got[0] if got else None), (seed, r, variant)
                read += len(got) > 1
    assert read >= 100, read


def test_no_fast_multidom_solve_expands_a_family(monkeypatch):
    # every r and variant up to k = 8, near columns included: a NO answer
    # walks the row family by its runs and never reads its member tuples
    expansions = _record_expansions(monkeypatch)
    no = near = 0
    for seed in range(30):
        rng = random.Random(f"no-members:{seed}")
        n = rng.randint(8, 14)
        G = cli._random_gnm(rng, n, rng.randint(n, n * (n - 1) // 2))
        for k in range(2, 9):
            for r in range(1, k):
                for variant in multidom.VARIANTS:
                    expansions.clear()
                    stats = {}
                    if solve_multidom_fast(G, k, r, variant, stats=stats) is None:
                        assert not expansions, (seed, k, r, variant)
                        no += 1
                        near += (r <= k - 2 and stats["columns_kept"] > 0
                                 and multidom._family_shapes(k, r)[1][0] >= k - r + 1)
    assert no >= 500 and near >= 100, (no, near)


def test_family_joins_skip_column_masks(monkeypatch):
    # a join handed a CandidateFamily takes the masks built from its blocks;
    # only the near columns of r <= k-2 reach the join as a plain list
    families, plain = [], []
    join, column_masks = multidom.pair_join, multidom.ColumnList.column_masks.func

    def recording_join(G, rows, cols, *args, **kwargs):
        if isinstance(cols, multidom.CandidateFamily):
            families.append(cols.members)
        return join(G, rows, cols, *args, **kwargs)

    def masks(self):
        if any(self.members is members for members in families):
            raise AssertionError("ColumnList.column_masks called on a candidate family")
        plain.append(len(self))
        return column_masks(self)

    monkeypatch.setattr(multidom, "pair_join", recording_join)
    monkeypatch.setattr(patterndom, "pair_join", recording_join)
    monkeypatch.setattr(multidom.ColumnList, "column_masks", property(masks))
    drawn = 0
    # instance 42 brings the near columns: `_near_columns` keeps 3 at (5, 3)
    instances = _join_instances()
    for G, k in instances[::4] + [instances[42]]:
        for r in range(1, k):
            stats = {}
            solve_multidom_fast(G, k, r, "multiple", stats=stats)
            drawn += stats.get("rows_drawn", 0)
        list(list_dominating_ksets(G, k))
    assert drawn > 0 and families and plain


def test_2_dominating_sets_match_full_scan():
    # a pair (u, v) with only v heavy is found from v's scan; the output
    # must still list it as (u, v)
    light_first = 0
    for G in _equivalence_graphs() + [Graph(5, [(i, 4) for i in range(4)])]:
        expected = _reference_2_dominating_sets(G)
        assert list_2_dominating_sets(G) == expected
        heavy = set(heavy_vertices(G, 2))
        light_first += sum(1 for u, v in expected if u not in heavy)
    assert light_first > 0


def test_clique_graph_matches_double_loop():
    # also against partner masks read off `list_2_dominating_sets`, which
    # build_clique_graph used before `near_partners(G, 0)`
    for G in _equivalence_graphs() + _kminus1_graphs():
        for k in range(2, min(G.n, 5) + 1):
            kp, labels = build_clique_graph(G, k)
            for ref, ref_labels in (_reference_clique_graph(G, k), _list2_clique_graph(G, k)):
                assert (kp.sizes, kp.adj, labels) == (ref.sizes, ref.adj, ref_labels)


def test_heavy_vertices_run_once_per_graph_and_k(monkeypatch):
    # the family branch of the fast solver and the dominating k-set listing
    # each read heavy_vertices(G, k) twice: once themselves, once through
    # build_candidate_families
    passes = []
    iter_heavy = graph.iter_heavy_vertices

    def counting(G, k, alive=None):
        passes.append((id(G), k, alive))
        return iter_heavy(G, k, alive)

    monkeypatch.setattr(graph, "iter_heavy_vertices", counting)
    G, H = complete_graph(8), random_graph(3, 9, 0.5)
    assert multidom._family_shapes(4, 2)[1][0] < 4 - 2 + 1  # no near-column cut
    assert solve_multidom_fast(G, 4, 2, "multiple") is not None
    patterndom.solve_pattern_domination(H, Pattern.path(4))
    assert passes == [(id(G), 4, None), (id(H), 4, None)]


def test_2_dominating_sets_skip_join_without_heavy_vertex(monkeypatch):
    rng = random.Random("sparse-2000")
    n, edges = 2000, set()
    while len(edges) < 6000:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    G = Graph(n, sorted(edges))
    assert all(2 * (len(G.adjacency(v)) + 1) < n for v in range(n))

    def fail(*args, **kwargs):
        raise AssertionError("vertex mask built on a graph with no heavy vertex")

    monkeypatch.setattr(Graph, "neighbor_mask", fail)
    assert list_2_dominating_sets(G) == []


def test_fast_reports_stats():
    stats = {}
    solve_multidom_fast(cycle_graph(6), 3, 1, "multiple", stats=stats)
    # every vertex of C6 is heavy for k = 3 (|N[v]| = 3 >= 6/3), so the
    # families are all 1-sets and all 2-sets
    assert stats["candidate_family_sizes"] == [6, 15]
    assert "product_dims" not in stats and "scalar_op_count" not in stats


def _reference_pair_join(G, rows, cols, r, variant):
    """Nested row x column scan: the disjoint pairs whose capped levels add
    up to r at every vertex. A repeated vertex counts once."""
    col_levels = [_reference_levels(G, T, r, variant) for T in cols]
    pairs = []
    for i, S in enumerate(rows):
        lev_s = _reference_levels(G, set(S), r, variant)
        for j, T in enumerate(cols):
            if set(S).isdisjoint(T) and all(lev_s[v] + col_levels[j][v] >= r for v in range(G.n)):
                pairs.append((i, j))
    return pairs


def _held_out(G, rows, cols, r, variant):
    """The rows a join drops by its hold masks: when r * len(cols) <= n and
    the rows have fewer than r vertices, those that hold no column's short
    set, the vertices the column gives fewer than r - |S| dominators."""
    size = len(rows[0]) if rows else r
    if r * len(cols) > G.n or size >= r:
        return set()
    shorts = [sum(1 << v for v, lev in enumerate(_reference_levels(G, T, r, variant))
                  if lev + size < r) for T in cols]
    return {S for S in rows if all(Z & ~sum(1 << v for v in S) for Z in shorts)}


def test_pair_join_matches_nested_reference():
    # lexicographic rows share prefixes and exercise the row certificate;
    # shuffled rows change prefix almost every row, so nearly every run
    # holds one row; with r = 1, rows may repeat a vertex. Joins with
    # r * len(cols) <= n and rows of fewer than r vertices read the
    # columns' short sets, the others walk below[v]
    certified, gate = 0, set()
    for seed in range(160):
        rng = random.Random(f"pair-join:{seed}")
        n = rng.randint(1, 9)
        G = random_graph(seed, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        for variant in ("multiple", "tuple"):
            for r in (1, 2, 3, 4):
                s_size, t_size = rng.randint(1, 3), rng.randint(1, 3)
                rows = list(itertools.combinations(range(n), s_size))
                cols = list(itertools.combinations(range(n), t_size))
                shuffled = rng.sample(rows, len(rows))
                repeats = [tuple(rng.randrange(n) for _ in range(s_size)) for _ in range(12)]
                for row_list in (rows, shuffled) + ((repeats,) if r == 1 else ()):
                    stats = {}
                    got = list(multidom.pair_join(G, _runs(row_list), cols, r, variant, stats))
                    expected = _reference_pair_join(G, row_list, cols, r, variant)
                    assert got == [(row_list[i], cols[j]) for i, j in expected], (
                        seed, variant, r, row_list)
                    assert stats["rows_drawn"] == len(row_list)
                    certified += stats["rows_certified"]
                    gate.add(r * len(cols) <= n and s_size < r)
    assert certified > 0 and gate == {True, False}


def test_pair_join_matches_truncated_poly_product():
    # the ring model of the join: A[i, v] = x^(level rows[i] gives v) and
    # B[v, j] = x^(level cols[j] gives v), capped at r (x^r at v in the
    # member under "multiple"); (i, j) is a pair iff the members are
    # disjoint and min_degree((A·B)[i, j]) >= r. Lexicographic rows make the
    # run certificates fire; shuffled rows mostly make one-row runs.
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
                expected = [(rows[p], cols[j]) for p in perm
                            for j in range(len(cols)) if ok[p][j]]
                stats = {}
                got = list(multidom.pair_join(G, _runs(rows[p] for p in perm), cols, r, variant,
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


def test_pair_join_certifies_most_rows_on_ov_no_instance():
    # every row of a NO instance is drawn; most lie in a run whose
    # certificate already covers every column, so they skip the gap walk:
    # in lexicographic order the join ORs under half the gap masks it ORs
    # when the same rows come shuffled (so that hardly any run holds two)
    G = _ov_multidom_no_instance()
    stats = {}
    assert solve_multidom_fast(G, 4, 2, "multiple", stats=stats) is None
    fam_s, _ = stats["candidate_family_sizes"]
    assert stats["rows_drawn"] == fam_s
    assert stats["rows_certified"] >= 0.8 * fam_s
    assert 0 < stats["below_built"] <= G.n
    rows, cols = build_candidate_families(G, 4, 2)
    shuffled = random.Random("ov-multidom-no").sample(rows.members, len(rows.members))
    walked = {}
    assert list(multidom.pair_join(G, _runs(shuffled), cols.members, 2, "multiple",
                                   stats=walked)) == []
    assert walked["rows_drawn"] == fam_s
    assert stats["gap_masks"] < walked["gap_masks"] / 2


@pytest.mark.parametrize("variant", multidom.VARIANTS)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_pair_join_draws_no_row_past_the_first_pair(variant, r):
    # the runs of combinations(range(8), 2), one per first vertex a: the
    # run generator raises if it is asked for the run after the first
    # pair's run, and the certificates fire before each run's first row.
    # Only graphs whose first pair is past row 0 count.
    tried = 0
    for seed in range(60):
        G = random_graph(f"lazy:{seed}", 8, (0.2, 0.4, 0.6)[seed % 3])
        rows = list(itertools.combinations(range(G.n), 2))
        runs = [((a,), sum(1 << b for b in range(a + 1, G.n)), 0) for a in range(G.n - 1)]
        assert [P + (b,) for P, B, _ in runs for b in multidom.iter_bits(B)] == rows
        cols = list(itertools.combinations(range(G.n), 1 + seed % 2))
        first = next(iter(_reference_pair_join(G, rows, cols, r, variant)), None)
        if first is None or first[0] == 0:
            continue

        def drawn():
            yield from runs[:rows[first[0]][0] + 1]
            raise AssertionError("run drawn past the first pair's run")

        stats = {}
        assert next(multidom.pair_join(G, drawn(), cols, r, variant, stats=stats)) == (
            rows[first[0]], cols[first[1]])
        assert stats["rows_drawn"] == first[0] + 1
        tried += 1
    assert tried >= 2


def _reference_near(G, miss, alive=None):
    """near[a] by its definition: every b != a of `alive` (default V) that
    leaves at most `miss` vertices of `alive` outside N[a] | N[b]; 0 for a
    outside `alive`."""
    full = G.full_mask() if alive is None else alive
    return [sum(1 << b for b in range(G.n)
                if b != a and (full >> a) & 1 and (full >> b) & 1
                and (full & ~(G.closed_mask(a) | G.closed_mask(b))).bit_count() <= miss)
            for a in range(G.n)]


def _planted_kminus1_graph(seed, n: int, k: int) -> Graph:
    """k hubs at random ids; every other vertex is joined to k-1 of them,
    plus about n random edges: the hubs are a (k-1)-multiple dominating set."""
    rng = random.Random(f"kminus1:{seed}")
    hubs = rng.sample(range(n), k)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
    for v in set(range(n)) - set(hubs):
        edges |= {(min(h, v), max(h, v)) for h in rng.sample(hubs, k - 1)}
    return Graph(n, sorted(edges))


def _kminus1_graphs():
    graphs = [Graph(7, []), star_graph(6), complete_graph(6)]
    for seed in range(60):
        rng = random.Random(f"kminus1-random:{seed}")
        graphs.append(random_graph(f"kminus1-random:{seed}", rng.randint(5, 13),
                                   rng.choice([0.3, 0.5, 0.7, 0.85])))
    for seed, k in enumerate([3, 4, 5, 6] * 3):
        graphs.append(_planted_kminus1_graph(seed, 14 + 3 * seed, k))
    graphs += [_planted_hub_graph(seed, n, hubs) for seed, (n, hubs) in enumerate([(30, 4), (24, 5)])]
    return graphs


def test_near_partners_match_definition():
    # each graph also under an empty, a full and a random `alive` mask
    reached = set()
    rng = random.Random("near-alive")
    for G in _equivalence_graphs()[::2] + _kminus1_graphs()[::3]:
        for miss in range(4):
            for alive in (None, 0, G.full_mask(), rng.getrandbits(G.n)):
                near = multidom.near_partners(G, miss, alive)
                assert near == _reference_near(G, miss, alive), (G, miss, alive)
                if any(near):
                    reached.add((miss, alive is None or alive == G.full_mask()))
    assert reached == {(miss, whole) for miss in range(4) for whole in (True, False)}


def _list2_clique_graph(G, k):
    """The clique graph with its dominating partners read off
    `list_2_dominating_sets`."""
    heavy = list(heavy_vertices(G, k))
    labels = [list(heavy) for _ in range(k - 1)] + [list(range(G.n))]
    partners = [0] * G.n
    for u, v in list_2_dominating_sets(G):
        partners[u] |= 1 << v
        partners[v] |= 1 << u
    index = {v: b for b, v in enumerate(heavy)}
    edges = []
    for a, u in enumerate(heavy):
        found = [v for v in range(G.n) if (partners[u] >> v) & 1]
        for i in range(k - 1):
            for j in range(i + 1, k - 1):
                edges.extend(((i, a), (j, index[v])) for v in found if v in index)
            edges.extend(((i, a), (k - 1, v)) for v in found)
    return KPartiteGraph([len(p) for p in labels], edges), labels


def _unfiltered_fast(G, k, r, variant):
    """The first pair of the join over every row and column of the families."""
    fam_s, fam_t = build_candidate_families(G, k, r)
    for S, T in multidom.pair_join(G, _runs(fam_s.members), fam_t, r, variant):
        return Solution(Problem(variant, k, r), tuple(sorted(S + T)))
    return None


def _unfiltered_kminus1(G, k):
    """The pipeline on the list2 clique graph, with the unfiltered join as
    its fallback."""
    problem = Problem("multiple", k, k - 1)
    kp, labels = _list2_clique_graph(G, k)
    wit = detect_unbalanced_kclique(kp)
    if wit is not None:
        return Solution(problem, tuple(sorted(labels[i][a] for i, a in wit)),
                        {"clique_witness": list(wit)})
    fallback = _unfiltered_fast(G, k, k - 1, "multiple")
    return None if fallback is None else Solution(problem, fallback.vertices,
                                                  {"clique_witness": None})


def _kminus1_join(G, k, variant):
    """The sorted vertices of the first pair of the r = k-1 join, or None:
    `pair_join` over the near-clique rows of the row family and the
    near-clique columns of heavy ids, keeping the pairs whose column is near
    every row vertex. The reference `multidom._near_first` must match."""
    heavy = multidom._set_mask(heavy_vertices(G, k))
    near = multidom.near_partners(G, k - 2 if variant == "multiple" else 0)
    (s, quota), (t, _) = multidom._family_shapes(k, k - 1)
    cols = list(multidom._near_rows(near, heavy, t, t, heavy))
    rows = _runs(multidom._near_rows(near, heavy, s, quota, G.full_mask())) if cols else ()
    pair = next(multidom.pair_join(G, rows, cols, k - 1, variant, allowed=near.__getitem__), None)
    return None if pair is None else tuple(sorted(pair[0] + pair[1]))


def test_kminus1_solutions_match_unfiltered_join():
    # every r = k-1 solve finds the first hit of the uncut join and reports
    # the uncut family sizes and no join counters, since no join runs
    answers = {True: 0, False: 0}
    for G in _kminus1_graphs():
        for k in range(2, min(G.n, 6) + 1):
            fam_s, fam_t = build_candidate_families(G, k, k - 1)
            for variant in multidom.VARIANTS:
                stats = {}
                got = solve_multidom_fast(G, k, k - 1, variant, stats=stats)
                assert got == _unfiltered_fast(G, k, k - 1, variant), (G, k, variant)
                assert stats == {"candidate_family_sizes": [len(fam_s.members), len(fam_t.members)]}
                answers[got is not None] += 1
            assert solve_multidom_kminus1(G, k) == _unfiltered_kminus1(G, k), (G, k)
    assert min(answers.values()) >= 50, answers


def _pair_lemma_graphs():
    """Random G(n, m), n 6-30, from sparse to dense."""
    rng = random.Random("pair-lemma")
    graphs = []
    for seed in range(40):
        n = rng.randint(6, 30)
        m = rng.randint(n, n * (n - 1) // 2 * 4 // 5)
        graphs.append(cli._random_gnm(random.Random(f"pair-lemma:{seed}"), n, m))
    return graphs


def _clique_join_inputs(G, k):
    """The rows and columns `solve_dominating_clique` joins, for k >= 3."""
    heavy = sum(1 << v for v in heavy_vertices(G, k))
    rows = [S + (h,) for S in patterndom.enumerate_cliques(G, (k - 1) // 2)
            for h in multidom.iter_bits(heavy) if all(G.has_edge(s, h) for s in S)]
    return rows, patterndom.enumerate_cliques(G, k // 2)


def test_allowed_join_drops_exactly_the_pairs_outside_the_masks():
    # the pair lemma filter: a pair (S, T) survives iff T is inside A[s] for
    # every s in S; A the near masks at r = k-1, the neighbour masks for cliques
    dropped = 0
    for G in _pair_lemma_graphs()[::2]:
        cases = []
        for k in range(3, 6):
            fam_s, fam_t = build_candidate_families(G, k, k - 1)
            for variant in multidom.VARIANTS:
                near = multidom.near_partners(G, k - 2 if variant == "multiple" else 0)
                cases.append((fam_s.members, fam_t, k - 1, variant, near))
            # the unfiltered k = 5 clique join of a dense n = 30 lists 10^6 pairs
            if k < 5 or G.n <= 16:
                rows, cols = _clique_join_inputs(G, k)
                cases.append((rows, cols, 1, "tuple", [G.neighbor_mask(v) for v in range(G.n)]))
        for rows, cols, r, variant, A in cases:
            plain = list(multidom.pair_join(G, _runs(rows), cols, r, variant))
            kept = [(S, T) for S, T in plain if all(A[s] >> t & 1 for s in S for t in T)]
            got = list(multidom.pair_join(G, _runs(rows), cols, r, variant, allowed=A.__getitem__))
            assert got == kept, (G, r, variant)
            dropped += len(plain) - len(kept)
    assert dropped > 0


def test_pair_lemma_joins_keep_first_hits_on_random_graphs():
    from .test_patterndom import _clique_row_major

    answers = {True: 0, False: 0}
    for G in _pair_lemma_graphs():
        for k in range(3, min(G.n, 6) + 1):
            assert repr(patterndom.solve_dominating_clique(G, k)) == repr(_clique_row_major(G, k))
            for variant in multidom.VARIANTS:
                got = solve_multidom_fast(G, k, k - 1, variant)
                assert got == _unfiltered_fast(G, k, k - 1, variant), (G, k, variant)
                answers[got is not None] += 1
            assert solve_multidom_kminus1(G, k) == _unfiltered_kminus1(G, k), (G, k)
    assert min(answers.values()) >= 20, answers


def _near_cliques(G, k, variant):
    """The row family's members at r = k-1 whose pairs are all near."""
    near = _reference_near(G, k - 2 if variant == "multiple" else 0)
    fam_s, _ = build_candidate_families(G, k, k - 1)
    return [S for S in fam_s.members
            if all((near[a] >> b) & 1 for a, b in itertools.combinations(S, 2))]


def test_near_rows_are_the_near_cliques_of_the_family():
    for G in _kminus1_graphs()[::2]:
        heavy = heavy_vertices(G, 5)
        for variant in multidom.VARIANTS:
            near = multidom.near_partners(G, 3 if variant == "multiple" else 0)
            rows = multidom._near_rows(near, sum(1 << v for v in heavy), 3, 2, G.full_mask())
            assert list(rows) == _near_cliques(G, 5, variant)


def _reference_near_rows(near, heavy, size, quota, full):
    """The size-subsets of `full` with at least `quota` ids of `heavy` whose
    pairs are all near, from a filtered `itertools.combinations` scan."""
    ids = [v for v in range(full.bit_length()) if full >> v & 1]
    return [S for S in itertools.combinations(ids, size)
            if sum(heavy >> v & 1 for v in S) >= quota
            and all(near[a] >> b & 1 for a, b in itertools.combinations(S, 2))]


def test_near_rows_meet_the_heavy_quota():
    # complete `near` on 6 vertices, two heavy ones: every row of 3 with a
    # quota of 2 holds both, so (0, 1, 4) is not a row
    near = [0b111111 ^ 1 << v for v in range(6)]
    assert list(multidom._near_rows(near, 0b110000, 3, 2, 0b111111)) == [
        (0, 4, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5)]
    rng = random.Random("near-rows")
    for _ in range(150):
        n = rng.randint(1, 10)
        near = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.7:
                near[a] |= 1 << b
                near[b] |= 1 << a
        heavy, full = rng.getrandbits(n), rng.choice([(1 << n) - 1, rng.getrandbits(n)])
        for size in range(1, 5):
            for quota in range(size + 1):
                got = list(multidom._near_rows(near, heavy, size, quota, full))
                assert got == _reference_near_rows(near, heavy, size, quota, full), (
                    near, heavy, size, quota, full)


def test_near_rows_stop_before_candidates_that_cannot_finish_a_row(monkeypatch):
    # against the filtered combinations scan, sizes 1-5 and quotas 0-2
    rng = random.Random("near-rows-stop")
    for _ in range(200):
        n = rng.randint(1, 9)
        near = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.8:
                near[a] |= 1 << b
                near[b] |= 1 << a
        heavy, full = rng.getrandbits(n), rng.choice([(1 << n) - 1, rng.getrandbits(n)])
        for size in range(1, 6):
            for quota in range(3):
                got = list(multidom._near_rows(near, heavy, size, quota, full))
                assert got == _reference_near_rows(near, heavy, size, quota, full), (
                    near, heavy, size, quota, full)
    # the one 40-clique of a complete `near` graph: each prefix tries only
    # the one candidate that leaves enough above it, so the walk takes 40
    # bit steps, not the 820 of trying every candidate
    steps, real = [], multidom.iter_bits

    def counted(mask):
        for v in real(mask):
            steps.append(v)
            yield v

    monkeypatch.setattr(multidom, "iter_bits", counted)
    near = [(1 << 40) - 1 ^ 1 << v for v in range(40)]
    assert list(multidom._near_rows(near, 0, 40, 0, (1 << 40) - 1)) == [tuple(range(40))]
    assert len(steps) == 40


def test_kminus1_draws_only_near_rows():
    # two NO instances: r = k-1 solves report the uncut family sizes and
    # nothing else, since the search draws no join row
    G = cli._random_gnm(random.Random(1), 120, 2100)
    stats = {}
    assert solve_multidom_fast(G, 5, 4, "multiple", stats=stats) is None
    assert stats == {"candidate_family_sizes": [280840, 7140]}
    rng = random.Random("ov-multidom-no-r3")
    while True:
        inst = OVInstance.from_lists(6, [[tuple(int(rng.random() >= 0.3) for _ in range(6))
                                          for _ in range(size)] for size in (2, 2, 3, 3)])
        if not solve_ov_bruteforce(inst, 3):
            break
    G = ov_to_multidom(inst, 3).graph
    stats = {}
    assert solve_multidom_fast(G, 4, 3, "multiple", stats=stats) is None
    fam_s, fam_t = build_candidate_families(G, 4, 3)
    assert stats == {"candidate_family_sizes": [len(fam_s.members), len(fam_t.members)]}


def _near_shapes():
    """(k, r) for k = 5..8 and every r whose column shape has L >= 1."""
    return [(k, r) for k in range(5, 9) for r in range(1, k)
            if multidom._family_shapes(k, r)[1][0] >= k - r + 1]


def _planted_near_graph(seed, k: int, r: int) -> Graph:
    """k hubs at random ids, pairwise adjacent, among n = k(r + 4) vertices;
    every other vertex is joined to r of them, plus about n/4 random edges.
    The hubs are an r-multiple and an r-tuple dominating set, and few other
    vertices reach the heavy degree n/k."""
    n = k * (r + 4)
    rng = random.Random(f"near-hubs:{seed}")
    hubs = rng.sample(range(n), k)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 4)}
    edges |= {(min(a, b), max(a, b)) for a, b in itertools.combinations(hubs, 2)}
    for v in set(range(n)) - set(hubs):
        edges |= {(min(h, v), max(h, v)) for h in rng.sample(hubs, r)}
    return Graph(n, sorted(edges))


def _near_graphs():
    """(G, shapes): small random graphs under every near shape, and one
    planted hub graph per shape under its own."""
    shapes = _near_shapes()
    out = [(G, shapes) for G in (Graph(9, []), star_graph(9), complete_graph(9))]
    for seed in range(16):
        rng = random.Random(f"near-columns:{seed}")
        out.append((random_graph(f"near-columns:{seed}", rng.randint(8, 10),
                                 rng.choice([0.3, 0.5, 0.7, 0.85])), shapes))
    out += [(_planted_near_graph(seed, k, r), [(k, r)]) for seed, (k, r) in enumerate(shapes)]
    return out


def test_near_columns_are_the_filtered_column_family():
    # every (k, r) with L >= 1, r = k-1 included; |T| = quota + 1 is built
    # from heavy quota-sets while r times the columns kept is at most n.
    # Past that bound, and for every other shape, the cut gives None
    cut, gave_up = set(), set()
    for G, shapes in _near_graphs():
        for k, r in shapes:
            heavy = heavy_vertices(G, k)
            size, quota = multidom._family_shapes(k, r)[1]
            level = r - (k - size)
            family = multidom._candidate_family(G.n, heavy, size, quota).members
            for variant in multidom.VARIANTS:
                allowed = k - size if variant == "multiple" else 0
                shorts = {T: sum(1 << v for v, lev in
                                 enumerate(_reference_levels(G, T, level, variant))
                                 if lev < level)
                          for T in family}
                expected = [T for T in family if shorts[T].bit_count() <= allowed]
                cols = multidom._near_columns(G, heavy, k, r, variant)
                if size - quota != 1 or r * len(expected) > G.n:
                    assert cols is None, (G, k, r, variant)
                    gave_up.add("bound" if size - quota == 1 else "shape")
                    continue
                assert cols == expected, (G, k, r, variant)
                # the short set the join reads for each column is this one
                for T in cols:
                    misses = multidom._column_misses(G, T, r, variant == "multiple")
                    assert misses[k - size] == shorts[T], (G, k, r, variant, T)
                if len(cols) < len(family):
                    cut.add((level, variant))
    assert cut == {(1, "multiple"), (2, "multiple"), (1, "tuple"), (2, "tuple")}
    assert gave_up == {"bound", "shape"}


def test_hold_masks_match_set_reference():
    # every held prefix P of the near-column joins: with Z_j the short set
    # of column j for rows of s < r vertices, hold is -1 when some Z_j lies
    # in P and else the b with Z_j - P = {b}; always holds the j with two
    # or more vertices of Z_j outside P. The golden b-hubs graphs reach
    # the prefixes that hold some rows, not all
    reached = set()
    b_hubs = [(make_golden.build_graph(recipe), [tuple(recipe["only"][1:])])
              for recipe in make_golden.B_HUBS.values()]
    for G, shapes in _near_graphs() + b_hubs:
        for k, r in shapes:
            heavy = heavy_vertices(G, k)
            size, quota = multidom._family_shapes(k, r)[0]
            if size >= r:
                continue
            rows = multidom._candidate_family(G.n, heavy, size, quota).members
            for variant in multidom.VARIANTS:
                cols = multidom._near_columns(G, heavy, k, r, variant)
                if cols is None:
                    continue
                shorts = [{v for v, lev in enumerate(_reference_levels(G, T, r, variant))
                           if lev + size < r} for T in cols]
                misses = [multidom._column_misses(G, T, r, variant == "multiple") for T in cols]
                for P in sorted({S[:-1] for S in rows}):
                    outs = [Z - set(P) for Z in shorts]
                    held = set().union(*(out for out in outs if len(out) == 1))
                    hold = -1 if set() in outs else sum(1 << b for b in held)
                    always = sum(1 << j for j, out in enumerate(outs) if len(out) >= 2)
                    got = multidom._hold_masks(misses, size, sum(1 << v for v in P))
                    assert got == (hold, always), (G, k, r, variant, P)
                    reached.add((hold == -1, hold == 0, always != 0))
    assert {(True, False, True), (False, False, True), (False, True, True)} <= reached, reached


def test_near_column_solutions_match_unfiltered_join():
    # the column cut keeps a subsequence and the row certificate drops
    # only rows that cannot pair, so the first hit is the same
    answers = {True: 0, False: 0}
    rows_certified = 0
    for G, shapes in _near_graphs():
        for k, r in shapes:
            if r == k - 1:
                continue
            fam_s, fam_t = build_candidate_families(G, k, r)
            for variant in multidom.VARIANTS:
                stats = {}
                got = solve_multidom_fast(G, k, r, variant, stats=stats)
                assert got == _unfiltered_fast(G, k, r, variant), (G, k, r, variant)
                assert stats["candidate_family_sizes"] == [len(fam_s.members),
                                                           len(fam_t.members)]
                assert stats["columns_kept"] <= len(fam_t.members)
                assert stats["rows_drawn"] <= len(fam_s.members)
                answers[got is not None] += 1
                if got is None and stats["columns_kept"]:
                    rows_certified += stats["rows_certified"] > 0
    assert min(answers.values()) >= 50, answers
    assert rows_certified > 0


def test_column_short_sets_keep_every_pair_in_order():
    # every near-column join, which reads the short sets as the cut keeps
    # r * len(cols) <= n, yields the nested reference's full pair list,
    # rows as a family and as its members regrouped by `_runs`, and its
    # hold masks drop the rows that hold no short set; a cut past that
    # bound gives None, and the solve joins the families
    gate, held = set(), 0
    for G, shapes in _near_graphs():
        for k, r in shapes:
            heavy = heavy_vertices(G, k)
            shape_s, (size, quota) = multidom._family_shapes(k, r)
            for variant in multidom.VARIANTS:
                cols = multidom._near_columns(G, heavy, k, r, variant)
                if size - quota == 1:
                    gate.add(cols is None)
                if cols is None:
                    continue
                assert r * len(cols) <= G.n
                fam = multidom._candidate_family(G.n, heavy, *shape_s)
                expected = [(fam.members[i], cols[j])
                            for i, j in _reference_pair_join(G, fam.members, cols, r, variant)]
                dropped = _held_out(G, fam.members, cols, r, variant)
                for rows in (fam, _runs(fam.members)):
                    stats = {}
                    assert list(multidom.pair_join(G, rows, cols, r, variant, stats)) == expected, (
                        G, k, r, variant)
                    assert stats["rows_drawn"] == len(fam)
                    assert stats["rows_certified"] >= len(dropped)
                held += len(dropped) > 0
    assert gate == {True, False} and held > 0


def test_column_short_sets_walk_one_row_on_b_hubs():
    # the sparse-wide benchmark's b-hubs graphs, seeds 1-10 and blocks 0-4:
    # the hold masks and certificates leave only the first hit's row,
    # checked directly against about ten columns. The unfiltered column
    # family, too many columns for the short sets, gives the same first
    # pair by the below[v] walk
    for seed in range(1, 11):
        for block in range(5):
            G = make_golden.build_graph(make_golden.b_hubs_recipe(seed, block))
            stats = {}
            got = solve_multidom_fast(G, 5, 3, "multiple", stats=stats)
            assert stats["rows_drawn"] - stats["rows_certified"] == 1, (seed, block, stats)
            assert stats["below_built"] == 0, (seed, block, stats)
            fam_s, fam_t = build_candidate_families(G, 5, 3)
            assert 3 * len(fam_t) > G.n
            S, T = next(multidom.pair_join(G, fam_s, fam_t, 3, "multiple"))
            assert got == Solution(Problem("multiple", 5, 3), tuple(sorted(S + T)))


def test_near_column_cut_stops_past_the_short_set_bound(monkeypatch):
    # deterministic counters: on the golden dense-near-1 graph (every vertex
    # heavy) the first heavy quota-set already gives r times its columns
    # past n, so the cut reads that one set's levels and gives None, and the
    # solve joins the whole column family; the 50 golden b-hubs graphs stay
    # below the bound and keep their 10-13 columns
    recipe = make_golden.DENSE_NEAR["dense-near-1"]
    G = make_golden.build_graph(recipe)
    variant, k, r = recipe["only"]
    heavy = heavy_vertices(G, k)
    size, quota = multidom._family_shapes(k, r)[1]
    read, levels = [], multidom._levels

    def counting(G, X, *args):
        read.append(tuple(X))
        return levels(G, X, *args)

    monkeypatch.setattr(multidom, "_levels", counting)
    assert multidom._near_columns(G, heavy, k, r, variant) is None
    assert read == [heavy[:quota]]
    monkeypatch.undo()
    stats = {}
    solve_multidom_fast(G, k, r, variant, stats=stats)
    family = multidom.closed_form_family_size(G.n, len(heavy), size, quota)
    assert stats["columns_kept"] == stats["candidate_family_sizes"][1] == family == 82160
    kept = set()
    for recipe in make_golden.B_HUBS.values():
        G = make_golden.build_graph(recipe)
        variant, k, r = recipe["only"]
        cols = multidom._near_columns(G, heavy_vertices(G, k), k, r, variant)
        assert cols is not None and r * len(cols) <= G.n, recipe
        kept.add(len(cols))
    assert min(kept) >= 10 and max(kept) <= 13, kept


def test_short_set_join_counts_each_column_levels_once(monkeypatch):
    # the golden b-hubs-1-0 recipe at (5, 3): rows of 2 < r vertices and
    # r * len(cols) <= n, so the join reads the short sets. The column T of
    # the first pair is disjoint from its row S and S holds Z_T, so T
    # survives the direct check; the hold masks and that check read the
    # same levels, one `_levels` count per column
    recipe = make_golden.B_HUBS["b-hubs-1-0"]
    G = make_golden.build_graph(recipe)
    variant, k, r = recipe["only"]
    heavy = heavy_vertices(G, k)
    cols = multidom._near_columns(G, heavy, k, r, variant)
    rows = multidom._candidate_family(G.n, heavy, *multidom._family_shapes(k, r)[0])
    assert rows.size < r and 0 < r * len(cols) <= G.n
    counted, levels, members = [], multidom._levels, set(cols)

    def counting(G, X, *args):
        if tuple(X) in members:
            counted.append(tuple(X))
        return levels(G, X, *args)

    monkeypatch.setattr(multidom, "_levels", counting)
    S, T = next(multidom.pair_join(G, rows, cols, r, variant))
    assert not set(S) & set(T)
    assert sorted(counted) == sorted(cols)


def _ov_k5_r3_no_graphs(count: int, d: int = 8):
    rng = random.Random("ov-multidom-k5-r3-no")
    graphs = []
    while len(graphs) < count:
        inst = OVInstance.from_lists(d, [[tuple(int(rng.random() >= 0.3) for _ in range(d))
                                          for _ in range(2)] for _ in range(5)])
        if not solve_ov_bruteforce(inst, 3):
            graphs.append(ov_to_multidom(inst, 3).graph)
    return graphs


def test_near_columns_on_certified_ov_no_group():
    # ov_to_multidom at k = 5, r = 3 on sources the brute force certifies
    # NO: the join gets a strict subset of the column family, of at most
    # n // r columns, or, when the cut passes that bound, the whole family
    reached = set()
    for G in _ov_k5_r3_no_graphs(4) + _ov_k5_r3_no_graphs(4, d=10):
        heavy = heavy_vertices(G, 5)
        _, fam_t = build_candidate_families(G, 5, 3)
        for variant in multidom.VARIANTS:
            stats = {}
            assert solve_multidom_fast(G, 5, 3, variant, stats=stats) is None
            assert _unfiltered_fast(G, 5, 3, variant) is None
            assert stats["candidate_family_sizes"][1] == len(fam_t.members)
            cols = multidom._near_columns(G, heavy, 5, 3, variant)
            if cols is None:
                assert stats["columns_kept"] == len(fam_t.members)
            else:
                assert stats["columns_kept"] == len(cols) < len(fam_t.members)
                assert 3 * len(cols) <= G.n
            reached.add((variant, cols is None))
    assert reached >= {("multiple", True), ("multiple", False), ("tuple", False)}, reached


def test_no_near_column_builds_no_row(monkeypatch):
    # five hubs each joined to about 40% of the vertices: the 560 columns
    # of size 3 all leave more than two vertices undominated, so None comes
    # before any row family is built, and the join draws nothing
    G = _planted_hub_graph(0, 60, 5)
    _, fam_t = build_candidate_families(G, 5, 3)

    def fail(*args, **kwargs):
        raise AssertionError("row family built with no column left")

    monkeypatch.setattr(multidom, "_candidate_family", fail)
    for variant in multidom.VARIANTS:
        stats = {}
        assert solve_multidom_fast(G, 5, 3, variant, stats=stats) is None
        assert stats["candidate_family_sizes"][1] == len(fam_t.members) == 560
        assert stats["columns_kept"] == 0 and stats["rows_drawn"] == 0


def _planted_k9_graph(seed, n: int) -> Graph:
    """Nine vertices, most pairs of them adjacent, among n; every other
    vertex is joined to five of the nine, plus about n random edges."""
    rng = random.Random(f"k9:{seed}")
    planted = rng.sample(range(n), 9)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
    edges |= {(a, b) for a, b in itertools.combinations(sorted(planted), 2) if rng.random() < 0.8}
    for v in set(range(n)) - set(planted):
        edges |= {(min(h, v), max(h, v)) for h in rng.sample(planted, 5)}
    return Graph(n, sorted(edges))


def test_near_column_shape_without_cut_joins_the_families():
    # k = 9, r = 5 is the first solver shape with t >= k-r+1 but t - q = 2:
    # the column shape (5, 3) is not a heavy quota-set plus one vertex, so
    # the cut gives None and the solve joins the two families uncut
    assert multidom._family_shapes(9, 5)[1] == (5, 3)
    graphs = [random_graph(f"k9:{seed}", 10 + seed % 3, 0.4 + 0.1 * (seed % 3)) for seed in range(4)]
    graphs += [random_graph(f"k9-sparse:{seed}", 14, 0.2) for seed in range(2)]
    graphs += [_planted_k9_graph(seed, 18) for seed in range(4)]
    answers = {True: 0, False: 0}
    for G in graphs:
        heavy = heavy_vertices(G, 9)
        _, fam_t = build_candidate_families(G, 9, 5)
        for variant in multidom.VARIANTS:
            assert multidom._near_columns(G, heavy, 9, 5, variant) is None
            stats = {}
            got = solve_multidom_fast(G, 9, 5, variant, stats=stats)
            assert got == _unfiltered_fast(G, 9, 5, variant), (G, variant)
            assert stats["columns_kept"] == len(fam_t.members) > 0, (G, variant)
            answers[got is not None] += 1
    assert min(answers.values()) >= 4, answers


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
            sol = oracle_multidom(G, k, k - 1, "tuple")
            kp, labels = build_clique_graph(G, k)
            assert (sol is not None) == (detect_unbalanced_kclique(kp) is not None)


def test_pipeline_scans_partners_once_without_a_clique_graph(monkeypatch):
    # the witness comes from partner masks, and the fallback reuses them
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline built or searched a clique graph")

    for name in ("KPartiteGraph", "build_clique_graph", "detect_unbalanced_kclique"):
        monkeypatch.setattr(multidom, name, refuse)
    calls = {"near_partners": 0, "heavy_vertices": 0}

    def counted(name):
        original = getattr(multidom, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(multidom, name, counted(name))
    graphs = [path_graph(4), complete_graph(4), cycle_graph(6), Graph(5, [])]
    graphs += [_planted_kminus1_graph(seed, 20, 4) for seed in range(3)]
    certificates = set()
    for G in graphs:
        for k in range(2, 5):
            calls.update(dict.fromkeys(calls, 0))
            sol = solve_multidom_kminus1(G, k)
            assert calls == {"near_partners": 1, "heavy_vertices": 1}, (G, k)
            certificates.add("none" if sol is None else
                             "fallback" if sol.certificate["clique_witness"] is None else "witness")
    assert certificates == {"none", "fallback", "witness"}


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
    brute = oracle_multidom(C6, 3, 2, "multiple")
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
    brute = oracle_multidom(G, k, k - 1, "multiple")
    assert (sol is None) == (brute is None)
    if sol is not None:
        assert verify_solution(G, sol.problem, sol.vertices)


def _near_solution_reference(G, k, in_heavy, near):
    """Whether some near k-clique with at least k-1 heavy ids, listed by
    `_near_rows`, has every vertex at level k-1."""
    full = G.full_mask()
    return any(multidom._levels(G, X, k - 1, True)[k - 1] == full
               for X in multidom._near_rows(near, in_heavy, k, k - 1, full))


def _random_gnm_graphs(name, count, low, high):
    """`count` random G(n, m), n from `low` to `high`, m from 0 to C(n, 2)."""
    rng = random.Random(name)
    return [cli._random_gnm(rng, n, rng.randint(0, n * (n - 1) // 2))
            for n in (rng.randint(low, high) for _ in range(count))]


def test_near_solution_search_matches_listed_near_cliques():
    # the search decides what listing the near k-cliques with >= k-1 heavy
    # ids and checking their levels decides, on YES and NO alike
    answers = {True: 0, False: 0}
    for G in _random_gnm_graphs("near-search", 400, 3, 16):
        for k in range(2, 7):
            in_heavy = multidom._set_mask(heavy_vertices(G, k))
            near = multidom.near_partners(G, k - 2)
            got = multidom._near_first(G, k, "multiple", in_heavy, near)
            assert (got is not None) == _near_solution_reference(G, k, in_heavy, near), (G, k)
            if got is not None:
                assert verify_solution(G, Problem("multiple", k, k - 1), got), (G, k)
            answers[got is not None] += 1
    assert min(answers.values()) >= 500, answers


def test_near_first_is_the_first_hit_of_the_kminus1_join():
    # the search meets the join's pairs in join order: the same first hit,
    # or None, for both variants and k up to 8. Sparse small graphs at
    # k near n bring rows whose light id lies above a forced vertex
    rng = random.Random("near-first-sparse")
    sparse = [cli._random_gnm(rng, n, rng.randint(n - 2, 2 * n))
              for n in (rng.randint(5, 9) for _ in range(300))]
    answers = {True: 0, False: 0}
    for G in _random_gnm_graphs("near-first", 150, 3, 14) + sparse:
        for k in range(2, min(G.n, 8) + 1):
            in_heavy = multidom._set_mask(heavy_vertices(G, k))
            for variant in multidom.VARIANTS:
                near = multidom.near_partners(G, k - 2 if variant == "multiple" else 0)
                got = multidom._near_first(G, k, variant, in_heavy, near)
                assert got == _kminus1_join(G, k, variant), (G, k, variant)
                answers[got is not None] += 1
    assert min(answers.values()) >= 500, answers


def test_near_first_takes_a_light_row_id_above_a_forced_vertex():
    # K_{1,4} (centre 4) plus the isolated light vertex 5, at k = 5: after
    # the row prefix (0, 1) the vertices 2, 3 and 5 are forced. The light 5
    # may still join the row above 2, since the column (2, 3) takes 2 and 3
    G = Graph(6, [(i, 4) for i in range(4)])
    in_heavy = multidom._set_mask(heavy_vertices(G, 5))
    assert in_heavy == 0b11111
    got = multidom._near_first(G, 5, "multiple", in_heavy, multidom.near_partners(G, 3))
    assert got == _kminus1_join(G, 5, "multiple") == (0, 1, 2, 3, 5)


def test_pipeline_search_lets_through_only_the_join_yes():
    # witness, then search: every answer is the oracle's, a YES without a
    # witness is the first hit of the r = k-1 join, and every answer without
    # a witness reports the family sizes and no join counters
    graphs = [path_graph(4)] + _random_gnm_graphs("pipeline-search", 400, 4, 11)
    seen = {"witness": 0, "fallback": 0, "none": 0}
    for G in graphs:
        for k in range(2, min(G.n, 5) + 1):
            stats = {}
            sol = solve_multidom_kminus1(G, k, stats=stats)
            brute = oracle_multidom(G, k, k - 1, "multiple")
            assert (sol is None) == (brute is None), (G, k)
            heavy = heavy_vertices(G, k)
            sizes = {"candidate_family_sizes": [
                multidom.closed_form_family_size(G.n, len(heavy), *shape)
                for shape in multidom._family_shapes(k, k - 1)]}
            join = _kminus1_join(G, k, "multiple")
            if sol is None:
                assert join is None and stats == sizes, (G, k)
                seen["none"] += 1
            elif sol.certificate["clique_witness"] is None:
                assert sol.vertices == join and stats == sizes, (G, k)
                assert verify_solution(G, sol.problem, sol.vertices)
                seen["fallback"] += 1
            else:
                assert stats == {}
                seen["witness"] += 1
    # the docstring's path a-b-c-d: {a, b, d} has no clique image
    assert solve_multidom_kminus1(path_graph(4), 3) == Solution(
        Problem("multiple", 3, 2), (0, 1, 3), {"clique_witness": None})
    assert min(seen.values()) >= 100, seen


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
        grouped = detect_grouped(kp, gamma)
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
    found = [detect_grouped(kp, gamma) for kp, gamma in cases]
    monkeypatch.setattr(multidom, "_range_cliques", _reference_range_cliques)
    assert found == [detect_grouped(kp, gamma) for kp, gamma in cases]
    assert 10 <= sum(w is not None for w in found[-60:]) <= 50


def test_range_cliques_walk_more_parts_than_the_recursion_limit():
    # `generate --reduction is-multidom --gamma 1/1400 --part-size 1` lists a
    # group of 1,400 singleton parts; a walk that recursed once per part
    # would stop at Python's default limit of 1,000
    parts = 1100
    kp = KPartiteGraph([1] * parts, [((i, 0), (j, 0))
                                     for i, j in itertools.combinations(range(parts), 2)])
    assert list(multidom._range_cliques(kp, range(parts))) == [tuple((i, 0) for i in range(parts))]


def test_clique_searches_leave_no_reference_cycles():
    # a self-referencing nested generator leaves a cycle per call, which
    # only the cyclic collector frees; the searches must leave none. The
    # is-multidom instances mirror the certified pipeline solves, k = 4 on
    # five source parts of 2 and of 3 vertices.
    graphs = [indepset_to_multidom(_random_kpartite(seed, [size] * 5, 0.5), 4,
                                   Fraction(1, 2)).graph
              for seed, size in ((1, 2), (2, 3), (3, 3))]
    graphs.append(_planted_kminus1_graph(0, 20, 4))
    kps = [build_clique_graph(G, 4)[0] for G in graphs]
    answers = {solve_multidom_kminus1(G, 4) is not None for G in graphs}
    assert answers == {True, False}
    assert {detect_unbalanced_kclique(kp) is not None for kp in kps} == {True, False}
    gc.collect()
    gc.disable()
    try:
        for _ in range(100 // len(graphs)):
            for G, kp in zip(graphs, kps):
                detect_unbalanced_kclique(kp)
                solve_multidom_kminus1(G, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
                assert tuple(iter_heavy_vertices(G, k, alive)) == tuple(
                    id_map[u] for u in heavy_vertices(sub, k))
            assert list_2_dominating_sets(G, alive) == [
                (id_map[a], id_map[b]) for a, b in list_2_dominating_sets(sub)]
