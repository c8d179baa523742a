from __future__ import annotations

import importlib
import io
import itertools
import json
import random
import re
import sys
import types
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from domlab import (
    Graph,
    OracleBudgetError,
    OVInstance,
    Pattern,
    PatternTooLargeError,
    Problem,
    diagnose_solution,
    load_graph,
    load_ov,
    load_pattern,
    ov_to_hdom,
    ov_to_induced_matching,
    solve,
    solve_ov_bruteforce,
    verify_solution,
)
import domlab
from domlab import oracles, patterndom
from domlab.graph import delete_closed_neighborhood, heavy_vertices
from domlab.multidom import (
    STATS_KEYS,
    Solution,
    _shape_error,
    iter_bits,
    list_2_dominating_sets,
    pair_join,
    solve_multidom_fast,
    solve_multidom_kminus1,
)
from domlab.oracles import oracle_multidom, oracle_pattern
from domlab.patterndom import (
    enumerate_cliques,
    list_dominating_ksets,
    solve_dominating_clique,
    solve_dominating_indepset,
    solve_dominating_induced_matching,
    solve_pattern_domination,
)

from .conftest import _runs, complete_graph, cycle_graph, path_graph, random_graph, star_graph


def test_enumerate_cliques_k4_triangles():
    assert len(enumerate_cliques(complete_graph(4), 3)) == 4


def test_enumerate_cliques_triangle_free():
    assert enumerate_cliques(cycle_graph(5), 3) == []


def test_enumerate_cliques_k4_minus_edge():
    G = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert enumerate_cliques(G, 3) == [(0, 1, 2), (0, 1, 3)]


def test_enumerate_cliques_lexicographic_and_sorted():
    G = random_graph(7, 9, 0.6)
    for t in (2, 3):
        cliques = enumerate_cliques(G, t)
        assert cliques == sorted(cliques)
        assert all(c == tuple(sorted(c)) for c in cliques)


def _scan_cliques(G, t):
    """Every t-clique by a depth-first scan over all higher vertex ids with
    n-bit common-neighbourhood masks: the plain listing the CSR walk of
    `enumerate_cliques` must reproduce, list and order."""
    out = []

    def extend(clique, common, start):
        if len(clique) == t:
            out.append(tuple(clique))
            return
        for v in range(start, G.n):
            if (common >> v) & 1:
                clique.append(v)
                extend(clique, common & G.neighbor_mask(v), v + 1)
                clique.pop()

    extend([], G.full_mask(), 0)
    return out


def test_enumerate_cliques_matches_mask_scan_and_count_bound():
    for seed in range(150):
        rng = random.Random(f"cliques:{seed}")
        n = rng.randint(1, 14)
        G = random_graph(f"cliques:{seed}", n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        for t in (1, 2, 3, 4):
            cliques = enumerate_cliques(G, t)
            assert cliques == _scan_cliques(G, t), (seed, t)
            if t >= 2:
                assert len(cliques) ** 2 <= (2 * G.m) ** t, (seed, t)
    # sparse and wider, where most higher neighbours share no candidate
    G = random_graph("cliques:sparse", 600, 0.012)
    for t in (2, 3):
        assert enumerate_cliques(G, t) == _scan_cliques(G, t)


@given(st.integers(0, 400), st.integers(2, 11), st.floats(0.1, 0.8))
def test_clique_count_bound(seed, n, p):
    G = random_graph(seed, n, p)
    for t in (2, 3, 4, 5):
        count = len(enumerate_cliques(G, t))
        assert count ** 2 <= (2 * G.m) ** t


def test_dominating_clique_k4():
    sol = solve_dominating_clique(complete_graph(4), 3)
    assert sol is not None and verify_solution(complete_graph(4), sol.problem, sol.vertices)


def test_dominating_clique_triangle_with_pendants():
    # triangle 0-1-2 with one leaf per corner
    G = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    sol = solve_dominating_clique(G, 3)
    assert sol is not None and sol.vertices == (0, 1, 2)


def test_dominating_clique_star_no_triangle():
    assert solve_dominating_clique(star_graph(3), 3) is None


def test_dominating_clique_k1_universal_vertex():
    assert solve_dominating_clique(star_graph(3), 1).vertices == (0,)
    assert solve_dominating_clique(path_graph(4), 1) is None


def test_dominating_clique_k2_needs_an_edge():
    # P3: {0,1} dominates and is an edge
    assert solve_dominating_clique(path_graph(3), 2).vertices == (0, 1)
    # C6 dominating pairs are antipodal, never adjacent
    assert solve_dominating_clique(cycle_graph(6), 2) is None


def test_dominating_indepset_p4():
    assert solve_dominating_indepset(path_graph(4), 2).vertices == (0, 2)


def test_dominating_indepset_c5():
    sol = solve_dominating_indepset(cycle_graph(5), 2)
    assert sol is not None and verify_solution(cycle_graph(5), sol.problem, sol.vertices)


def test_dominating_indepset_k3_none():
    assert solve_dominating_indepset(complete_graph(3), 2) is None


def test_dominating_indepset_verified_in_original_graph():
    for seed in range(60):
        G = random_graph(seed, 10, 0.35)
        for k in (2, 3, 4):
            sol = solve_dominating_indepset(G, k)
            if sol is not None:
                assert verify_solution(G, Problem("indepset", k), sol.vertices)


def test_dominating_matching_p3():
    sol = solve_dominating_induced_matching(path_graph(3), 2)
    assert sol.vertices == (0, 1)


def test_dominating_matching_p6():
    sol = solve_dominating_induced_matching(path_graph(6), 4)
    assert sol is not None
    assert sol.certificate["matching_edges"] == [(0, 1), (3, 4)]


def test_brute_matching_answer_carries_the_fast_certificate():
    # the paw graph, a triangle with a pendant vertex: both algos give
    # (0, 2) with its induced edge, so the two Solutions compare equal
    paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    problem = Problem("matching", 2)
    fast, brute = (patterndom.solve(paw, problem, algo) for algo in ("fast", "brute"))
    assert brute == fast == Solution(problem, (0, 2), {"matching_edges": [(0, 2)]})


def test_dominating_matching_c4_none():
    assert solve_dominating_induced_matching(cycle_graph(4), 4) is None


def test_dominating_matching_rejects_odd_k():
    with pytest.raises(ValueError):
        solve_dominating_induced_matching(path_graph(4), 3)


def test_dominating_matching_induces_exactly_half_k_edges():
    for seed in range(40):
        G = random_graph(seed, 9, 0.4)
        sol = solve_dominating_induced_matching(G, 4)
        if sol is not None:
            induced = [e for e in itertools.combinations(sol.vertices, 2)
                       if G.has_edge(*e)]
            assert len(induced) == 2
            assert verify_solution(G, sol.problem, sol.vertices)


def test_dominating_matching_budgets_its_columns(monkeypatch):
    # the C(m, k // 4) column edge subsets are counted against
    # MAX_TRANSVERSALS as it stands when called, before any is listed
    G = path_graph(6)
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", 5)
    assert solve_dominating_induced_matching(G, 4).vertices == (0, 1, 3, 4)
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", 4)
    with pytest.raises(OracleBudgetError, match=re.escape(
            "the induced-matching columns are C(5, 1) = 5 edge subsets, more than 4")):
        solve_dominating_induced_matching(G, 4)


def test_list_dominating_ksets_k1():
    assert list(list_dominating_ksets(path_graph(3), 1)) == [(1,)]


def test_list_dominating_ksets_c4():
    assert sorted(list_dominating_ksets(cycle_graph(4), 2)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_list_dominating_ksets_c6_antipodal():
    assert sorted(list_dominating_ksets(cycle_graph(6), 2)) == [(0, 3), (1, 4), (2, 5)]


@given(st.integers(0, 300), st.integers(3, 11), st.integers(1, 4), st.floats(0.15, 0.7))
def test_list_dominating_ksets_matches_filter(seed, n, k, p):
    if k > n:
        return
    G = random_graph(seed, n, p)
    full = G.full_mask()
    expected = sorted(
        S for S in itertools.combinations(range(n), k)
        if _union_closed(G, S) == full)
    assert sorted(list_dominating_ksets(G, k)) == expected


def _planted_hub_edges(rng, n: int, hubs: int, r: int) -> list[tuple[int, int]]:
    """A copy of the benchmark's planted-hub builder: n random edges among
    the non-hubs, and every non-hub joined to r random hubs."""
    hub_ids = sorted(rng.sample(range(n), hubs))
    is_hub = set(hub_ids)
    edges: set[tuple[int, int]] = set()
    while len(edges) < n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and u not in is_hub and v not in is_hub:
            edges.add((min(u, v), max(u, v)))
    for v in range(n):
        if v not in is_hub:
            edges.update((min(v, h), max(v, h)) for h in rng.sample(hub_ids, r))
    return sorted(edges)


def test_dominating_kset_listing_stops_at_the_union_budget():
    # no dominating 6-set here induces the 6-star, so without a bound the
    # listing draws all 37,461,982 unions (2,291,341 distinct) and answers
    # NO after about 40 s
    G = Graph(60, _planted_hub_edges(random.Random(0), 60, 4, 3))
    assert G.m == 228
    star = Pattern.from_edges(6, [(0, j) for j in range(1, 6)])
    with pytest.raises(OracleBudgetError,
                       match="the dominating 6-set listing drew more than 1000000 unions"):
        solve_pattern_domination(G, star)


def test_dominating_kset_listing_budget_counts_duplicate_unions(monkeypatch):
    G = random_graph(3, 10, 0.5)
    drawn = []
    sorted_unions = patterndom._sorted_unions
    monkeypatch.setattr(patterndom, "_sorted_unions",
                        lambda *args, **options: (drawn.append(S) or S
                                                  for S in sorted_unions(*args, **options)))
    listed = list(list_dominating_ksets(G, 4))
    count = len(drawn)
    assert count > len(listed) > 0
    # every union counts, the repeated ones too: the listing runs to its end
    # at a budget of exactly the unions drawn, and stops one below it
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", count)
    assert list(list_dominating_ksets(G, 4)) == listed
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", count - 1)
    with pytest.raises(OracleBudgetError):
        list(list_dominating_ksets(G, 4))


def _union_closed(G, S):
    acc = 0
    for v in S:
        acc |= G.closed_mask(v)
    return acc


def test_pattern_domination_c5_p3():
    sol = solve_pattern_domination(cycle_graph(5), Pattern.path(3))
    assert sol is not None and verify_solution(cycle_graph(5), sol.problem, sol.vertices)


def test_pattern_domination_c5_triangle_none():
    assert solve_pattern_domination(cycle_graph(5), Pattern.clique(3)) is None


def test_pattern_domination_c5_edgeless_none():
    # independence number of C5 is 2
    assert solve_pattern_domination(cycle_graph(5), Pattern.edgeless(3)) is None


def test_pattern_domination_size_cap():
    with pytest.raises(PatternTooLargeError):
        solve_pattern_domination(complete_graph(9), Pattern.clique(9))
    # checking a given solution refuses too, before the isomorphism search,
    # factorial in the pattern size, can start
    triangles = Pattern.from_edges(9, [(3 * t + a, 3 * t + b) for t in range(3)
                                       for a, b in ((0, 1), (1, 2), (0, 2))])
    problem = Problem("pattern", 9, pattern_edges=triangles.edges)
    for check in (verify_solution, diagnose_solution):
        with pytest.raises(PatternTooLargeError, match="^pattern size 9 exceeds 8$"):
            check(cycle_graph(9), problem, range(9))


def test_pattern_json_round_trip(tmp_path):
    text = json.dumps({"k": 4, "edges": [[0, 1], [2, 3]]})
    p = tmp_path / "pattern.json"
    p.write_text(text)
    assert load_pattern(p) == Pattern.matching(4)
    assert load_pattern(text) == Pattern.matching(4)
    assert load_pattern(io.StringIO(text)) == Pattern.matching(4)
    with pytest.raises(ValueError, match="^pattern stream: "):
        load_pattern(io.StringIO(text[:-1]))


def _text_mode_outcome(path, kind):
    """What a text-mode read (universal newlines, UTF-8) of `path` gives
    `json.load`: None, or the error type and message the loaders raise."""
    try:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    except json.JSONDecodeError as exc:
        return "ValueError", f"{kind} file {path}: {exc}"
    except UnicodeDecodeError as exc:
        return "UnicodeDecodeError", str(exc)
    return None


@pytest.mark.parametrize("load, kind, text", [
    (load_pattern, "pattern", '{"k": 4, "edges": [[0, 1], [2, 3]]}'),
    (load_ov, "OV source", '{"k": 2, "d": 2, "sets": [["01", "10"], ["11", "00"]]}'),
])
def test_json_files_load_as_a_text_mode_read(tmp_path, load, kind, text):
    expected = load(text)
    contents = {
        "lf": text.encode(),
        "crlf": text.replace(", ", ",\r\n").encode() + b"\r\n",
        "cr": text.replace(", ", ",\r").encode(),
        "bom": b"\xef\xbb\xbf" + text.encode(),
        "invalid-utf8": text.replace("1", "\udcff", 1).encode(errors="surrogateescape"),
        "bad-json-crlf": text.replace(", ", ",\r\n", 2).replace("]", ",]", 1).encode(),
        "cr-in-string": text.replace('"k"', '"\rk"').encode(),
    }
    for name, data in contents.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        error = _text_mode_outcome(path, kind)
        if error is None:
            assert load(path) == load(str(path)) == expected, name
            continue
        for source in (path, str(path)):
            with pytest.raises(ValueError) as exc:
                load(source)
            assert (type(exc.value).__name__, str(exc.value)) == error, name
    # the errors above include a BOM, invalid UTF-8 and JSON positions past a "\r\n"
    assert _text_mode_outcome(tmp_path / "bom.json", kind)[1].endswith(
        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")
    assert _text_mode_outcome(tmp_path / "invalid-utf8.json", kind)[0] == "UnicodeDecodeError"
    assert "line 3" in _text_mode_outcome(tmp_path / "bad-json-crlf.json", kind)[1]


def test_pattern_rejects_bad_edges():
    with pytest.raises(ValueError):
        Pattern.from_edges(2, [(0, 2)])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 10), st.floats(0.2, 0.7),
       st.integers(1, 4))
def test_specialized_solvers_agree_with_generic_and_oracle(seed, n, p, k):
    G = random_graph(seed, n, p)
    cases = [(solve_dominating_clique, Pattern.clique(k))]
    if k % 2 == 0:
        cases.append((solve_dominating_induced_matching, Pattern.matching(k)))
    cases.append((solve_dominating_indepset, Pattern.edgeless(k)))
    for solver, H in cases:
        special = solver(G, k)
        generic = solve_pattern_domination(G, H)
        oracle = oracle_pattern(G, H)
        assert (special is None) == (oracle is None)
        assert (generic is None) == (oracle is None)
        if special is not None:
            assert verify_solution(G, Problem("pattern", k, pattern_edges=H.edges),
                                   special.vertices)


def _indepset_rebuild(G: Graph, k: int) -> tuple[int, ...] | None:
    """The independent-set recursion as it ran on a relabelled subgraph per
    level, before the search moved onto an alive vertex mask."""
    if k == 1:
        for v in (v for v in range(G.n) if len(G.adjacency(v)) + 1 == G.n):
            return (v,)
        return None
    if k == 2:
        for u, v in list_2_dominating_sets(G):
            if not G.has_edge(u, v):
                return (u, v)
        return None
    for v in heavy_vertices(G, k):
        sub, id_map = delete_closed_neighborhood(G, v)
        rest = _indepset_rebuild(sub, k - 1)
        if rest is not None:
            return tuple(sorted((v,) + tuple(id_map[u] for u in rest)))
    return None


def _planted_indep_graph(seed: int, n: int) -> Graph:
    """Random edges among non-hubs; each non-hub joins one or two of 2-4
    pairwise non-adjacent hubs, so dominating independent sets exist and
    several compete for the first hit."""
    rng = random.Random(seed)
    hubs = rng.sample(range(n), rng.randint(2, 4))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if u not in hubs and v not in hubs and rng.random() < 0.15}
    for v in range(n):
        if v not in hubs:
            edges |= {(min(v, h), max(v, h)) for h in rng.sample(hubs, rng.choice((1, 2)))}
    return Graph(n, edges)


def _indepset_corpus_graph(seed: int) -> Graph:
    if seed % 2:
        return _planted_indep_graph(seed, 12 + seed % 20)
    return random_graph(seed, 12 + seed % 9, 0.45)


@pytest.mark.parametrize("seed", range(40))
def test_indepset_alive_search_matches_rebuild_recursion(seed):
    G = _indepset_corpus_graph(seed)
    for k in range(1, 6):
        sol = solve_dominating_indepset(G, k)
        assert (None if sol is None else sol.vertices) == _indepset_rebuild(G, k)


def test_indepset_corpus_takes_later_heavy_branches():
    # cases where the first heavy vertex's branch finds nothing and a later
    # one answers pin the depth-first order against `_indepset_rebuild`
    late = 0
    for seed in range(40):
        G = _indepset_corpus_graph(seed)
        for k in range(3, 6):
            sol = solve_dominating_indepset(G, k)
            if sol is not None:
                sub, _ = delete_closed_neighborhood(G, heavy_vertices(G, k)[0])
                late += _indepset_rebuild(sub, k - 1) is None
    assert late > 0


def test_indepset_deeper_than_the_recursion_limit():
    k = 1200
    assert k > sys.getrecursionlimit()
    sol = solve_dominating_indepset(Graph(k, []), k)
    assert sol.vertices == tuple(range(k))
    assert verify_solution(Graph(k, []), sol.problem, sol.vertices)


def test_indepset_frames_test_heavy_vertices_lazily(monkeypatch):
    # each frame of the 1,200-deep search takes its first alive vertex; it
    # must test no later one (every frame testing every vertex made 720,599
    # `closed_mask` calls), so the calls stay within one test and one take
    # per level
    n = 1200
    calls = []
    closed_mask = Graph.closed_mask
    monkeypatch.setattr(Graph, "closed_mask", lambda G, v: calls.append(v) or closed_mask(G, v))
    sol = solve(Graph(n, []), Problem("indepset", n))
    assert sol == Solution(Problem("indepset", n), tuple(range(n)))
    assert len(calls) <= 2 * n


def test_shape_solvers_answer_no_above_n_without_listing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("listed candidates for k > n")

    for name in ("enumerate_cliques", "pair_join", "list_2_dominating_sets"):
        monkeypatch.setattr(patterndom, name, fail)
    assert solve_dominating_clique(complete_graph(22), 23) is None
    assert solve_dominating_induced_matching(complete_graph(16), 18) is None
    assert solve_dominating_indepset(Graph(12, []), 13) is None


def test_sparse_solves_build_no_masks(monkeypatch):
    rng = random.Random(2000)
    edges = set()
    while len(edges) < 6000:
        u, v = rng.randrange(2000), rng.randrange(2000)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    G = Graph(2000, edges)
    built = []
    original = Graph._build_mask
    monkeypatch.setattr(Graph, "_build_mask", lambda self, v: built.append(v) or original(self, v))
    assert solve_dominating_clique(G, 1) is None
    assert list_2_dominating_sets(G) == []
    # no vertex is heavy for k = 3..5, so the clique rows need no mask
    assert all(solve_dominating_clique(G, k) is None for k in (3, 4, 5))
    # nor for k = 4: the matching, pattern and multidom solves draw no row
    assert solve_dominating_induced_matching(G, 4) is None
    assert solve_pattern_domination(G, Pattern.path(4)) is None
    assert all(solve_multidom_fast(G, 4, 1, v) is None for v in ("multiple", "tuple"))
    stats = {}
    assert solve_multidom_fast(G, 4, 1, "tuple", stats=stats) is None
    assert (stats["rows_drawn"], stats["columns_kept"]) == (0, 0)
    assert stats["candidate_family_sizes"] == [1999000, 0]
    assert built == []
    G.has_edge(0, 1)  # the counter does see a build
    assert built == [0]


def _clique_row_major(G: Graph, k: int) -> Solution | None:
    """`solve_dominating_clique` for k >= 3 with every row built before the
    join, as it ran before the row side was streamed."""
    problem = Problem("clique", k)
    r1 = enumerate_cliques(G, (k - 1) // 2)
    r2 = enumerate_cliques(G, k // 2)
    heavy = heavy_vertices(G, k)
    rows = [S + (h,) for S in r1 for h in heavy]
    for S, T in pair_join(G, _runs(rows), r2, 1, "tuple"):
        union = set(S) | set(T)
        if len(union) != k:
            continue
        cand = tuple(sorted(union))
        if all(G.has_edge(u, v) for u, v in itertools.combinations(cand, 2)):
            return Solution(problem, cand)
    return None


def _matching_row_major(G: Graph, k: int) -> Solution | None:
    """`solve_dominating_induced_matching` for k >= 4 with every row edge
    subset built before the join, as it ran before the row side was streamed."""
    problem = Problem("matching", k)
    edges = list(G.edges())
    fam_s = list(itertools.combinations(edges, (k + 3) // 4))
    fam_t = list(itertools.combinations(edges, k // 4))
    ends_s = [sum(es, ()) for es in fam_s]
    ends_t = [sum(et, ()) for et in fam_t]
    for S, T in pair_join(G, _runs(ends_s), ends_t, 1, "tuple"):
        # the endpoint tuples list each edge as two consecutive vertices
        ends = S + T
        chosen = tuple(zip(ends[::2], ends[1::2]))
        if len(set(ends)) != k:
            continue
        cand = tuple(sorted(ends))
        induced = [e for e in itertools.combinations(cand, 2) if G.has_edge(*e)]
        if len(induced) == k // 2 and set(induced) == set(chosen):
            return Solution(problem, cand, {"matching_edges": sorted(chosen)})
    return None


def _ov_source(k: int, d: int, want: bool) -> OVInstance:
    """The first seeded OV instance (k sets of two d-dimensional vectors)
    whose brute-force answer is `want`."""
    for seed in range(500):
        rng = random.Random(f"{k}:{d}:{seed}")
        inst = OVInstance.from_lists(d, [[tuple(int(rng.random() < 0.6) for _ in range(d))
                                          for _ in range(2)] for _ in range(k)])
        if solve_ov_bruteforce(inst, 1) == want:
            return inst
    raise AssertionError(f"no seeded OV instance with answer {want}")


@pytest.mark.parametrize("seed", range(30))
def test_streamed_clique_and_matching_rows_keep_first_hits(seed):
    n = 8 + seed % 7
    G = random_graph(seed, n, 0.45 + 0.05 * (seed % 6))
    for k in (3, 4, 5):
        assert repr(solve_dominating_clique(G, k)) == repr(_clique_row_major(G, k))
    H = random_graph(1000 + seed, n, 0.2 + 0.03 * (seed % 5))
    for k in (4, 6):
        assert repr(solve_dominating_induced_matching(H, k)) == repr(_matching_row_major(H, k))


@pytest.mark.parametrize("want", [True, False])
def test_streamed_rows_keep_first_hits_on_generator_outputs(want):
    for k in (3, 4):
        G = ov_to_hdom(_ov_source(k, 3, want), Pattern.clique(k)).graph
        sol = solve_dominating_clique(G, k)
        assert (sol is not None) == want
        assert repr(sol) == repr(_clique_row_major(G, k))
    for k in (4, 6):
        G = ov_to_induced_matching(_ov_source(k, 2, want)).graph
        sol = solve_dominating_induced_matching(G, k)
        assert (sol is not None) == want
        assert repr(sol) == repr(_matching_row_major(G, k))


def test_matching_draws_rows_only_up_to_the_first_hit(monkeypatch):
    G = ov_to_induced_matching(_ov_source(6, 2, True)).graph
    drawn = [0]
    real_join = patterndom.pair_join

    def counted(runs):
        for P, B, i0 in runs:
            drawn[0] += B.bit_count()
            yield P, B, i0

    def counting_join(G, rows, cols, *args, **options):
        if isinstance(rows, list):  # every run was built before the join
            drawn[0] += sum(B.bit_count() for _, B, _ in rows)
            return real_join(G, rows, cols, *args, **options)
        return real_join(G, counted(rows), cols, *args, **options)

    monkeypatch.setattr(patterndom, "pair_join", counting_join)
    assert solve_dominating_induced_matching(G, 6) is not None
    assert 0 < drawn[0] < comb(G.m, 2)


def test_matching_holds_one_drawn_row_at_a_time(monkeypatch):
    """`_sorted_unions` keeps only the run pair_join drew last: runs count
    their live instances. The hit on G(30, 0.25) comes in run 733, at
    row 2,721, and a list of the drawn runs would hold all 733."""
    live = [0]

    class Run(tuple):
        def __new__(cls, run):
            live[0] += 1
            return super().__new__(cls, run)

        def __del__(self):
            live[0] -= 1

    most = []
    real_join = patterndom.pair_join

    def watched_join(*args):
        for pair in real_join(*args):
            most.append(live[0])
            yield pair

    G = random_graph(0, 30, 0.25)
    expected = solve_dominating_induced_matching(G, 6).vertices
    monkeypatch.setattr(patterndom, "pair_join", watched_join)
    edges = list(G.edges())
    rows = map(Run, _runs(sum(es, ()) for es in itertools.combinations(edges, 2)))
    cols = [sum(et, ()) for et in itertools.combinations(edges, 1)]
    unions = patterndom._sorted_unions(G, rows, cols)
    assert patterndom._first_shaped(G, Problem("matching", 6), unions) == expected
    assert most and max(most) <= 2


def test_dominating_clique_lists_each_clique_size_once(monkeypatch):
    sizes = []
    real_enumerate = patterndom.enumerate_cliques

    def counted(G, t):
        sizes.append(t)
        return real_enumerate(G, t)

    monkeypatch.setattr(patterndom, "enumerate_cliques", counted)
    G = random_graph(5, 12, 0.5)
    for k in range(3, 7):
        sizes.clear()
        solve_dominating_clique(G, k)
        # for odd k the row and column cliques have the same size
        assert sorted(sizes) == sorted({(k - 1) // 2, k // 2})


def test_dominating_clique_without_heavy_vertex_lists_no_clique(monkeypatch, tmp_path):
    # G(10^4, 3*10^4) has no vertex of |N[v]| >= n/k: every row needs one.
    # It is drawn in a child under an address-space limit, as the CLI
    # contract rows draw theirs (that module imports this one, hence here)
    from .test_cli_contract import LOW, _gnm
    _gnm(10 ** 4, 3 * 10 ** 4)(tmp_path / "g.graph", LOW)
    G = load_graph(tmp_path / "g.graph")

    def fail(*args, **kwargs):
        raise AssertionError("cliques listed on a graph with no heavy vertex")

    monkeypatch.setattr(patterndom, "enumerate_cliques", fail)
    for k in (3, 4, 6, 7):
        assert solve_dominating_clique(G, k) is None


def _clique_hub_graph(seed, n: int, hubs: int, planted: bool) -> Graph:
    """A sparse random background (about n edges) plus `hubs` vertices at
    random ids, each joined to about 40% of the others. When `planted`, the
    hubs are also pairwise adjacent and every other vertex has a hub
    neighbour, so the hubs form a dominating clique."""
    rng = random.Random(f"clique-hubs:{seed}")
    hub_ids = rng.sample(range(n), hubs)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
    edges |= {(min(h, v), max(h, v)) for h in hub_ids for v in range(n)
              if v != h and rng.random() < 0.4}
    if planted:
        edges |= {(min(h, v), max(h, v)) for h, v in itertools.combinations(hub_ids, 2)}
        edges |= {(min(v, h), max(v, h)) for v in range(n) if v not in hub_ids
                  for h in [rng.choice(hub_ids)]}
    return Graph(n, sorted(edges))


def _clique_hub_graphs() -> list[Graph]:
    return [_clique_hub_graph(seed, 20 + 4 * (seed % 5), 3 + seed % 4, seed % 2 == 0)
            for seed in range(16)]


def test_dominating_clique_rows_are_cliques(monkeypatch):
    # every row S + (h,) of a run (S, B, 0) is a ceil(k/2)-clique, and each
    # such clique is the row of at most ceil(k/2) choices of h, so the rows
    # drawn stay within ceil(k/2) times the ceil(k/2)-cliques (one heavy row
    # per (S, h) pair overran it on most of these graphs)
    drawn = []
    real_join = patterndom.pair_join

    def counting_join(G, rows, cols, *args, **kwargs):
        def counted():
            for P, B, i0 in rows:
                drawn.extend(P + (b,) for b in iter_bits(B))
                yield P, B, i0
        return real_join(G, counted(), cols, *args, **kwargs)

    monkeypatch.setattr(patterndom, "pair_join", counting_join)
    graphs = [random_graph(seed, 10 + seed % 12, 0.3 + 0.05 * (seed % 7)) for seed in range(24)]
    for G in graphs + _clique_hub_graphs():
        for k in range(3, 7):
            drawn.clear()
            solve_dominating_clique(G, k)
            half = (k + 1) // 2
            assert len(drawn) <= half * len(enumerate_cliques(G, half)), (G.n, G.m, k)
            assert all(len(set(row)) == half and
                       all(G.has_edge(u, v) for u, v in itertools.combinations(row, 2))
                       for row in drawn)


def test_dominating_clique_join_ors_few_gap_masks_on_a_hub_graph():
    # the clique-hub NO of bench/bench_solve.py: with the columns cut to each
    # row's common neighbours and each clique S's rows certified as one run
    # before the first, its one join ORs 600 gap masks; certified only at
    # the second row it ORed 1,500, and joining every edge and rejecting the
    # unions afterwards ORed 64,720
    from .golden.make_golden import planted_hub_graph

    G = Graph(300, planted_hub_graph(random.Random(1), 300, 5, 4))
    stats = {}
    sol = solve_dominating_clique(G, 5, stats=stats)
    # one join's five counters
    assert sol is None and set(stats) == set(STATS_KEYS[1:]) and 0 < stats["gap_masks"] <= 1000


def test_certified_no_shape_joins_walk_few_rows():
    # certified NO targets: the rows of one clique S, or of one edge subset
    # less the higher end of its last edge, come as one run, certified
    # before its first row. Matching at k = 6 walks 12 of 4,656 rows and
    # ORs 2,580 gap masks (630 and 8,046 with the rows certified only at
    # their prefix's second row); the clique at k = 4 walks 1 of 100 rows
    # and ORs 60 gap masks (30 and 127)
    G = ov_to_induced_matching(_ov_source(6, 2, False)).graph
    stats = {}
    sol = solve_dominating_induced_matching(G, 6, stats=stats)
    assert sol is None and stats["rows_drawn"] == 4656
    assert stats["rows_drawn"] - stats["rows_certified"] <= 60
    assert stats["gap_masks"] <= 4000
    G = ov_to_hdom(_ov_source(4, 3, False), Pattern.clique(4)).graph
    stats = {}
    sol = solve_dominating_clique(G, 4, stats=stats)
    assert sol is None and stats["rows_drawn"] == 100
    assert stats["rows_drawn"] - stats["rows_certified"] <= 5
    assert stats["gap_masks"] <= 100


def test_dominating_clique_matches_row_major_on_hub_graphs():
    answers = set()
    for G in _clique_hub_graphs():
        for k in range(3, 7):
            sol = solve_dominating_clique(G, k)
            answers.add(sol is not None)
            assert repr(sol) == repr(_clique_row_major(G, k)), (G.n, G.m, k)
    assert answers == {True, False}


@pytest.mark.parametrize("problem, S", [
    (Problem("clique", 3), (0, 1, 1)),
    (Problem("indepset", 3), (2, 2, 4)),
    (Problem("matching", 4), (0, 1, 1, 2)),
    (Problem("pattern", 3, pattern_edges=frozenset()), (2, 2, 4)),
], ids=["clique", "indepset", "matching", "pattern"])
def test_shape_test_rejects_a_repeated_vertex(problem, S):
    # on the edgeless graph the independent-set and edgeless-pattern cases
    # would pass but for the repeat; the others must name it too
    G = complete_graph(5) if problem.kind in ("clique", "matching") else Graph(5, [])
    assert _shape_error(G, problem, S) == "duplicate vertices in solution"


def _solve_graphs():
    """30 seeded graphs of 4 to 9 vertices and three densities."""
    return [random_graph(f"solve:{seed}", 4 + seed % 6, (0.3, 0.5, 0.7)[seed % 3])
            for seed in range(30)]


def test_solve_matches_each_direct_call():
    # every kind with every algo that applies: the entry point returns what
    # the solver or oracle it dispatches to returns, certificate included,
    # and every fast solver fills `stats` as when called directly; every
    # shape but indepset, which runs no join, fills it on some graph
    path3, star4 = Pattern.path(3), Pattern.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    counted = set()
    for G in _solve_graphs():
        for kind in ("multiple", "tuple"):
            for k in range(2, 5):
                for r in range(1, k + 1):
                    P = Problem(kind, k, r)
                    assert solve(G, P, "brute") == oracle_multidom(G, k, r, kind)
                    if r == k:
                        continue
                    got, want = {}, {}
                    assert solve(G, P, stats=got) == solve_multidom_fast(G, k, r, kind, stats=want)
                    assert got == want
                    if kind == "multiple" and r == k - 1:
                        got, want = {}, {}
                        assert (solve(G, P, "pipeline", stats=got)
                                == solve_multidom_kminus1(G, k, stats=want))
                        assert got == want
        shaped = [(Problem("clique", k), Pattern.clique(k), solve_dominating_clique)
                  for k in range(1, 5)]
        shaped += [(Problem("indepset", k), Pattern.edgeless(k), solve_dominating_indepset)
                   for k in range(1, 5)]
        shaped += [(Problem("matching", k), Pattern.matching(k), solve_dominating_induced_matching)
                   for k in (2, 4)]
        for P, H, solver in shaped:
            got, want = {}, {}
            assert solve(G, P, stats=got) == solver(G, P.k, stats=want)
            assert got == want
            if got:
                counted.add(P.kind)
            oracle = oracle_pattern(G, H)
            want = oracle and Solution(P, oracle.vertices)
            if want and P.kind == "matching":
                # a brute matching answer carries the edges it induces, as fast's does
                want = Solution(P, oracle.vertices, {"matching_edges": [
                    e for e in itertools.combinations(oracle.vertices, 2) if G.has_edge(*e)]})
            assert solve(G, P, "brute") == want
        for H in (path3, star4):
            P = Problem("pattern", H.k, pattern_edges=H.edges)
            got, want = {}, {}
            assert solve(G, P, stats=got) == solve_pattern_domination(G, H, stats=want)
            assert got == want
            if got:
                counted.add(P.kind)
            assert solve(G, P, "brute") == oracle_pattern(G, H)
    assert counted == {"clique", "matching", "pattern"}


@pytest.mark.parametrize("problem, oracle, count, message", [
    (Problem("multiple", 3, 2), "oracle_multidom", 20,
     "the exhaustive scan at k=3 has C(6, 3) = 20 subsets, more than 19"),
    (Problem("indepset", 3), "oracle_pattern", 120,
     "the pattern scan at k=3 tries C(6, 3) * 3! = 120 orderings, more than 119"),
], ids=["multiple", "indepset"])
def test_solve_brute_scans_up_to_the_budget(monkeypatch, problem, oracle, count, message):
    # the scan runs at exactly MAX_TRANSVERSALS subsets (orderings for a
    # shape); one below, solve refuses before the oracle is called
    G = cycle_graph(6)
    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", count)
    assert solve(G, problem, "brute").vertices == (0, 2, 4)

    def scan(*args, **kwargs):
        raise AssertionError("exhaustive scan started above the budget")

    monkeypatch.setattr(oracles, "MAX_TRANSVERSALS", count - 1)
    monkeypatch.setattr(oracles, oracle, scan)
    with pytest.raises(OracleBudgetError, match=re.escape(message)):
        solve(G, problem, "brute")


def test_solve_brute_answers_k_above_n_before_counting_orderings(monkeypatch):
    # C(4, 10^9) = 0: no k! is computed and no 10^9-vertex Pattern is built
    def refuse(*args):
        raise AssertionError("sized a scan that has no k-subset")

    monkeypatch.setattr(oracles, "factorial", refuse)
    for builder in ("clique", "edgeless", "matching"):
        monkeypatch.setattr(Pattern, builder, refuse)
    G = Graph(4, [(0, 1), (2, 3)])
    for kind in ("indepset", "clique", "matching", "multiple"):
        problem = Problem(kind, 10**9, 1 if kind == "multiple" else None)
        assert solve(G, problem, "brute") is None, kind


# the malformed Problems this table held (problem4 to problem6) are refused
# when built: test_multidom.test_problem_refuses_malformed_fields
@pytest.mark.parametrize("problem, algo, message", [
    (Problem("tuple", 3, 2), "pipeline", "pipeline needs kind 'multiple'"),
    (Problem("multiple", 3, 1), "pipeline", "pipeline needs kind 'multiple'"),
    (Problem("clique", 3), "pipeline", "pipeline needs kind 'multiple'"),
    (Problem("multiple", 3, 3), "fast", "need 1 <= r <= k-1"),
    (Problem("multiple", 3, 4), "brute", "need 1 <= r <= k, got r=4, k=3"),
    pytest.param(Problem("clique", 2), "greedy", "no algo 'greedy'",
                 id="problem7-greedy-no algo 'greedy'"),
])
def test_solve_refuses_what_does_not_fit(problem, algo, message):
    with pytest.raises(ValueError, match=message):
        solve(cycle_graph(5), problem, algo)


def test_pattern_matching_refuses_odd_k():
    # Problem("matching", 3) is refused when built; the pattern builder
    # keeps its own check
    with pytest.raises(ValueError, match="perfect matching needs even k, got 3"):
        Pattern.matching(3)


ROOT_NAMES = {
    "Graph", "Problem", "Solution", "Pattern", "OVInstance", "KPartiteGraph", "ReductionOutput",
    "GraphFormatError", "PatternTooLargeError", "OracleBudgetError",
    "load_graph", "save_graph", "load_pattern", "load_ov", "save_ov",
    "solve", "verify_solution", "diagnose_solution",
    "ov_to_multidom", "ov_to_hdom", "ov_to_induced_matching", "indepset_to_multidom",
    "verify_reduction", "solve_ov_bruteforce", "oracle_unbalanced_clique",
}
# what `solve` reaches, and the building blocks behind it, by module
MODULE_NAMES = {
    "graph": ("heavy_vertices",),
    "multidom": ("solve_multidom_fast", "solve_multidom_kminus1", "CandidateFamily",
                 "build_candidate_families", "list_2_dominating_sets"),
    "oracles": ("oracle_multidom", "oracle_pattern"),
    "patterndom": ("solve_dominating_clique", "solve_dominating_indepset",
                   "solve_dominating_induced_matching", "solve_pattern_domination",
                   "enumerate_cliques", "list_dominating_ksets"),
}


def test_root_exports_solve_and_the_types_around_it():
    public = {name for name, value in vars(domlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert hasattr(importlib.import_module(f"domlab.{module}"), name)


def test_readme_library_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out == "(0, 1, 3)\nNone\n"
