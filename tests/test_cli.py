from __future__ import annotations

import json
import random

import pytest

from domlab import cli, oracles, reductions
from domlab.cli import main

from .conftest import complete_graph, cycle_graph, path_graph, random_graph
from .test_cli_contract import _finish, _start
from domlab import Graph, save_graph
from domlab.multidom import solve_multidom_fast


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    save_graph(cycle_graph(5), path)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    save_graph(cycle_graph(4), path)
    return str(path)


def _forbid(monkeypatch, owner, name: str) -> None:
    """Fail the test if `owner.name` is called: the work it does must not start."""
    def called(*args, **kwargs):
        raise AssertionError(f"{owner.__name__}.{name} was called")

    monkeypatch.setattr(owner, name, called)


def test_solve_yes_exit_zero(c5_file, capsys):
    code = main(["solve", c5_file, "--problem", "multidom", "--k", "3", "--r", "2",
                 "--algo", "fast", "--json", "--no-timing"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["answer"] is True
    assert sorted(out["solution"]) == out["solution"] and len(out["solution"]) == 3


def test_solve_no_exit_one(c4_file, capsys):
    code = main(["solve", c4_file, "--problem", "dom-matching", "--k", "4",
                 "--algo", "brute"])
    assert code == 1
    assert "answer: NO" in capsys.readouterr().out


def test_solve_fast_rejects_r_equals_k(c5_file, capsys):
    code = main(["solve", c5_file, "--problem", "multidom", "--k", "3", "--r", "3",
                 "--algo", "fast"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_r_flag_invalid_for_clique(c5_file, capsys):
    code = main(["solve", c5_file, "--problem", "dom-clique", "--k", "2", "--r", "1"])
    assert code == 2


def test_solve_missing_graph_file_is_error(capsys):
    assert main(["solve", "/nonexistent/graph.txt", "--problem", "multidom",
                 "--k", "2", "--r", "1"]) == 2


def test_solve_json_round_trips_byte_identical(c5_file, capsys):
    main(["solve", c5_file, "--problem", "multidom", "--k", "3", "--r", "2",
          "--json", "--no-timing"])
    text = capsys.readouterr().out.strip()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text


def test_solve_json_reports_join_row_counters(tmp_path, c5_file, capsys):
    path = tmp_path / "c8.txt"
    save_graph(cycle_graph(8), path)
    argv = ["solve", str(path), "--problem", "multidom", "--k", "4", "--r", "2",
            "--json", "--no-timing"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first
    stats = json.loads(first)["stats"]
    assert isinstance(stats["rows_drawn"], int) and stats["rows_drawn"] > 0
    assert 0 <= stats["rows_certified"] <= stats["rows_drawn"]
    assert isinstance(stats["gap_masks"], int) and stats["gap_masks"] > 0
    assert 0 < stats["below_built"] <= 8
    main(["solve", c5_file, "--problem", "dom-clique", "--k", "2", "--json", "--no-timing"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["rows_drawn"] is None and stats["rows_certified"] is None
    assert stats["gap_masks"] is None and stats["below_built"] is None


def test_pipeline_json_reports_the_fallback_join(tmp_path, capsys):
    # at k = 4, r = 3 only K5 has a clique witness, and it reports no stats.
    # C8 (NO) and G(9, 0.6) of seed 4 (a YES with no witness) go to the
    # r = k-1 search, which runs no join: --json reports the family sizes
    # and no join counters
    for name, G, answer in (("c8", cycle_graph(8), False), ("k5", complete_graph(5), True),
                            ("gnp", random_graph(4, 9, 0.6), True)):
        path = tmp_path / f"{name}.txt"
        save_graph(G, path)
        argv = ["solve", str(path), "--problem", "multidom", "--k", "4", "--r", "3",
                "--algo", "pipeline", "--json", "--no-timing"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
        result = json.loads(first)
        assert result["answer"] is answer
        stats = result["stats"]
        if name == "k5":
            assert result["certificate"]["clique_witness"] is not None
            assert stats["rows_drawn"] is None and stats["columns_kept"] is None
            continue
        if answer:
            assert result["certificate"] == {"clique_witness": None}
        assert stats["candidate_family_sizes"] == ([28, 28] if name == "c8" else [36, 36])
        assert {v for key, v in stats.items() if key != "candidate_family_sizes"} == {None}


def test_solve_at_most_k(tmp_path, capsys):
    path = tmp_path / "star.txt"
    save_graph(path_graph(3), path)
    code = main(["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "1",
                 "--at-most-k", "--json", "--no-timing"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["solution"] == [1]  # k'=1 already dominates P3


def test_solve_at_most_k_reports_only_the_answering_size(tmp_path, capsys):
    # on C8 the pipeline's search answers NO at k' = 2 and fills
    # `stats`; k' = 3 answers through the brute fallback, which fills none,
    # so the output holds null counters, as a plain brute solve's does
    path = tmp_path / "c8.txt"
    save_graph(cycle_graph(8), path)
    argv = ["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "1",
            "--json", "--no-timing"]
    assert main(argv + ["--algo", "pipeline", "--at-most-k"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert main(argv + ["--algo", "brute"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert got["solution"] == want["solution"] == [0, 2, 5]
    assert got["stats"] == want["stats"] and set(want["stats"].values()) == {None}


def test_solve_at_most_k_keeps_real_errors(tmp_path, capsys):
    gpath = tmp_path / "p9.txt"
    save_graph(path_graph(9), gpath)
    ppath = tmp_path / "p9.json"
    ppath.write_text(json.dumps({"k": 9, "edges": [[i, i + 1] for i in range(8)]}))
    code = main(["solve", str(gpath), "--problem", "pattern", "--pattern", str(ppath),
                 "--k", "9", "--at-most-k"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err
    code = main(["solve", str(gpath), "--problem", "multidom", "--k", "3", "--r", "0",
                 "--at-most-k"])
    assert code == 2
    assert "--r must be >= 1" in capsys.readouterr().err


def test_solve_at_most_k_budgets_the_exhaustive_fallback(tmp_path, capsys, monkeypatch):
    # at k' = r = 3 the fast path cannot run; C(300, 3) = 4,455,100 subsets
    # exceed the budget, so the scan (about 4 s) must not start
    path = tmp_path / "gnm.txt"
    save_graph(cli._random_gnm(random.Random(1), 300, 1500), path)

    _forbid(monkeypatch, oracles, "oracle_multidom")
    code = main(["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "3",
                 "--at-most-k"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "C(300, 3) = 4455100 subsets, more than 1000000" in captured.err


@pytest.mark.parametrize("problem, oracle", [
    (["--problem", "multidom", "--r", "3"], "oracle_multidom"),
    (["--problem", "dom-indepset"], "oracle_pattern"),
], ids=["multidom", "dom-indepset"])
def test_solve_brute_budgets_the_exhaustive_scan(tmp_path, capsys, monkeypatch, problem, oracle):
    # the same C(300, 3) scan under --algo brute (4-7 s) must not start
    # either; a budget error is exit code 3
    path = tmp_path / "gnm.txt"
    save_graph(cli._random_gnm(random.Random(1), 300, 1500), path)

    _forbid(monkeypatch, oracles, oracle)
    code = main(["solve", str(path), *problem, "--k", "3", "--algo", "brute"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: the exhaustive scan at k=3 has "
                            "C(300, 3) = 4455100 subsets, more than 1000000\n")


@pytest.mark.parametrize("problem, k", [("dom-indepset", 10**9), ("dom-clique", 200_000)])
def test_solve_brute_answers_a_huge_k_at_once(tmp_path, capsys, monkeypatch, problem, k):
    # C(4, k) = 0, so neither k! nor a k-vertex Pattern is needed
    path = tmp_path / "g4.txt"
    path.write_text("4 2\n0 1\n2 3\n")

    _forbid(monkeypatch, oracles, "factorial")
    assert main(["solve", str(path), "--problem", problem, "--k", str(k), "--algo", "brute",
                 "--no-timing"]) == 1
    assert capsys.readouterr().out == "answer: NO\n"


def test_solve_text_output_lists_the_solution(tmp_path, capsys):
    path = tmp_path / "g4.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    assert main(["solve", str(path), "--problem", "dom-indepset", "--k", "2", "--no-timing"]) == 0
    assert capsys.readouterr().out == "answer: YES\nsolution: 0 2\n"


def test_solve_deeper_than_the_recursion_limit_answers_yes(tmp_path, capsys):
    # every vertex of the edgeless graph on 1,200 vertices is needed, so the
    # dom-indepset search goes 1,200 levels deep, past Python's default limit
    graph = tmp_path / "edgeless.graph"
    graph.write_text("1200 0\n")
    code = main(["solve", str(graph), "--problem", "dom-indepset", "--k", "1200",
                 "--json", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["solution"] == list(range(1200))
    solution = tmp_path / "sol.json"
    solution.write_text(out)
    assert main(["verify", str(graph), "--problem", "dom-indepset", "--k", "1200",
                 "--solution", str(solution)]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_solve_at_most_k_stops_at_n(tmp_path, capsys, monkeypatch):
    # no k'-set exists above n = 5, so k' = 6..20000 run no solve
    graph = tmp_path / "e5.graph"
    graph.write_text("5 0\n")
    sizes = []
    original = cli.solve
    monkeypatch.setattr(cli, "solve",
                        lambda G, problem, *a: sizes.append(problem.k) or original(G, problem, *a))
    code = main(["solve", str(graph), "--problem", "tupledom", "--r", "2", "--k", "20000",
                 "--at-most-k", "--json", "--no-timing"])
    assert code == 1 and json.loads(capsys.readouterr().out)["answer"] is False
    # k' = 2 = r: the fast solver refuses it, then the exhaustive scan runs
    assert sizes == [1, 2, 2, 3, 4, 5]
    # with no size to try, a bad flag is still a usage error
    graph.write_text("0 0\n")
    assert main(["solve", str(graph), "--problem", "tupledom", "--r", "0", "--k", "3",
                 "--at-most-k"]) == 2
    assert "--r must be >= 1" in capsys.readouterr().err


def test_bench_brute_budgets_the_exhaustive_scan(capsys, monkeypatch):
    # bench --algos brute runs the same C(300, 3) scan per row (4.6 s);
    # it must exit 3 before drawing a graph
    _forbid(monkeypatch, oracles, "oracle_multidom")
    _forbid(monkeypatch, cli, "_random_gnm")
    code = main(["bench", "--n", "20,300", "--density", "5", "--k", "3", "--r", "2",
                 "--algos", "fast,brute", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: the exhaustive scan at k=3 has "
                            "C(300, 3) = 4455100 subsets, more than 1000000\n")


@pytest.mark.parametrize("problem", ["pattern", "dom-clique"])
def test_solve_brute_budgets_the_pattern_orderings(tmp_path, capsys, monkeypatch, problem):
    # K10 has only C(10, 8) = 45 subsets of 8, but the pattern oracle tries
    # up to 8! orderings of each dominating one (32 s for path(8)): 45 * 8!
    # = 1814400 orderings are above the budget, so the scan must not start
    gpath = tmp_path / "k10.txt"
    save_graph(Graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)]), gpath)
    pattern = tmp_path / "path8.json"
    pattern.write_text(json.dumps({"k": 8, "edges": [[i, i + 1] for i in range(7)]}))

    _forbid(monkeypatch, oracles, "oracle_pattern")
    extra = ["--pattern", str(pattern)] if problem == "pattern" else []
    code = main(["solve", str(gpath), "--problem", problem, *extra, "--k", "8", "--algo", "brute"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: the pattern scan at k=8 tries C(10, 8) * "
                            "8! = 1814400 orderings, more than 1000000\n")


def test_bench_refuses_vertex_counts_beyond_the_loader_limit(capsys, monkeypatch):
    # a typo such as --n 100000000, a density that is not a finite number
    # >= 0, a list that does not parse or fewer than one rep must exit 2,
    # naming the flag, before a graph is drawn
    _forbid(monkeypatch, cli, "_random_gnm")
    for n, density, extra, message in (
            ("20,100000000", "2", [], "--n 100000000 is outside 0..1000000"),
            ("-5", "2", [], "--n -5 is outside 0..1000000"),
            ("20", "2,inf", [], "--density inf is not a finite number >= 0"),
            ("20", "nan", [], "--density nan is not a finite number >= 0"),
            ("20", "-1", [], "--density -1.0 is not a finite number >= 0"),
            ("", "2", [], "--n must be a comma-separated list of integers, got ''"),
            ("20", "2,x", [], "--density must be a comma-separated list of numbers, got '2,x'"),
            ("10", "1", ["--reps", "-2"], "--reps must be >= 1, got -2"),
            ("10", "1", ["--reps", "0"], "--reps must be >= 1, got 0")):
        code = main(["bench", "--n", n, "--density", density, "--k", "3", "--r", "1",
                     "--no-timing", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_verify_checks_the_target_budget_before_the_source(tmp_path, capsys, monkeypatch):
    # three sets of 200 "11" vectors (a NO source of 8 * 10^6 transversals)
    # give a target of 614 vertices, whose C(614, 3) subsets are above the
    # scan budget: exit 3 before any brute force on the source (14 s when
    # it ran first)
    source = tmp_path / "source.json"
    source.write_text(json.dumps({"k": 3, "d": 2, "sets": [["11"] * 200] * 3}))

    _forbid(monkeypatch, reductions, "solve_ov_bruteforce")
    code = main(["verify", "--reduction", "ov-multidom", "--source", str(source), "--r", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: the exhaustive scan at k=3 has C(614, 3) = 38390964 "
                            "subsets, more than 1000000\n")


def test_solve_at_most_k_reads_the_pattern_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.txt"
    save_graph(cycle_graph(6), path)
    pattern = tmp_path / "p5.json"
    pattern.write_text(json.dumps({"k": 5, "edges": [[i, i + 1] for i in range(4)]}))
    calls = []
    load = cli.load_pattern
    monkeypatch.setattr(cli, "load_pattern", lambda source: calls.append(source) or load(source))
    code = main(["solve", str(path), "--problem", "pattern", "--pattern", str(pattern),
                 "--k", "5", "--at-most-k", "--json", "--no-timing"])
    assert code == 0 and json.loads(capsys.readouterr().out)["solution"] == [0, 1, 2, 3, 4]
    assert calls == [str(pattern)]


def test_solve_brute_below_the_budget_still_scans(c5_file, capsys):
    # C(5, 3) = 10 subsets: the oracle answers
    assert main(["solve", c5_file, "--problem", "multidom", "--k", "3", "--r", "2",
                 "--algo", "brute", "--json", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["solution"] == [0, 1, 3]


def test_solve_pipeline_algo(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    save_graph(path_graph(4), path)
    code = main(["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "2",
                 "--algo", "pipeline", "--json", "--no-timing"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["solution"] == [0, 1, 3]


def test_solve_pipeline_clique_witness(tmp_path, capsys):
    # K4 at k = 3: heavy copies 0 and 1 take vertices 0 and 1, and the
    # vertex part their lowest common dominating partner, 2
    path = tmp_path / "k4.txt"
    save_graph(complete_graph(4), path)
    code = main(["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "2",
                 "--algo", "pipeline", "--json", "--no-timing"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["solution"] == [0, 1, 2]
    assert out["certificate"] == {"clique_witness": [[0, 0], [1, 1], [2, 2]]}


def test_generate_and_verify_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "gen")
    code = main(["generate", "--reduction", "ov-multidom", "--k", "3", "--r", "2",
                 "--d", "3", "--sizes", "2,2,2", "--seed", "7", "--out", prefix])
    assert code == 0
    echoed = capsys.readouterr().out
    assert "k=3" in echoed
    assert (tmp_path / "gen.graph").exists() and (tmp_path / "gen.json").exists()
    assert main(["verify", "--reduction", "ov-multidom",
                 "--source", prefix + ".source.json", "--r", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def _generated_ov_source(tmp_path, capsys, *extra):
    prefix = str(tmp_path / "gen")
    assert main(["generate", *extra, "--d", "3", "--sizes", "2,2,2", "--seed", "7",
                 "--out", prefix]) == 0
    capsys.readouterr()
    return prefix + ".source.json"


def test_verify_ov_multidom_without_r_is_error(tmp_path, capsys):
    source = _generated_ov_source(tmp_path, capsys, "--reduction", "ov-multidom",
                                  "--k", "3", "--r", "2")
    assert main(["verify", "--reduction", "ov-multidom", "--source", source]) == 2
    assert "requires --r" in capsys.readouterr().err


def test_verify_ov_hdom_without_pattern_is_error(tmp_path, capsys):
    pattern = tmp_path / "p3.json"
    pattern.write_text(json.dumps({"k": 3, "edges": [[0, 1], [1, 2]]}))
    source = _generated_ov_source(tmp_path, capsys, "--reduction", "ov-hdom",
                                  "--k", "3", "--pattern", str(pattern))
    assert main(["verify", "--reduction", "ov-hdom", "--source", source]) == 2
    assert "requires --pattern" in capsys.readouterr().err


@pytest.mark.parametrize("argv, missing", [
    (["verify", "--problem", "multidom", "--k", "3", "--r", "1", "--solution", "SOL"],
     "verify requires a graph file"),
    (["verify", "GRAPH", "--problem", "multidom", "--r", "1", "--solution", "SOL"],
     "verify requires --k"),
    (["verify", "GRAPH", "--k", "3", "--r", "1", "--solution", "SOL"],
     "verify requires --problem"),
    (["verify", "GRAPH", "--problem", "multidom", "--k", "3", "--r", "1"],
     "verify requires --solution"),
    (["verify", "GRAPH", "--problem", "pattern", "--k", "3", "--solution", "SOL"],
     "--problem pattern requires --pattern"),
    (["generate", "--reduction", "is-multidom", "--k", "2", "--out", "OUT"],
     "--reduction is-multidom requires --gamma"),
], ids=["no-graph", "no-k", "no-problem", "no-solution", "no-pattern", "no-gamma"])
def test_missing_flag_exits_two(tmp_path, capsys, c5_file, argv, missing):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"solution": [0, 2, 4]}))
    paths = {"GRAPH": c5_file, "SOL": str(solution), "OUT": str(tmp_path / "g")}
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {missing}\n"
    assert not list(tmp_path.glob("g*"))


@pytest.mark.parametrize("payload", [
    {"solution": 5}, [0.0, 2], ["a"], [True, False], {"x": 1},
], ids=["int-under-key", "float-vertex", "str-vertex", "bool-vertices", "no-solution-key"])
def test_verify_malformed_solution_exits_two(tmp_path, capsys, c5_file, payload):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps(payload))
    assert main(["verify", c5_file, "--problem", "multidom", "--k", "2", "--r", "1",
                 "--solution", str(solution)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(solution) in captured.err


@pytest.mark.parametrize("payload, field", [
    ([1, 2], "expected an object"),
    ({"k": 3, "edges": 5}, "'edges'"),
    ({"k": 3}, "'edges'"),
    ({"edges": []}, "'k'"),
    ({"k": 3, "edges": [[0, 1], [0, 1, 2]]}, "edges[1]"),
    ({"k": "3", "edges": []}, "field 'k' must be an integer"),
    ({"k": 3, "edges": [[0, 3]]}, "pattern_edges"),
], ids=["list", "edges-not-list", "no-edges", "no-k", "edge-not-pair", "k-not-int",
        "edge-beyond-k"])
def test_solve_malformed_pattern_exits_two(tmp_path, capsys, c5_file, payload, field):
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps(payload))
    assert main(["solve", c5_file, "--problem", "pattern", "--pattern", str(pattern),
                 "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(pattern) in captured.err and field in captured.err


@pytest.mark.parametrize("edges", [[[3, 4]], [[0, 1], [3, 4]]],
                         ids=["edge-beyond-k", "edges-within-k"])
def test_verify_pattern_size_mismatch_exits_two(tmp_path, capsys, c5_file, edges):
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"k": 5, "edges": edges}))
    solution = tmp_path / "sol.json"
    solution.write_text("[0, 1, 3]")
    assert main(["verify", c5_file, "--problem", "pattern", "--pattern", str(pattern),
                 "--k", "3", "--solution", str(solution)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pattern has 5 vertices but --k is 3\n"


@pytest.mark.parametrize("payload, field", [
    ({"k": 2, "d": 3, "sets": 5}, "'sets'"),
    ([1], "expected an object"),
    ({"k": 2, "d": 3}, "'sets'"),
    ({"k": "2", "d": 1, "sets": [["1"], ["1"]]}, "field 'k' must be an integer"),
    ({"k": 2, "d": 2, "sets": [["11"], "11"]}, "sets[1] must be a list"),
    ({"k": 2, "d": 1, "sets": [["2"], ["1"]]}, "sets[0][0] is not a 0/1 vector"),
    ({"k": 2, "d": 2, "sets": [["1"], ["11"]]}, "in set 0 is not 2-dimensional"),
    ({"k": 3, "d": 1, "sets": [["1"], ["1"]]}, "declared k=3 but found 2 sets"),
], ids=["sets-not-list", "list", "no-sets", "k-not-int", "set-not-list", "vector-not-binary",
        "wrong-dimension", "k-mismatch"])
def test_verify_malformed_ov_source_exits_two(tmp_path, capsys, payload, field):
    source = tmp_path / "source.json"
    source.write_text(json.dumps(payload))
    assert main(["verify", "--reduction", "ov-multidom", "--source", str(source),
                 "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(source) in captured.err and field in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "{graph}", "--problem", "pattern", "--pattern", "{deep}", "--k", "3"],
    ["verify", "--reduction", "ov-matching", "--source", "{deep}"],
    ["verify", "{graph}", "--problem", "multidom", "--k", "2", "--r", "1", "--solution", "{deep}"],
], ids=["pattern", "ov-source", "solution"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, c5_file, argv):
    # json gives up on it with a RecursionError: malformed input, not a budget
    deep = tmp_path / "deep.json"
    deep.write_text('{"k": 3, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main([a.format(graph=c5_file, deep=deep) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(deep) in captured.err


def test_verify_oracle_budget_overrun_exits_three(tmp_path, capsys):
    # three sets of 60 vectors give a 195-vertex target at k = 3, whose
    # C(195, 3) = 1216865 subsets are above the scan budget
    prefix = str(tmp_path / "gen")
    assert main(["generate", "--reduction", "ov-multidom", "--k", "3", "--r", "1", "--d", "3",
                 "--sizes", "60,60,60", "--seed", "7", "--out", prefix]) == 0
    capsys.readouterr()
    assert main(["verify", "--reduction", "ov-multidom", "--source", prefix + ".source.json",
                 "--r", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "C(195, 3) = 1216865 subsets" in captured.err


def test_main_builds_parser_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    calls = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real_build())
    cli._parser.cache_clear()
    p6, c5 = tmp_path / "p6.txt", tmp_path / "c5.txt"
    save_graph(path_graph(6), p6)
    save_graph(cycle_graph(5), c5)
    at_most_k = ["solve", str(p6), "--problem", "multidom", "--k", "3", "--r", "1",
                 "--at-most-k", "--json", "--no-timing"]
    plain = ["solve", str(c5), "--problem", "dom-clique", "--k", "3", "--no-timing"]
    runs = [at_most_k, plain, at_most_k]
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert len(calls) <= 1
    assert in_process == [_finish(_start(["-m", "domlab.cli", *argv]), 60)[:2] for argv in runs]


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: MemoryError\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded\n"),
    (ZeroDivisionError("division by zero"), "error: ZeroDivisionError: division by zero\n"),
    (AssertionError("a broken guard"), None),
], ids=["memory", "recursion", "arithmetic", "assertion"])
def test_main_reports_a_crash_as_an_error_not_as_no(c5_file, capsys, monkeypatch, exc, message):
    # exit 1 means NO or FAIL only; a test's AssertionError still propagates
    def crash(*args):
        raise exc

    monkeypatch.setattr(cli, "solve", crash)
    argv = ["solve", c5_file, "--problem", "dom-clique", "--k", "2"]
    if message is None:
        with pytest.raises(AssertionError, match="a broken guard"):
            main(argv)
    else:
        assert main(argv) == 2 and capsys.readouterr().err == message


def test_generate_is_multidom_echoes_kprime(tmp_path, capsys):
    code = main(["generate", "--reduction", "is-multidom", "--k", "2",
                 "--gamma", "1/2", "--d", "1", "--seed", "3",
                 "--out", str(tmp_path / "g")])
    assert code == 0
    assert "k'=3" in capsys.readouterr().out


@pytest.mark.parametrize("flags, code, message", [
    (["--gamma", "1/0"], 2, "--gamma must be a fraction p/q, got '1/0'"),
    (["--gamma", "1/2", "--part-size", "-1"], 2, "part sizes must be nonnegative, got -1"),
    # 3^24 transversals in the last group; 10^5 parts would be drawn pairwise
    (["--gamma", "1/2", "--d", "12", "--part-size", "3"], 3, "transversals"),
    (["--gamma", "1/100000"], 3, "transversals"),
])
def test_generate_is_multidom_refuses_bad_input(tmp_path, capsys, flags, code, message):
    assert main(["generate", "--reduction", "is-multidom", "--k", "3", *flags,
                 "--out", str(tmp_path / "g")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.graph").exists()


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "1/2000000"], "is-multidom would have 2000002 source parts, more than 1000000"),
    (["--gamma", "1/2000", "--part-size", "0"],
     "2002 source parts have 2003001 part pairs, more than 1000000"),
], ids=["parts", "part-pairs"])
def test_generate_is_multidom_refuses_the_part_count_before_drawing(tmp_path, capsys,
                                                                    monkeypatch, flags, message):
    # the part count is refused before a part is listed; a draw, even of
    # empty parts, walks every pair of parts
    _forbid(monkeypatch, cli, "_random_kpartite")
    assert main(["generate", "--reduction", "is-multidom", "--k", "3", *flags,
                 "--out", str(tmp_path / "g")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("sizes, message", [
    ("a,b", "--sizes must be a comma-separated list of integers, got 'a,b'"),
    ("1,2", "--sizes must list 3 set sizes"),
])
def test_generate_refuses_bad_sizes(tmp_path, capsys, sizes, message):
    assert main(["generate", "--reduction", "ov-multidom", "--k", "3", "--r", "1",
                 "--sizes", sizes, "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.graph").exists()


@pytest.mark.parametrize("flags, quantity", [
    # 2 * 10^7 vector vertices
    (["--reduction", "ov-multidom", "--k", "3", "--r", "1", "--sizes", "20000000,1,1", "--d", "4"],
     "20000018 target vertices"),
    # 10^8 + 20 dimension vertices, padding included
    (["--reduction", "ov-matching", "--k", "4", "--sizes", "1,1,1,1", "--d", "100000000"],
     "100000024 target vertices"),
    # 400 vectors of 2,481 + 20 coordinates; 992,400 entries before padding
    (["--reduction", "ov-matching", "--k", "4", "--sizes", "100,100,100,100", "--d", "2481"],
     "1000400 source vector entries"),
    # C(40, 20) redundancy blocks of 41 vertices
    (["--reduction", "ov-multidom", "--k", "40", "--r", "20", "--sizes", ",".join(["1"] * 40),
      "--d", "2"], "5651707681662 target vertices"),
    # 1,500 vectors of 2 coordinates: C(1500, 2) = 1,124,250 vector pairs
    (["--reduction", "ov-hdom", "--k", "3", "--sizes", "500,500,500", "--d", "2",
      "--pattern", '{"k": 3, "edges": [[0, 1]]}'], "1124250 source vector pairs"),
], ids=["vectors", "dimensions", "padded-entries", "redundancy-blocks", "vector-pairs"])
def test_generate_ov_refuses_oversized_sources(tmp_path, capsys, flags, quantity):
    assert main(["generate", *flags, "--out", str(tmp_path / "g")]) == 3
    assert quantity in capsys.readouterr().err
    assert not (tmp_path / "g.graph").exists()


def test_generate_matching_odd_k_is_error(tmp_path, capsys):
    assert main(["generate", "--reduction", "ov-matching", "--k", "3",
                 "--sizes", "1,1,1", "--out", str(tmp_path / "g")]) == 2


def test_generate_into_a_missing_directory_is_error(tmp_path, capsys):
    # the writer's OSError is a usage error, not a traceback
    assert main(["generate", "--reduction", "ov-multidom", "--k", "2", "--r", "1",
                 "--d", "2", "--sizes", "1,1", "--out", str(tmp_path / "no" / "g")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def test_generate_deterministic(tmp_path, capsys):
    # files are rewritten in place and cut to length: an instance generated
    # over a larger one has the bytes of one generated into a fresh prefix
    for sizes, name in (("4,4,4", "a"), ("2,2,2", "a"), ("2,2,2", "b")):
        assert main(["generate", "--reduction", "ov-multidom", "--k", "3", "--r", "1", "--d", "4",
                     "--sizes", sizes, "--seed", "1", "--out", str(tmp_path / name)]) == 0
    for ext in ("graph", "json", "source.json"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()


def test_verify_solution_pass_and_fail(tmp_path, capsys, c5_file):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"solution": [0, 2, 4]}))
    assert main(["verify", c5_file, "--problem", "multidom", "--k", "3", "--r", "2",
                 "--solution", str(good)]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"solution": [0, 2]}))
    assert main(["verify", c5_file, "--problem", "multidom", "--k", "3", "--r", "2",
                 "--solution", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--problem", "multidom", "--k", "3", "--r", "0"], "--r must be >= 1, got 0"),
    (["--problem", "multidom", "--k", "3", "--r", "-4"], "--r must be >= 1, got -4"),
    (["--problem", "tupledom", "--k", "0", "--r", "1"], "--k must be >= 1, got 0"),
    (["--problem", "dom-indepset", "--k", "-1"], "--k must be >= 1, got -1"),
    (["--problem", "dom-indepset", "--k", "3", "--r", "1"],
     "--r is not valid with --problem dom-indepset"),
], ids=["r0", "r-4", "k0", "k-1", "r-on-shape"])
@pytest.mark.parametrize("command", [
    ["solve"], ["solve", "--at-most-k"], ["solve", "--algo", "brute"], ["verify"],
], ids=["solve", "at-most-k", "brute", "verify"])
def test_solve_and_verify_refuse_the_same_flags(tmp_path, capsys, c5_file, command, flags, message):
    # a solution that would pass with r <= 0 (verify) and a --k <= 0 that
    # --at-most-k would answer NO are usage errors, exit 2, in both commands
    solution = tmp_path / "sol.json"
    solution.write_text("[0, 1, 2]")
    extra = ["--solution", str(solution)] if command == ["verify"] else []
    assert main([command[0], c5_file, *command[1:], *flags, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--problem", "dom-matching", "--k", "3"], "Problem k must be even for kind 'matching', got 3"),
    (["--problem", "dom-clique", "--k", "2", "--algo", "pipeline"],
     "--algo pipeline only applies to multidom"),
], ids=["odd-matching", "pipeline-on-shape"])
def test_solve_refuses_a_k_or_algo_the_problem_cannot_take(capsys, c5_file, flags, message):
    assert main(["solve", c5_file, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_bench_rows_and_determinism(capsys):
    argv = ["bench", "--n", "16,20", "--density", "2,4", "--k", "4", "--r", "2",
            "--reps", "2", "--seed", "9", "--no-timing"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0].startswith("algo,n,m,k,r,rep,seed")
    assert len(lines) == 1 + 2 * 2 * 2  # header + n * density * reps
    header = lines[0].split(",")
    assert "rows_drawn" in header
    runs = [(n, dens, rep) for n in (16, 20) for dens in (2.0, 4.0) for rep in (0, 1)]
    for line, (n, dens, rep) in zip(lines[1:], runs):
        row = dict(zip(header, line.split(",")))
        assert (row["algo"], row["n"], row["rep"]) == ("fast", str(n), str(rep))
        G = cli._random_gnm(random.Random(f"9:{n}:{dens}:{rep}"), n, int(dens * n))
        stats = {}
        solve_multidom_fast(G, 4, 2, "multiple", stats=stats)
        assert int(row["rows_drawn"]) == stats["rows_drawn"]


def _list_random_gnm(rng: random.Random, n: int, m: int) -> Graph:
    """G(n, m) sampled from the materialised list of all n(n-1)/2 pairs."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(all_pairs, min(m, len(all_pairs))))


def test_random_gnm_matches_sampling_the_pair_list():
    for n in range(0, 61):
        for m in (0, 1, n, 3 * n, n * n):
            seed = f"gnm:{n}:{m}"
            assert cli._random_gnm(random.Random(seed), n, m) == \
                _list_random_gnm(random.Random(seed), n, m), (n, m)
    n = 10**5
    last = n * (n - 1) // 2 - 1
    assert [cli._pair_at(n, i) for i in (0, n - 2, n - 1, last)] == \
        [(0, 1), (0, n - 1), (1, 2), (n - 2, n - 1)]


def test_every_algo_answers_no_above_n(c5_file, tmp_path, capsys):
    # C5 has no 6-set: each algo that takes the problem answers NO (exit 1),
    # --algo brute on multidom and tupledom included
    path6 = tmp_path / "path6.json"
    path6.write_text(json.dumps({"k": 6, "edges": [[i, i + 1] for i in range(5)]}))
    cases = [(["--problem", "multidom", "--r", "5"], ["fast", "brute", "pipeline"])]
    cases += [(["--problem", problem, "--r", str(r)], ["fast", "brute"])
              for problem in ("multidom", "tupledom") for r in (1, 2, 5)]
    cases += [(["--problem", problem], ["fast", "brute"])
              for problem in ("dom-clique", "dom-indepset", "dom-matching")]
    cases += [(["--problem", "pattern", "--pattern", str(path6)], ["fast", "brute"])]
    for flags, algos in cases:
        for algo in algos:
            code = main(["solve", c5_file, *flags, "--k", "6", "--algo", algo,
                         "--json", "--no-timing"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (1, ""), (flags, algo)
            assert json.loads(captured.out)["answer"] is False


def _outcome(argv: list[str], capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `main(argv)`, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_parses_as_the_top_level_parser(c5_file, capsys, monkeypatch):
    # `main` hands argv[1:] straight to a named subcommand's parser; every
    # line must end as `build_parser().parse_args` alone ends it
    solve = ["solve", c5_file, "--problem", "multidom", "--k", "3", "--r", "2"]
    table = [
        solve + ["--json", "--no-timing"],
        ["solve", c5_file, "--problem", "dom-clique", "--k", "3", "--no-timing"],
        solve + ["--no-tim"],
        solve + ["extra"],
        solve + ["--bogus", "1"],
        ["solve", c5_file, "--problem", "multidom"],
        ["solve", "-h"],
        ["bench", "--n", "6", "--density", "1.5", "--k", "2", "--r", "1", "--no-timing"],
        ["-h"],
        [],
        ["frobnicate", c5_file],
        ["--k", "3", "solve", c5_file, "--problem", "dom-clique"],
    ]
    fast = [_outcome(argv, capsys) for argv in table]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert fast == [_outcome(argv, capsys) for argv in table]
    codes = [code for code, _, _ in fast]
    assert codes == [0, 1, 0, 2, 2, 2, 0, 0, 0, 2, 2, 2]
    assert "unrecognized arguments: extra" in fast[3][2]
    assert "the following arguments are required: --k" in fast[5][2]
