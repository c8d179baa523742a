from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from domlab import cli
from domlab.cli import main

from .conftest import cycle_graph, path_graph
from domlab import Graph, save_graph


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
    main(["solve", c5_file, "--problem", "dom-clique", "--k", "2", "--json", "--no-timing"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["rows_drawn"] is None and stats["rows_certified"] is None


def test_solve_at_most_k(tmp_path, capsys):
    path = tmp_path / "star.txt"
    save_graph(path_graph(3), path)
    code = main(["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "1",
                 "--at-most-k", "--json", "--no-timing"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["solution"] == [1]  # k'=1 already dominates P3


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


def test_solve_pipeline_algo(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    save_graph(path_graph(4), path)
    code = main(["solve", str(path), "--problem", "multidom", "--k", "3", "--r", "2",
                 "--algo", "pipeline", "--json", "--no-timing"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["solution"] == [0, 1, 3]


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


def test_verify_oracle_budget_overrun_exits_three(tmp_path, capsys):
    source = _generated_ov_source(tmp_path, capsys, "--reduction", "ov-multidom",
                                  "--k", "3", "--r", "1")
    assert main(["verify", "--reduction", "ov-multidom", "--source", source,
                 "--r", "1", "--max-n", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exceeds oracle budget 5" in captured.err


def _fresh_run(argv: list[str]) -> tuple[int, str]:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "domlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout


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
    assert in_process == [_fresh_run(argv) for argv in runs]


def test_generate_is_multidom_echoes_kprime(tmp_path, capsys):
    code = main(["generate", "--reduction", "is-multidom", "--k", "2",
                 "--gamma", "1/2", "--d", "1", "--seed", "3",
                 "--out", str(tmp_path / "g")])
    assert code == 0
    assert "k'=3" in capsys.readouterr().out


def test_generate_matching_odd_k_is_error(tmp_path, capsys):
    assert main(["generate", "--reduction", "ov-matching", "--k", "3",
                 "--sizes", "1,1,1", "--out", str(tmp_path / "g")]) == 2


def test_generate_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        main(["generate", "--reduction", "ov-multidom", "--k", "2", "--r", "1",
              "--d", "2", "--sizes", "2,2", "--seed", "11",
              "--out", str(tmp_path / name)])
        capsys.readouterr()
        outs.append(((tmp_path / f"{name}.graph").read_bytes(),
                     (tmp_path / f"{name}.json").read_bytes(),
                     (tmp_path / f"{name}.source.json").read_bytes()))
    assert outs[0] == outs[1]


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
