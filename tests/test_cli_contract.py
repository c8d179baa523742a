"""The CLI contract as a user meets it: `python -m domlab.cli` in a fresh
process, under the address-space limit and timeout each guard names. A new
CLI guard is one row of a table here.

- An `Exit` row writes its input files, runs one command and checks its exit
  code and a regex: on stdout for 0 (YES, PASS) and 1 (NO, FAIL), on stderr
  for 2 (error) and 3 (budget), which print nothing on stdout. A refused
  `generate` writes no file.
- A `Twin` row writes or generates an instance and solves it with each algo
  in two processes, PYTHONHASHSEED 0 and 1, which must print the same bytes.
  The first reads the graph file in one bulk pass; the second reads a copy
  that a leading "# comment" line sends to the line-by-line reader (CRLF
  endings alone would not: reading a path turns them into "\n" first), or,
  in a `dimacs` row, a DIMACS copy. The algos and the OV source's brute
  force must agree; a YES must verify on both files.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from domlab import Graph, cli, load_graph, reductions, save_graph

from .conftest import dimacs_text
from .test_patterndom import _planted_hub_edges

SRC = Path(cli.__file__).resolve().parents[1]
LIMITS = sys.platform.startswith("linux")


class Exit(NamedTuple):
    argv: str  # after `python -m domlab.cli`; {tmp} is the row's directory
    code: int
    pattern: str | None = None  # re.M, on stdout for exit 0 and 1, else stderr
    files: tuple = ()  # (name, text or a writer taking the path and mem_kb)
    mem_kb: int | None = None  # address-space limit, in KiB as `ulimit -v` takes it
    timeout: float = 60


class Twin(NamedTuple):
    generate: str | None  # writes {tmp}/g.*; else `files` hold {tmp}/g.graph
    problem: str  # the solve and verify flags after the graph file
    algos: tuple[str, ...] = ("fast",)
    r: int | None = None  # the OV source's brute force decides it at this r
    files: tuple = ()
    dimacs: bool = False  # the second process reads a DIMACS copy


def _start(args: list[str], mem_kb: int | None = None, hashseed: int | None = None):
    """`python *args` with src importable, under an address-space limit
    (RLIMIT_AS) of mem_kb KiB on Linux, set by the shell's `ulimit -v`
    before it execs Python."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    args = [sys.executable, *args]
    if mem_kb is not None and LIMITS:
        args = ["/bin/sh", "-c", f'ulimit -v {mem_kb} && exec "$0" "$@"', *args]
    return subprocess.Popen(args, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc: subprocess.Popen, timeout: float) -> tuple[int, str, str]:
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"{proc.args} ran past its {timeout} s timeout")
    return proc.returncode, out, err


def _argv(text: str, tmp: Path) -> list[str]:
    return [a.replace("{tmp}", str(tmp)) for a in text.split()]


def _gnm(n: int, m: int):
    """A writer of `cli._random_gnm(Random(1), n, m)` that draws in a child
    process under the row's limit, so a draw that lists all n(n-1)/2 pairs
    fails there and not in the test process."""
    def write(path, mem_kb):
        code = ("import random, sys; from domlab import save_graph; from domlab.cli import "
                f"_random_gnm; save_graph(_random_gnm(random.Random(1), {n}, {m}), sys.argv[1])")
        assert _finish(_start(["-c", code, str(path)], mem_kb), 60)[0] == 0
    return write


def _path(k: int) -> str:
    return json.dumps({"k": k, "edges": [[i, i + 1] for i in range(k - 1)]})


def _ov(k: int, d: int, vector: str) -> str:
    return json.dumps({"k": k, "d": d, "sets": [[vector]] * k})


G4 = (("g4.graph", "4 2\n0 1\n2 3\n"),)
K10 = "10 45\n" + "".join(f"{u} {v}\n" for u in range(10) for v in range(u + 1, 10))
HUB = (("hub.graph", lambda path, _: save_graph(
    Graph(60, _planted_hub_edges(random.Random(0), 60, 4, 3)), path)),
       ("star6.json", json.dumps({"k": 6, "edges": [[0, j] for j in range(1, 6)]})))
GNM300 = (("g.graph", _gnm(300, 1500)),)
HUB3000 = (("g.graph", lambda path, _: save_graph(
    Graph(3000, _planted_hub_edges(random.Random(1), 3000, 6, 3)), path)),)
HEAVYLESS = (("g.graph", _gnm(20000, 60000)), ("path6.json", _path(6)))
LOW, HIGH, OVERSIZED = 800_000, 2_000_000, "^error: .* more than"
TOO_LARGE = "^error: pattern size 9 exceeds 8$"
IS_MULTIDOM = "generate --reduction is-multidom --out {tmp}/g --k "

EXIT_ROWS = {
    "oversized-header": Exit("solve {tmp}/big.graph --problem dom-clique --k 1", 2,
                             files=(("big.graph", "4000000000 0\n"),)),
    "verify-long-target-scan": Exit(
        "verify --reduction ov-hdom --source {tmp}/ones.json --pattern {tmp}/path6.json", 3,
        files=(("ones.json", _ov(6, 12, "1" * 12)), ("path6.json", _path(6))), timeout=10),
    "verify-oversized-ov-source": Exit(
        "verify --reduction ov-multidom --source {tmp}/wide.json --r 20", 3,
        r"^error: ov-multidom would have \d+ target vertices, more than",
        (("wide.json", _ov(40, 2, "11")),), LOW, 20),
    "transversals": Exit(IS_MULTIDOM + "3 --gamma 1/2 --d 12 --part-size 3", 3),
    "cross-pairs": Exit(IS_MULTIDOM + "3 --gamma 1/100000 --part-size 1", 3),
    "huge-k-indepset": Exit("solve {tmp}/g4.graph --problem dom-indepset --k 1000000000 "
                            "--algo brute", 1, "^answer: NO$", G4, LOW, 20),
    "huge-k-clique": Exit("solve {tmp}/g4.graph --problem dom-clique --k 200000 --algo brute",
                          1, "^answer: NO$", G4, LOW, 20),
    "huge-kprime-parts": Exit(IS_MULTIDOM + "4 --gamma 1/1000000000", 3,
                              "^error: is-multidom would have 1000000003 source parts",
                              mem_kb=LOW, timeout=20),
    "huge-kprime-part-pairs": Exit(IS_MULTIDOM + "3 --gamma 1/20000 --part-size 0", 3,
                                   "^error: 20002 source parts have 200030001 part pairs",
                                   mem_kb=LOW, timeout=20),
    **{f"oversized-ov-{name}": Exit(f"generate --out {{tmp}}/g --reduction {flags}", 3,
                                    OVERSIZED, mem_kb=LOW, timeout=20) for name, flags in (
        ("vectors", "ov-multidom --k 3 --r 1 --sizes 20000000,1,1 --d 4"),
        ("dimensions", "ov-matching --k 4 --sizes 1,1,1,1 --d 100000000"),
        ("redundancy", "ov-multidom --k 40 --r 20 --d 2 --sizes " + ",".join(["1"] * 40)))},
    "dimacs-second-header": Exit(
        "solve {tmp}/twice.dimacs --problem dom-clique --k 1", 2,
        "line 3: second problem line", (("twice.dimacs", "p edge 3 1\ne 1 2\np edge 5 1\n"),)),
    "letter-first-edgelist": Exit("solve {tmp}/x.graph --problem dom-clique --k 1", 2,
                                  "^error: line 1: unrecognized line: 'x 1'$",
                                  (("x.graph", "x 1\n0 1\n"),)),
    "at-most-k-budget": Exit("solve {tmp}/g.graph --problem multidom --k 3 --r 3 --at-most-k",
                             3, files=GNM300),
    "brute-budget": Exit("solve {tmp}/g.graph --problem multidom --k 3 --r 3 --algo brute", 3,
                         files=GNM300),
    # an algo, or an r it cannot take, is refused before the scan budget (C(300, 3)
    # subsets), and before bench draws G(10^6, 3*10^6), which takes seconds
    "brute-window": Exit("solve {tmp}/g.graph --problem multidom --k 3 --r 5 --algo brute", 2,
                         r"^error: need 1 <= r <= k, got r=5, k=3$", GNM300),
    **{f"bench-{algo}-window": Exit(
        f"bench --n 1000000 --density 3 --k 3 --r 1 --algos fast,{algo}", 2,
        f"^error: {message}$", mem_kb=HIGH, timeout=4) for algo, message in (
        ("nope", "no algo 'nope' for a Problem of kind 'multiple'"),
        ("pipeline", "the pipeline needs kind 'multiple' with r = k-1, got r=1, k=3"))},
    "pattern-brute-budget": Exit(
        "solve {tmp}/k10.graph --problem pattern --k 8 --pattern {tmp}/path8.json --algo brute",
        3, files=(("k10.graph", K10), ("path8.json", _path(8)))),
    "bench-brute-budget": Exit("bench --n 300 --density 5 --k 3 --r 3 --algos brute --no-timing",
                               3),
    "deep-indepset": Exit("solve {tmp}/e.graph --problem dom-indepset --k 1200 --json "
                          "--no-timing", 0, files=(("e.graph", "1200 0\n"),)),
    "listing-budget": Exit("solve {tmp}/hub.graph --problem pattern --k 6 "
                           "--pattern {tmp}/star6.json", 3, "^error:", HUB),
    # the C(11982, 2) column edge pairs are counted, not listed: listing them
    # ran out of memory (exit 2, MemoryError)
    "matching-column-budget": Exit(
        "solve {tmp}/g.graph --problem dom-matching --k 8", 3,
        r"^error: the induced-matching columns are C\(11982, 2\) = 71778171 edge subsets, "
        "more than 1000000$", HUB3000, LOW, 20),
    # with C(11982, 1) columns the rows are C(11982, 2) edge pairs, counted
    # before any is drawn: drawing them lazily ran past a 30 s timeout
    "matching-row-budget": Exit(
        "solve {tmp}/g.graph --problem dom-matching --k 6", 3,
        r"^error: the induced-matching rows are C\(11982, 2\) = 71778171 edge subsets, "
        "more than 1000000$", HUB3000, LOW, 20),
    # the brute-force decider and verify test a set against the pattern by
    # permutation search; C4 + C5 and C9 share edge count and degrees
    "brute-oversized-pattern": Exit(
        "solve {tmp}/c5.graph --problem pattern --k 9 --pattern {tmp}/p9.json --algo brute", 2,
        TOO_LARGE, (("c5.graph", "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"), ("p9.json", _path(9)))),
    "verify-oversized-pattern": Exit(
        "verify {tmp}/c4c5.graph --problem pattern --k 9 --pattern {tmp}/c9.json "
        "--solution {tmp}/all.json", 2, TOO_LARGE, (
            ("c4c5.graph", "9 9\n0 1\n1 2\n2 3\n0 3\n4 5\n5 6\n6 7\n7 8\n4 8\n"),
            ("c9.json", json.dumps({"k": 9, "edges": [[i, (i + 1) % 9] for i in range(9)]})),
            ("all.json", json.dumps(list(range(9)))))),
    "malformed-ov-source": Exit(
        "verify --reduction ov-multidom --source {tmp}/malformed.source.json --r 1", 2,
        "malformed.source.json: field 'sets'",
        (("malformed.source.json", '{"k": 2, "d": 3, "sets": 5}'),)),
    # G(n, m) is drawn by pair index in O(n + m) memory; listing all
    # 5*10^9 pairs at n = 10^5 runs out of it
    "bench-1e5-vertices": Exit("bench --n 100000 --density 0.01 --k 3 --r 1 --no-timing", 0,
                               mem_kb=HIGH, timeout=300),
    # no vertex of G(20000, 60000) is heavy, so each solve answers NO
    # before it builds a row
    **{f"heavyless-{flags.split()[1]}": Exit(
        f"solve {{tmp}}/g.graph {flags} --json --no-timing", 1, '"answer":false', HEAVYLESS,
        HIGH) for flags in ("--problem tupledom --k 6 --r 1", "--problem multidom --k 4 --r 1",
                            "--problem dom-matching --k 6",
                            "--problem pattern --k 6 --pattern {tmp}/path6.json")},
    "bench-density-overflow": Exit("bench --n 2 --density 1e308 --k 2 --r 1 --no-timing", 0,
                                   "^fast,2,1,2,1,0,0,"),
    **{f"{flag}-{value}": Exit(f"generate --out {{tmp}}/g --reduction {flags} --{flag} {value}",
                               2, rf"^error: --{flag} must be a probability in \[0, 1\], got ")
       for flag, flags in (("zero-prob", "ov-matching --k 4 --sizes 1,1,1,1 --d 1"),
                           ("edge-prob", "is-multidom --k 2 --gamma 1/2"))
       for value in ("nan", "-0.5", "1.5")},
}


@pytest.mark.parametrize("row", EXIT_ROWS.values(), ids=EXIT_ROWS.keys())
def test_exit_row(tmp_path, row):
    for name, content in row.files:
        if isinstance(content, str):
            (tmp_path / name).write_text(content)
        else:
            content(tmp_path / name, row.mem_kb)
    argv = _argv(row.argv, tmp_path)
    code, out, err = _finish(_start(["-m", "domlab.cli", *argv], row.mem_kb), row.timeout)
    assert code == row.code and (code < 2 or out == ""), (out, err)
    if row.pattern is not None:
        assert re.search(row.pattern, out if code < 2 else err, re.M), (out, err)
    if argv[0] == "generate" and code:
        assert not list(tmp_path.glob("g.*"))


OV = "generate --reduction ov-multidom --d 6 --out {tmp}/g "
BRUTE = ("fast", "brute")
TWIN_ROWS = {
    "readers": Twin("generate --reduction ov-multidom --k 3 --r 1 --d 3 --sizes 2,2,2 --seed 1 "
                    "--out {tmp}/g", "--problem multidom --k 3 --r 1", r=1),
    # the format is read from the file: a DIMACS copy needs no flag
    "dimacs": Twin(OV + "--k 4 --r 2 --sizes 2,2,3,3 --seed 1", "--problem multidom --k 4 --r 2",
                   BRUTE, 2, dimacs=True),
    # the r <= k-2 column cut; k and r even (one family joined with itself);
    # r = k-1, where the pipeline runs
    **{f"{name}-s{s}": Twin(f"{generate} --seed {s}", "--problem multidom " + flags, algos, r)
       for name, generate, flags, algos, r in (
           ("near-column", OV + "--k 5 --r 3 --sizes 2,2,2,2,2", "--k 5 --r 3", ("fast",), 3),
           ("self-join-k4", OV + "--k 4 --r 2 --sizes 2,2,3,3", "--k 4 --r 2", ("fast",), 2),
           ("self-join-k6", OV + "--k 6 --r 2 --sizes 2,2,2,2,2,2 --zero-prob 0.3",
            "--k 6 --r 2", ("fast",), 2),
           ("kminus1", IS_MULTIDOM + "4 --gamma 1/2 --part-size 3", "--k 4 --r 3",
            ("pipeline", "fast"), None))
       for s in range(1, 5)},
    # every --problem and --algo on the wheel (hub 0 on the 6-cycle 1..6)
    **{f"wheel-{flags.split()[1]}-k{flags.split()[3]}": Twin(None, flags, algos, files=(
        ("g.graph", "7 12\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"),
        ("path3.json", _path(3)))) for algos, flags in (
           (("fast", "brute", "pipeline"), "--problem multidom --k 3 --r 2"),
           (BRUTE, "--problem multidom --k 4 --r 2"), (BRUTE, "--problem tupledom --k 3 --r 2"),
           (BRUTE, "--problem dom-clique --k 3"), (BRUTE, "--problem dom-clique --k 4"),
           (BRUTE, "--problem dom-indepset --k 3"), (BRUTE, "--problem dom-matching --k 4"),
           (BRUTE, "--problem pattern --k 3 --pattern {tmp}/path3.json"))},
}


@pytest.mark.parametrize("row", TWIN_ROWS.values(), ids=TWIN_ROWS.keys())
def test_twin_row(tmp_path, capsys, row):
    for name, text in row.files:
        (tmp_path / name).write_text(text)
    if row.generate:
        assert cli.main(_argv(row.generate, tmp_path)) == 0
    graph, copy = tmp_path / "g.graph", tmp_path / "copy.graph"
    if row.dimacs:
        copy.write_text(dimacs_text(load_graph(graph)))
    else:
        copy.write_bytes(b"# comment\r\n" + graph.read_bytes().replace(b"\n", b"\r\n"))
    flags = _argv(row.problem, tmp_path)
    runs = {(algo, seed): _start(["-m", "domlab.cli", "solve", str((graph, copy)[seed]), *flags,
                                  "--algo", algo, "--json", "--no-timing"], hashseed=seed)
            for algo in row.algos for seed in (0, 1)}
    runs = {key: _finish(proc, 60) for key, proc in runs.items()}
    answers = set()
    if row.r is not None:
        answers.add(reductions.solve_ov_bruteforce(
            reductions.load_ov(tmp_path / "g.source.json"), row.r))
    for algo in row.algos:
        code, out, err = runs[algo, 0]
        assert runs[algo, 1] == (code, out, err) and err == "", algo
        answer = json.loads(out)["answer"]
        answers.add(answer)
        assert code == (0 if answer else 1), algo
        if answer:
            (tmp_path / "sol.json").write_text(out)
            capsys.readouterr()
            for path in (graph, copy):
                assert cli.main(["verify", str(path), *flags,
                                 "--solution", str(tmp_path / "sol.json")]) == 0
                assert capsys.readouterr().out == "PASS\n"
    assert len(answers) == 1


def test_verify_solution_refuses_a_twelve_vertex_pattern():
    # a library entry point too: C12 and C4 + C8 share their edge count and
    # degree sequence, so without the size cap the test tries 12! orderings
    program = ("from domlab import Graph, Pattern, Problem, verify_solution\n"
               "c4c8 = [(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 8) "
               "for i in range(8)]\n"
               "verify_solution(Graph(12, [(i, (i + 1) % 12) for i in range(12)]), Problem("
               "'pattern', 12, pattern_edges=Pattern.from_edges(12, c4c8).edges), range(12))")
    code, out, err = _finish(_start(["-c", program]), 20)
    assert code == 1 and err.endswith("PatternTooLargeError: pattern size 12 exceeds 8\n")


def test_perfbench_span_targets_resolve():
    # perfbench/spans.py wraps these domlab functions by attribute name, so a
    # rename would otherwise break only the traced benchmark run
    spec = importlib.util.spec_from_file_location("spans", SRC.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets(spans.domlab_modules())
    assert targets and [(owner, attr) for owner, attr, *_ in targets
                        if not callable(getattr(owner, attr, None))] == []


def _bench(monkeypatch, name="bench_solve"):
    """bench/{name}.py as a module, with sys.path as it was restored when
    the test ends (bench_solve puts the bench and perfbench directories on it)."""
    bench = SRC.parent / "bench"
    monkeypatch.setattr(sys, "path", [str(bench), *sys.path])
    spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ci_solve_harness_cases_are_rows_of_its_table(monkeypatch):
    # tier1.yml runs whole cases of bench/bench_solve.py; each must equal a
    # row of its table, so CI cannot run a case the harness no longer has
    table = _bench(monkeypatch).cases()
    names = [case["name"] for case in table]
    assert len(set(names)) == len(names)
    ci = (SRC.parent / ".github" / "workflows" / "tier1.yml").read_text()
    pinned = [json.loads(raw) for raw in re.findall(r"bench/bench_solve\.py --case '(.*)'", ci)]
    assert pinned and [case for case in pinned if case not in table] == []


def test_committed_solve_counters_reproduce(monkeypatch):
    # the untimed part of every bench/bench_solve.py case, in this process:
    # its answer and counters must equal those BENCH_solve.json commits, so
    # a change that moves the work of a solve regenerates that file
    bench_solve = _bench(monkeypatch)
    entries = json.loads((SRC.parent / "BENCH_solve.json").read_text())["cases"]
    committed = {entry["name"]: (entry["answer"], entry["counters"]) for entry in entries}
    table = bench_solve.cases()
    differ = []
    for case in table:
        entry = bench_solve.counted_solve(case)[0]
        if committed.get(case["name"]) != (entry["answer"], entry["counters"]):
            differ.append(case["name"])
    assert differ == [] and sorted(committed) == sorted(case["name"] for case in table)


def test_committed_generate_facts_reproduce(monkeypatch):
    # the untimed part of every bench/bench_generate.py case: its answer,
    # target size, product and saved-text hash must equal BENCH_generate.json
    bench_generate = _bench(monkeypatch, "bench_generate")
    keys = ("answer", "n", "m", "product", "text_sha256")
    entries = json.loads((SRC.parent / "BENCH_generate.json").read_text())["cases"]
    committed = {entry["name"]: [entry[key] for key in keys] for entry in entries}
    table = bench_generate.cases()
    differ = [case["name"] for case in table
              if committed.get(case["name"]) != [bench_generate.checked_case(case)[0][key]
                                                 for key in keys]]
    assert differ == [] and sorted(committed) == sorted(case["name"] for case in table)
