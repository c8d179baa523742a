"""Command-line surface: solve, generate, verify, bench. `generate` and
`verify --reduction` build their targets with `reductions.build_target`.

Exit codes: 0 = solution found (solve) or PASS (verify), 1 = no solution or
FAIL, 2 = error, 3 = budget exceeded (OracleBudgetError; every brute-force
scan, `verify --reduction`'s included, passes `oracles.check_scan_budget` first).
Exit 1 is never a crash: a MemoryError, RecursionError or ArithmeticError that
reaches `main` is reported as an error, exit code 2, like malformed input.

`main` reads a `solve`, `generate` or `bench` line made of exact option
strings, values that do not start with "-" and one positional in one pass
over its words (`_read_words`), with the options `COMMANDS` gives that
subcommand, the one table argparse's parser is built from. Every other
line (an abbreviation, "--k=3", "-h", "--", a failed conversion or choice,
a missing option, any `verify` line) goes to argparse, so every error,
usage and help text is argparse's.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
import time
from fractions import Fraction
from math import isfinite, isqrt

from .graph import MAX_VERTICES, Graph, load_graph
from .multidom import (STATS_KEYS, VARIANTS, Problem, Solution, check_pattern_size,
                       diagnose_solution, KPartiteGraph)
from .oracles import OracleBudgetError, check_scan_budget
from .patterndom import Pattern, check_algo, load_pattern, solve
from .reductions import (
    OVInstance,
    build_target,
    indepset_groups,
    indepset_part_count,
    load_ov,
    ov_budget,
    save_ov,
    save_reduction,
    verify_reduction,
)

BENCH_HEADER = ["algo", "n", "m", "k", "r", "rep", "seed",
                "family_s", "family_t", "rows_drawn", "elapsed_ms"]

# --problem name -> (Problem kind, the flags it needs besides the graph and --k)
PROBLEMS = {
    "multidom": ("multiple", ("r",)),
    "tupledom": ("tuple", ("r",)),
    "dom-clique": ("clique", ()),
    "dom-indepset": ("indepset", ()),
    "dom-matching": ("matching", ()),
    "pattern": ("pattern", ("pattern",)),
}

# --reduction name -> the flag that gives its parameter, if any; generate
# also needs --sizes for the OV reductions, and verify needs --source
REDUCTION_PARAMS = {"ov-multidom": ("r",), "ov-hdom": ("pattern",), "ov-matching": (),
                    "is-multidom": ("gamma",)}


class CliError(Exception):
    """User-facing CLI failure; maps to exit code 2."""


class SizeWindowError(CliError):
    """The chosen algorithm does not take this k; --at-most-k moves on."""


def _require(args, context: str, flags) -> None:
    """The one check for flags that argparse leaves optional but `context`
    needs: CliError (exit code 2) naming the first of `flags` not given."""
    for flag in flags:
        if getattr(args, flag) is None:
            name = "a graph file" if flag == "graph" else "--" + flag
            raise CliError(f"{context} requires {name}")


def _check_problem_flags(args) -> str:
    """The Problem kind of --problem, once its flags pass: CliError (exit
    code 2) for a missing flag, --k or --r below 1, or --r on a shape."""
    kind, needs = PROBLEMS[args.problem]
    _require(args, f"--problem {args.problem}", needs)
    if kind not in VARIANTS and args.r is not None:
        raise CliError(f"--r is not valid with --problem {args.problem}")
    for flag in ("k", "r") if kind in VARIANTS else ("k",):
        if (value := getattr(args, flag)) < 1:
            raise CliError(f"--{flag} must be >= 1, got {value}")
    return kind


def _problem(args, k: int, H: Pattern | None) -> Problem:
    """The Problem that --problem and its flags ask for at size k, with H the
    --pattern file's Pattern, read once per command. A matching needs an
    even k, and a pattern exactly k vertices (else SizeWindowError, exit
    code 2), and at most MAX_PATTERN_SIZE (else PatternTooLargeError, exit
    code 2), since every isomorphism test against it, in `solve` (either
    algo) or `verify`, is factorial in its size."""
    kind = PROBLEMS[args.problem][0]
    if kind != "pattern":
        try:
            return Problem(kind, k, args.r if kind in VARIANTS else None)
        except ValueError as exc:  # the flags passed, so a k no matching has
            raise SizeWindowError(str(exc)) from None
    if H.k != k:
        raise SizeWindowError(f"pattern has {H.k} vertices but --k is {k}")
    check_pattern_size(H.k)
    return Problem(kind, k, pattern_edges=H.edges)


def format_result(result: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(result, sort_keys=True, separators=(",", ":"))
    lines = [f"answer: {'YES' if result['answer'] else 'NO'}"]
    if result["solution"] is not None:
        lines.append("solution: " + " ".join(map(str, result["solution"])))
    for key, val in sorted(result["stats"].items()):
        if val is not None:
            lines.append(f"{key}: {val}")
    return "\n".join(lines)


def _solve_once(G: Graph, args, k: int, H: Pattern | None, stats: dict) -> Solution | None:
    """`solve` on the Problem of `args` at size k, with a ValueError (a k
    outside the algorithm's or the shape's window) as a SizeWindowError."""
    problem = _problem(args, k, H)
    try:
        return solve(G, problem, args.algo, stats)
    except ValueError as exc:
        raise SizeWindowError(str(exc)) from None


def cmd_solve(args) -> int:
    kind = _check_problem_flags(args)
    if args.algo == "pipeline" and args.problem != "multidom":
        raise CliError("--algo pipeline only applies to multidom")
    G = load_graph(args.graph)
    H = load_pattern(args.pattern) if kind == "pattern" else None
    stats: dict = {}
    start = time.perf_counter()
    if args.at_most_k:
        solution = None
        for kp in range(1, min(args.k, G.n) + 1):  # no k'-set exists for k' > n
            stats.clear()  # the output reports the counters of the last size solved
            try:
                solution = _solve_once(G, args, kp, H, stats)
            except SizeWindowError:
                # sizes outside the chosen algorithm's window still count:
                # fall back to the exhaustive exact-size solve when legal
                if kind not in VARIANTS or args.r > kp:
                    continue
                solution = solve(G, Problem(kind, kp, args.r), "brute")
            if solution is not None:
                break
    else:
        solution = _solve_once(G, args, args.k, H, stats)
    elapsed = None if args.no_timing else round((time.perf_counter() - start) * 1000.0, 3)
    for key in STATS_KEYS:
        stats.setdefault(key, None)
    stats["elapsed_ms"] = elapsed
    # json.dumps writes the certificate's tuples as lists
    result = {"answer": solution is not None,
              "solution": sorted(solution.vertices) if solution else None,
              "certificate": solution.certificate if solution else None,
              "stats": stats,
              "config": {"algo": args.algo, "seed": None, "threads": args.threads}}
    print(format_result(result, args.json))
    return 0 if solution is not None else 1


def _random_ov(rng: random.Random, sizes: list[int], d: int,
               zero_prob: float = 0.5) -> OVInstance:
    sets = [[tuple(0 if rng.random() < zero_prob else 1 for _ in range(d))
             for _ in range(size)]
            for size in sizes]
    return OVInstance.from_lists(d, sets)


def _random_kpartite(rng: random.Random, sizes: list[int],
                     edge_prob: float = 0.5) -> KPartiteGraph:
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    if rng.random() < edge_prob:
                        edges.append(((i, a), (j, b)))
    return KPartiteGraph(sizes, edges)


def _ov_param(args):
    """The parameter `build_target` takes for an OV --reduction: --r
    (ov-multidom), the --pattern file's Pattern (ov-hdom), or None."""
    return (args.r if args.reduction == "ov-multidom"
            else load_pattern(args.pattern) if args.reduction == "ov-hdom" else None)


def cmd_generate(args) -> int:
    ov = args.reduction != "is-multidom"
    _require(args, f"--reduction {args.reduction}",
             (("sizes",) if ov else ()) + REDUCTION_PARAMS[args.reduction])
    for flag, value in (("--zero-prob", args.zero_prob), ("--edge-prob", args.edge_prob)):
        if not 0 <= value <= 1:  # NaN fails both comparisons
            raise CliError(f"{flag} must be a probability in [0, 1], got {value}")
    rng = random.Random(args.seed)
    if ov:
        sizes = _number_list("--sizes", args.sizes, int, "integers")
        if len(sizes) != args.k:
            raise CliError(f"--sizes must list {args.k} set sizes")
        ov_budget(args.reduction, sizes, args.d, args.r)  # before drawing the source
        source = _random_ov(rng, sizes, args.d, args.zero_prob)
        param = _ov_param(args)
        summary = f"k={args.k}  d={args.d}  sizes={sizes}"
    else:
        try:
            gamma = Fraction(args.gamma)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--gamma must be a fraction p/q, got {args.gamma!r}") from None
        part_sizes = [args.part_size] * indepset_part_count(args.k, gamma, args.d)
        indepset_groups(part_sizes, args.k, gamma, args.d)  # before drawing the source
        source = _random_kpartite(rng, part_sizes, args.edge_prob)
        param = (args.k, gamma, args.d)
        summary = f"k={args.k}  gamma={gamma}  d={args.d}  k'={len(part_sizes) // args.d}"
    out, _ = build_target(args.reduction, source, param)
    if ov:
        save_ov(source, args.out + ".source.json")
    print(f"reduction: {args.reduction}  {summary}")
    save_reduction(out, args.out + ".graph", args.out + ".json")
    print(f"target: n={out.graph.n} m={out.graph.m}  problem={out.problem.kind} "
          f"k={out.problem.k}" + (f" r={out.problem.r}" if out.problem.r else ""))
    return 0


def cmd_verify(args) -> int:
    if args.reduction:
        _require(args, f"--reduction {args.reduction}",
                 ("source",) + REDUCTION_PARAMS[args.reduction])
        ok = verify_reduction(args.reduction, load_ov(args.source), _ov_param(args))
        print("PASS" if ok else "FAIL: source and target oracles disagree")
        return 0 if ok else 1
    _require(args, "verify", ("graph", "problem", "k", "solution"))
    kind = _check_problem_flags(args)
    G = load_graph(args.graph)
    with open(args.solution) as fh:
        try:
            payload = json.load(fh)
        # RecursionError: nested too deep to decode, malformed like any other
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CliError(f"solution file {args.solution}: {exc}") from None
    vertices = payload.get("solution") if isinstance(payload, dict) else payload
    if vertices is None:
        raise CliError(f"solution file {args.solution} contains no vertex list")
    # bool is a subclass of int, but JSON true/false are not vertex ids
    if not (isinstance(vertices, list) and all(type(v) is int for v in vertices)):
        raise CliError(f"solution file {args.solution} must hold a list of integer vertex "
                       'ids, or an object with one under "solution"')
    H = load_pattern(args.pattern) if kind == "pattern" else None
    reason = diagnose_solution(G, _problem(args, args.k, H), vertices)
    print("PASS" if reason is None else f"FAIL: {reason}")
    return 0 if reason is None else 1


def _random_gnm(rng: random.Random, n: int, m: int) -> Graph:
    """G(n, m): m distinct pairs drawn by `rng.sample` from the row-major
    list of all pairs u < v. Only the m sampled indices are decoded, so
    memory is O(n + m), not O(n^2)."""
    pairs = n * (n - 1) // 2
    return Graph(n, (_pair_at(n, i) for i in rng.sample(range(pairs), min(m, pairs))))


def _pair_at(n: int, i: int) -> tuple[int, int]:
    """The i-th pair (u, v), u < v, of the row-major order (0, 1), (0, 2),
    ..., (0, n-1), (1, 2), ...: counted from the end, the pairs of the last
    t + 1 rows number (t + 1)(t + 2)/2, so the row follows from a square root."""
    back = n * (n - 1) // 2 - 1 - i  # position counted from the last pair
    t = (isqrt(8 * back + 1) - 1) // 2  # row u = n - 2 - t holds t + 1 pairs
    return n - 2 - t, n - 1 - (back - t * (t + 1) // 2)


def _number_list(flag: str, text: str, parse, noun: str) -> list:
    """The comma-separated values of `flag`, each read by `parse`: CliError
    (exit code 2) naming the flag when one does not parse."""
    try:
        return [parse(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of {noun}, got {text!r}") from None


def cmd_bench(args) -> int:
    ns = _number_list("--n", args.n, int, "integers")
    if bad := [n for n in ns if not 0 <= n <= MAX_VERTICES]:
        raise CliError(f"--n {bad[0]} is outside 0..{MAX_VERTICES}")
    densities = _number_list("--density", args.density, float, "numbers")
    if bad := [d for d in densities if not (isfinite(d) and d >= 0)]:
        raise CliError(f"--density {bad[0]} is not a finite number >= 0")
    if args.reps < 1:
        raise CliError(f"--reps must be >= 1, got {args.reps}")
    algos = args.algos.split(",")
    problem = Problem("multiple", args.k, args.r)
    for algo in algos:  # before the first draw, which can take seconds
        check_algo(problem, algo)
    if "brute" in algos:
        check_scan_budget(max(ns), problem)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    for n in ns:
        for dens in densities:
            # capped like _random_gnm's draw, so an overflowing product
            # asks for the complete graph
            m = int(round(min(dens * n, n * (n - 1) // 2)))
            for rep in range(args.reps):
                rng = random.Random(f"{args.seed}:{n}:{dens}:{rep}")
                G = _random_gnm(rng, n, m)
                for algo in algos:
                    stats: dict = {}
                    start = time.perf_counter()
                    solve(G, problem, algo, stats)
                    elapsed = "" if args.no_timing else round(
                        (time.perf_counter() - start) * 1000.0, 3)
                    fam = stats.get("candidate_family_sizes") or ["", ""]
                    writer.writerow([algo, n, G.m, args.k, args.r, rep, args.seed,
                                     fam[0], fam[1],
                                     stats.get("rows_drawn", ""), elapsed])
    sys.stdout.write(buf.getvalue())
    return 0


# subcommand -> (its help, the function it runs, its arguments as (option
# string or positional name, `add_argument` keywords)). `_build_parsers`
# adds them, and `_word_plan` reads the actions they add, so the one-pass
# reader has no option list of its own
COMMANDS = {
    "solve": ("solve a domination problem on a graph file", cmd_solve, (
        ("graph", {}),
        ("--problem", dict(required=True, choices=list(PROBLEMS))),
        ("--k", dict(type=int, required=True)),
        ("--r", dict(type=int)),
        ("--pattern", {}),
        ("--algo", dict(default="fast", choices=["fast", "brute", "pipeline"])),
        ("--at-most-k", dict(action="store_true")),
        ("--threads", dict(type=int, default=1,
                           help="accepted for compatibility and echoed in the config; "
                                "results come from one thread")),
        ("--json", dict(action="store_true")),
        ("--no-timing", dict(action="store_true",
                             help="omit wall time from output (for reproducible output)")),
    )),
    "generate": ("generate a certified reduction instance", cmd_generate, (
        ("--reduction", dict(required=True, choices=list(REDUCTION_PARAMS))),
        ("--k", dict(type=int, required=True)),
        ("--r", dict(type=int)),
        ("--d", dict(type=int, default=1)),
        ("--sizes", dict(help="comma-separated OV set sizes")),
        ("--gamma", dict(help="p/q for is-multidom")),
        ("--part-size", dict(type=int, default=2)),
        ("--edge-prob", dict(type=float, default=0.5)),
        ("--zero-prob", dict(type=float, default=0.5)),
        ("--pattern", {}),
        ("--seed", dict(type=int, default=0)),
        ("--out", dict(required=True, help="output path prefix")),
    )),
    "verify": ("verify a solution or a generated reduction", cmd_verify, (
        ("graph", dict(nargs="?")),
        ("--problem", dict(choices=list(PROBLEMS))),
        ("--k", dict(type=int)),
        ("--r", dict(type=int)),
        ("--pattern", {}),
        ("--solution", dict(help="RunResult JSON or bare vertex list")),
        ("--reduction", dict(choices=[name for name in REDUCTION_PARAMS
                                      if name.startswith("ov-")])),
        ("--source", dict(help="OV instance JSON for --reduction")),
    )),
    "bench": ("parameter sweep with join row counts", cmd_bench, (
        ("--n", dict(required=True, help="comma-separated vertex counts")),
        ("--density", dict(required=True, help="comma-separated m/n targets")),
        ("--k", dict(type=int, required=True)),
        ("--r", dict(type=int, required=True)),
        ("--algos", dict(default="fast")),
        ("--reps", dict(type=int, default=1)),
        ("--seed", dict(type=int, default=0)),
        ("--no-timing", dict(action="store_true",
                             help="omit wall time column (byte-identical reruns)")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The command line's parser, built from COMMANDS, and the `_word_plan`
    of each subcommand that has one, by name."""
    parser = argparse.ArgumentParser(prog="domlab",
                                     description="Domination-variant solvers and instance generators")
    sub = parser.add_subparsers(dest="command", required=True)
    plans = {}
    for name, (help_text, func, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        actions = [(command.add_argument(option, **keywords), keywords)
                   for option, keywords in arguments]
        command.set_defaults(func=func)
        if (plan := _word_plan(name, func, actions)) is not None:
            plans[name] = plan
    return parser, plans


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """`_build_parsers()`, built once per process for `main`. Parsing only
    reads the parser and the plans (no option has a mutable default), and
    building them costs more than most small solves."""
    return _build_parsers()


def _word_plan(name: str, func, actions) -> tuple | None:
    """What `_read_words` needs of subcommand `name`, read from the actions
    `add_argument` returned for its COMMANDS entries (their public
    attributes: dest, option_strings, type, choices, default, required,
    const) with the keywords that made them: its flags
    (action="store_true") by option string, as (dest, const); its valued
    options (plain store) by option string, and its one positional, as
    (dest, type, choices); the dests argparse requires; and the namespace
    argparse starts from, with `command` and `func`. None when an entry
    asks for another action or a `nargs`, has a string default that
    argparse would convert by its `type`, or is a second positional."""
    flags, stores, positional, required = {}, {}, None, set()
    defaults = {"command": name, "func": func}
    for action, keywords in actions:
        kind = keywords.get("action", "store")
        if (kind not in ("store", "store_true") or "nargs" in keywords
                or isinstance(action.default, str) and action.type is not None):
            return None
        defaults[action.dest] = action.default
        if action.required:
            required.add(action.dest)
        if kind == "store_true":
            flags.update(dict.fromkeys(action.option_strings, (action.dest, action.const)))
        elif action.option_strings:
            stores.update(dict.fromkeys(action.option_strings,
                                        (action.dest, action.type or str, action.choices)))
        elif positional is None:
            positional = (action.dest, action.type or str, action.choices)
        else:
            return None
    return flags, stores, positional, required, defaults


def _read_words(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, read in one
    pass over the words, when argv[0] names a subcommand that has a
    `_word_plan` (`solve`, `generate`, `bench`) and every other word can be
    placed exactly: an exact option string of a store_true flag; an exact
    option string of a plain store option followed by a value that does
    not start with "-", converted by the option's type and in its choices;
    or, once, the positional, which does not start with "-" either. None
    for any other line (an abbreviation, "--k=3", "-h", "--", a second
    positional, a failed conversion, a missing required option), which
    argparse then parses, so every error, usage and help text stays its own."""
    plan = _parser()[1].get(argv[0]) if argv else None
    if plan is None:
        return None
    flags, stores, positional, required, defaults = plan
    values, seen = dict(defaults), set()
    words = iter(argv[1:])
    for word in words:
        if word in flags:
            dest, value = flags[word]
        else:
            if word in stores:  # a missing value reads as "-", which is refused
                (dest, convert, choices), word = stores[word], next(words, "-")
            elif positional is not None and positional[0] not in seen:
                dest, convert, choices = positional
            else:
                return None
            if word[:1] == "-":
                return None
            try:
                value = convert(word)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        seen.add(dest)
    return argparse.Namespace(**values) if required <= seen else None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`: a line `_read_words` can place
    exactly (every `solve` line the benchmark workloads run) is read in one
    pass over its words, and any other goes to the parser `main` keeps."""
    return _read_words(argv) or _parser()[0].parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
