"""Command-line surface: solve, generate, verify, bench.

Exit codes: 0 = solution found (solve) or PASS (verify), 1 = no solution or
FAIL, 2 = error, 3 = budget exceeded (an oracle's size cap, such as
`verify --reduction ... --max-n`, is smaller than the instance).
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
from math import comb, isqrt

from .graph import Graph, load_graph
from .multidom import (
    VARIANTS,
    Problem,
    Solution,
    solve_multidom_bruteforce,
    solve_multidom_fast,
    solve_multidom_kminus1,
    diagnose_solution,
    KPartiteGraph,
)
from .oracles import OracleBudgetError, oracle_pattern
from .patterndom import (
    Pattern,
    load_pattern,
    solve_dominating_clique,
    solve_dominating_indepset,
    solve_dominating_induced_matching,
    solve_pattern_domination,
)
from .reductions import (
    OVInstance,
    indepset_to_multidom,
    load_ov,
    ov_to_hdom,
    ov_to_induced_matching,
    ov_to_multidom,
    save_ov,
    save_reduction,
    verify_reduction,
)

BENCH_HEADER = ["algo", "n", "m", "k", "r", "rep", "seed",
                "family_s", "family_t", "scalar_ops", "elapsed_ms"]

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


def run_result(answer: bool, solution, certificate, stats: dict, config: dict) -> dict:
    return {
        "answer": answer,
        "solution": sorted(solution) if solution is not None else None,
        "certificate": certificate,
        "stats": stats,
        "config": config,
    }


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


def _solve_once(G: Graph, args, k: int, stats: dict) -> Solution | None:
    problem, algo = args.problem, args.algo
    kind = PROBLEMS[problem][0]
    if kind in VARIANTS:
        r = args.r
        if r < 1:
            raise CliError(f"--r must be >= 1, got {r}")
        if algo == "brute":
            try:
                return solve_multidom_bruteforce(G, k, r, kind)
            except ValueError as exc:
                raise SizeWindowError(str(exc)) from None
        if algo == "pipeline":
            message = "--algo pipeline requires multidom with r = k-1"
            if kind != "multiple":
                raise CliError(message)
            if r != k - 1:
                raise SizeWindowError(message)
            return solve_multidom_kminus1(G, k)
        if not (1 <= r <= k - 1):
            raise SizeWindowError(f"fast path requires 1 <= r <= k-1, got r={r}, k={k}")
        return solve_multidom_fast(G, k, r, kind, stats=stats)
    if args.r is not None:
        raise CliError(f"--r is not valid with --problem {problem}")
    if problem == "pattern":
        H = load_pattern(args.pattern)
        if H.k != k:
            raise SizeWindowError(f"pattern has {H.k} vertices but --k is {k}")
    else:
        builders = {"dom-clique": Pattern.clique, "dom-indepset": Pattern.edgeless,
                    "dom-matching": Pattern.matching}
        try:
            H = builders[problem](k)
        except ValueError as exc:
            raise SizeWindowError(str(exc)) from None
    if algo == "brute":
        return oracle_pattern(G, H, max_n=G.n, max_k=H.k)
    if algo == "pipeline":
        raise CliError("--algo pipeline only applies to multidom")
    if problem == "dom-clique":
        return solve_dominating_clique(G, k)
    if problem == "dom-indepset":
        return solve_dominating_indepset(G, k)
    if problem == "dom-matching":
        return solve_dominating_induced_matching(G, k)
    return solve_pattern_domination(G, H)


def cmd_solve(args) -> int:
    _require(args, f"--problem {args.problem}", PROBLEMS[args.problem][1])
    G = load_graph(args.graph, fmt=args.format)
    stats: dict = {}
    start = time.perf_counter()
    if args.at_most_k:
        solution = None
        for kp in range(1, args.k + 1):
            try:
                solution = _solve_once(G, args, kp, stats)
            except SizeWindowError:
                # sizes outside the chosen algorithm's window still count:
                # fall back to the exhaustive exact-size solve when legal
                kind = PROBLEMS[args.problem][0]
                if kind in VARIANTS and 1 <= args.r <= kp <= G.n:
                    solution = solve_multidom_bruteforce(G, kp, args.r, kind)
                else:
                    continue
            if solution is not None:
                break
    else:
        solution = _solve_once(G, args, args.k, stats)
    elapsed = None if args.no_timing else round((time.perf_counter() - start) * 1000.0, 3)
    stats.setdefault("candidate_family_sizes", None)
    stats.setdefault("product_dims", None)
    stats.setdefault("scalar_op_count", None)
    stats.setdefault("rows_drawn", None)
    stats.setdefault("rows_certified", None)
    stats["elapsed_ms"] = elapsed
    config = {"algo": args.algo, "seed": None, "threads": args.threads}
    result = run_result(solution is not None,
                        list(solution.vertices) if solution else None,
                        _jsonable(solution.certificate) if solution else None,
                        stats, config)
    print(format_result(result, args.json))
    return 0 if solution is not None else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


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


def cmd_generate(args) -> int:
    sources = () if args.reduction == "is-multidom" else ("sizes",)
    _require(args, f"--reduction {args.reduction}",
             sources + REDUCTION_PARAMS[args.reduction])
    rng = random.Random(args.seed)
    if args.reduction == "is-multidom":
        gamma = Fraction(args.gamma)
        kprime = (args.k - 1) * gamma.numerator + gamma.denominator
        part_sizes = [args.part_size] * (args.d * kprime)
        source = _random_kpartite(rng, part_sizes, args.edge_prob)
        out = indepset_to_multidom(source, args.k, gamma, args.d)
        print(f"reduction: is-multidom  k={args.k}  gamma={gamma}  d={args.d}  k'={kprime}")
    else:
        sizes = [int(x) for x in args.sizes.split(",")]
        if len(sizes) != args.k:
            raise CliError(f"--sizes must list {args.k} set sizes")
        inst = _random_ov(rng, sizes, args.d, args.zero_prob)
        if args.reduction == "ov-multidom":
            out = ov_to_multidom(inst, args.r)
        elif args.reduction == "ov-hdom":
            out = ov_to_hdom(inst, load_pattern(args.pattern))
        else:
            try:
                out = ov_to_induced_matching(inst)
            except ValueError as exc:
                raise CliError(str(exc)) from None
        save_ov(inst, args.out + ".source.json")
        print(f"reduction: {args.reduction}  k={args.k}  d={args.d}  sizes={sizes}")
    save_reduction(out, args.out + ".graph", args.out + ".json")
    print(f"target: n={out.graph.n} m={out.graph.m}  problem={out.problem.kind} "
          f"k={out.problem.k}" + (f" r={out.problem.r}" if out.problem.r else ""))
    return 0


def cmd_verify(args) -> int:
    if args.reduction:
        _require(args, f"--reduction {args.reduction}",
                 ("source",) + REDUCTION_PARAMS[args.reduction])
        inst = load_ov(args.source)
        param = args.r if args.reduction == "ov-multidom" else (
            load_pattern(args.pattern) if args.reduction == "ov-hdom" else None)
        ok = verify_reduction(args.reduction, inst, param, max_n=args.max_n)
        print("PASS" if ok else "FAIL: source and target oracles disagree")
        return 0 if ok else 1
    _require(args, "verify", ("graph", "problem", "k", "solution"))
    kind, needs = PROBLEMS[args.problem]
    _require(args, f"--problem {args.problem}", needs)
    G = load_graph(args.graph, fmt=args.format)
    with open(args.solution) as fh:
        payload = json.load(fh)
    vertices = payload["solution"] if isinstance(payload, dict) else payload
    if vertices is None:
        raise CliError("solution file contains no vertex list")
    if kind in VARIANTS:
        problem = Problem(kind, args.k, args.r)
    elif kind == "pattern":
        problem = Problem(kind, args.k, pattern_edges=load_pattern(args.pattern).edges)
    else:
        problem = Problem(kind, args.k)
    reason = diagnose_solution(G, problem, vertices)
    if reason is None:
        print("PASS")
        return 0
    print(f"FAIL: {reason}")
    return 1


def closed_form_family_size(n: int, n_heavy: int, size: int, quota: int) -> int:
    """Number of size-subsets with at least `quota` heavy vertices."""
    return sum(comb(n_heavy, j) * comb(n - n_heavy, size - j)
               for j in range(quota, size + 1))


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


def cmd_bench(args) -> int:
    ns = [int(x) for x in args.n.split(",")]
    densities = [float(x) for x in args.density.split(",")]
    algos = args.algos.split(",")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    for n in ns:
        for dens in densities:
            m = int(round(dens * n))
            for rep in range(args.reps):
                rng = random.Random(f"{args.seed}:{n}:{dens}:{rep}")
                G = _random_gnm(rng, n, m)
                for algo in algos:
                    stats: dict = {}
                    start = time.perf_counter()
                    if algo == "fast":
                        solve_multidom_fast(G, args.k, args.r, "multiple", stats=stats)
                    elif algo == "brute":
                        solve_multidom_bruteforce(G, args.k, args.r, "multiple")
                    else:
                        raise CliError(f"unknown bench algo {algo!r}")
                    elapsed = "" if args.no_timing else round(
                        (time.perf_counter() - start) * 1000.0, 3)
                    fam = stats.get("candidate_family_sizes") or ["", ""]
                    writer.writerow([algo, n, G.m, args.k, args.r, rep, args.seed,
                                     fam[0], fam[1],
                                     stats.get("scalar_op_count", ""), elapsed])
    sys.stdout.write(buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="domlab",
                                     description="Domination-variant solvers and instance generators")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a domination problem on a graph file")
    ps.add_argument("graph")
    ps.add_argument("--problem", required=True, choices=list(PROBLEMS))
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--r", type=int)
    ps.add_argument("--pattern")
    ps.add_argument("--algo", default="fast", choices=["fast", "brute", "pipeline"])
    ps.add_argument("--at-most-k", action="store_true")
    ps.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and echoed in the config; "
                         "results come from one thread")
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--format", default="edgelist", choices=["edgelist", "dimacs"])
    ps.add_argument("--no-timing", action="store_true",
                    help="omit wall time from output (for reproducible output)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="generate a certified reduction instance")
    pg.add_argument("--reduction", required=True, choices=list(REDUCTION_PARAMS))
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--r", type=int)
    pg.add_argument("--d", type=int, default=1)
    pg.add_argument("--sizes", help="comma-separated OV set sizes")
    pg.add_argument("--gamma", help="p/q for is-multidom")
    pg.add_argument("--part-size", type=int, default=2)
    pg.add_argument("--edge-prob", type=float, default=0.5)
    pg.add_argument("--zero-prob", type=float, default=0.5)
    pg.add_argument("--pattern")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True, help="output path prefix")
    pg.set_defaults(func=cmd_generate)

    pv = sub.add_parser("verify", help="verify a solution or a generated reduction")
    pv.add_argument("graph", nargs="?")
    pv.add_argument("--problem", choices=list(PROBLEMS))
    pv.add_argument("--k", type=int)
    pv.add_argument("--r", type=int)
    pv.add_argument("--pattern")
    pv.add_argument("--solution", help="RunResult JSON or bare vertex list")
    pv.add_argument("--reduction",
                    choices=["ov-multidom", "ov-hdom", "ov-matching"])
    pv.add_argument("--source", help="OV instance JSON for --reduction")
    pv.add_argument("--max-n", type=int, default=60)
    pv.add_argument("--format", default="edgelist", choices=["edgelist", "dimacs"])
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="parameter sweep with op counts")
    pb.add_argument("--n", required=True, help="comma-separated vertex counts")
    pb.add_argument("--density", required=True, help="comma-separated m/n targets")
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--r", type=int, required=True)
    pb.add_argument("--algos", default="fast")
    pb.add_argument("--reps", type=int, default=1)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--no-timing", action="store_true",
                    help="omit wall time column (byte-identical reruns)")
    pb.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process. parse_args only reads
    it (no option has a mutable default), and building one costs more than
    most small solves."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
