"""Write tests/golden/solves.json: the answers, first hits and certificates
of a fixed set of `domlab.solve` calls, and their work counters.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py            # everything
    PYTHONPATH=src python tests/golden/make_golden.py --counters # counters only

An instance is stored as its recipe (generator, seed, parameters), never as
a graph. `tests/test_golden.py` rebuilds every instance, runs every solve
again and compares. The "solves" section (answer, solution, certificate)
must never change. The "counters" section holds the `stats` each solve
fills; a change that moves them reruns this script with `--counters`,
which rewrites that section only, and refuses if any answer moved.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from domlab import Graph, Pattern, Problem, solve
from domlab.cli import _random_gnm, _random_kpartite, _random_ov
from domlab.multidom import STATS_KEYS
from domlab.reductions import (indepset_to_multidom, ov_to_hdom, ov_to_induced_matching,
                               ov_to_multidom)

GOLDEN = Path(__file__).with_name("solves.json")
COUNTER_KEYS = list(STATS_KEYS)
MAX_K = 6
# a brute-force solve runs only when its scan is at most this many subsets
# (times k! orderings for a shape), far below the CLI's 10^6, so the
# instances solved for every problem recompute in under a second
BRUTE_SCAN = 4_000
# a pattern solve lists the dominating k-sets; it runs only up to this n
PATTERN_MAX_N = 15
# a matching solve at k = 6 joins C(m, 2) edge pairs with m edges; it runs
# only up to this m
MATCHING6_MAX_M = 100
PATTERNS = {"path": Pattern.path, "star": lambda k: Pattern.from_edges(k, [(0, j) for j in range(1, k)])}

# name -> recipe; every generator draws from random.Random(seed)
INSTANCES = {
    "gnm-4": {"generator": "gnm", "seed": 1, "n": 4, "m": 4},
    "gnm-5": {"generator": "gnm", "seed": 2, "n": 5, "m": 6},
    "gnm-9": {"generator": "gnm", "seed": 3, "n": 9, "m": 16},
    "gnm-12": {"generator": "gnm", "seed": 4, "n": 12, "m": 30},
    "gnm-40": {"generator": "gnm", "seed": 5, "n": 40, "m": 240},
    "hub-10": {"generator": "planted-hub", "seed": 1, "n": 10, "hubs": 3, "r": 2},
    "hub-14": {"generator": "planted-hub", "seed": 2, "n": 14, "hubs": 4, "r": 3},
    "hub-30": {"generator": "planted-hub", "seed": 3, "n": 30, "hubs": 4, "r": 2},
    "hub-60": {"generator": "planted-hub", "seed": 4, "n": 60, "hubs": 5, "r": 3},
    "hub-12-top": {"generator": "planted-hub", "seed": 6, "n": 12, "hubs": 4, "r": 2,
                   "reverse_ids": True},
    "hub-16-top": {"generator": "planted-hub", "seed": 8, "n": 16, "hubs": 1, "r": 1,
                   "reverse_ids": True},
    "ov-multidom-3": {"generator": "ov-multidom", "seed": 1, "sizes": [2, 2, 2], "d": 3,
                      "zero_prob": 0.5, "r": 1},
    "ov-multidom-4": {"generator": "ov-multidom", "seed": 2, "sizes": [2, 2, 2, 2], "d": 4,
                      "zero_prob": 0.4, "r": 2},
    "ov-hdom-3": {"generator": "ov-hdom", "seed": 3, "sizes": [1, 2, 2], "d": 3,
                  "zero_prob": 0.5, "pattern": "path"},
    "ov-matching-4": {"generator": "ov-matching", "seed": 4, "sizes": [1, 1, 1, 1], "d": 2,
                      "zero_prob": 0.5},
    "is-multidom-3": {"generator": "is-multidom", "seed": 5, "k": 3, "gamma": "1/2", "d": 1,
                      "part_size": 2, "edge_prob": 0.5},
}


def b_hubs_recipe(seed: int, block: int) -> dict:
    """The sparse-wide benchmark's b-hubs graph of (seed, block), drawn from
    the rng that benchmark seeds for the block's slot 3."""
    return {"generator": "planted-hub", "seed": f"sparse-wide:{seed}:{block}:3", "n": 100,
            "hubs": 5, "r": 3, "only": ["multiple", 5, 3]}


# The near-column join at (k, r) = (5, 3), the one problem a recipe with
# "only" is solved for: the 50 b-hubs graphs (about ten columns, so the
# join reads their short sets) and 30 dense G(80, 2500) (every vertex
# heavy; the cut passes n / r columns, so the join takes the families)
B_HUBS = {f"b-hubs-{seed}-{block}": b_hubs_recipe(seed, block)
          for seed in range(1, 11) for block in range(5)}
DENSE_NEAR = {f"dense-near-{seed}": {"generator": "gnm", "seed": f"dense-near:{seed}", "n": 80,
                                     "m": 2500, "only": ["multiple", 5, 3]}
              for seed in range(1, 31)}
INSTANCES.update(B_HUBS)
INSTANCES.update(DENSE_NEAR)


def _random_edges(rng: random.Random, n: int, m: int, allowed=None) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (allowed is None or (allowed(u) and allowed(v))):
            edges.add((min(u, v), max(u, v)))
    return edges


def planted_hub_graph(rng: random.Random, n: int, hubs: int, r: int) -> list[tuple[int, int]]:
    """A copy of the benchmark's builder: every non-hub is joined to exactly
    r random hubs, plus n random non-hub edges, so the hubs form an
    r-multiple dominating set."""
    hub_ids = sorted(rng.sample(range(n), hubs))
    is_hub = set(hub_ids)
    edges = _random_edges(rng, n, n, allowed=lambda v: v not in is_hub)
    for v in range(n):
        if v not in is_hub:
            edges.update((min(v, h), max(v, h)) for h in rng.sample(hub_ids, r))
    return sorted(edges)


def build_graph(recipe: dict) -> Graph:
    """The graph a recipe of INSTANCES describes."""
    gen, rng = recipe["generator"], random.Random(recipe["seed"])
    if gen == "gnm":
        return _random_gnm(rng, recipe["n"], recipe["m"])
    if gen == "planted-hub":
        n = recipe["n"]
        edges = planted_hub_graph(rng, n, recipe["hubs"], recipe["r"])
        if recipe.get("reverse_ids"):
            # vertex v becomes n - 1 - v: the hubs move to the high ids,
            # which the last rows and columns of a join hold
            edges = [(n - 1 - v, n - 1 - u) for u, v in edges]
        return Graph(n, edges)
    if gen == "is-multidom":
        gamma = Fraction(recipe["gamma"])
        parts = recipe["d"] * ((recipe["k"] - 1) * gamma.numerator + gamma.denominator)
        source = _random_kpartite(rng, [recipe["part_size"]] * parts, recipe["edge_prob"])
        return indepset_to_multidom(source, recipe["k"], gamma, recipe["d"]).graph
    inst = _random_ov(rng, recipe["sizes"], recipe["d"], recipe["zero_prob"])
    if gen == "ov-multidom":
        return ov_to_multidom(inst, recipe["r"]).graph
    if gen == "ov-hdom":
        return ov_to_hdom(inst, PATTERNS[recipe["pattern"]](len(recipe["sizes"]))).graph
    if gen == "ov-matching":
        return ov_to_induced_matching(inst).graph
    raise ValueError(f"unknown generator {gen!r}")


def problems(G: Graph):
    """(Problem, algo) for every kind, k <= MAX_K and every r, with "brute"
    where its scan stays within BRUTE_SCAN and "pipeline" at r = k-1."""
    n = G.n
    for k in range(1, MAX_K + 1):
        scan = comb(n, k)
        for kind in ("multiple", "tuple"):
            for r in range(1, k + 1):
                problem = Problem(kind, k, r)
                if r < k:
                    yield problem, "fast"
                if kind == "multiple" and r == k - 1:
                    yield problem, "pipeline"
                if scan <= BRUTE_SCAN:
                    yield problem, "brute"
        shapes = [Problem("clique", k), Problem("indepset", k)]
        if k % 2 == 0 and (k < 6 or G.m <= MATCHING6_MAX_M):
            shapes.append(Problem("matching", k))
        if n <= PATTERN_MAX_N and k >= 3:
            shapes += [Problem("pattern", k, pattern_edges=build(k).edges) for build in PATTERNS.values()]
        for problem in shapes:
            yield problem, "fast"
            if scan * factorial(k) <= BRUTE_SCAN:
                yield problem, "brute"


def problem_json(problem: Problem) -> list:
    """[kind, k], then r or the sorted pattern edges when the Problem has them."""
    out: list = [problem.kind, problem.k]
    if problem.r is not None:
        out.append(problem.r)
    if problem.pattern_edges is not None:
        out.append(sorted(map(list, problem.pattern_edges)))
    return out


def problem_of(encoded: list) -> Problem:
    kind, k, *rest = encoded
    if kind == "pattern":
        return Problem(kind, k, pattern_edges=frozenset(map(tuple, rest[0])))
    return Problem(kind, k, *rest)


def run(G: Graph, problem: Problem, algo: str) -> tuple[dict, list | None]:
    """The golden entry of one solve, as JSON values (tuples become lists),
    and its counters: the values of the `stats` it fills, in COUNTER_KEYS
    order, or None when it fills none."""
    stats: dict = {}
    sol = solve(G, problem, algo, stats)
    entry = {"problem": problem_json(problem), "algo": algo, "answer": sol is not None,
             "solution": None if sol is None else list(sol.vertices),
             "certificate": None if sol is None else sol.certificate}
    if set(stats) - set(COUNTER_KEYS):
        raise ValueError(f"unknown counters {sorted(set(stats) - set(COUNTER_KEYS))}")
    counters = [stats.get(key) for key in COUNTER_KEYS] if stats else None
    return json.loads(json.dumps(entry)), counters


def compute(entries: dict[str, list[dict]] | None = None) -> tuple[dict, dict]:
    """The solves and counters, by instance name: of the given golden
    `entries` when given, else of every `problems` entry of each recipe of
    INSTANCES, or of its "only" problem, solved by "fast"."""
    solves: dict[str, list[dict]] = {}
    counters: dict[str, list] = {}
    for name, recipe in INSTANCES.items():
        G = build_graph(recipe)
        if entries is not None:
            todo = [(problem_of(e["problem"]), e["algo"]) for e in entries[name]]
        elif "only" in recipe:
            todo = [(problem_of(recipe["only"]), "fast")]
        else:
            todo = problems(G)
        results = [run(G, problem, algo) for problem, algo in todo]
        solves[name] = [entry for entry, _ in results]
        counters[name] = [row for _, row in results]
    return solves, counters


def dump(solves: dict, counters: dict) -> str:
    """The golden file, one solve or counter row per line, so a diff names
    the solves that moved."""
    def section(by_name: dict) -> str:
        return ",\n".join(
            f"    {json.dumps(name)}: [\n"
            + ",\n".join("      " + json.dumps(x, sort_keys=True, separators=(",", ":")) for x in rows)
            + "\n    ]" for name, rows in by_name.items())
    instances = ",\n".join(f"    {json.dumps(name)}: {json.dumps(recipe, sort_keys=True)}"
                           for name, recipe in INSTANCES.items())
    return ("{\n  \"instances\": {\n" + instances + "\n  },\n"
            + "  \"counter_keys\": " + json.dumps(COUNTER_KEYS) + ",\n"
            + "  \"solves\": {\n" + section(solves) + "\n  },\n"
            + "  \"counters\": {\n" + section(counters) + "\n  }\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--counters", action="store_true",
                        help="rewrite the counters only; fail if an answer moved")
    args = parser.parse_args(argv)
    if args.counters:
        old = json.loads(GOLDEN.read_text())
        solves, counters = compute(old["solves"])
        if old["instances"] != INSTANCES or old["solves"] != solves:
            print("answers differ from the golden file; not rewritten", file=sys.stderr)
            return 1
    else:
        solves, counters = compute()
    GOLDEN.write_text(dump(solves, counters))
    print(f"{GOLDEN}: {sum(map(len, solves.values()))} solves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
