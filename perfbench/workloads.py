"""Seeded instances for the three workloads, each with a certified answer.

No expected answer comes from a solver under test:

- generator instances take theirs from the source brute force
  (`solve_ov_bruteforce`, or `oracle_unbalanced_clique` on the complement of
  an independent-set source);
- sparse NO instances take theirs from a degree argument, checked on the
  benchmark's own degree counts next to the generator;
- planted instances are YES by construction.

Every call into domlab goes through a module attribute at call time, so the
span recorder in `spans.py` sees it when it has wrapped that attribute.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from domlab import cli, graph, multidom, oracles, patterndom, reductions

OV_K = 4  # ov-multidom-no: every instance is k = 4


@dataclass
class Instance:
    """One timed unit of work.

    `run(threads)` is the timed region: it takes the prepared graph input
    (edge-list bytes or a file) and returns a raw result. `decode(raw)` runs
    outside timing and turns that into a vertex tuple or None. `make_graph()`
    gives the instance's graph for checking a YES answer; it is not timed.
    """

    iid: int
    group: str
    expected: bool
    problem: multidom.Problem
    make_graph: Callable[[], graph.Graph]
    run: Callable[[int], object]
    decode: Callable[[object], tuple[int, ...] | None]


def _rng(workload: str, seed: int, block: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}:{slot}")


def _vertices(sol) -> tuple[int, ...] | None:
    return None if sol is None else tuple(sol.vertices)


def _edge_bytes(n: int, edges: list[tuple[int, int]]) -> bytes:
    return ("%d %d\n" % (n, len(edges)) + "".join("%d %d\n" % e for e in edges)).encode()


def _bytes_solver(data: bytes, solve: Callable) -> Callable[[int], object]:
    def run(threads: int = 1):
        return solve(graph.load_graph(data), threads)
    return run


# --- orthogonal-vector and independent-set sources ---------------------------

def _random_ov(rng: random.Random, sizes: list[int], d: int, zero_prob: float):
    return reductions.OVInstance.from_lists(
        d, [[tuple(0 if rng.random() < zero_prob else 1 for _ in range(d))
             for _ in range(size)] for size in sizes])


def _draw_ov(rng, sizes, d, zero_prob, r, want: bool):
    """Draw OV sources until the brute-force answer at threshold r is `want`."""
    while True:
        inst = _random_ov(rng, sizes, d, zero_prob)
        if reductions.solve_ov_bruteforce(inst, r) == want:
            return inst


def _random_kpartite(rng, sizes, edge_prob):
    edges = [((i, a), (j, b))
             for i in range(len(sizes)) for j in range(i + 1, len(sizes))
             for a in range(sizes[i]) for b in range(sizes[j])
             if rng.random() < edge_prob]
    return multidom.KPartiteGraph(sizes, edges)


def _complement(kp):
    edges = [((i, a), (j, b))
             for i in range(kp.k) for j in range(i + 1, kp.k)
             for a in range(kp.sizes[i]) for b in range(kp.sizes[j])
             if not kp.has_edge(i, a, j, b)]
    return multidom.KPartiteGraph(kp.sizes, edges)


def _draw_indepset_source(rng, parts, part_size, edge_prob, want: bool):
    """Draw multipartite sources until one has an independent transversal
    (a transversal clique of the complement) exactly when `want`."""
    while True:
        source = _random_kpartite(rng, [part_size] * parts, edge_prob)
        if (oracles.oracle_unbalanced_clique(_complement(source)) is not None) == want:
            return source


# --- ov-multidom-no -----------------------------------------------------------

# (answer, r, set sizes, d, zero probability). NO draws use a low zero
# probability, so the pair join scans every pair; YES draws a high one, so
# solutions are many, the first hit comes early and YES time is mostly the
# level and mask set-up. The mix keeps every median inside one group rather
# than on the edge between two: 2 YES r=2 (fastest), 4 NO r=2, 1 NO r=3
# (slowest), so the NO r=2 group holds the overall and the NO median.
_NO2 = (False, 2, [2, 2, 3, 3], 6, 0.3)
_NO3 = (False, 3, [3, 3, 4, 4], 12, 0.3)
_YES2 = (True, 2, [2, 3, 3, 3], 6, 0.5)
OV_BLOCK = [_NO2, _YES2, _NO3, _NO2, _NO2, _YES2, _NO2]


def _ov_multidom_block(seed: int, block: int, first_iid: int, _work: Path) -> list[Instance]:
    out = []
    for slot, (want, r, sizes, d, zero_prob) in enumerate(OV_BLOCK):
        rng = _rng("ov-multidom-no", seed, block, slot)
        gen = reductions.ov_to_multidom(_draw_ov(rng, sizes, d, zero_prob, r, want), r)

        def solve(G, threads, r=r):
            return multidom.solve_multidom_fast(G, OV_K, r, "multiple", threads=threads)

        out.append(Instance(first_iid + slot, f"{'yes' if want else 'no'}-r{r}", want,
                            gen.problem, lambda g=gen.graph: g,
                            _bytes_solver(graph.save_graph(gen.graph).encode(), solve),
                            _vertices))
    return out


# --- certified-mix --------------------------------------------------------------

def _cli_solver(argv: list[str]) -> Callable[[int], object]:
    def run(threads: int = 1):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--threads", str(threads)])
            except SystemExit as exc:  # argparse rejects a bad command line this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return run


def _cli_decode(raw) -> tuple[int, ...] | None:
    code, out, err = raw
    if code not in (0, 1):
        raise RuntimeError(f"domlab solve exited {code}: {err.strip()}")
    result = json.loads(out)
    if result["answer"] != (code == 0):
        raise RuntimeError(f"exit code {code} disagrees with answer {result['answer']}")
    return tuple(result["solution"]) if result["answer"] else None


def _pattern_file(work: Path, name: str, H) -> str:
    path = work / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps({"k": H.k, "edges": sorted(H.edges)}))
    return str(path)


# (label, generator, k, answer). ov-hdom instances run as --problem pattern
# (path or clique file) or as --problem dom-clique. As in OV_BLOCK, group
# counts keep each median inside one group: the eight ov-hdom pattern solves
# sit between as many cheaper and dearer solves and hold the overall and the
# YES median; the six is-multidom NO solves hold the NO median. The last four
# slots add NO samples and keep the cheaper and dearer sides balanced.
_HDOM_PATH = ("hdom-path", "ov-hdom-path", 4, True)
_HDOM_CLIQUE = ("hdom-clique-pattern", "ov-hdom-clique", 4, True)
_IS_NO = ("is-pipeline-no", "is-multidom", 4, False)
_M6 = ("matching-k6", "ov-matching", 6, True)
_OV = ("ov-multidom", "ov-multidom", 4, True)
MIX_BLOCK = [
    ("matching-k4", "ov-matching", 4, True), _HDOM_PATH, _IS_NO, _HDOM_CLIQUE, _M6,
    ("is-pipeline-yes", "is-multidom", 4, True), _HDOM_PATH, _OV, _HDOM_CLIQUE, _IS_NO,
    ("hdom-dom-clique", "ov-hdom-clique", 4, True), _HDOM_PATH, _M6, _HDOM_CLIQUE, _IS_NO,
    _HDOM_PATH, _OV, _HDOM_CLIQUE, _M6, _IS_NO,
    _IS_NO, _M6, _IS_NO, _M6,
]
MIX_K5_NO_EVERY = 2  # one ov-hdom k = 5 NO instance per this many blocks


def _mix_slots(block: int):
    slots = list(MIX_BLOCK)
    if block % MIX_K5_NO_EVERY == 0:
        slots.append(("hdom-k5-no", "ov-hdom-path", 5, False))
    return slots


def _certified_mix_block(seed: int, block: int, first_iid: int, work: Path) -> list[Instance]:
    out = []
    for slot, (label, gen_name, k, want) in enumerate(_mix_slots(block)):
        rng = _rng("certified-mix", seed, block, slot)
        iid = first_iid + slot
        path = work / f"i{iid}.graph"
        argv = ["solve", str(path), "--k", str(k), "--json", "--no-timing"]
        if gen_name == "ov-multidom":
            gen = reductions.ov_to_multidom(_draw_ov(rng, [4] * k, 8, 0.5, 2, want), 2)
            argv += ["--problem", "multidom", "--r", "2"]
            problem = gen.problem
        elif gen_name == "is-multidom":
            # k = 4, gamma = 1/2 needs d*k' = (k-1)*1 + 2 = 5 source parts;
            # NO sources use parts of 2, which keeps the fallback solve short
            source = _draw_indepset_source(rng, 5, 3 if want else 2, 0.5, want)
            gen = reductions.indepset_to_multidom(source, k, Fraction(1, 2))
            argv += ["--problem", "multidom", "--r", str(k - 1), "--algo", "pipeline"]
            problem = gen.problem
        elif gen_name.startswith("ov-hdom"):
            H = patterndom.Pattern.path(k) if gen_name == "ov-hdom-path" else patterndom.Pattern.clique(k)
            sizes = [2] * k if k == 5 else [4] * k
            gen = reductions.ov_to_hdom(_draw_ov(rng, sizes, 6, 0.5 if want else 0.3, 1, want), H)
            if label == "hdom-dom-clique":
                argv += ["--problem", "dom-clique"]
                problem = multidom.Problem("clique", k)
            else:
                argv += ["--problem", "pattern",
                         "--pattern", _pattern_file(work, f"{gen_name}-{k}", H)]
                problem = gen.problem
        else:
            gen = reductions.ov_to_induced_matching(_draw_ov(rng, [2] * k, 4, 0.5, 1, want))
            argv += ["--problem", "dom-matching"]
            problem = gen.problem
        graph.save_graph(gen.graph, path)
        out.append(Instance(iid, label, want, problem, lambda g=gen.graph: g,
                            _cli_solver(argv), _cli_decode))
    return out


# --- sparse-wide -------------------------------------------------------------

def _random_edges(rng, n: int, m: int, allowed=None) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (allowed is None or (allowed(u) and allowed(v))):
            edges.add((min(u, v), max(u, v)))
    return edges


def _closed_degrees(n: int, edges) -> list[int]:
    deg = [1] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def sparse_no_graph(rng, n: int, k: int) -> list[tuple[int, int]]:
    """G(n, 3n) certified to have no dominating k-set, k in {1, 2}.

    k = 1: a dominating vertex needs |N[v]| = n, so max |N[v]| < n means NO.
    k = 2: a dominating pair needs |N[u]| + |N[v]| >= n, so the two largest
    |N[v]| summing to less than n means NO for every pair, whatever its
    induced shape (clique or independent set).
    """
    while True:
        edges = sorted(_random_edges(rng, n, 3 * n))
        top = sorted(_closed_degrees(n, edges), reverse=True)
        if (top[0] if k == 1 else top[0] + top[1]) < n:
            return edges


def planted_hub_graph(rng, n: int, hubs: int, r: int) -> list[tuple[int, int]]:
    """Every non-hub is joined to exactly r random hubs, plus about n random
    non-hub edges: the hubs form an r-multiple dominating set (YES)."""
    hub_ids = sorted(rng.sample(range(n), hubs))
    is_hub = set(hub_ids)
    edges = _random_edges(rng, n, n, allowed=lambda v: v not in is_hub)
    for v in range(n):
        if v not in is_hub:
            edges.update((min(v, h), max(v, h)) for h in rng.sample(hub_ids, r))
    return sorted(edges)


def planted_indep_hub_graph(rng, n: int, hubs: int) -> list[tuple[int, int]]:
    """Pairwise non-adjacent hubs; every non-hub is joined to one or two hubs,
    plus about n random non-hub edges: the hubs form a dominating independent
    set (YES)."""
    hub_ids = sorted(rng.sample(range(n), hubs))
    is_hub = set(hub_ids)
    edges = _random_edges(rng, n, n, allowed=lambda v: v not in is_hub)
    for v in range(n):
        if v not in is_hub:
            edges.update((min(v, h), max(v, h)) for h in rng.sample(hub_ids, rng.choice((1, 2))))
    return sorted(edges)


SPARSE_N_PAIR = 600      # (a): G(n, 3n) pair listing, NO
SPARSE_N_HUB = 100       # (b): planted hubs, multidom k=5 r=3, YES
SPARSE_N_INDEP = 1200    # (c): planted independent hubs, dom-indepset k=3, YES
SPARSE_N_LOAD = 10_000   # (d): load at n = 10^4, dom-clique k=1, NO


def _sparse_wide_block(seed: int, block: int, first_iid: int, _work: Path) -> list[Instance]:
    out = []

    def add(group, expected, problem, n, edges, solve):
        out.append(Instance(first_iid + len(out), group, expected, problem,
                            lambda: graph.Graph(n, edges),
                            _bytes_solver(_edge_bytes(n, edges), solve), _vertices))

    Problem = multidom.Problem
    # (a) and (c) cost about the same and hold the overall median; (a) also
    # holds the NO median and (c) the YES median
    rng = iter(_rng("sparse-wide", seed, block, slot) for slot in range(7))
    n = SPARSE_N_PAIR
    for group, kind, solver in (("a-clique", "clique", "solve_dominating_clique"),
                                ("a-indepset", "indepset", "solve_dominating_indepset"),
                                ("a-clique", "clique", "solve_dominating_clique")):
        add(group, False, Problem(kind, 2), n, sparse_no_graph(next(rng), n, 2),
            lambda G, t, solver=solver: getattr(patterndom, solver)(G, 2))
    n = SPARSE_N_HUB
    add("b-hubs", True, Problem("multiple", 5, 3), n, planted_hub_graph(next(rng), n, 5, 3),
        lambda G, t: multidom.solve_multidom_fast(G, 5, 3, "multiple", threads=t))
    n = SPARSE_N_INDEP
    for _ in range(2):
        add("c-indep-hubs", True, Problem("indepset", 3), n, planted_indep_hub_graph(next(rng), n, 3),
            lambda G, t: patterndom.solve_dominating_indepset(G, 3))
    n = SPARSE_N_LOAD
    add("d-load", False, Problem("clique", 1), n,
        sparse_no_graph(next(rng), n, 1),
        lambda G, t: patterndom.solve_dominating_clique(G, 1))
    return out


class Workload(NamedTuple):
    block: Callable[[int, int, int, Path], list[Instance]]
    block_s: float    # one pass over a block on the reference host (2-core
                      # x86-64 VM, Python 3.11); only sizes a run from --seconds
    min_blocks: int   # fewest blocks that give more than ten instances
    passes: int       # timed passes per untraced run


WORKLOADS = {
    "ov-multidom-no": Workload(_ov_multidom_block, 1.2, 2, 4),
    "certified-mix": Workload(_certified_mix_block, 2.1, 1, 3),
    "sparse-wide": Workload(_sparse_wide_block, 1.6, 2, 3),
}


def build(workload: str, seed: int, blocks: int, work: Path) -> list[Instance]:
    """All instances of one run, in solve order, with certified answers."""
    instances: list[Instance] = []
    for block in range(blocks):
        instances.extend(WORKLOADS[workload].block(seed, block, len(instances), work))
    return instances
