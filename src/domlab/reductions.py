"""Certified instance generators.

Each generator turns a small source instance (orthogonal-vector sets or a
multipartite independent-set instance) into a domination instance with the
same YES/NO answer. `build_target` runs a generator by its id, and
`verify_reduction` checks its pair with brute-force oracles on both sides.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .graph import MAX_VERTICES, Graph, save_graph, write_text
from .multidom import KPartiteGraph, Problem, _is_int, _range_cliques, check_r_window
from . import oracles
from .oracles import OracleBudgetError, oracle_unbalanced_clique
from .patterndom import Pattern, _load_object, solve

Vector = tuple[int, ...]


@dataclass(frozen=True)
class OVInstance:
    """k sets of d-dimensional binary vectors."""

    d: int
    sets: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need at least 2 sets, got {self.k}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        for i, vectors in enumerate(self.sets):
            if not vectors:
                raise ValueError(f"set {i} is empty")
            for vec in vectors:
                if len(vec) != self.d:
                    raise ValueError(f"vector {vec} in set {i} is not {self.d}-dimensional")
                if not all(map((0, 1).__contains__, vec)):
                    raise ValueError(f"non-binary entry in vector {vec}")

    @property
    def k(self) -> int:
        return len(self.sets)

    @classmethod
    def from_lists(cls, d: int, sets: Iterable[Iterable[Sequence[int]]]) -> "OVInstance":
        return cls(d, tuple(tuple(tuple(v) for v in s) for s in sets))


def load_ov(source) -> OVInstance:
    """Parse {"k": int, "d": int, "sets": [["0101", ...], ...]} with
    bit-string vectors (or lists of 0/1 integers) from a path, JSON string,
    or stream.

    Malformed input raises ValueError naming the source and the missing or
    ill-typed field."""
    data, where = _load_object(source, "OV source", ("k", "d", "sets"),
                               '{"k": int, "d": int, "sets": [["0101", ...], ...]}')
    for field in ("k", "d"):
        if not _is_int(data[field]):
            raise ValueError(f"{where}: field {field!r} must be an integer, "
                             f"got {type(data[field]).__name__}")
    if not isinstance(data["sets"], list):
        raise ValueError(f"{where}: field 'sets' must be a list of vector lists, "
                         f"got {type(data['sets']).__name__}")
    sets = []
    for i, vectors in enumerate(data["sets"]):
        if not isinstance(vectors, list):
            raise ValueError(f"{where}: sets[{i}] must be a list of vectors, "
                             f"got {type(vectors).__name__}")
        for j, vec in enumerate(vectors):
            if not (isinstance(vec, str) and set(vec) <= {"0", "1"}
                    or isinstance(vec, list) and all(_is_int(x) and x in (0, 1) for x in vec)):
                raise ValueError(f"{where}: sets[{i}][{j}] is not a 0/1 vector: {vec!r:.40}")
        sets.append([tuple(map(int, vec)) for vec in vectors])
    try:
        inst = OVInstance.from_lists(data["d"], sets)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if inst.k != data["k"]:
        raise ValueError(f"{where}: declared k={data['k']} but found {inst.k} sets")
    return inst


def save_ov(inst: OVInstance, target=None) -> str:
    """The instance as JSON text, which `load_ov` reads back. Returns the
    text; writes to `target` (path or stream) when given, a path in place
    (`graph.write_text`)."""
    text = json.dumps(
        {"k": inst.k, "d": inst.d,
         "sets": [["".join(map(str, v)) for v in s] for s in inst.sets]},
        sort_keys=True)
    if target is not None:
        write_text(target, text)
    return text


@dataclass(frozen=True)
class ReductionOutput:
    """Generated target graph plus provenance: the problem it encodes, the
    generator's parameters, and a per-vertex role map back to source objects."""

    graph: Graph
    problem: Problem
    params: dict
    id_map: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.id_map) != self.graph.n:
            raise ValueError("id map must cover every target vertex")


def solve_ov_bruteforce(inst: OVInstance, r: int) -> bool:
    """True iff some transversal a_1,...,a_k has >= r zeros in every coordinate.
    OracleBudgetError when the full product has more than MAX_TRANSVERSALS.

    A depth-first search over each set's distinct zero masks, counted with
    saturation: levels[c] holds the coordinates with >= c zeros so far.
    The k - i - 1 sets after set i add at most one zero each, so a prefix is
    cut when levels[r - (k - i - 1)] misses a coordinate. Set i's masks are
    built when the search first reaches set i."""
    check_r_window(r, inst.k, below_k=False)
    oracles.check_transversal_budget(map(len, inst.sets), f"{inst.k} sets have")
    k, full = inst.k, (1 << inst.d) - 1
    masks = (list(dict.fromkeys(sum(1 << t for t, x in enumerate(vec) if x == 0)
                                for vec in vectors)) for vectors in inst.sets)
    zeros = [next(masks)]
    stack = [([full] + [0] * r, iter(zeros[0]))]
    while stack:
        levels, rest = stack[-1]
        z = next(rest, None)
        if z is None:
            stack.pop()
            continue
        i = len(stack) - 1
        grown = [full] + [above | below & z for above, below in zip(levels[1:], levels)]
        if grown[max(r - (k - i - 1), 0)] != full:
            continue
        if i + 1 == k:
            return True
        if i + 1 == len(zeros):
            zeros.append(next(masks))
        stack.append((grown, iter(zeros[i + 1])))
    return False


def _part(roles: list[tuple], labels: Iterable[tuple]) -> list[int]:
    """Append one target vertex per role label; return their ids."""
    start = len(roles)
    roles.extend(labels)
    return list(range(start, len(roles)))


def _ov_skeleton(inst: OVInstance) -> tuple[list[tuple], list[list[int]], list[tuple[int, int]]]:
    """The gadget every OV generator starts from: one vertex per vector
    (part i holds set i), then one per dimension, and an edge from each
    vector to every dimension where it is 0. Returns (roles, part_of, edges);
    generators append their blocks after the dimensions."""
    roles: list[tuple] = []
    part_of = [_part(roles, (("vector", i, a) for a in range(len(vectors))))
               for i, vectors in enumerate(inst.sets)]
    dim_ids = _part(roles, (("dimension", t) for t in range(inst.d)))
    edges = [(x, dim_ids[t])
             for ids, vectors in zip(part_of, inst.sets)
             for x, vec in zip(ids, vectors)
             for t in range(inst.d) if vec[t] == 0]
    return roles, part_of, edges


def ov_to_multidom(inst: OVInstance, r: int) -> ReductionOutput:
    """Orthogonal vectors to r-Multiple k-Dominating Set.

    One vertex per vector, one per dimension, and C(k,r) redundancy blocks of
    k+1 vertices (block R_Q joined to the parts listed in Q); the first r
    vector parts are fully joined to all other vector parts.
    """
    k = inst.k
    check_r_window(r, k, below_k=True)
    roles, part_of, edges = _ov_skeleton(inst)
    blocks = list(itertools.combinations(range(k), r))
    for Q in blocks:
        ids = _part(roles, (("redundant", Q, j) for j in range(k + 1)))
        for i in Q:
            edges.extend(itertools.product(part_of[i], ids))
    for i in range(r):
        for j in range(k):
            if j != i:
                edges.extend(itertools.product(part_of[i], part_of[j]))

    graph = Graph(len(roles), edges)
    params = {"k": k, "r": r, "d": inst.d,
              "sizes": [len(s) for s in inst.sets],
              "redundant_vertices": (k + 1) * len(blocks)}
    return ReductionOutput(graph, Problem("multiple", k, r), params, tuple(roles))


def ov_to_hdom(inst: OVInstance, H: Pattern) -> ReductionOutput:
    """Orthogonal vectors to H-pattern domination.

    Vector parts are internal cliques; parts i and j are fully joined iff
    (i, j) is a pattern edge; block R_i (size k+1, last block sized to the
    largest vector set but at least k+1) is joined to part i only.
    """
    k = inst.k
    if H.k != k:
        raise ValueError(f"pattern size {H.k} does not match set count {k}")
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    roles, part_of, edges = _ov_skeleton(inst)
    # forcing needs every block larger than k; the last one also scales with
    # the largest part
    block_sizes = [k + 1] * (k - 1) + [max(k + 1, max(len(s) for s in inst.sets))]
    for i, size in enumerate(block_sizes):
        ids = _part(roles, (("redundant", i, j) for j in range(size)))
        edges.extend(itertools.product(part_of[i], ids))
        edges.extend(itertools.combinations(part_of[i], 2))
    for i, j in H.edges:
        edges.extend(itertools.product(part_of[i], part_of[j]))

    graph = Graph(len(roles), edges)
    params = {"k": k, "d": inst.d, "sizes": [len(s) for s in inst.sets],
              "pattern_edges": sorted(H.edges), "block_sizes": block_sizes}
    return ReductionOutput(graph, Problem("pattern", k, pattern_edges=H.edges),
                           params, tuple(roles))


def pad_special_coordinates(inst: OVInstance) -> OVInstance:
    """Append k+1 coordinates per set where exactly that set's vectors are 0.

    The induced-matching forcing argument assumes these coordinates exist;
    they preserve the OV answer because within each new coordinate every
    transversal picks exactly one zero.
    """
    k = inst.k
    new_sets = []
    for i, vectors in enumerate(inst.sets):
        tail = tuple(0 if j == i else 1 for j in range(k) for _ in range(k + 1))
        new_sets.append(tuple(vec + tail for vec in vectors))
    return OVInstance(inst.d + k * (k + 1), tuple(new_sets))


def ov_to_induced_matching(inst: OVInstance) -> ReductionOutput:
    """Orthogonal vectors to Dominating k-Induced-Matching (k even, >= 4).

    Special coordinates are materialized first; then vector parts are paired
    off by bicliques (part 2t with part 2t+1) and dimensions attach to their
    zero vectors.
    """
    k = inst.k
    if k % 2 or k < 4:
        raise ValueError(f"need even k >= 4, got {k}")
    padded = pad_special_coordinates(inst)
    roles, part_of, edges = _ov_skeleton(padded)
    for t in range(0, k, 2):
        edges.extend(itertools.product(part_of[t], part_of[t + 1]))

    graph = Graph(len(roles), edges)
    params = {"k": k, "d": inst.d, "d_padded": padded.d,
              "sizes": [len(s) for s in inst.sets]}
    return ReductionOutput(graph, Problem("matching", k), params, tuple(roles))


def indepset_part_count(k: int, gamma: Fraction, d: int) -> int:
    """d*k', with k' = (k-1)p + q for gamma = p/q: the number of source parts
    of an is-multidom source. ValueError for parameters outside the
    construction; OracleBudgetError for more than MAX_TRANSVERSALS parts, so
    a caller can refuse them before any part is listed."""
    g = Fraction(gamma)
    if not 0 < g < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if k < 2 or d < 1:
        raise ValueError(f"need k >= 2 and d >= 1, got k={k}, d={d}")
    parts = d * ((k - 1) * g.numerator + g.denominator)
    if parts > (budget := oracles.MAX_TRANSVERSALS):
        raise OracleBudgetError(f"is-multidom would have {parts} source parts, more than {budget}")
    return parts


def indepset_groups(sizes: Sequence[int], k: int, gamma: Fraction, d: int) -> list[range]:
    """The groups of source parts (part sizes `sizes`) that the V_i of
    `indepset_to_multidom` list the independent transversals of. ValueError
    or OracleBudgetError as `indepset_part_count` gives, or for another part
    count; OracleBudgetError when a group has more than MAX_TRANSVERSALS
    transversals, or the source more than MAX_TRANSVERSALS vertex pairs across
    parts or part pairs (a draw and its complement visit each). O(len(sizes))
    time, so it can run before a source is drawn."""
    if len(sizes) != (parts := indepset_part_count(k, gamma, d)):
        raise ValueError(f"source must have d*k' = {parts} parts, got {len(sizes)}")
    p = Fraction(gamma).numerator
    groups = [range(i * d * p, (i + 1) * d * p) for i in range(k - 1)]
    groups.append(range((k - 1) * d * p, parts))
    # a negative size is KPartiteGraph's error, not a budget one
    sizes = [max(s, 0) for s in sizes]
    for i, grp in enumerate(groups):
        oracles.check_transversal_budget(sizes[grp.start:grp.stop],
                                         f"group {i} ({len(grp)} source parts) has")
    budget = oracles.MAX_TRANSVERSALS
    # sum over i < j of s_i * s_j
    pairs = (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
    if pairs > budget:
        raise OracleBudgetError(f"{len(sizes)} source parts have {pairs} cross-part vertex "
                                f"pairs, more than {budget}")
    if (part_pairs := comb(parts, 2)) > budget:
        raise OracleBudgetError(f"{parts} source parts have {part_pairs} part pairs, "
                                f"more than {budget}")
    return groups


def ov_budget(reduction: str, sizes: Sequence[int], d: int, r: int | None = None) -> None:
    """OracleBudgetError, in O(k) time, when an OV source of part sizes `sizes`
    would give more than MAX_VERTICES `reduction` target vertices, or hold
    more than MAX_TRANSVERSALS vector entries or vector pairs. The d'
    dimensions include ov-matching's k(k+1) padding coordinates."""
    k, total = len(sizes), sum(max(s, 0) for s in sizes)  # a bad size is not a budget error
    if reduction == "ov-matching":
        d += k * (k + 1)
    blocks = ((k + 1) * comb(k, max(r, 0)) if reduction == "ov-multidom"
              else (k - 1) * (k + 1) + max(k + 1, *sizes) if reduction == "ov-hdom" else 0)
    for what, count, limit in (("target vertices", total + d + blocks, MAX_VERTICES),
                               ("source vector entries", total * d, oracles.MAX_TRANSVERSALS),
                               ("source vector pairs", comb(total, 2), oracles.MAX_TRANSVERSALS)):
        if count > limit:
            raise OracleBudgetError(f"{reduction} would have {count} {what}, more than {limit}")


def indepset_to_multidom(source: KPartiteGraph, k: int, gamma: Fraction,
                         d: int = 1) -> ReductionOutput:
    """Multipartite independent set to (k-1)-Multiple k-Dominating Set.

    With gamma = p/q, the source must have d*k' parts for k' = (k-1)p + q.
    Nodes: V_i = independent transversals of consecutive groups of d*p parts
    (d*q for the last group), F = source edges, R = k blocks of k+1 vertices
    with block i joined to every V_j, j != i. V parts are fully joined; an
    edge node attaches to the transversals avoiding both its endpoints. The
    transversals of a group are its transversal cliques in the source's
    complement, listed by `_range_cliques` in lexicographic order.
    """
    return _indepset_reduction(source, k, gamma, d)[0]


def _indepset_reduction(source: KPartiteGraph, k: int, gamma: Fraction,
                        d: int) -> tuple[ReductionOutput, KPartiteGraph]:
    """`indepset_to_multidom`, and the complement of the source it lists the
    transversals in, so a caller that needs both builds it once."""
    groups = indepset_groups(source.sizes, k, gamma, d)
    complement = _complement_kpartite(source)
    members = [list(_range_cliques(complement, grp)) for grp in groups]

    roles: list[tuple] = []
    v_ids = [_part(roles, (("indep", i, member) for member in ms))
             for i, ms in enumerate(members)]
    edge_list = list(source.edges())
    f_ids = _part(roles, (("edge", e) for e in edge_list))
    r_ids = [_part(roles, (("redundant", i, j) for j in range(k + 1))) for i in range(k)]

    edges = []
    for i in range(k):
        for j in range(k):
            if j != i:
                edges.extend(itertools.product(r_ids[i], v_ids[j]))
    for i, j in itertools.combinations(range(k), 2):
        edges.extend(itertools.product(v_ids[i], v_ids[j]))
    v_members = list(zip(itertools.chain(*v_ids), itertools.chain(*members)))
    for fe, fid in zip(edge_list, f_ids):
        ends = set(fe)
        edges.extend((fid, vid) for vid, member in v_members if ends.isdisjoint(member))

    graph = Graph(len(roles), edges)
    params = {"k": k, "gamma": str(Fraction(gamma)), "d": d,
              "k_prime": len(source.sizes) // d,
              "group_sizes": [len(g) for g in groups],
              "family_sizes": [len(ms) for ms in members],
              "edge_nodes": len(edge_list)}
    return ReductionOutput(graph, Problem("multiple", k, k - 1), params, tuple(roles)), complement


def _complement_kpartite(source: KPartiteGraph) -> KPartiteGraph:
    """The cross-part complement of `source`, row by row from its bit rows."""
    complement = KPartiteGraph(source.sizes, ())
    fulls = [(1 << s) - 1 for s in source.sizes]
    for i, rows in enumerate(source.adj):
        cross = fulls[:i] + [0] + fulls[i + 1:]
        complement.adj[i] = [[f & ~m for f, m in zip(cross, row)] for row in rows]
    return complement


def build_target(generator: str, source, param=None) -> tuple[ReductionOutput, Callable[[], bool]]:
    """The target `generator` builds from `source` and `param` (r for
    ov-multidom, a Pattern for ov-hdom, (k, gamma, d) for is-multidom), and a
    brute-force decider of the source: the one map from a generator id to its
    generator. An ov-* target is built only once `ov_budget` passes its size."""
    if generator == "is-multidom":
        out, complement = _indepset_reduction(source, *param)
        return out, lambda: oracle_unbalanced_clique(complement) is not None
    build = {"ov-multidom": ov_to_multidom, "ov-hdom": ov_to_hdom,
             "ov-matching": lambda inst, _: ov_to_induced_matching(inst)}.get(generator)
    if build is None:
        raise ValueError(f"unknown generator {generator!r}")
    ov_budget(generator, list(map(len, source.sets)), source.d,
              param if generator == "ov-multidom" else None)
    out = build(source, param)
    # ov-multidom's Problem carries the source's r; the others ask for r = 1
    return out, lambda: solve_ov_bruteforce(source, out.problem.r or 1)


def verify_reduction(generator: str, source, param=None) -> bool:
    """True iff `solve(..., "brute")` on the target `build_target` builds and
    the source's decider agree. The target's runs first, budget check included."""
    out, source_answer = build_target(generator, source, param)
    return (solve(out.graph, out.problem, "brute") is not None) == source_answer()


def save_reduction(out: ReductionOutput, graph_path, sidecar_path) -> None:
    """Target graph as an edge list plus a JSON sidecar of parameters and the
    vertex role map. Each target is a path, overwritten in place
    (`graph.write_text`), or a stream."""
    save_graph(out.graph, graph_path)
    sidecar = {
        "problem": {"kind": out.problem.kind, "k": out.problem.k, "r": out.problem.r,
                    "pattern_edges": sorted(out.problem.pattern_edges)
                    if out.problem.pattern_edges is not None else None},
        "params": out.params,
        "id_map": [list(map(str, role)) for role in out.id_map],
    }
    write_text(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
