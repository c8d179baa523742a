"""Certified instance generators.

Each generator turns a small source instance (orthogonal-vector sets or a
multipartite independent-set instance) into a domination instance with the
same YES/NO answer; verify_reduction checks the pair with brute-force oracles
on both sides.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .graph import Graph, save_graph
from .multidom import KPartiteGraph, Problem
from .oracles import oracle_multidom, oracle_pattern, oracle_unbalanced_clique
from .patterndom import Pattern, _load_json

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
                if any(x not in (0, 1) for x in vec):
                    raise ValueError(f"non-binary entry in vector {vec}")

    @property
    def k(self) -> int:
        return len(self.sets)

    @classmethod
    def from_lists(cls, d: int, sets: Iterable[Iterable[Sequence[int]]]) -> "OVInstance":
        return cls(d, tuple(tuple(tuple(v) for v in s) for s in sets))


def load_ov(source) -> OVInstance:
    """Parse {"k": int, "d": int, "sets": [["0101", ...], ...]} with
    bit-string vectors from a path, JSON string, or stream."""
    data = _load_json(source)
    sets = [[tuple(int(c) for c in vec) for vec in s] for s in data["sets"]]
    inst = OVInstance.from_lists(int(data["d"]), sets)
    if inst.k != int(data["k"]):
        raise ValueError(f"declared k={data['k']} but found {inst.k} sets")
    return inst


def save_ov(inst: OVInstance, target=None) -> str:
    text = json.dumps(
        {"k": inst.k, "d": inst.d,
         "sets": [["".join(map(str, v)) for v in s] for s in inst.sets]},
        sort_keys=True)
    if target is not None:
        Path(target).write_text(text)
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
    """True iff some transversal a_1,...,a_k has >= r zeros in every coordinate."""
    if not (1 <= r <= inst.k):
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={inst.k}")
    for choice in itertools.product(*inst.sets):
        if all(sum(1 for vec in choice if vec[t] == 0) >= r for t in range(inst.d)):
            return True
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
    if not (1 <= r <= k - 1):
        raise ValueError(f"need 1 <= r <= k-1, got r={r}, k={k}")
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


def _independent_transversals(source: KPartiteGraph, parts: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    out = []
    for choice in itertools.product(*(range(source.sizes[i]) for i in parts)):
        member = tuple((i, a) for i, a in zip(parts, choice))
        if all(not source.has_edge(i, a, j, b)
               for (i, a), (j, b) in itertools.combinations(member, 2)):
            out.append(member)
    return out


def indepset_to_multidom(source: KPartiteGraph, k: int, gamma: Fraction,
                         d: int = 1) -> ReductionOutput:
    """Multipartite independent set to (k-1)-Multiple k-Dominating Set.

    With gamma = p/q, the source must have d*k' parts for k' = (k-1)p + q.
    Nodes: V_i = independent transversals of consecutive groups of d*p parts
    (d*q for the last group), F = source edges, R = k blocks of k+1 vertices
    with block i joined to every V_j, j != i. V parts are fully joined; an
    edge node attaches to the transversals avoiding both its endpoints.
    """
    g = Fraction(gamma)
    p, q = g.numerator, g.denominator
    if not 0 < g < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if k < 2 or d < 1:
        raise ValueError(f"need k >= 2 and d >= 1, got k={k}, d={d}")
    kprime = (k - 1) * p + q
    if source.k != d * kprime:
        raise ValueError(f"source must have d*k' = {d * kprime} parts, got {source.k}")

    groups = [list(range(i * d * p, (i + 1) * d * p)) for i in range(k - 1)]
    groups.append(list(range((k - 1) * d * p, d * kprime)))
    members = [_independent_transversals(source, grp) for grp in groups]

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
    params = {"k": k, "gamma": f"{p}/{q}", "d": d, "k_prime": kprime,
              "group_sizes": [len(g) for g in groups],
              "family_sizes": [len(ms) for ms in members],
              "edge_nodes": len(edge_list)}
    return ReductionOutput(graph, Problem("multiple", k, k - 1), params, tuple(roles))


def _complement_kpartite(source: KPartiteGraph) -> KPartiteGraph:
    edges = [((i, a), (j, b))
             for i, j in itertools.combinations(range(source.k), 2)
             for a, b in itertools.product(range(source.sizes[i]), range(source.sizes[j]))
             if not source.has_edge(i, a, j, b)]
    return KPartiteGraph(source.sizes, edges)


def verify_reduction(generator: str, source, param=None, max_n: int = 60) -> bool:
    """True iff the source oracle and the target oracle agree.

    generator ids: ov-multidom (param = r), ov-hdom (param = Pattern),
    ov-matching (no param), is-multidom (param = (k, gamma, d)).
    """
    if generator == "ov-multidom":
        out = ov_to_multidom(source, param)
        src = solve_ov_bruteforce(source, param)
        tgt = oracle_multidom(out.graph, out.problem.k, out.problem.r,
                              "multiple", max_n=max_n) is not None
    elif generator == "ov-hdom":
        out = ov_to_hdom(source, param)
        src = solve_ov_bruteforce(source, 1)
        tgt = oracle_pattern(out.graph, param, max_n=max_n) is not None
    elif generator == "ov-matching":
        out = ov_to_induced_matching(source)
        src = solve_ov_bruteforce(source, 1)
        tgt = oracle_pattern(out.graph, Pattern.matching(source.k), max_n=max_n) is not None
    elif generator == "is-multidom":
        k, gamma, d = param
        out = indepset_to_multidom(source, k, gamma, d)
        src = oracle_unbalanced_clique(_complement_kpartite(source)) is not None
        tgt = oracle_multidom(out.graph, k, k - 1, "multiple", max_n=max_n) is not None
    else:
        raise ValueError(f"unknown generator {generator!r}")
    return src == tgt


def save_reduction(out: ReductionOutput, graph_path, sidecar_path) -> None:
    """Target graph as an edge list plus a JSON sidecar of parameters and the
    vertex role map."""
    save_graph(out.graph, graph_path)
    sidecar = {
        "problem": {"kind": out.problem.kind, "k": out.problem.k, "r": out.problem.r,
                    "pattern_edges": sorted(out.problem.pattern_edges)
                    if out.problem.pattern_edges else None},
        "params": out.params,
        "id_map": [list(map(str, role)) for role in out.id_map],
    }
    Path(sidecar_path).write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
