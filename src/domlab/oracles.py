"""Brute-force ground-truth deciders.

Deliberately independent of the fast solvers: `oracle_multidom` and
`oracle_pattern` consult adjacency through plain Python sets built from Graph
queries, never through heavy-vertex logic, candidate families, or matrix
products. `oracle_unbalanced_clique` prunes its transversal search but stays
exhaustive, and shares no code with the solvers or generators. Agreement
with the fast solvers is therefore evidence, not tautology.
"""

from __future__ import annotations

import itertools
from math import comb, factorial
from operator import and_
from typing import TYPE_CHECKING, Iterable

from .graph import Graph
from .multidom import VARIANTS, KPartiteGraph, Problem, Solution, check_r_window

if TYPE_CHECKING:
    from .patterndom import Pattern

MAX_TRANSVERSALS = 10**6


class OracleBudgetError(RuntimeError):
    """Instance too large for an exhaustive scan; fail loudly, never crawl."""


def check_scan_budget(n: int, problem: Problem) -> None:
    """The one budget of every brute-force run, checked before the scan:
    OracleBudgetError (exit code 3) when the C(n, k) k-subsets of `problem`,
    or for a shape kind their k! orderings each, pass MAX_TRANSVERSALS. With
    no k-subset (k > n) there is no ordering to count, and k! is not computed."""
    k, shape = problem.k, problem.kind not in VARIANTS
    if (subsets := comb(n, k)) > MAX_TRANSVERSALS:
        raise OracleBudgetError(f"the exhaustive scan at k={k} has C({n}, {k}) = "
                                f"{subsets} subsets, more than {MAX_TRANSVERSALS}")
    if shape and subsets and (count := subsets * factorial(k)) > MAX_TRANSVERSALS:
        raise OracleBudgetError(f"the pattern scan at k={k} tries C({n}, {k}) * {k}! = "
                                f"{count} orderings, more than {MAX_TRANSVERSALS}")


def check_transversal_budget(sizes: Iterable[int], subject: str) -> None:
    """OracleBudgetError "{subject} more than {MAX_TRANSVERSALS} transversals"
    when the product of `sizes` passes MAX_TRANSVERSALS, read at call time;
    the product stops at the first part that takes it past."""
    count = 1
    for s in sizes:
        count *= s
        if count > MAX_TRANSVERSALS:
            raise OracleBudgetError(f"{subject} more than {MAX_TRANSVERSALS} transversals")


def _neighbor_sets(G: Graph) -> list[set[int]]:
    return list(map(set, G.adj))


def oracle_multidom(G: Graph, k: int, r: int, variant: str) -> Solution | None:
    """Exhaustive scan of all C(n, k) subsets in lexicographic order; none for
    k > n, and then no k-slot index of `itertools.combinations` is allocated."""
    if variant not in ("multiple", "tuple"):
        raise ValueError(f"unknown variant {variant!r}")
    check_r_window(r, k, below_k=False)
    nbrs = _neighbor_sets(G)
    for S in itertools.combinations(range(G.n), min(k, G.n + 1)):
        chosen = set(S)
        feasible = True
        for v in range(G.n):
            if variant == "multiple":
                if v in chosen:
                    continue
                hits = len(nbrs[v] & chosen)
            else:
                hits = len((nbrs[v] | {v}) & chosen)
            if hits < r:
                feasible = False
                break
        if feasible:
            return Solution(Problem(variant, k, r), S)
    return None


def oracle_pattern(G: Graph, H: Pattern) -> Solution | None:
    """Exhaustive subset scan plus permutation isomorphism."""
    nbrs = _neighbor_sets(G)
    closed = [nbrs[v] | {v} for v in range(G.n)]
    problem = Problem("pattern", H.k, pattern_edges=H.edges)
    for S in itertools.combinations(range(G.n), H.k):
        chosen = set(S)
        if any(closed[v].isdisjoint(chosen) for v in range(G.n)):
            continue
        induced = {(i, j) for i, j in itertools.combinations(range(H.k), 2)
                   if S[j] in nbrs[S[i]]}
        for perm in itertools.permutations(range(H.k)):
            mapped = {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in induced}
            if mapped == set(H.edges):
                return Solution(problem, S)
    return None


def oracle_unbalanced_clique(kp: KPartiteGraph) -> tuple[tuple[int, int], ...] | None:
    """The first one-vertex-per-part clique in `itertools.product` order, or
    None, by a lexicographic depth-first search over the bit rows. A prefix
    grows only with a vertex of the next part adjacent to all it holds, and
    is cut when a later part has no such vertex: only prefixes that cannot be
    completed are skipped. The budget counts the full product, before the search."""
    check_transversal_budget(kp.sizes, f"{kp.k} parts have")
    # (vertex chosen in part i - 1, [untried vertices of part i, then for each
    # later part the mask of its vertices adjacent to every chosen one])
    stack = [(None, [(1 << s) - 1 for s in kp.sizes])]
    while stack:
        frame = stack[-1][1]
        if not frame:
            return tuple(enumerate(a for a, _ in stack[1:]))
        if not frame[0]:
            stack.pop()
            continue
        low = frame[0] & -frame[0]
        frame[0] ^= low
        i, a = len(stack) - 1, low.bit_length() - 1
        later = list(map(and_, frame[1:], kp.adj[i][a][i + 1:]))
        if all(later):
            stack.append((a, later))
    return None
