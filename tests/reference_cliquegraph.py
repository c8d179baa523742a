"""Test-side model of the grouped triangle search for unbalanced k-clique
(Eisenbrand & Grandoni, TCS 2004): the k parts are split into three
groups, each group's transversal cliques become the vertices of one side
of a tripartite graph, and a k-clique is a triangle there. The split pays
off only with fast matrix multiplication, so the package searches by
backtracking (`multidom.detect_unbalanced_kclique`) and the tests compare
the two.

The partial cliques come from `multidom._range_cliques`, looked up at call
time, so a test that monkeypatches it reaches this search too.
"""

from __future__ import annotations

from fractions import Fraction

from domlab import multidom
from domlab.multidom import KPartiteGraph, _set_mask


def grouping_parameters(k: int, gamma: Fraction) -> tuple[int, int] | None:
    """Triangle-grouping split (alpha, beta) with alpha + 2*beta + 1 = k,
    where beta = (k-1+1/gamma)/3. Requires k-1+1/gamma to be an integer
    divisible by 3 and 2/gamma < k-1; returns None otherwise."""
    g = Fraction(gamma)
    if not (0 < g <= 1):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    t = k - 1 + 1 / g
    if t.denominator != 1 or t.numerator % 3 != 0:
        return None
    if 2 / g >= k - 1:
        return None
    beta = t.numerator // 3
    alpha = k - 1 - 2 * beta
    if alpha <= 0 or beta <= 0:
        return None
    return alpha, beta


def _joins_clique(kp: KPartiteGraph, w1: tuple[tuple[int, int], ...],
                  w2: tuple[tuple[int, int], ...]) -> bool:
    return all(kp.has_edge(i, a, j, b) for i, a in w1 for j, b in w2)


def _grouped_triangle(kp: KPartiteGraph, alpha: int, beta: int) -> tuple[tuple[int, int], ...] | None:
    k = kp.k
    parts1 = list(range(alpha + 1))
    parts2 = list(range(alpha + 1, alpha + 1 + beta))
    parts3 = list(range(alpha + 1 + beta, k))
    w1 = list(multidom._range_cliques(kp, parts1))
    w2 = list(multidom._range_cliques(kp, parts2))
    w3 = list(multidom._range_cliques(kp, parts3))
    if not (w1 and w2 and w3):
        return None
    # compatibility bit rows towards W3, then triangle scan over W1 x W2
    w1_to_3 = [_set_mask(c for c, x in enumerate(w3) if _joins_clique(kp, a, x)) for a in w1]
    w2_to_3 = [_set_mask(c for c, x in enumerate(w3) if _joins_clique(kp, b, x)) for b in w2]
    for ia, a in enumerate(w1):
        for ib, b in enumerate(w2):
            if not _joins_clique(kp, a, b):
                continue
            both = w1_to_3[ia] & w2_to_3[ib]
            if both:
                ic = (both & -both).bit_length() - 1
                return tuple(sorted(a + b + w3[ic]))
    return None


def detect_grouped(kp: KPartiteGraph, gamma: Fraction | None) -> tuple[tuple[int, int], ...] | None:
    """One vertex per part forming a clique, or None: the grouped triangle
    search when `gamma` gives a split, else the backtracking search. The
    two may return different cliques."""
    params = grouping_parameters(kp.k, gamma) if gamma is not None else None
    if params is None:
        return multidom.detect_unbalanced_kclique(kp)
    return _grouped_triangle(kp, *params)
