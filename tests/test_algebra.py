from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from domlab.algebra import BoolMatrix, complement_zero_pairs

from .reference_algebra import (
    PolyMatrix,
    TruncatedPoly,
    bool_entry,
    bool_matrix,
    min_degree,
    poly_add,
    poly_mat_mul,
    poly_mono,
    poly_mul,
)


def test_poly_mono_plain():
    assert poly_mono(2, 4).coeffs == (0, 0, 1, 0, 0)


def test_poly_mono_saturates():
    assert poly_mono(7, 4).coeffs == (0, 0, 0, 0, 1)


def test_poly_mono_constant():
    assert poly_mono(0, 4).coeffs == (1, 0, 0, 0, 0)


def test_min_degree_basic():
    assert min_degree(TruncatedPoly(3, (0, 0, 1, 3))) == 2


def test_min_degree_zero_poly_is_infinite():
    assert min_degree(TruncatedPoly.zero(3)) == math.inf


def test_min_degree_constant():
    assert min_degree(TruncatedPoly(2, (5, 0, 0))) == 0


def test_poly_mul_saturating_mass_is_preserved():
    p = TruncatedPoly(3, (1, 2, 0, 1))
    q = TruncatedPoly(3, (0, 3, 1, 0))
    prod = poly_mul(p, q)
    assert prod.mass() == p.mass() * q.mass()


def test_poly_add_rejects_cap_mismatch():
    with pytest.raises(ValueError):
        poly_add(TruncatedPoly.zero(2), TruncatedPoly.zero(3))


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError):
        TruncatedPoly(1, (1, -1))


def _naive_poly_mat_mul(A: PolyMatrix, B: PolyMatrix) -> list[list[tuple[int, ...]]]:
    """Schoolbook reference: entrywise convolution with saturation."""
    cap = A.cap
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = [0] * (cap + 1)
            for t in range(A.cols):
                for e1, c1 in enumerate(A[i, t].coeffs):
                    for e2, c2 in enumerate(B[t, j].coeffs):
                        acc[min(e1 + e2, cap)] += c1 * c2
            row.append(tuple(acc))
        out.append(row)
    return out


def _random_poly_matrix(rng: random.Random, rows: int, cols: int, cap: int) -> PolyMatrix:
    return PolyMatrix.build(
        rows, cols, cap,
        lambda i, j: TruncatedPoly(cap, tuple(rng.randint(0, 3) for _ in range(cap + 1))))


def test_poly_mat_mul_1x1_saturation():
    A = PolyMatrix.build(1, 1, 2, lambda i, j: poly_mono(1, 2))
    B = PolyMatrix.build(1, 1, 2, lambda i, j: poly_mono(2, 2))
    assert poly_mat_mul(A, B)[0, 0] == poly_mono(2, 2)


def test_poly_mat_mul_identity():
    rng = random.Random(5)
    A = _random_poly_matrix(rng, 4, 4, 5)
    assert poly_mat_mul(A, PolyMatrix.identity(4, 5)).entries == A.entries
    assert poly_mat_mul(PolyMatrix.identity(4, 5), A).entries == A.entries


def test_poly_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        poly_mat_mul(PolyMatrix.identity(2, 1), PolyMatrix.identity(3, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 8), st.integers(0, 10))
def test_poly_mat_mul_matches_naive(seed, a, b, c, cap):
    rng = random.Random(seed)
    A = _random_poly_matrix(rng, a, b, cap)
    B = _random_poly_matrix(rng, b, c, cap)
    C = poly_mat_mul(A, B)
    expected = _naive_poly_mat_mul(A, B)
    for i in range(a):
        for j in range(c):
            assert C[i, j].coeffs == expected[i][j]


def test_saturation_threshold_equivalence_exhaustive():
    # min(r,a) + min(r,b) >= r  <=>  a + b >= r, for per-entry caps at r
    for r in range(1, 7):
        for a in range(3 * r + 1):
            for b in range(3 * r + 1):
                assert (min(r, a) + min(r, b) >= r) == (a + b >= r)


def test_bool_matrix_padding_enforced():
    with pytest.raises(ValueError):
        BoolMatrix(1, 2, (0b100,))


def test_bool_matrix_transpose():
    A = bool_matrix([[1, 0, 1], [0, 1, 1]], 3)
    T = A.transpose()
    assert (T.rows, T.cols) == (3, 2)
    assert all(bool_entry(A, i, j) == bool_entry(T, j, i) for i in range(2) for j in range(3))


def test_complement_zero_pairs_all_zero_matrix():
    A = BoolMatrix(2, 3, (0, 0))
    B = BoolMatrix(3, 3, (7, 7, 7))
    assert complement_zero_pairs(A, B) == [(i, j) for i in range(2) for j in range(3)]


def test_complement_zero_pairs_identity():
    I3 = BoolMatrix(3, 3, (1, 2, 4))
    pairs = complement_zero_pairs(I3, I3)
    assert pairs == [(i, j) for i in range(3) for j in range(3) if i != j]


def test_complement_zero_pairs_dimension_mismatch():
    with pytest.raises(ValueError):
        complement_zero_pairs(BoolMatrix(1, 2, (0,)), BoolMatrix(1, 1, (0,)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 9), st.integers(1, 6))
def test_complement_zero_pairs_matches_integer_product(seed, a, b, c):
    rng = random.Random(seed)
    A = bool_matrix([[rng.randint(0, 1) for _ in range(b)] for _ in range(a)], b)
    B = bool_matrix([[rng.randint(0, 1) for _ in range(c)] for _ in range(b)], c)
    expected = [(i, j) for i in range(a) for j in range(c)
                if sum(bool_entry(A, i, t) * bool_entry(B, t, j) for t in range(b)) == 0]
    assert complement_zero_pairs(A, B) == expected
