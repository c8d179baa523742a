"""Truncated-polynomial ring: the reference model for `multidom.pair_join`.

A polynomial's exponents are capped at r (x^a * x^b = x^min(a + b, r)), so
with A[i, v] = x^(level rows[i] gives v) and B[v, j] = x^(level cols[j]
gives v), the entry (A·B)[i, j] has min-degree >= r exactly when every
vertex collects r levels from the pair. That is the product of Eisenbrand &
Grandoni's split-into-halves search; the package runs it as one
covering-pairs search, and `test_multidom.py` checks the two agree.

`bool_matrix` and `bool_entry` build and read the `domlab.algebra.BoolMatrix`
values that the tests of `complement_zero_pairs` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from domlab.algebra import BoolMatrix

INF_DEGREE = math.inf


@dataclass(frozen=True)
class TruncatedPoly:
    """Polynomial with nonnegative integer coefficients; exponents beyond
    `cap` are absorbed into the x^cap coefficient (saturation)."""

    cap: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError("cap must be nonnegative")
        if len(self.coeffs) != self.cap + 1:
            raise ValueError(f"need {self.cap + 1} coefficients, got {len(self.coeffs)}")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

    @classmethod
    def zero(cls, cap: int) -> "TruncatedPoly":
        return cls(cap, (0,) * (cap + 1))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def mass(self) -> int:
        """Sum of all coefficients."""
        return sum(self.coeffs)


def poly_mono(exponent: int, cap: int) -> TruncatedPoly:
    """Monomial x^min(exponent, cap)."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    e = min(exponent, cap)
    coeffs = [0] * (cap + 1)
    coeffs[e] = 1
    return TruncatedPoly(cap, tuple(coeffs))


def min_degree(p: TruncatedPoly):
    """Least exponent with a nonzero coefficient; math.inf for the zero polynomial."""
    for e, c in enumerate(p.coeffs):
        if c:
            return e
    return INF_DEGREE


def poly_add(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    if p.cap != q.cap:
        raise ValueError("cap mismatch")
    return TruncatedPoly(p.cap, tuple(a + b for a, b in zip(p.coeffs, q.coeffs)))


def poly_mul(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    """Product with saturating exponents: mass never drops, it piles up at x^cap."""
    if p.cap != q.cap:
        raise ValueError("cap mismatch")
    cap = p.cap
    acc = [0] * (cap + 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                acc[min(i + j, cap)] += a * b
    return TruncatedPoly(cap, tuple(acc))


@dataclass(frozen=True)
class PolyMatrix:
    """Dense matrix of TruncatedPoly entries sharing one cap."""

    rows: int
    cols: int
    cap: int
    entries: tuple[tuple[TruncatedPoly, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            for p in row:
                if p.cap != self.cap:
                    raise ValueError("entry cap mismatch")

    @classmethod
    def build(cls, rows: int, cols: int, cap: int,
              fn: Callable[[int, int], TruncatedPoly]) -> "PolyMatrix":
        return cls(rows, cols, cap,
                   tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows)))

    @classmethod
    def identity(cls, n: int, cap: int) -> "PolyMatrix":
        one = poly_mono(0, cap)
        zero = TruncatedPoly.zero(cap)
        return cls(n, n, cap,
                   tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> TruncatedPoly:
        i, j = ij
        return self.entries[i][j]


def poly_mat_mul(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """C = A·B over the truncated ring. Exponents saturate at the shared cap;
    coefficients accumulate exactly (Python ints, no overflow)."""
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} · {B.rows}x{B.cols}")
    if A.cap != B.cap:
        raise ValueError("cap mismatch")
    cap = A.cap

    rows = []
    for arow in A.entries:
        crow = []
        for j in range(B.cols):
            acc = [0] * (cap + 1)
            for t in range(A.cols):
                p = arow[t]
                q = B.entries[t][j]
                for e1, c1 in enumerate(p.coeffs):
                    if not c1:
                        continue
                    for e2, c2 in enumerate(q.coeffs):
                        if c2:
                            acc[min(e1 + e2, cap)] += c1 * c2
            crow.append(TruncatedPoly(cap, tuple(acc)))
        rows.append(tuple(crow))
    return PolyMatrix(A.rows, B.cols, cap, tuple(rows))


def bool_matrix(rows: list[list[int]], cols: int) -> BoolMatrix:
    """The `cols`-column BoolMatrix whose entry (i, j) is rows[i][j], 0 or 1."""
    return BoolMatrix(len(rows), cols,
                      tuple(sum(x << j for j, x in enumerate(row)) for row in rows))


def bool_entry(M: BoolMatrix, i: int, j: int) -> int:
    return (M.row_bits[i] >> j) & 1
