"""Truncated-polynomial ring, bit-packed boolean matrices, and the
covering-pairs kernel.

`covering_pairs` is the one pair search the solvers run (through
`multidom.pair_join`). The polynomial-entry product, whose exponents
saturate at a cap, and the complement-boolean product, which reports the
zero entries of A·B, are library kernels that no solver calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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


def poly_mat_mul(A: PolyMatrix, B: PolyMatrix, threads: int = 1) -> PolyMatrix:
    """C = A·B over the truncated ring. Exponents saturate at the shared cap;
    coefficients accumulate exactly (Python ints, no overflow).

    `threads` is accepted for compatibility and has no effect: the product
    runs on the calling thread.
    """
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


@dataclass(frozen=True)
class BoolMatrix:
    """Bit-packed 0/1 matrix: row i is an int whose bit j is entry (i, j).
    Bits beyond `cols` are always zero."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        if any(r & ~mask for r in self.row_bits):
            raise ValueError("set bits beyond declared column count")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]], cols: int | None = None) -> "BoolMatrix":
        packed = []
        width = cols
        for row in rows:
            bits = 0
            j = -1
            for j, x in enumerate(row):
                if x:
                    bits |= 1 << j
            if width is None:
                width = j + 1
            elif j + 1 != width:
                raise ValueError("ragged rows")
            packed.append(bits)
        if width is None:
            raise ValueError("cannot infer column count from zero rows")
        return cls(len(packed), width, tuple(packed))

    @classmethod
    def from_row_ints(cls, row_bits: Sequence[int], cols: int) -> "BoolMatrix":
        return cls(len(row_bits), cols, tuple(row_bits))

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_bits[i] >> j) & 1

    def transpose(self) -> "BoolMatrix":
        cols = []
        for j in range(self.cols):
            bits = 0
            for i, r in enumerate(self.row_bits):
                if (r >> j) & 1:
                    bits |= 1 << i
            cols.append(bits)
        return BoolMatrix(self.cols, self.rows, tuple(cols))


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def covering_pairs(row_gaps: Iterable[Iterable[int]], cols: int) -> Iterator[tuple[int, int]]:
    """Every (i, j) such that column j < `cols` is in none of row i's gap masks.

    `row_gaps` gives, per row, an iterable of column bitmasks (bits at or
    beyond `cols` must be zero). A row's masks are ORed until they cover every
    column; the rest of that row's masks are never drawn, so a lazy iterable
    skips their construction. Pairs come in row-major order, lowest column
    first within a row, and lazily: a caller that stops at the first pair
    stops the search there.
    """
    full = (1 << cols) - 1
    for i, gaps in enumerate(row_gaps):
        seen = 0
        for gap in gaps:
            seen |= gap
            if seen == full:
                break
        for j in iter_bits(full ^ seen):
            yield i, j


def complement_zero_pairs(A: BoolMatrix, B: BoolMatrix, threads: int = 1) -> list[tuple[int, int]]:
    """All (i, j) with (A·B)[i,j] = 0 over the integers, i.e. for every t
    either A[i,t] = 0 or B[t,j] = 0. Row-major order.

    Row i's gap masks are the rows B[t] for each t set in A[i], so no
    transpose is needed. `threads` is accepted for compatibility and has no
    effect.
    """
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} · {B.rows}x{B.cols}")
    b_rows = B.row_bits
    return list(covering_pairs(((b_rows[t] for t in iter_bits(ra)) for ra in A.row_bits), B.cols))
