"""Bit-packed boolean matrices and the covering-pairs kernel.

`covering_pairs` is the one pair search the solvers run (through
`multidom.pair_join`). No solver calls `BoolMatrix` or
`complement_zero_pairs` (the zero entries of a boolean product A·B); they
stay because the benchmark's traced run (`perfbench/spans.py`) wraps
`complement_zero_pairs` and `BoolMatrix.transpose` by attribute name. The
truncated-polynomial ring that `pair_join` decides is a test-side
reference model, `tests/reference_algebra.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


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
