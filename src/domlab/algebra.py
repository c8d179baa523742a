"""Bit-packed boolean matrices, their product's zero entries, and `iter_bits`.

The solvers use only `iter_bits`; their pair search is
`multidom.pair_join`. No solver calls `BoolMatrix` or
`complement_zero_pairs` (the zero entries of a boolean product A·B); they
stay because the benchmark's traced run (`perfbench/spans.py`) wraps
`complement_zero_pairs` and `BoolMatrix.transpose` by attribute name. The
truncated-polynomial ring that `pair_join` decides is a test-side
reference model, `tests/reference_algebra.py`, which also builds the
tests' matrices from 0/1 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


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


def complement_zero_pairs(A: BoolMatrix, B: BoolMatrix) -> list[tuple[int, int]]:
    """All (i, j) with (A·B)[i,j] = 0 over the integers, i.e. for every t
    either A[i,t] = 0 or B[t,j] = 0. Row-major order.

    Row i ORs the rows B[t] for each t set in A[i], stopping once they cover
    every column, so no transpose is needed.
    """
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} · {B.rows}x{B.cols}")
    b_rows, full = B.row_bits, (1 << B.cols) - 1
    out = []
    for i, ra in enumerate(A.row_bits):
        seen = 0
        for t in iter_bits(ra):
            seen |= b_rows[t]
            if seen == full:
                break
        out.extend((i, j) for j in iter_bits(full ^ seen))
    return out
