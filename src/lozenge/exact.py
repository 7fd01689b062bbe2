"""Binomials, and exact determinants of matrices scaled by powers of two.

All counting in this package is exact.  A path matrix keeps each entry
as an integer field over a power of two (:class:`DyadicMatrix`), and its
determinant is Bareiss fraction-free elimination on the fields, so every
intermediate value stays in Z; the powers of two meet only once, in the
``Fraction`` the determinant returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 outside 0 <= k <= n.

    The upper index must be nonnegative; nothing in this package ever
    needs the polynomial extension to negative n.
    """
    if n < 0:
        raise ValueError(f"binomial needs a nonnegative upper index, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class DyadicMatrix:
    """A matrix of integer fields, each over a power of two.

    Row i carries ``row_steps[i]`` and column j ``col_steps[j]``, and the
    (i, j) entry is ``fields[i][j] / 2**(col_steps[j] - row_steps[i])``.
    """

    __slots__ = ("fields", "row_steps", "col_steps", "rows")

    def __init__(self, fields: list[list[int]], row_steps: list[int], col_steps: list[int]):
        self.fields = fields
        self.row_steps = row_steps
        self.col_steps = col_steps
        self.rows = len(row_steps)


def determinant(m: DyadicMatrix) -> Fraction:
    """Exact determinant; the empty 0x0 matrix has determinant 1.

    Taking 2**row_steps[i] out of row i and 2**-col_steps[j] out of column j
    leaves the fields, so their determinant is scaled by
    2**(sum(row_steps) - sum(col_steps)).  Bareiss elimination runs on a
    copy of the fields with each row divided by the largest power of two
    that divides all of it: a path field carries a factor 2 per step of
    weight 1, and Bareiss slows as its operands grow.
    """
    n = m.rows
    if n != len(m.col_steps):
        raise ValueError(f"determinant needs a square matrix, got {n}x{len(m.col_steps)}")
    e = sum(m.row_steps) - sum(m.col_steps)
    a = []
    for row in m.fields:
        low = reduce(or_, row, 0)
        t = max((low & -low).bit_length() - 1, 0)  # 0 for a zero row
        a.append([f >> t for f in row])
        e += t
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                # exact by the Bareiss identity
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    det = sign * a[n - 1][n - 1] if n else 1
    return Fraction(det << e) if e >= 0 else Fraction(det, 1 << -e)
