"""Exact rational arithmetic helpers and fraction-free determinants.

All counting in this package is exact.  Rational values are
``fractions.Fraction`` instances (always in lowest terms, positive
denominator), and determinants are computed by Bareiss fraction-free
elimination over integers after clearing denominators, so intermediate
values never leave Z.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


class RationalMatrix:
    """Dense matrix of Fractions, used for path generating functions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: list[list[Fraction]]):
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in RationalMatrix")
        # Fractions are immutable, so entries that already are one are kept
        self.entries = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in entries]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"RationalMatrix({self.entries!r})"


def _int_determinant(a: list[list[int]]) -> int:
    """Bareiss elimination; mutates its argument."""
    n = len(a)
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
                return 0
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
    return sign * a[n - 1][n - 1] if n else 1


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant; the empty 0x0 matrix has determinant 1."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = 1
    cleared: list[list[int]] = []
    for row in m.entries:
        den = math.lcm(*(v.denominator for v in row))
        scale *= den
        cleared.append([v.numerator * (den // v.denominator) for v in row])
    return Fraction(_int_determinant(cleared), scale)


def format_rational(v: Fraction | int) -> str:
    """Render as ``p/q``, or plain ``n`` for integers."""
    v = Fraction(v)
    return str(v)
