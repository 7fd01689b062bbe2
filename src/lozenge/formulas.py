"""Closed-form product polynomials and constants for the tiling counts.

The two zigzag-anchored families have tiling generating functions given
by explicit products: a normalizing constant depending only on the bump
labels, a monic "staircase" base polynomial depending only on the list
lengths, and linear factors indexed by the cells of the label partitions.
This module evaluates all of it exactly, along with the classical boxed
plane partition product and the binomial coefficients that drive the
last-row recurrences of the determinant encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import binomial, shifted_factorial
from .regions import IndexList, check_index_list


def _tent_product(base: Fraction, count: int) -> Fraction:
    """Product of ``count`` factors with bases rising by 1 from ``base`` and
    tent-shaped exponents 1, 2, ..., rising to the middle and falling back
    to 1 (so 1,2,2,1 for four factors, 1,2,3,2,1 for five).

    The calibration tests pin this reading against independently counted
    staircase regions; the flat reading 1,2,...,2,1 first diverges at five
    factors and fails those counts.
    """
    out = Fraction(1)
    for j in range(1, count + 1):
        out *= (base + j - 1) ** min(j, count + 1 - j)
    return out


def _tent_degree(count: int) -> int:
    return (count + 1) ** 2 // 4 if count > 0 else 0


def b_poly(m: int, n: int, x: Fraction | int) -> Fraction:
    """The monic base polynomial attached to staircase labels (plain family)."""
    if m < 0 or n < 0:
        raise ValueError("list lengths must be nonnegative")
    x = Fraction(x)
    val = Fraction(1, 2 ** (m * n + m * (m - 1) // 2))
    val *= shifted_factorial(x + n + 1, m) * shifted_factorial(x + n + 2, m)
    val *= _tent_product(x + 2, n - 1)
    val *= _tent_product(x + Fraction(3, 2), n)
    for i in range(1, n + 1):
        val *= shifted_factorial(x + i, m) / shifted_factorial(x + i + Fraction(1, 2), m)
    for i in range(1, m + 1):
        val *= shifted_factorial(2 * x + n + i + 2, n + i - 1)
    return val


def bar_b_poly(m: int, n: int, x: Fraction | int) -> Fraction:
    """The monic base polynomial attached to staircase labels (shifted family)."""
    if m < 0 or n < 0:
        raise ValueError("list lengths must be nonnegative")
    x = Fraction(x)
    val = Fraction(1, 2 ** (m * n + n * (n + 1) // 2))
    val *= shifted_factorial(x + m + 1, n)
    val *= _tent_product(x + 1, m)
    val *= _tent_product(x + Fraction(3, 2), m - 1)
    for i in range(1, m + 1):
        val *= shifted_factorial(x + i, n) / shifted_factorial(x + i + Fraction(1, 2), n)
    for i in range(1, n + 1):
        val *= shifted_factorial(2 * x + m + i + 1, m + i)
    return val


def _choose2(z: int) -> int:
    return z * (z - 1) // 2


def _const(l: IndexList, q: IndexList, l_shift: int, q_shift: int) -> Fraction:
    """Common shape of the two normalizing constants.

    ``l_shift``/``q_shift`` select which factorials appear: (2 l_i)! and
    (2 q_i - 1)! for the plain family, (2 l_i - 1)! and (2 q_i)! for the
    shifted one.
    """
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    m, n = len(l), len(q)
    val = Fraction(2) ** (_choose2(n - m) - m)
    for v in l:
        val /= math.factorial(2 * v - l_shift)
    for v in q:
        val /= math.factorial(2 * v - q_shift)
    for i in range(m):
        for j in range(i + 1, m):
            val *= l[j] - l[i]
    for i in range(n):
        for j in range(i + 1, n):
            val *= q[j] - q[i]
    for li in l:
        for qj in q:
            val /= li + qj
    return val


def c_const(l, q) -> Fraction:
    return _const(tuple(l), tuple(q), 0, 1)


def bar_c_const(l, q) -> Fraction:
    return _const(tuple(l), tuple(q), 1, 0)


@dataclass(frozen=True)
class PartitionShape:
    """Partition attached to a label list, with its anchored cell statistic.

    The parts are ``l_i - i``; the diagram keeps its zero rows, with row i
    (1-based, shortest first) of length ``l_i - i``, and a cell in row i,
    column j carries the statistic ``h = i + j``.  The anchored statistic
    multiset is exactly ``{i+1, ..., l_i}`` joined over i.
    """

    parts: tuple[int, ...]  # weakly decreasing, zero parts dropped
    nrows: int

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    def size(self) -> int:
        return sum(self.parts)

    def cells(self) -> list[tuple[int, int]]:
        rising = sorted(self.parts) + [0] * (self.nrows - len(self.parts))
        rising = sorted(rising)
        return [(i, j) for i in range(1, self.nrows + 1) for j in range(1, rising[i - 1] + 1)]

    def h_values(self) -> list[int]:
        return [i + j for i, j in self.cells()]


def partition_of(lst) -> PartitionShape:
    lst = check_index_list(lst)
    parts = tuple(sorted((v - i for i, v in enumerate(lst, start=1)), reverse=True))
    parts = tuple(p for p in parts if p > 0)
    return PartitionShape(parts, len(lst))


def _h_multiset(lst: IndexList) -> list[int]:
    return [h for i, v in enumerate(lst, start=1) for h in range(i + 1, v + 1)]


def p_poly(l, q, x: Fraction | int) -> Fraction:
    """Tiling polynomial of the plain zigzag family, in product form."""
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    m, n = len(l), len(q)
    lm = l[-1] if l else 0
    x = Fraction(x)
    val = c_const(l, q) * b_poly(m, n, x + lm - m)
    for i, li in enumerate(l, start=1):
        for j in range(i, li):
            val *= (x + lm - j) * (x + lm - m + n + j + 2)
    for i, qi in enumerate(q, start=1):
        for j in range(i, qi):
            val *= (x + lm - m + n - j + 1) * (x + lm + j + 1)
    return val


def bar_p_poly(l, q, x: Fraction | int) -> Fraction:
    """Tiling polynomial of the shifted zigzag family, in product form."""
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    m, n = len(l), len(q)
    lm = l[-1] if l else 0
    x = Fraction(x)
    val = bar_c_const(l, q) * bar_b_poly(m, n, x + lm - m)
    for i, li in enumerate(l, start=1):
        for j in range(i, li):
            val *= (x + lm - j) * (x + lm - m + n + j + 1)
    for i, qi in enumerate(q, start=1):
        for j in range(i, qi):
            val *= (x + lm - m + n - j) * (x + lm + j + 1)
    return val


def p_poly_shifted_form(l, q, x: Fraction | int, barred: bool = False) -> Fraction:
    """The same polynomials written through the partition cell statistic.

    Evaluates the defining form P(x - largest_part) = const * base * linear
    factors over partition cells; provided as an independent expression of
    :func:`p_poly` and :func:`bar_p_poly` for cross-checking.
    """
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    m, n = len(l), len(q)
    lam1 = (l[-1] - m) if l else 0
    y = Fraction(x) + lam1
    if barred:
        val = bar_c_const(l, q) * bar_b_poly(m, n, y)
        for h in _h_multiset(l):
            val *= (y - h + m + 1) * (y + h + n)
        for h in _h_multiset(q):
            val *= (y - h + n + 1) * (y + h + m)
    else:
        val = c_const(l, q) * b_poly(m, n, y)
        for h in _h_multiset(l):
            val *= (y - h + m + 1) * (y + h + n + 1)
        for h in _h_multiset(q):
            val *= (y - h + n + 2) * (y + h + m)
    return val


def p_poly_degree(l, q, barred: bool = False) -> int:
    """Degree of the tiling polynomial in x."""
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    m, n = len(l), len(q)

    if barred:
        base = n + _tent_degree(m) + _tent_degree(m - 1) + sum(m + i for i in range(1, n + 1))
    else:
        base = 2 * m + _tent_degree(n - 1) + _tent_degree(n) + sum(n + i - 1 for i in range(1, m + 1))
    return base + 2 * len(_h_multiset(l)) + 2 * len(_h_multiset(q))


def macmahon(a: int, b: int, c: int) -> int:
    """Number of boxed plane partitions (equivalently, hexagon tilings).

    Product form with exponents rising 1..a, flat at a, falling back to 1
    across bases c+1 .. c+a+b-1, divided by the same with c = 0.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    if a > b:
        a, b = b, a
    val = Fraction(1)
    for t in range(1, a + b):
        val *= Fraction(c + t, t) ** min(t, a, a + b - t)
    if val.denominator != 1:
        raise AssertionError("plane partition product did not reduce to an integer")
    return val.numerator


# ---------------------------------------------------------------------------
# last-row coefficients of the determinant encodings


def _need(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def coeff_C(k: int, l, q, x: int) -> Fraction:
    """Upper-bump elimination coefficient for the plain family (m <= n)."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    _need(1 <= k <= n, f"k={k} out of range 1..{n}")
    lm = l[-1] if l else 0
    top = x + lm + q[k - 1]
    low = 2 * q[k - 1] + m - n
    return Fraction(binomial(top, low)) + Fraction(binomial(top, low - 1), 2)


def coeff_C_product(k: int, l, q, x: int) -> Fraction:
    """The same coefficient written as one rising product.

    A negative product length follows the reciprocal convention
    (a)_{-j} = 1/((a-1)(a-2)...(a-j)).
    """
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    _need(1 <= k <= n, f"k={k} out of range 1..{n}")
    lm = l[-1] if l else 0
    qk = q[k - 1]
    length = 2 * qk + m - n - 1
    base = Fraction(x + lm - qk - m + n + 2)
    if length >= 0:
        rising = shifted_factorial(base, length)
    else:
        rising = 1 / shifted_factorial(base + length, -length)
    num = (2 * x + 2 * lm - m + n + 2) * rising
    return num / (2 * math.factorial(2 * qk + m - n))


def coeff_D(k: int, l, q, x: int) -> Fraction:
    """Lower-bump elimination coefficient for the plain family (m > n)."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    _need(1 <= k <= m, f"k={k} out of range 1..{m}")
    lm = l[-1]
    return Fraction(binomial(x + lm + l[k - 1] - m + n + 1, 2 * l[k - 1] - m + n + 1))


def coeff_barC(k: int, l, q, x: int) -> Fraction:
    """Upper-bump elimination coefficient for the shifted family (m < n)."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    _need(1 <= k <= n, f"k={k} out of range 1..{n}")
    lm = l[-1] if l else 0
    top = x + lm + q[k - 1]
    low = 2 * q[k - 1] + m - n + 1
    return Fraction(binomial(top, low)) + Fraction(binomial(top, low - 1), 2)


def coeff_barD(k: int, l, q, x: int) -> Fraction:
    """Lower-bump elimination coefficient for the shifted family (m >= n)."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    _need(1 <= k <= m, f"k={k} out of range 1..{m}")
    lm = l[-1]
    return Fraction(binomial(x + lm + l[k - 1] - m + n, 2 * l[k - 1] - m + n))
