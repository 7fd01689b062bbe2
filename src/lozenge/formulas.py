"""Closed-form product polynomials and constants for the tiling counts.

The two zigzag-anchored families have tiling generating functions given
by explicit products: a normalizing constant depending only on the bump
labels, a monic "staircase" base polynomial depending only on the list
lengths, and linear factors indexed by the cells of the label partitions.
This module evaluates all of it exactly, along with the classical boxed
plane partition product and the binomial coefficients that drive the
last-row recurrences of the determinant encoding.

Each product formula is described once as an integer constant
``(num, den)`` and a netted factor table ``{h: e}``: the product over the
table of ``(y + h/2) ** e``, with ``h`` the doubled offset.  A factor
``(2y + c)`` enters as ``2 * (y + c/2)``; the rising products
``(y + i + 1/2)_m`` that divide the base polynomials enter with negative
exponents and cancel against the factors of the numerator.  After netting
no exponent of ``B`` or ``Bbar`` is negative, so they and ``P``/``Pbar``
evaluate at every rational ``x``, half-integers included.  At ``y = p/d``
every factor is the integer ``(2p + h*d) / (2d)``, so one evaluation
multiplies Python ints and builds exactly one ``Fraction`` at the end.
A tiling polynomial is prepared once per (l, q) as a :class:`ProductForm`
(:func:`product_form`) and evaluated at each x by :func:`evaluate`;
``p_poly`` and ``bar_p_poly`` do both in one call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import binomial
from .regions import IndexList, check_index_list

FactorTable = dict[int, int]  # doubled offset h -> exponent of (y + h/2)


def _rise(table: FactorTable, h: int, count: int, step: int = 2, e: int = 1) -> None:
    """Add ``e`` to the exponents of ``count`` factors from ``(y + h/2)``,
    the doubled offset rising by ``step`` (2 for a rising product in y)."""
    for g in range(h, h + step * count, step):
        table[g] = table.get(g, 0) + e


def _tent(table: FactorTable, h: int, count: int) -> None:
    """``count`` factors from ``(y + h/2)``, offsets rising by 1, with
    tent-shaped exponents 1, 2, ..., rising to the middle and falling back
    to 1 (so 1,2,2,1 for four factors, 1,2,3,2,1 for five).

    The calibration tests pin this reading against independently counted
    staircase regions; the flat reading 1,2,...,2,1 first diverges at five
    factors and fails those counts.
    """
    for j in range(1, count + 1):
        g = h + 2 * (j - 1)
        table[g] = table.get(g, 0) + min(j, count + 1 - j)


# In both base polynomials the prefactor 2**-(...) cancels the 2 taken out
# of each (2y + c) factor, which is why they are monic with constant 1.


def _b_table(m: int, n: int) -> FactorTable:
    t: FactorTable = {}
    _rise(t, 2 * n + 2, m)  # (y + n + 1)_m
    _rise(t, 2 * n + 4, m)  # (y + n + 2)_m
    _tent(t, 4, n - 1)  # tent from y + 2
    _tent(t, 3, n)  # tent from y + 3/2
    for i in range(1, n + 1):
        _rise(t, 2 * i, m)  # (y + i)_m
        _rise(t, 2 * i + 1, m, e=-1)  # / (y + i + 1/2)_m
    for i in range(1, m + 1):
        _rise(t, n + i + 2, n + i - 1, step=1)  # (2y + n + i + 2)_{n+i-1}
    return t


def _bar_b_table(m: int, n: int) -> FactorTable:
    t: FactorTable = {}
    _rise(t, 2 * m + 2, n)  # (y + m + 1)_n
    _tent(t, 2, m)  # tent from y + 1
    _tent(t, 3, m - 1)  # tent from y + 3/2
    for i in range(1, m + 1):
        _rise(t, 2 * i, n)  # (y + i)_n
        _rise(t, 2 * i + 1, n, e=-1)  # / (y + i + 1/2)_n
    for i in range(1, n + 1):
        _rise(t, m + i + 1, m + i, step=1)  # (2y + m + i + 1)_{m+i}
    return t


def _p_table(l: IndexList, q: IndexList, barred: bool) -> FactorTable:
    """The base table of the list lengths times the linear factors of the
    labels, in ``y = x + l_m - m``.

    Plain family: (y + m - j)(y + n + j + 2) for i <= j < l_i and
    (y + n - j + 1)(y + m + j + 1) for i <= j < q_i.  The shifted family
    has (y + n + j + 1) and (y + n - j) in place of the second and third.
    """
    m, n = len(l), len(q)
    t = _bar_b_table(m, n) if barred else _b_table(m, n)
    s = 1 if barred else 2
    for i, li in enumerate(l, start=1):
        _rise(t, 2 * (m - li + 1), li - i)
        _rise(t, 2 * (n + i + s), li - i)
    for i, qi in enumerate(q, start=1):
        _rise(t, 2 * (n - qi + s), qi - i)
        _rise(t, 2 * (m + i + 1), qi - i)
    return t


class ProductForm(NamedTuple):
    """A product formula prepared for evaluation: ``num/den * prod (y + h/2)
    ** e`` over the table, at ``y = x + shift``."""

    const: tuple[int, int]
    table: FactorTable
    shift: int = 0

    @property
    def degree(self) -> int:
        """The degree in x: the exponent sum of the netted table."""
        return sum(self.table.values())


def evaluate(form: ProductForm, x: Fraction | int) -> Fraction:
    """The prepared formula's value at ``x``.

    A genuine pole (a negative exponent whose factor vanishes) raises
    ``ZeroDivisionError``; none of the tables here has one.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    d = x.denominator
    two_p = 2 * (x.numerator + form.shift * d)
    num, den = form.const
    degree = 0
    for h, e in form.table.items():
        if e > 0:
            num *= (two_p + h * d) ** e
        elif e < 0:
            den *= (two_p + h * d) ** -e
        degree += e
    if degree >= 0:
        den *= (2 * d) ** degree
    else:
        num *= (2 * d) ** -degree
    return Fraction(num, den)


def b_poly(m: int, n: int, x: Fraction | int) -> Fraction:
    """The monic base polynomial attached to staircase labels (plain family)."""
    if m < 0 or n < 0:
        raise ValueError("list lengths must be nonnegative")
    return evaluate(ProductForm((1, 1), _b_table(m, n)), x)


def bar_b_poly(m: int, n: int, x: Fraction | int) -> Fraction:
    """The monic base polynomial attached to staircase labels (shifted family)."""
    if m < 0 or n < 0:
        raise ValueError("list lengths must be nonnegative")
    return evaluate(ProductForm((1, 1), _bar_b_table(m, n)), x)


def _choose2(z: int) -> int:
    return z * (z - 1) // 2


def _const(l: IndexList, q: IndexList, barred: bool) -> tuple[int, int]:
    """Common shape of the two normalizing constants, as ``(num, den)``.

    The factorials are (2 l_i)! and (2 q_i - 1)! for the plain family,
    (2 l_i - 1)! and (2 q_i)! for the shifted one.
    """
    m, n = len(l), len(q)
    l_shift, q_shift = (1, 0) if barred else (0, 1)
    num, den = 1, 1
    power = _choose2(n - m) - m
    if power >= 0:
        num <<= power
    else:
        den <<= -power
    for v in l:
        den *= math.factorial(2 * v - l_shift)
    for v in q:
        den *= math.factorial(2 * v - q_shift)
    for lst in (l, q):
        for i, v in enumerate(lst):
            for w in lst[i + 1 :]:
                num *= w - v
    for li in l:
        for qj in q:
            den *= li + qj
    return num, den


def c_const(l, q) -> Fraction:
    return Fraction(*_const(check_index_list(l, "l"), check_index_list(q, "q"), False))


def bar_c_const(l, q) -> Fraction:
    return Fraction(*_const(check_index_list(l, "l"), check_index_list(q, "q"), True))


def product_form(l, q, barred: bool = False) -> ProductForm:
    """The tiling polynomial of (l, q), of the shifted family when ``barred``,
    prepared once for evaluation at any x: its constant, its netted factor
    table and the shift ``l_m - m`` of y from x."""
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    lm = l[-1] if l else 0
    return ProductForm(_const(l, q, barred), _p_table(l, q, barred), lm - len(l))


def p_poly(l, q, x: Fraction | int) -> Fraction:
    """Tiling polynomial of the plain zigzag family, in product form."""
    return evaluate(product_form(l, q), x)


def bar_p_poly(l, q, x: Fraction | int) -> Fraction:
    """Tiling polynomial of the shifted zigzag family, in product form."""
    return evaluate(product_form(l, q, True), x)


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


def _upper_coeff(k: int, l: IndexList, q: IndexList, x: int, barred: bool) -> Fraction:
    """Upper-bump coefficient of the plain family, or of the shifted one when
    ``barred``, on lists already returned by ``check_index_list``."""
    m, n = len(l), len(q)
    _need(1 <= k <= n, f"k={k} out of range 1..{n}")
    shift = 1 if barred else 0
    lm = l[-1] if l else 0
    top = x + lm + q[k - 1]
    low = 2 * q[k - 1] + m - n + shift
    return Fraction(binomial(top, low)) + Fraction(binomial(top, low - 1), 2)


def _lower_coeff(k: int, l: IndexList, q: IndexList, x: int, barred: bool) -> Fraction:
    """Lower-bump coefficient of the plain family, or of the shifted one when
    ``barred``, on lists already returned by ``check_index_list``."""
    m, n = len(l), len(q)
    _need(1 <= k <= m, f"k={k} out of range 1..{m}")
    shift = 0 if barred else 1
    lm, lk = l[-1], l[k - 1]
    return Fraction(binomial(x + lm + lk - m + n + shift, 2 * lk - m + n + shift))


def coeff_C(k: int, l, q, x: int) -> Fraction:
    """Upper-bump elimination coefficient for the plain family (m <= n)."""
    return _upper_coeff(k, check_index_list(l, "l"), check_index_list(q, "q"), x, False)


def coeff_D(k: int, l, q, x: int) -> Fraction:
    """Lower-bump elimination coefficient for the plain family (m > n)."""
    return _lower_coeff(k, check_index_list(l, "l"), check_index_list(q, "q"), x, False)


def coeff_barC(k: int, l, q, x: int) -> Fraction:
    """Upper-bump elimination coefficient for the shifted family (m < n)."""
    return _upper_coeff(k, check_index_list(l, "l"), check_index_list(q, "q"), x, True)


def coeff_barD(k: int, l, q, x: int) -> Fraction:
    """Lower-bump elimination coefficient for the shifted family (m >= n)."""
    return _lower_coeff(k, check_index_list(l, "l"), check_index_list(q, "q"), x, True)
