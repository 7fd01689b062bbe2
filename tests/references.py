"""Reference forms that more than one test module compares the package with.

Each writes out again, independently, something the package computes
another way; the package itself never calls them.
"""

import math
from fractions import Fraction

from lozenge.regions import check_index_list


def shifted_factorial(a: Fraction | int, k: int) -> Fraction:
    """Rising product a(a+1)...(a+k-1); equals 1 for k = 0."""
    if k < 0:
        raise ValueError(f"shifted_factorial needs k >= 0, got {k}")
    out = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        out *= a + i
    return out


def coeff_C_product(k: int, l, q, x: int) -> Fraction:
    """:func:`lozenge.formulas.coeff_C` written as one rising product.

    A negative product length follows the reciprocal convention
    (a)_{-j} = 1/((a-1)(a-2)...(a-j)).
    """
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
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
