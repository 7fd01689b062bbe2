import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lozenge.count import count_oracle
from lozenge.formulas import (
    ProductForm,
    _b_table,
    _bar_b_table,
    _const,
    b_poly,
    bar_b_poly,
    bar_c_const,
    bar_p_poly,
    c_const,
    coeff_C,
    coeff_D,
    evaluate,
    macmahon,
    p_poly,
    product_form,
)
from lozenge.regions import HexParams, check_index_list, hexagon, r_bar_region, r_region
from lozenge.verify import index_list_pairs
from references import coeff_C_product, shifted_factorial as sf

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# reference evaluators: the product formulas multiplied out one normalised
# Fraction per linear factor, as the formulas were first written


def _reference_tent(base, count):
    out = Fraction(1)
    for j in range(1, count + 1):
        out *= (base + j - 1) ** min(j, count + 1 - j)
    return out


def reference_b_poly(m, n, x):
    x = Fraction(x)
    val = Fraction(1, 2 ** (m * n + m * (m - 1) // 2))
    val *= sf(x + n + 1, m) * sf(x + n + 2, m)
    val *= _reference_tent(x + 2, n - 1)
    val *= _reference_tent(x + Fraction(3, 2), n)
    for i in range(1, n + 1):
        val *= sf(x + i, m) / sf(x + i + HALF, m)
    for i in range(1, m + 1):
        val *= sf(2 * x + n + i + 2, n + i - 1)
    return val


def reference_bar_b_poly(m, n, x):
    x = Fraction(x)
    val = Fraction(1, 2 ** (m * n + n * (n + 1) // 2))
    val *= sf(x + m + 1, n)
    val *= _reference_tent(x + 1, m)
    val *= _reference_tent(x + Fraction(3, 2), m - 1)
    for i in range(1, m + 1):
        val *= sf(x + i, n) / sf(x + i + HALF, n)
    for i in range(1, n + 1):
        val *= sf(2 * x + m + i + 1, m + i)
    return val


def reference_const(l, q, l_shift, q_shift):
    m, n = len(l), len(q)
    val = Fraction(2) ** ((n - m) * (n - m - 1) // 2 - m)
    for v in l:
        val /= math.factorial(2 * v - l_shift)
    for v in q:
        val /= math.factorial(2 * v - q_shift)
    for lst in (l, q):
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                val *= lst[j] - lst[i]
    for li in l:
        for qj in q:
            val /= li + qj
    return val


def reference_p_poly(l, q, x):
    m, n = len(l), len(q)
    lm = l[-1] if l else 0
    x = Fraction(x)
    val = reference_const(l, q, 0, 1) * reference_b_poly(m, n, x + lm - m)
    for i, li in enumerate(l, start=1):
        for j in range(i, li):
            val *= (x + lm - j) * (x + lm - m + n + j + 2)
    for i, qi in enumerate(q, start=1):
        for j in range(i, qi):
            val *= (x + lm - m + n - j + 1) * (x + lm + j + 1)
    return val


def reference_bar_p_poly(l, q, x):
    m, n = len(l), len(q)
    lm = l[-1] if l else 0
    x = Fraction(x)
    val = reference_const(l, q, 1, 0) * reference_bar_b_poly(m, n, x + lm - m)
    for i, li in enumerate(l, start=1):
        for j in range(i, li):
            val *= (x + lm - j) * (x + lm - m + n + j + 1)
    for i, qi in enumerate(q, start=1):
        for j in range(i, qi):
            val *= (x + lm - m + n - j) * (x + lm + j + 1)
    return val


# integer, negative, third and quarter points
REFERENCE_POINTS = [Fraction(v) for v in ("-3", "2", "-7/3", "9/4")]


def _agree_where_reference_is_defined(fast, reference, args, points=REFERENCE_POINTS):
    checked = 0
    for x in points:
        try:
            want = reference(*args, x)
        except ZeroDivisionError:
            continue
        assert fast(*args, x) == want, (fast.__name__, args, x)
        checked += 1
    return checked


def test_polynomials_equal_the_reference_evaluators():
    checked = 0
    for l, q in index_list_pairs(5, 3):
        checked += _agree_where_reference_is_defined(p_poly, reference_p_poly, (l, q))
        checked += _agree_where_reference_is_defined(bar_p_poly, reference_bar_p_poly, (l, q))
        assert c_const(l, q) == reference_const(l, q, 0, 1)
        assert bar_c_const(l, q) == reference_const(l, q, 1, 0)
    assert checked == 2 * 676 * len(REFERENCE_POINTS)


def test_base_polynomials_equal_the_reference_evaluators():
    points = REFERENCE_POINTS + [Fraction(v) for v in ("0", "5", "4/3", "-5/4")]
    points += [Fraction(k, 2) for k in range(-9, 10, 2)]
    for m in range(7):
        for n in range(7):
            _agree_where_reference_is_defined(b_poly, reference_b_poly, (m, n), points)
            _agree_where_reference_is_defined(bar_b_poly, reference_bar_b_poly, (m, n), points)


def _staircase(t):
    return tuple(range(1, t + 1))


def _reference_degree(l, q, barred):
    """The degree counted factor by factor: the base polynomial's rising
    products and tents, then two linear factors per anchored cell."""

    def tent(count):
        return (count + 1) ** 2 // 4 if count > 0 else 0

    m, n = len(l), len(q)
    if barred:
        base = n + tent(m) + tent(m - 1) + sum(m + i for i in range(1, n + 1))
    else:
        base = 2 * m + tent(n - 1) + tent(n) + sum(n + i - 1 for i in range(1, m + 1))
    cells = sum(v - i for lst in (l, q) for i, v in enumerate(lst, start=1))
    return base + 2 * cells


def test_factor_tables_are_polynomials_of_the_stated_degree():
    from lozenge.formulas import _b_table, _bar_b_table, _p_table

    for barred, table in ((False, _b_table), (True, _bar_b_table)):
        for m in range(11):
            for n in range(11):
                t = table(m, n)
                assert min(t.values(), default=0) >= 0, (barred, m, n)
                assert sum(t.values()) == _reference_degree(_staircase(m), _staircase(n), barred)
    for l, q in index_list_pairs(5, 3):
        for barred in (False, True):
            t = _p_table(l, q, barred)
            assert min(t.values(), default=0) >= 0, (l, q, barred)
            assert product_form(l, q, barred).degree == _reference_degree(l, q, barred)


def _lagrange_eval(xs, ys, x):
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Fraction(yi)
        for j, xj in enumerate(xs):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def test_removable_poles_evaluate_to_the_interpolated_polynomial():
    # (y + i + 1/2)_m divides the base polynomials but cancels against the
    # numerator, so negative half-integers are ordinary points
    half_points = [Fraction(k, 2) for k in range(-11, 0, 2)]
    poles = 0
    cases = [(b_poly, reference_b_poly, False, m, n) for m in range(4) for n in range(4)]
    cases += [(bar_b_poly, reference_bar_b_poly, True, m, n) for m in range(4) for n in range(4)]
    for fast, reference, barred, m, n in cases:
        xs = list(range(product_form(_staircase(m), _staircase(n), barred).degree + 1))
        ys = [fast(m, n, x) for x in xs]
        for x in half_points:
            try:
                reference(m, n, x)
            except ZeroDivisionError:
                poles += 1
            assert fast(m, n, x) == _lagrange_eval(xs, ys, x), (fast.__name__, m, n, x)
    for l, q in [((1, 3), (2,)), ((2,), (1, 2)), ((1, 2, 4), (3,))]:
        for fast, reference, barred in (
            (p_poly, reference_p_poly, False),
            (bar_p_poly, reference_bar_p_poly, True),
        ):
            xs = list(range(product_form(l, q, barred).degree + 1))
            ys = [fast(l, q, x) for x in xs]
            for x in half_points:
                try:
                    reference(l, q, x)
                except ZeroDivisionError:
                    poles += 1
                assert fast(l, q, x) == _lagrange_eval(xs, ys, x), (fast.__name__, l, q, x)
    assert poles > 0  # the reference evaluators do divide by zero at some of these points


def test_base_polynomials_hand_values():
    x = Fraction(7, 3)
    assert b_poly(0, 0, x) == 1
    assert bar_b_poly(0, 0, x) == 1
    assert b_poly(0, 1, x) == x + Fraction(3, 2)
    assert b_poly(1, 0, x) == (x + 1) * (x + 2)
    assert b_poly(1, 1, x) == (x + 1) * (x + 2) ** 2 * (x + 3)
    assert bar_b_poly(1, 0, x) == x + 1
    assert bar_b_poly(0, 1, x) == (x + 1) ** 2
    assert bar_b_poly(1, 1, x) == (x + 1) ** 2 * (x + 2) ** 2


@pytest.mark.parametrize("m", range(0, 4))
@pytest.mark.parametrize("n", range(0, 4))
def test_base_polynomials_are_monic(m, n):
    # leading coefficient 1: compare growth against x**degree at a huge x
    big = Fraction(10**9)
    for poly, barred in ((b_poly, False), (bar_b_poly, True)):
        staircase = lambda t: tuple(range(1, t + 1))
        deg = product_form(staircase(m), staircase(n), barred).degree
        ratio = poly(m, n, big) / big**deg
        assert abs(ratio - 1) < Fraction(1, 10**6)


def test_constants_examples():
    assert c_const((), ()) == 1
    assert bar_c_const((), ()) == 1
    assert c_const((1,), (1,)) == Fraction(1, 8)
    assert c_const((1, 3), ()) == Fraction(1, 360)
    assert bar_c_const((1,), ()) == 1


def test_constant_drop_largest_ratios():
    # removing the largest label of either list changes the constant by an
    # explicit one-line factor
    for l, q in [((1, 3), (1,)), ((2, 4), (1, 3)), ((1,), (2,)), ((2, 3, 5), ())]:
        m, n = len(l), len(q)
        lm = l[-1]
        got = bar_c_const(l, q) / bar_c_const(l[:-1], q)
        want = Fraction(2) ** (m - n - 1) / _fact(2 * lm - 1)
        for v in l[:-1]:
            want *= lm - v
        for v in q:
            want /= lm + v
        assert got == want
    for l, q in [((1,), (1, 3)), ((), (2, 4)), ((2,), (1, 2, 4))]:
        m, n = len(l), len(q)
        qn = q[-1]
        got = bar_c_const(l, q) / bar_c_const(l, q[:-1])
        want = Fraction(2) ** (n - m - 1) / _fact(2 * qn)
        for v in q[:-1]:
            want *= qn - v
        for v in l:
            want /= qn + v
        assert got == want


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _h_multiset(lst) -> list[int]:
    return [h for i, v in enumerate(lst, start=1) for h in range(i + 1, v + 1)]


def p_poly_shifted_form(l, q, x, barred: bool = False) -> Fraction:
    """The tiling polynomials written through the partition cell statistic.

    Evaluates the defining form P(x - largest_part) = const * base * linear
    factors over partition cells, an independent expression of the linear
    factors of :func:`p_poly` and :func:`bar_p_poly`.
    """
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    m, n = len(l), len(q)
    lam1 = (l[-1] - m) if l else 0
    y = Fraction(x) + lam1
    base = _bar_b_table(m, n) if barred else _b_table(m, n)
    val = evaluate(ProductForm(_const(l, q, barred), base), y)
    if barred:
        for h in _h_multiset(l):
            val *= (y - h + m + 1) * (y + h + n)
        for h in _h_multiset(q):
            val *= (y - h + n + 1) * (y + h + m)
    else:
        for h in _h_multiset(l):
            val *= (y - h + m + 1) * (y + h + n + 1)
        for h in _h_multiset(q):
            val *= (y - h + n + 2) * (y + h + m)
    return val


def test_anchored_cell_statistic_examples():
    assert _h_multiset((2, 3)) == [2, 3]
    # anchored statistic depends on the list, not only on the parts
    assert _h_multiset((2,)) == [2]
    assert _h_multiset((1, 3)) == [3]


def test_polynomials_trivial_and_fixture_values():
    assert p_poly((), (), 17) == 1
    assert bar_p_poly((), (), 17) == 1
    assert p_poly((1,), (), 0) == 1
    assert p_poly((1,), (), 1) == 3
    assert p_poly((), (1,), -1) == HALF
    assert bar_p_poly((), (1,), 0) == HALF


def test_polynomials_count_tilings():
    for l, q, x in [((2, 4, 5), (2, 4), 2), ((2, 4, 5), (2, 4), 3)]:
        assert p_poly(l, q, x) == count_oracle(r_region(l, q, x))
    for l, q, x in [((2, 4, 5), (2, 4), 3), ((2, 4, 5), (2, 4), 4)]:
        assert bar_p_poly(l, q, x) == count_oracle(r_bar_region(l, q, x))


def test_shifted_form_agrees_with_product_form():
    points = [Fraction(j, 3) for j in range(0, 60, 3)]  # 20 rational points
    for l, q in index_list_pairs(4, 2):
        for barred in (False, True):
            direct = bar_p_poly if barred else p_poly
            for x in points:
                assert direct(l, q, x) == p_poly_shifted_form(l, q, x, barred=barred)


def test_polynomial_degree_and_interpolation():
    # reconstruct by interpolation on degree+1 integer points, then the
    # reconstruction matches everywhere else
    for l, q, barred in [((2, 4), (1,), False), ((1, 3), (2, 4), True), ((), (3,), False)]:
        poly = bar_p_poly if barred else p_poly
        d = product_form(l, q, barred).degree
        xs = list(range(d + 1))
        ys = [poly(l, q, x) for x in xs]
        for probe in (Fraction(101), Fraction(-17, 3), Fraction(55, 2)):
            assert poly(l, q, probe) == _lagrange_eval(xs, ys, probe)


def test_macmahon_values():
    assert macmahon(0, 5, 7) == 1
    assert macmahon(1, 1, 1) == 2
    assert macmahon(2, 2, 2) == 20
    assert macmahon(3, 3, 3) == 980


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_macmahon_box_symmetry(a, b, c):
    base = macmahon(a, b, c)
    import itertools

    for perm in itertools.permutations((a, b, c)):
        assert macmahon(*perm) == base


def test_macmahon_equals_hexagon_oracle():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert macmahon(a, b, b) == count_oracle(hexagon(HexParams(a, b, 0)))


def test_coefficient_examples():
    assert coeff_C(1, (1,), (1,), 1) == Fraction(9, 2)
    assert coeff_D(1, (1, 2), (), 2) == 4
    with pytest.raises(ValueError):
        coeff_C(2, (1,), (1,), 1)
    with pytest.raises(ValueError):
        coeff_D(0, (1, 2), (), 2)


def test_coefficient_product_form_agreement():
    for l, q in index_list_pairs(4, 2):
        if not q or len(l) > len(q):
            continue
        for x in range(0, 5):
            for k in range(1, len(q) + 1):
                assert coeff_C(k, l, q, x) == coeff_C_product(k, l, q, x)


def test_base_ratio_identities_at_ten_points():
    for m in range(0, 4):
        for n in range(0, 4):
            for xi in range(1, 11):
                x = Fraction(xi)
                if n >= 1:
                    lhs = b_poly(m, n, x) / b_poly(m, n - 1, x)
                    rhs = Fraction(1, 2 ** (m + n)) * sf(2 * x + m + n + 2, m + n)
                    for i in range(m):
                        rhs *= (x + m + n - i + 1) / (x + m + n - i + HALF)
                    assert lhs == rhs
                if m == n and n >= 1:
                    assert bar_b_poly(n, n, x) / b_poly(n, n - 1, x) == sf(x + 1, 2 * n)
                if m >= 1:
                    lhs = b_poly(m, n, x) / b_poly(m - 1, n, x)
                    rhs = (
                        Fraction(1, 2 ** (m + n - 1))
                        * (x + m + n)
                        * (x + m + n + 1)
                        * sf(2 * x + m + n + 2, m + n - 1)
                    )
                    for i in range(n):
                        rhs *= (x + m + i) / (x + m + i + HALF)
                    assert lhs == rhs
                if n >= 1:
                    lhs = bar_b_poly(m, n, x) / bar_b_poly(m, n - 1, x)
                    rhs = Fraction(1, 2 ** (m + n)) * (x + m + n) * sf(2 * x + m + n + 1, m + n)
                    for i in range(m):
                        rhs *= (x + m + n - i - 1) / (x + m + n - i - HALF)
                    assert lhs == rhs
                if m >= 1:
                    lhs = bar_b_poly(m, n, x) / bar_b_poly(m - 1, n, x)
                    rhs = Fraction(1, 2 ** (m + n)) * sf(2 * x + m + n + 1, m + n)
                    for i in range(n):
                        rhs *= (x + m + i + 1) / (x + m + i + HALF)
                    assert lhs == rhs
                if m == n and n >= 1:
                    assert b_poly(n, n, x - 1) / bar_b_poly(n - 1, n, x) == sf(x, 2 * n + 1) / (x + n)


def test_calibration_distinguishes_the_tent_exponents():
    # with five or more middle factors the tent exponents 1,2,3,2,1 differ
    # from the flat reading 1,2,2,2,1; staircase counts pin the tent
    for m in (5, 6):
        staircase = tuple(range(1, m + 1))
        for x in (0, 1):
            want = count_oracle(r_bar_region(staircase, (), x))
            assert bar_c_const(staircase, ()) * bar_b_poly(m, 0, x) == want
    for n in (5, 6):
        staircase = tuple(range(1, n + 1))
        x = -1
        want = count_oracle(r_region((), staircase, x))
        assert c_const((), staircase) * b_poly(0, n, x) == want
