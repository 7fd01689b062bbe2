from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lozenge.exact import DyadicMatrix, binomial, determinant
from references import rational_rows, shifted_factorial

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def test_shifted_factorial_examples():
    assert shifted_factorial(5, 0) == 1
    assert shifted_factorial(Fraction(-7, 3), 0) == 1
    assert shifted_factorial(1, 3) == 6
    assert shifted_factorial(Fraction(3, 2), 2) == Fraction(15, 4)


def test_shifted_factorial_rejects_negative_length():
    with pytest.raises(ValueError):
        shifted_factorial(2, -1)


@given(rationals, st.integers(1, 8))
def test_shifted_factorial_peels_first_factor(a, k):
    assert shifted_factorial(a, k) == a * shifted_factorial(a + 1, k - 1)


def test_binomial_examples():
    assert binomial(2, 2) == 1
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_determinant_small_cases():
    assert determinant(DyadicMatrix([], [], [])) == 1
    eye = DyadicMatrix([[int(i == j) for j in range(3)] for i in range(3)], [0] * 3, [0] * 3)
    assert determinant(eye) == 1
    assert determinant(DyadicMatrix([[1, 2], [3, 4]], [0, 0], [0, 0])) == -2
    # entries 1/2**-1, 2/2**1, 3/2**0, 4/2**2: det [[2, 1], [3, 1]]
    assert determinant(DyadicMatrix([[1, 2], [3, 4]], [1, 0], [0, 2])) == -1


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(DyadicMatrix([[1, 2, 3], [4, 5, 6]], [0, 0], [0, 0, 0]))


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


@st.composite
def dyadic_matrices(draw) -> DyadicMatrix:
    """Square matrices of size 0-4 with fields in -50..50 and steps in
    -3..3, so every entry exponent occurs with both signs."""
    n = draw(st.integers(0, 4))
    fields = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    steps = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return DyadicMatrix(fields, draw(steps), draw(steps))


@settings(max_examples=60)
@given(dyadic_matrices())
def test_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == _cofactor_det(rational_rows(m))


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
