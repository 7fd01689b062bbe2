"""Reference forms, and the inputs, that more than one test module compares
the package with.

Each reference writes out again, independently, something the package
computes another way; the package itself never calls them.
"""

import math
from fractions import Fraction

from hypothesis import strategies as st

from lozenge.lattice import Region, balance, is_up, lozenge, partners, symmetry_axis_cut
from lozenge.regions import (
    HexParams,
    WindowSpec,
    check_index_list,
    hexagon,
    min_x,
    windowed_hexagon,
    zigzag_walk,
)
from lozenge.verify import hexagon_placements, nonempty_pairs

FIGURE_HEXAGONS = [
    # labeled hexagons with holes, one per construction family
    (HexParams(5, 6, 6), [WindowSpec("DELTA", 4, 5), WindowSpec("DELTA", 2, 11)]),
    (HexParams(7, 8, 3),
     [WindowSpec("DELTA", 3, 9), WindowSpec("DELTA", 2, 12), WindowSpec("DELTA", 2, 16),
      WindowSpec("NABLA", 2, 8), WindowSpec("NABLA", 2, 4)]),
    (HexParams(8, 8, 1),
     [WindowSpec("NABLA", 1, 8), WindowSpec("NABLA", 2, 5),
      WindowSpec("DELTA", 2, 11), WindowSpec("DELTA", 2, 13)]),
    # reduction illustrations
    (HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 0), WindowSpec("DELTA", 2, 8)]),
    (HexParams(6, 8, 1),
     [WindowSpec("DELTA", 1, 8), WindowSpec("DELTA", 4, 9),
      WindowSpec("NABLA", 2, 7), WindowSpec("NABLA", 2, 3)]),
]


def members(max_entry: int, max_len: int, offsets):
    """``(family, l, q, x)`` for each pair of ``nonempty_pairs(max_entry,
    max_len)``, each family R then Rbar, and ``x = min_x + offset`` for
    each of ``offsets`` in turn."""
    for l, q in nonempty_pairs(max_entry, max_len):
        for family in ("R", "Rbar"):
            lo = min_x(l, q, family == "Rbar")
            for offset in offsets:
                yield family, l, q, lo + offset


def sweep_regions():
    """Each whole of ``hexagon_placements(5, 4, 3)`` followed by its two cut
    pieces (1416 regions), then the R and Rbar members with entries <= 3,
    lengths <= 2 and x from ``min_x`` to ``min_x + 2`` (288 regions)."""
    for p, ws in hexagon_placements(5, 4, 3):
        whole, _, _, _ = windowed_hexagon(p, ws)
        cut = symmetry_axis_cut(whole)
        yield from (whole, cut.plus, cut.minus)
    for family, l, q, x in members(3, 2, range(3)):
        yield zigzag_walk(l, q, x, family == "Rbar")


@st.composite
def holey_subregions(draw) -> Region:
    """A small hexagon with random cells removed, rebalanced by removing
    more cells of the surplus orientation, with random half weights."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    cells = sorted(hexagon(HexParams(a, b, draw(st.integers(0 if b else 1, 2)))).cells)
    gone = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    kept = [c for c in cells if c not in gone]
    surplus = balance(Region(frozenset(kept)))
    if surplus:
        extra = [c for c in kept if is_up(c) == (surplus > 0)]
        gone |= set(draw(st.lists(st.sampled_from(extra), min_size=abs(surplus),
                                  max_size=abs(surplus), unique=True)))
    cells = frozenset(c for c in cells if c not in gone)
    positions = sorted(lozenge(c, m) for c in cells for m in partners(c) if m in cells and c < m)
    half = draw(st.sets(st.sampled_from(positions))) if positions else set()
    return Region(cells, frozenset(half))


def rational_rows(m) -> list[list[Fraction]]:
    """The entries of a :class:`lozenge.exact.DyadicMatrix` as Fraction rows.

    An end can have fewer steps than a start (its field is then 0), so the
    power of two is read as a Fraction, whose exponent may be negative.
    """
    return [
        [Fraction(f) / Fraction(2) ** (cs - rs) for f, cs in zip(row, m.col_steps, strict=True)]
        for row, rs in zip(m.fields, m.row_steps, strict=True)
    ]


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
