"""Hexagons with triangular windows and their product formula.

The hexagon with sides a, b+k, b, a+k, b, b+k has k more upward unit
triangles than downward ones; removing axis-symmetric triangular windows
restores the balance.  The windows determine which axis vertebrae
survive, and the surviving labels alone determine the tiling count
through a product of two closed-form polynomial values.
"""

from fractions import Fraction

from lozenge.count import count_oracle
from lozenge.regions import HexParams, WindowSpec, windowed_hexagon
from lozenge.render import render_ascii
from lozenge.verify import family_poly, hexagon_sides

examples = [
    ("even imbalance, two windows",
     HexParams(5, 6, 6), [WindowSpec("DELTA", 4, 5), WindowSpec("DELTA", 2, 11)]),
    ("odd imbalance, upward odd window",
     HexParams(7, 8, 3),
     [WindowSpec("DELTA", 3, 9), WindowSpec("DELTA", 2, 12), WindowSpec("DELTA", 2, 16),
      WindowSpec("NABLA", 2, 8), WindowSpec("NABLA", 2, 4)]),
    ("odd imbalance, downward odd window",
     HexParams(8, 8, 1),
     [WindowSpec("NABLA", 1, 8), WindowSpec("NABLA", 2, 5),
      WindowSpec("DELTA", 2, 11), WindowSpec("DELTA", 2, 13)]),
]

for title, params, windows in examples:
    s = hexagon_sides(params, windows)
    polys = family_poly(*s.plus), family_poly(*s.minus)
    rhs = Fraction(2) ** s.cut.width * polys[0] * polys[1]
    print(f"--- {title}")
    print(f"    hexagon a={s.params.a} b={s.params.b} k={s.params.k}, family {s.family}, "
          f"labels below={list(s.l)} above={list(s.q)}")
    print(f"    tilings (oracle):  {count_oracle(s.region)}")
    print(f"    product formula:   {rhs}   [2^{s.cut.width} * {polys[0]} * {polys[1]}]")
    print()

print("The smallest holey hexagon, drawn with its window:")
region, family, l, q = windowed_hexagon(HexParams(2, 2, 2), [WindowSpec("DELTA", 2, 2)])
print(render_ascii(region))
print(f"family {family}, labels {list(l)}, tilings: {count_oracle(region)}")
