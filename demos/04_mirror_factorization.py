"""Cutting a mirror-symmetric region along its axis.

The tiling generating function of a region with a vertical mirror axis
factors as 2**width times the product of the two pieces the cutting path
separates, where width is half the number of axis-crossing triangles.
Each axis lozenge position becomes a weight-1/2 position of its piece.
After removing forced tiles, the pieces of a holey hexagon are members
of the zigzag families, and their parameters are predictable from the
surviving labels.
"""

from fractions import Fraction

from lozenge.count import count_oracle
from lozenge.lattice import congruent, eliminate_forced, symmetry_axis_cut
from lozenge.regions import HexParams, WindowSpec, hexagon
from lozenge.verify import build_region, hexagon_sides

print("Plain hexagon with a=b=2:")
region = hexagon(HexParams(2, 2, 0))
cut = symmetry_axis_cut(region)
mw, mp, mm = count_oracle(region), count_oracle(cut.plus), count_oracle(cut.minus)
print(f"  M = {mw},  width = {cut.width},  pieces count {mp} and {mm}")
print(f"  2^{cut.width} * {mp} * {mm} = {Fraction(2)**cut.width * mp * mm}")
print()

print("A holey hexagon and the named family members its pieces become:")
s = hexagon_sides(HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 0), WindowSpec("DELTA", 2, 8)])
print(f"  family {s.family}, labels {list(s.l)}; width {s.cut.width}")
for side, got, want in (("left", s.cut.plus, s.plus), ("right", s.cut.minus, s.minus)):
    got_core, _, _ = eliminate_forced(got)
    want_core, _, _ = eliminate_forced(build_region(*want))
    same = congruent(got_core, want_core)
    print(f"  {side} piece ~ {want[0]} l={list(want[1])} q={list(want[2])} x={want[3]}: "
          f"count {count_oracle(got)}, congruent: {same}")
whole = count_oracle(s.region)
print(f"  M = {whole} = 2^{s.cut.width} * {count_oracle(s.cut.plus)} * {count_oracle(s.cut.minus)}")
