"""Boxed plane partitions are lozenge tilings of hexagons.

A plane partition inside an a x b x c box, viewed as a stack of unit
cubes and projected along the main diagonal, becomes a tiling of the
hexagon with side lengths a, b, c, a, b, c by unit rhombi.  The classic
product formula counts them; here we confront it with the exhaustive
oracle on small boxes.
"""

from lozenge.count import count_oracle
from lozenge.formulas import macmahon
from lozenge.lattice import Region
from lozenge.regions import E, NE, NW, SE, SW, W, rasterize


def hexagon_abc(a: int, b: int, c: int) -> Region:
    return Region(rasterize((0, 0), (E, a), (NE, b), (NW, c), (W, a), (SW, b), (SE, c)))


print(f"{'box':>10} {'product':>12} {'oracle':>12}")
for a in range(1, 4):
    for b in range(a, 4):
        for c in range(b, 4):
            product = macmahon(a, b, c)
            oracle = count_oracle(hexagon_abc(a, b, c))
            mark = "ok" if product == oracle else "MISMATCH"
            print(f"{f'{a}x{b}x{c}':>10} {product:>12} {str(oracle):>12}   {mark}")

print()
print("The count only depends on the multiset of sides:")
print("  macmahon(2,3,4) =", macmahon(2, 3, 4))
print("  macmahon(4,2,3) =", macmahon(4, 2, 3))
print("  macmahon(3,4,2) =", macmahon(3, 4, 2))
