"""Three independent counts of the zigzag-anchored regions.

Members of the R and Rbar families are carved around two vertical zigzag
paths by selecting bumps below (labels l) and above (labels q) a lattice
origin; each selected upper bump leaves a tile position of weight 1/2.
Their weighted tiling counts come out identically from

* exhaustive backtracking,
* a determinant of lattice-path generating functions (two encodings),
* one evaluation of a closed product polynomial.

The last row of a path matrix holds the closed-form coefficients of the
one-bump recurrences; the last lines print both and assert that they agree
on four unequal-length members.  Acceptance criterion 9 in
tests/test_acceptance.py pins this over the whole zigzag sweep, including
the equal-length correction.
"""

from fractions import Fraction

from lozenge.count import NORTHWEST, SOUTHWEST, count_gv, count_oracle, gv_matrix
from lozenge.formulas import bar_p_poly, coeff_barC, coeff_barD, coeff_C, coeff_D, p_poly
from lozenge.regions import min_x, r_bar_region, r_region
from lozenge.render import render_ascii

instances = [
    ("R", (2, 4, 5), (2, 4)),
    ("R", (), (1, 3)),
    ("Rbar", (2, 4, 5), (2, 4)),
    ("Rbar", (1, 3), ()),
]

for family, l, q in instances:
    barred = family == "Rbar"
    lo = min_x(l, q, barred)
    print(f"--- {family} with l={list(l)}, q={list(q)} (least x = {lo})")
    print(f"{'x':>4} {'oracle':>10} {'det SW':>10} {'det NW':>10} {'formula':>10}")
    for x in range(lo, lo + 4):
        region = (r_bar_region if barred else r_region)(l, q, x)
        values = [
            count_oracle(region),
            count_gv(region, l, q, x, family, SOUTHWEST),
            count_gv(region, l, q, x, family, NORTHWEST),
            (bar_p_poly if barred else p_poly)(l, q, x),
        ]
        print(f"{x:>4} " + " ".join(f"{str(v):>10}" for v in values))
    print()

print("A small member, with A/V marking the weight-1/2 position:")
print(render_ascii(r_region((), (1,), 1)))

print()
print("The last entries of a path matrix's last row are the recurrence coefficients:")
# upper bumps (C) for the longer q, lower bumps (D) for the longer l
for family, side, l, q, coeff, count in [
    ("R", SOUTHWEST, (2,), (2, 4), coeff_C, 2),
    ("R", NORTHWEST, (2, 4, 5), (2, 4), coeff_D, 3),
    ("Rbar", SOUTHWEST, (2,), (2, 4), coeff_barC, 2),
    ("Rbar", NORTHWEST, (2, 4, 5), (2, 4), coeff_barD, 3),
]:
    x = min_x(l, q, family == "Rbar") + 1
    _, mat = gv_matrix(l, q, x, family, side)
    row = [
        Fraction(f) / Fraction(2) ** (steps - mat.row_steps[-1])
        for f, steps in zip(mat.fields[-1], mat.col_steps)
    ]
    want = [coeff(k, l, q, x) for k in range(1, count + 1)]
    print(f"{family:>4} {side:<9} l={list(l)} q={list(q)} x={x}:", *row[-count:], end=" ")
    print(f"| {coeff.__name__}:", *want)
    assert row[-count:] == want, (family, side)
