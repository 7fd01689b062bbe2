"""Exact counting of weighted lozenge tilings of hexagons with holes.

The package builds triangular-lattice regions (hexagons with symmetric
triangular windows removed, and the two zigzag-anchored families they
reduce to), counts their weighted tilings by independent exact methods
(backtracking oracle, nonintersecting-path determinants, closed product
formulas), and verifies every identity tying the methods together.
"""

from .exact import DyadicMatrix, binomial, determinant
from .lattice import (
    CutResult,
    Region,
    balance,
    congruent,
    eliminate_forced,
    region,
    region_from_text,
    region_to_text,
    symmetry_axis_cut,
    vertebra_labels,
)
from .regions import (
    HexParams,
    WindowSpec,
    decrement,
    hexagon,
    increment,
    min_x,
    omit,
    r_bar_region,
    r_region,
    windowed_hexagon,
)
from .count import NORTHWEST, SOUTHWEST, count_gv, count_oracle, enumerate_tilings, gv_matrix
from .formulas import (
    b_poly,
    bar_b_poly,
    bar_c_const,
    bar_p_poly,
    c_const,
    coeff_barC,
    coeff_barD,
    coeff_C,
    coeff_D,
    macmahon,
    p_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
