"""Acceptance suite: every identity the package promises, checked exactly.

Each test prints one line ``acceptance <n> (<topic>): PASS (<seconds>)``;
all arithmetic is exact, so there are no tolerances anywhere.  The two
sweep fixtures are shared across criteria to keep the suite fast.
"""

import time
from fractions import Fraction

import pytest

from lozenge.count import NORTHWEST, SOUTHWEST, count_gv, count_oracle, gv_matrix
from lozenge.exact import binomial
from lozenge.formulas import (
    b_poly,
    bar_b_poly,
    bar_c_const,
    c_const,
    coeff_barC,
    coeff_barD,
    coeff_C,
    coeff_D,
    macmahon,
)
from lozenge.regions import HexParams, WindowSpec, min_x, r_bar_region, r_region, rasterize
from lozenge.verify import (
    build_region,
    family_poly,
    hexagon_placements,
    index_list_pairs,
    nonempty_pairs,
    sweep_increment_relations,
    verify_boundary_reductions,
    verify_count_recurrences,
    verify_hexagon,
    verify_poly_recurrences,
)
from references import (
    FIGURE_HEXAGONS,
    coeff_C_product,
    members,
    rational_rows,
    shifted_factorial as sf,
)

HALF = Fraction(1, 2)

CAPTION_REDUCTIONS = [
    (HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 0), WindowSpec("DELTA", 2, 8)]),
    (HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 4), WindowSpec("DELTA", 2, 8)]),
    (HexParams(5, 5, 4), [WindowSpec("DELTA", 2, 3), WindowSpec("DELTA", 2, 9)]),
    (HexParams(6, 8, 1),
     [WindowSpec("DELTA", 1, 8), WindowSpec("DELTA", 4, 9),
      WindowSpec("NABLA", 2, 7), WindowSpec("NABLA", 2, 3)]),
    (HexParams(7, 8, 1),
     [WindowSpec("DELTA", 1, 9), WindowSpec("DELTA", 4, 10),
      WindowSpec("NABLA", 2, 8), WindowSpec("NABLA", 2, 4)]),
    (HexParams(6, 8, 1),
     [WindowSpec("NABLA", 1, 6), WindowSpec("NABLA", 2, 5),
      WindowSpec("DELTA", 2, 9), WindowSpec("DELTA", 2, 13)]),
]


def _report(number: int, topic: str, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    print(f"acceptance {number} ({topic}): PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def zigzag_sweep():
    """Entries <= 4, lengths <= 2, x from its least value to least+3, both
    families: region, oracle count, both determinant encodings, polynomial."""
    started = time.perf_counter()
    rows = []
    for family, l, q, x in members(4, 2, range(4)):
        region = build_region(family, l, q, x)
        rows.append(
            dict(
                family=family, l=l, q=q, x=x, region=region,
                oracle=count_oracle(region),
                gv_sw=count_gv(region, l, q, x, family, SOUTHWEST),
                gv_nw=count_gv(region, l, q, x, family, NORTHWEST),
                poly=family_poly(family, l, q, x),
            )
        )
    assert len(rows) == 960
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def hexagon_sweep():
    """Every valid single- and double-window placement for a,b <= 6, k <= 3,
    with the formula, factorization and pieces reports of its one check."""
    started = time.perf_counter()
    rows = [list(verify_hexagon(params, ws)) for params, ws in hexagon_placements(6, 6, 3)]
    assert len(rows) == 1725
    return rows, time.perf_counter() - started


def general_hexagon(a: int, b: int, c: int):
    """Hexagon with side lengths a, b, c, a, b, c and 120 degree angles."""
    from lozenge.lattice import Region
    from lozenge.regions import E, NE, NW, SE, SW, W

    return Region(rasterize((0, 0), (E, a), (NE, b), (NW, c), (W, a), (SW, b), (SE, c)))


def test_acceptance_1_box_product_vs_oracle():
    started = time.perf_counter()
    for a in range(1, 4):
        for b in range(a, 4):
            for c in range(b, 4):
                assert macmahon(a, b, c) == count_oracle(general_hexagon(a, b, c))
    assert macmahon(1, 1, 1) == 2
    assert macmahon(2, 2, 2) == 20
    _report(1, "boxed plane partition product vs oracle", started, budget=60)


def test_acceptance_2_three_counting_methods_agree(zigzag_sweep):
    rows, sweep_elapsed = zigzag_sweep
    started = time.perf_counter() - sweep_elapsed
    for row in rows:
        assert row["oracle"] == row["gv_sw"] == row["gv_nw"] == row["poly"], row
    _report(2, "oracle = determinant = polynomial", started, budget=600)


def test_acceptance_3_hexagon_product_formula(hexagon_sweep):
    rows, sweep_elapsed = hexagon_sweep
    started = time.perf_counter() - sweep_elapsed
    # count * 2**-width = P(plus) * P(minus): the first report of each check
    for params, ws in FIGURE_HEXAGONS:
        formula = next(verify_hexagon(params, ws))
        assert formula.match, formula.line()
    for formula, _, _ in rows:
        assert formula.match, formula.line()
    _report(3, "hexagon family product formula", started, budget=900)


def test_acceptance_4_factorization_and_cut_pieces(hexagon_sweep):
    rows, _ = hexagon_sweep
    started = time.perf_counter()
    # M = 2**width * M(plus) * M(minus); each piece, with its forced lozenges
    # removed, is congruent to its predicted member, with the same forced
    # factor, and counts its polynomial
    for _, factorization, pieces in rows:
        assert factorization.match, factorization.line()
        assert pieces.match, pieces.line()
    # the six illustrated reductions, pinned explicitly
    for params, ws in CAPTION_REDUCTIONS:
        *_, pieces = verify_hexagon(params, ws)
        assert pieces.match, pieces.line()
    _report(4, "two-piece factorization and piece identification", started)


def test_acceptance_5_count_recurrences_and_boundary_cases(zigzag_sweep):
    rows, _ = zigzag_sweep
    started = time.perf_counter()
    seen = set()
    for row in rows:
        key = (row["l"], row["q"], row["x"])
        if key in seen:
            continue
        seen.add(key)
        l, q, x = key
        if x > min_x(l, q, barred=False):
            rep = verify_count_recurrences(l, q, x)
            assert rep.match, rep.values
    for l, q in nonempty_pairs(4, 2):
        rep = verify_boundary_reductions(l, q)
        assert rep.match, (l, q, rep.values)
    _report(5, "one-bump count recurrences and frozen-edge reductions", started)


def test_acceptance_6_polynomial_recurrences_and_ratios():
    started = time.perf_counter()
    for l, q in nonempty_pairs(4, 2):
        rep = verify_poly_recurrences(l, q)
        assert rep.match, (l, q)
    # ratio identities at ten sample points each
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
                    lhs = bar_b_poly(m, n, x) / bar_b_poly(m, n - 1, x)
                    rhs = Fraction(1, 2 ** (m + n)) * (x + m + n) * sf(2 * x + m + n + 1, m + n)
                    for i in range(m):
                        rhs *= (x + m + n - i - 1) / (x + m + n - i - HALF)
                    assert lhs == rhs
                if m >= 1:
                    lhs = b_poly(m, n, x) / b_poly(m - 1, n, x)
                    rhs = (Fraction(1, 2 ** (m + n - 1)) * (x + m + n) * (x + m + n + 1)
                           * sf(2 * x + m + n + 2, m + n - 1))
                    for i in range(n):
                        rhs *= (x + m + i) / (x + m + i + HALF)
                    assert lhs == rhs
                    lhs = bar_b_poly(m, n, x) / bar_b_poly(m - 1, n, x)
                    rhs = Fraction(1, 2 ** (m + n)) * sf(2 * x + m + n + 1, m + n)
                    for i in range(n):
                        rhs *= (x + m + i + 1) / (x + m + i + HALF)
                    assert lhs == rhs
                if m == n and n >= 1:
                    assert bar_b_poly(n, n, x) / b_poly(n, n - 1, x) == sf(x + 1, 2 * n)
                    assert b_poly(n, n, x - 1) / bar_b_poly(n - 1, n, x) == sf(x, 2 * n + 1) / (x + n)
    _report(6, "polynomial recurrences, specializations, ratio identities", started)


def test_acceptance_7_staircase_calibration():
    started = time.perf_counter()
    for m in range(0, 4):
        for n in range(0, 4):
            stair_l = tuple(range(1, m + 1))
            stair_q = tuple(range(1, n + 1))
            lo = min_x(stair_l, stair_q, False) if (stair_l or stair_q) else 0
            for x in range(lo, lo + 4):
                got = c_const(stair_l, stair_q) * b_poly(m, n, x)
                want = count_oracle(r_region(stair_l, stair_q, x)) if (m or n) else Fraction(1)
                assert got == want, (m, n, x)
            lo = min_x(stair_l, stair_q, True) if (stair_l or stair_q) else 0
            for x in range(lo, lo + 4):
                got = bar_c_const(stair_l, stair_q) * bar_b_poly(m, n, x)
                want = count_oracle(r_bar_region(stair_l, stair_q, x)) if (m or n) else Fraction(1)
                assert got == want, (m, n, x)
    _report(7, "staircase calibration of the base polynomials", started)


def test_acceptance_8_increment_relations():
    started = time.perf_counter()
    reports = list(sweep_increment_relations(count=20, seed=2024))
    assert len(reports) == 20
    for rep in reports:
        assert rep.match, (rep.instance, rep.values)
    _report(8, "single-label increment relations", started)


def _last_row_cases(l, q, x):
    """Yield (encoding, family, N, last_row) for the encodings whose
    elimination scheme applies to (l, q) at an admissible x."""
    m, n = len(l), len(q)
    plain_ok = x >= min_x(l, q, False)
    barred_ok = x >= min_x(l, q, True)
    if m <= n and plain_ok:
        ep, mat = gv_matrix(l, q, x, "R", SOUTHWEST)
        yield "sw", "R", ep.size, rational_rows(mat)[ep.size - 1]
    if m > n and plain_ok:
        ep, mat = gv_matrix(l, q, x, "R", NORTHWEST)
        yield "nw", "R", ep.size, rational_rows(mat)[ep.size - 1]
    if m < n and barred_ok:
        ep, mat = gv_matrix(l, q, x, "Rbar", SOUTHWEST)
        yield "sw", "Rbar", ep.size, rational_rows(mat)[ep.size - 1]
    if m >= n and m >= 1 and barred_ok:
        ep, mat = gv_matrix(l, q, x, "Rbar", NORTHWEST)
        yield "nw", "Rbar", ep.size, rational_rows(mat)[ep.size - 1]


def _connector_correction(enc: str, l, q, k: int) -> Fraction:
    """Weight of monotone continuations through the unique dead-end segment
    next to the connector; nonzero only when the lists have equal length."""
    if len(l) != len(q):
        return Fraction(0)
    if enc == "sw":
        l1, qk = l[0], q[k - 1]
        return Fraction(binomial(l1 + qk - 1, 2 * qk)) + Fraction(
            binomial(l1 + qk - 1, 2 * qk - 1), 2
        )
    q1, lk = q[0], l[k - 1]
    return Fraction(binomial(q1 + lk - 1, 2 * lk))


def test_acceptance_9_determinant_last_row_structure(zigzag_sweep):
    rows, _ = zigzag_sweep
    started = time.perf_counter()
    seen = set()
    for row in rows:
        key = (row["l"], row["q"], row["x"])
        if key in seen:
            continue
        seen.add(key)
        l, q, x = key
        m, n = len(l), len(q)
        for enc, fam, N, last in _last_row_cases(l, q, x):
            if fam == "R" and enc == "sw":
                for k in range(1, N):
                    if k > n:
                        assert last[N - 1 - k] == 0, (l, q, x, k)
                if n < N:
                    assert last[N - 1 - n] == (1 if m == n else 0), (l, q, x)
                for k in range(1, n + 1):
                    want = coeff_C(k, l, q, x) - _connector_correction("sw", l, q, k)
                    assert last[N - 1 - n + k] == want, (l, q, x, k)
            elif fam == "R" and enc == "nw":
                for j in range(N - m):
                    assert last[j] == 0, (l, q, x, j)
                for k in range(1, m + 1):
                    assert last[N - m + k - 1] == coeff_D(k, l, q, x), (l, q, x, k)
            elif fam == "Rbar" and enc == "sw":
                for j in range(N - n):
                    assert last[j] == 0, (l, q, x, j)
                for k in range(1, n + 1):
                    assert last[N - n + k - 1] == coeff_barC(k, l, q, x), (l, q, x, k)
            else:
                for j in range(max(0, N - m - 1)):
                    assert last[j] == 0, (l, q, x, j)
                if N > m:
                    assert last[N - 1 - m] == (1 if m == n else 0), (l, q, x)
                for k in range(1, m + 1):
                    want = coeff_barD(k, l, q, x) - _connector_correction("nw", l, q, k)
                    assert last[N - m + k - 1] == want, (l, q, x, k)
    # the coefficient product form agrees with its binomial form
    for l, q in index_list_pairs(3, 2):
        if not q or len(l) > len(q):
            continue
        for x in range(0, 4):
            for k in range(1, len(q) + 1):
                assert coeff_C(k, l, q, x) == coeff_C_product(k, l, q, x)
    _report(9, "determinant last-row entries", started)


@pytest.mark.xfail(
    strict=True,
    reason="with equal list lengths the monotone paths from the top start "
    "segment can die at the connector dead-end, so two entry families sit "
    "below their binomial values by an explicit correction; the uncorrected "
    "reading is not the true matrix",
)
def test_equal_length_last_row_entries_without_correction():
    for l, q in index_list_pairs(3, 2):
        if not l or not q or len(l) != len(q):
            continue
        x = min_x(l, q, False) + 1
        ep, mat = gv_matrix(l, q, x, "R", SOUTHWEST)
        N = ep.size
        n = len(q)
        last = rational_rows(mat)[N - 1]
        for k in range(1, n + 1):
            assert last[N - 1 - n + k] == coeff_C(k, l, q, x)
