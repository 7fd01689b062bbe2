from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lozenge.count import (
    NORTHWEST,
    SOUTHWEST,
    PathEndpoints,
    Step,
    _fold,
    _frontier_sum,
    _path_matrix,
    _position_bound,
    _row_bound,
    _scan_plan,
    _scan_steps,
    _turn,
    _turned_half,
    _walk_tilings,
    count_gv,
    count_oracle,
    enumerate_tilings,
    gv_matrix,
)
from lozenge.exact import determinant
from lozenge.formulas import macmahon
from lozenge.lattice import Cell, Loz, Region, balance, is_up, lozenge, partners, region, symmetry_axis_cut
from lozenge.regions import (
    HexParams,
    WindowSpec,
    hexagon,
    r_bar_region,
    r_region,
    windowed_hexagon,
    zigzag_walk,
)
from lozenge.verify import family_poly, hexagon_formula, hexagon_placements
from references import holey_subregions, members, rational_rows, sweep_regions


def enumerated_count(r: Region) -> Fraction:
    """Weighted tiling count by walking every tiling, independent of the
    oracle's frontier DP; a tiling with h half-weighted lozenges contributes
    2**-h.  It reads the walk's half count: building a frozenset per tiling
    would double its time."""
    by_halves: dict[int, int] = {}
    for _, h in _walk_tilings(r):
        by_halves[h] = by_halves.get(h, 0) + 1
    return sum((Fraction(n, 1 << h) for h, n in by_halves.items()), Fraction(0))


def reference_oracle(r: Region) -> Fraction:
    """The frontier DP with one scan step per cell, walking each cell's
    list of forward moves for every state."""
    ncells = len(r.cells)
    if ncells == 0:
        return Fraction(1)
    if ncells % 2 or balance(r) != 0:
        return Fraction(0)
    cells = sorted(r.cells)
    index = {c: i for i, c in enumerate(cells)}
    moves = []
    for i, cell in enumerate(cells):
        row, col = cell
        fwd = [(row, col + 1)] if is_up(cell) else [(row, col + 1), (row + 1, col - 1)]
        moves.append([
            (index[mate] - i, 1 if lozenge(cell, mate) in r.half else 2)
            for mate in fwd if mate in index
        ])
    states = {0: 1}
    for i in range(ncells):
        nxt = {}
        for mask, val in states.items():
            if mask & 1:
                nxt[mask >> 1] = nxt.get(mask >> 1, 0) + val
                continue
            for d, w2 in moves[i]:
                bit = 1 << d
                if not mask & bit:
                    key = (mask | bit) >> 1
                    nxt[key] = nxt.get(key, 0) + val * w2
        if not nxt:
            return Fraction(0)
        states = nxt
    return Fraction(states.get(0, 0), 1 << (ncells // 2))


def reference_turned(r: Region, k: int) -> tuple[list[Cell], frozenset[Loz]]:
    """The sorted cells and the half positions of r turned k times, each
    turn building the whole turned region."""
    for _ in range(k):
        r = r.moved(_turn)
    return sorted(r.cells), r.half


def reference_scan_steps(cells: list[Cell], half) -> list[Step]:
    """:func:`lozenge.count._scan_steps` finding each forward partner by
    its key in a dict from cell to scan index."""
    ncells = len(cells)
    index = {c: i for i, c in enumerate(cells)}
    marked: dict[Cell, list[Cell]] = {}
    for a, b in half:
        marked.setdefault(a, []).append(b)
    steps: list[Step] = []
    start = 0
    while start < ncells:
        end = bisect_left(cells, (cells[start][0] + 1,), start)
        for i in range(start, end):
            row, col = cell = cells[i]
            if not col & 1:
                if i + 1 == end or cells[i + 1][1] != col + 1:
                    steps.append((False, 1, ()))
                continue
            pair = i > start and cells[i - 1][1] == col - 1
            own = marked.get(cell, ())
            unused = len(own) + (pair and cell in marked.get(cells[i - 1], ()))
            slots = []
            for mate in ((row, col + 1), (row + 1, col - 1)):
                m = index.get(mate)
                if m is not None:
                    slots.append((1 << (m - i + pair), 1 << (unused - (mate in own))))
            if pair:
                slots += [(1, 0)] * (2 - len(slots))
            steps.append((pair, 1 << len(own), tuple(slots)))
        start = end
    return steps


def reference_row_bound(cells: list[Cell]) -> int:
    """:func:`lozenge.count._row_bound` from per-row counts of cells and of
    up cells kept in dicts."""
    lengths: dict[int, int] = {}
    ups: dict[int, int] = {}
    for row, col in cells:
        lengths[row] = lengths.get(row, 0) + 1
        ups[row] = ups.get(row, 0) + (col % 2 == 0)
    bound = carry = 0
    for row in sorted(lengths):
        if carry >= 0:
            bound += comb(ups[row], carry) * lengths[row]
        carry += lengths[row] - 2 * ups[row]
    return bound


def reference_position_bound(cells: list[Cell]) -> int:
    """:func:`lozenge.count._position_bound` counting the live up cells of
    each scan position by bisecting per-row lists of up columns."""
    ups: dict[int, list[int]] = {}
    for row, col in cells:
        if not col & 1:
            ups.setdefault(row, []).append(col)
    bound = covered = 0
    for row, col in cells:
        here, above = ups.get(row, []), ups.get(row + 1, [])
        live = len(here) - bisect_left(here, col) + bisect_right(above, col - 2)
        if covered >= 0:
            bound += comb(live, covered)
        covered += 1 if col & 1 else -1
    return bound


def reference_scan_plan(r: Region) -> tuple[int, list[Step]]:
    """:func:`lozenge.count._scan_plan` on the three references above."""
    cells = sorted(r.cells)
    if reference_row_bound(cells) <= 16 * len(cells):
        return 0, reference_scan_steps(cells, r.half)
    orientations = [(cells, r.half), reference_turned(r, 1), reference_turned(r, 2)]
    costs = [reference_position_bound(c) + (len(c) if k else 0)
             for k, (c, _) in enumerate(orientations)]
    k = costs.index(min(costs))
    return k, reference_scan_steps(*orientations[k])


def turned_cells(r: Region, turns: int) -> list[Cell]:
    """The sorted cells of r turned the given number of times, as the
    oracle ranks them."""
    cells = sorted(r.cells)
    for _ in range(turns):
        cells = sorted(map(_turn, cells))
    return cells


def assert_scan_equals_references(r: Region) -> None:
    """The plan, and in each orientation the turned cells and half
    positions, the steps, the row bound and the position bound, equal the
    references'."""
    assert _scan_plan(r) == reference_scan_plan(r)
    for k in range(3):
        cells, half = turned_cells(r, k), _turned_half(r.half, k)
        want_cells, want_half = reference_turned(r, k)
        assert cells == want_cells
        assert len(half) == len(want_half) and set(half) == want_half
        assert _scan_steps(cells, half) == reference_scan_steps(cells, want_half)
        assert _row_bound(cells) == reference_row_bound(cells)
        assert _position_bound(cells) == reference_position_bound(cells)


def scanned_count(r: Region, turns: int) -> Fraction:
    """The oracle's DP on r scanned after the given number of turns."""
    steps = _scan_steps(turned_cells(r, turns), _turned_half(r.half, turns))
    return Fraction(_frontier_sum(steps), 1 << len(r.half))


def per_cell_states(cells) -> int:
    """The number of frontier states the per-cell scan of the cells visits,
    summed over scan positions."""
    cells = sorted(cells)
    index = {c: i for i, c in enumerate(cells)}
    states, total = {0}, 0
    for i, (row, col) in enumerate(cells):
        total += len(states)
        fwd = [(row, col + 1)] if col % 2 == 0 else [(row, col + 1), (row + 1, col - 1)]
        bits = [1 << (index[m] - i) for m in fwd if m in index]
        states = {
            nxt
            for mask in states
            for nxt in ([mask >> 1] if mask & 1 else [(mask | b) >> 1 for b in bits if not mask & b])
        }
    return total


def test_oracle_trivial_values():
    assert count_oracle(Region()) == 1
    assert count_oracle(hexagon(HexParams(1, 1, 1))) == 0
    assert count_oracle(region([(0, 0)])) == 0
    assert count_oracle(hexagon(HexParams(1, 1, 0))) == 2
    assert count_oracle(hexagon(HexParams(2, 2, 0))) == 20


@pytest.mark.parametrize(
    "builder",
    [
        lambda: hexagon(HexParams(1, 2, 0)),
        lambda: hexagon(HexParams(3, 1, 0)),
        lambda: r_region((2, 4), (1, 3), 2),
        lambda: r_region((1, 2), (2,), 1),
        lambda: r_bar_region((2, 4), (1, 3), 2),
        lambda: r_bar_region((), (1, 2), 1),
    ],
)
def test_oracle_agrees_with_naive_enumeration(builder):
    r = builder()
    assert count_oracle(r) == enumerated_count(r)


def test_oracle_equals_per_cell_reference_on_hexagon_sweep():
    checked = 0
    for p, ws in hexagon_placements(5, 4, 3):
        whole, _, _, _ = windowed_hexagon(p, ws)
        cut = symmetry_axis_cut(whole)
        for r in (whole, cut.plus, cut.minus):
            assert count_oracle(r) == reference_oracle(r), (p, ws)
        checked += 1
    assert checked == 472


def test_oracle_equals_per_cell_reference_on_zigzag_members():
    checked = 0
    for family, l, q, x in members(3, 2, range(3)):
        r = zigzag_walk(l, q, x, family == "Rbar")
        assert count_oracle(r) == reference_oracle(r), (family, l, q, x)
        checked += 1
    assert checked == 2 * 3 * (7 * 7 - 1)


def kind_half(r: Region, kind: str) -> Region:
    """r with every position of one kind half-weighted: "horizontal" (an up
    cell and its east neighbour, the slot-free move of the oracle's pair
    step), "east" (a down cell and its east neighbour) or "above" (a down
    cell and the up cell above it)."""

    def kind_of(a: Cell, b: Cell) -> str:
        if a[0] != b[0]:
            return "above"
        return "horizontal" if is_up(a) else "east"

    positions = {lozenge(c, m) for c in r.cells for m in partners(c) if m in r.cells}
    return Region(r.cells, frozenset(pos for pos in positions if kind_of(*pos) == kind))


@pytest.mark.parametrize("kind", ["horizontal", "east", "above"])
@pytest.mark.parametrize(
    "p", [HexParams(2, 2, 0), HexParams(3, 2, 0), HexParams(2, 3, 0)], ids=lambda p: f"H-{p.a}-{p.b}-{p.k}"
)
def test_oracle_weighs_each_lozenge_kind_as_the_reference_does(p, kind):
    # no region of the sweeps half-weights a horizontal position
    r = kind_half(hexagon(p), kind)
    assert r.half and _scan_plan(r)[0] == 0  # scanned as given, so the kind is the scan's
    assert count_oracle(r) == reference_oracle(r)


def test_scan_helpers_equal_their_references_on_the_sweeps():
    regions = list(sweep_regions())
    assert len(regions) == 3 * 472 + 2 * 3 * (7 * 7 - 1)
    for r in regions:
        assert_scan_equals_references(r)
    # 184 of the wholes are scanned turned, so the comparison covers the
    # ranking and the turned scans
    assert sum(1 for r in regions if _scan_plan(r)[0]) == 184


def components(r: Region) -> int:
    seen, count = set(), 0
    for start in r.cells:
        if start in seen:
            continue
        count += 1
        todo = [start]
        seen.add(start)
        while todo:
            for mate in partners(todo.pop()):
                if mate in r.cells and mate not in seen:
                    seen.add(mate)
                    todo.append(mate)
    return count


UNIT = hexagon(HexParams(1, 1, 0))
# the 2,2,2 hexagon with the lozenge (1, -1)-(1, 0) cut out of its middle
HOLED = Region(hexagon(HexParams(2, 2, 0)).cells - {(1, -1), (1, 0)})
TWO_PIECES = region(UNIT.cells | UNIT.translate(0, 8).cells, [((0, 7), (0, 8)), ((0, 0), (0, 1))])


def test_property_examples_have_the_shapes_they_stand_for():
    for r in (UNIT, HOLED, TWO_PIECES):
        # an up cell that ends its row, a down cell that starts its row
        assert any(is_up(c) and (c[0], c[1] + 1) not in r.cells for c in r.cells)
        assert any(not is_up(c) and (c[0], c[1] - 1) not in r.cells for c in r.cells)
    assert all(m in HOLED.cells or m in {(1, -1), (1, 0)} for c in [(1, -1), (1, 0)] for m in partners(c))
    assert components(TWO_PIECES) == 2 and TWO_PIECES.half
    assert count_oracle(HOLED) > 0 and count_oracle(TWO_PIECES) > 0


@settings(max_examples=150, deadline=None)
@given(holey_subregions())
@example(UNIT)
@example(HOLED)
@example(TWO_PIECES)
def test_oracle_agrees_with_weighted_enumeration_on_random_subregions(r):
    want = enumerated_count(r)
    assert count_oracle(r) == want
    # each turn moves half weights onto other lozenge orientations
    for turns in range(3):
        assert scanned_count(r, turns) == want, turns


@settings(max_examples=150, deadline=None)
@given(holey_subregions())
@example(UNIT)
@example(HOLED)
@example(TWO_PIECES)
def test_scan_helpers_equal_their_references_on_random_subregions(r):
    assert_scan_equals_references(r)


def test_turn_has_order_three_and_maps_lozenges_to_lozenges():
    for row in range(-4, 5):
        for col in range(-9, 10):
            cell = (row, col)
            assert _turn(_turn(_turn(cell))) == cell
            assert _turn(cell) != cell
            assert is_up(_turn(cell)) == is_up(cell)
            assert {_turn(m) for m in partners(cell)} == set(partners(_turn(cell)))


def test_turned_region_keeps_cells_half_positions_and_count():
    r = r_bar_region((2, 4), (1, 3), 2)
    assert r.half
    for turns in range(3):
        cells, half = turned_cells(r, turns), _turned_half(r.half, turns)
        assert len(set(cells)) == len(r.cells) and cells == sorted(cells)
        assert len(set(half)) == len(r.half)
        assert all(a < b and b in partners(a) and a in cells and b in cells for a, b in half)
        assert scanned_count(r, turns) == count_oracle(r)
    assert turned_cells(r, 3) == sorted(r.cells) and set(_turned_half(r.half, 3)) == r.half


def test_scan_orientation_on_the_ladder_rungs():
    # the largest windowed rung scans turned and walks under half the
    # as-given scan's 1,004,869 frontier states
    holey, _, _, _ = windowed_hexagon(HexParams(7, 6, 3), [WindowSpec("DELTA", 3, 3)])
    turns, _ = _scan_plan(holey)
    assert turns
    assert per_cell_states(turned_cells(holey, turns)) <= 500_000
    # the plain s,s,s hexagons look alike in every orientation and keep it
    for s in range(4, 8):
        assert _scan_plan(hexagon(HexParams(s, s, 0)))[0] == 0
    assert per_cell_states(hexagon(HexParams(7, 7, 0)).cells) == 317_972


# no frontier is this wide, so every step runs on its own
PER_STEP = float("inf")


def grouped_sum(steps: list[Step], wide: float, group: int) -> int:
    """:func:`lozenge.count._frontier_sum` with WIDE and GROUP set for one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lozenge.count.WIDE", wide)
        mp.setattr("lozenge.count.GROUP", group)
        return _frontier_sum(steps)


def test_grouped_transfer_equals_the_per_step_loop_on_the_sweeps():
    # with WIDE at 0 every transfer of two or more steps is grouped; the
    # cut pieces and the Rbar members carry half weights
    for r in sweep_regions():
        _, steps = _scan_plan(r)
        want = grouped_sum(steps, PER_STEP, 4)
        for group in range(2, 6):
            assert grouped_sum(steps, 0, group) == want, group


@settings(max_examples=150, deadline=None)
@given(holey_subregions(), st.integers(2, 5))
@example(HOLED, 5)
@example(TWO_PIECES, 2)
def test_grouped_transfer_equals_the_per_step_loop_on_random_subregions(r, group):
    # each turn moves half weights onto other lozenge orientations
    for turns in range(3):
        steps = _scan_steps(turned_cells(r, turns), _turned_half(r.half, turns))
        assert grouped_sum(steps, 0, group) == grouped_sum(steps, PER_STEP, group), turns


def wide_windowed_hexagon():
    p, ws = HexParams(7, 6, 3), [WindowSpec("DELTA", 3, 3)]
    return windowed_hexagon(p, ws)[0], hexagon_formula(p, ws)


def wide_member(family, l, q, x):
    r = zigzag_walk(l, q, x, family == "Rbar")
    assert r.half
    return r, family_poly(family, l, q, x)


def middle_half_hexagon():
    # H 6,6,0 with the lozenges of every third cell of a middle row
    # half-weighted, against the per-cell reference DP
    cells = hexagon(HexParams(6, 6, 0)).cells
    row = (min(cells)[0] + max(cells)[0]) // 2
    half = {lozenge(c, m) for c in cells if c[0] == row and c[1] % 3 == 0
            for m in partners(c) if m in cells and c < m}
    r = Region(cells, frozenset(half))
    return r, reference_oracle(r)


def third_half_hexagon():
    # H 7,7,0 with every lozenge whose first cell's column is divisible by 3
    # half-weighted, which puts a half weight into every group of steps,
    # against the per-step loop
    cells = hexagon(HexParams(7, 7, 0)).cells
    half = {pos for c in cells for m in partners(c) if m in cells
            for pos in [lozenge(c, m)] if pos[0][1] % 3 == 0}
    r = Region(cells, frozenset(half))
    _, steps = _scan_plan(r)
    return r, Fraction(grouped_sum(steps, PER_STEP, 4), 1 << len(half))


@pytest.mark.parametrize(
    "build,weighted",
    [
        (lambda: (hexagon(HexParams(7, 7, 0)), macmahon(7, 7, 7)), False),
        (wide_windowed_hexagon, False),
        # these members meet their half positions while the frontier is narrow
        (lambda: wide_member("R", (1, 3, 5), (2, 4), 8), False),
        (lambda: wide_member("Rbar", (2, 4, 6), (1, 3, 5), 6), False),
        # these regions take half-weighted steps inside grouped transfers
        (middle_half_hexagon, True),
        (third_half_hexagon, True),
    ],
    ids=["H-7-7-0", "H-7-6-3-D3@3", "R-135-24-8", "Rbar-246-135-6", "H-6-6-0-half",
         "H-7-7-0-third-half"],
)
def test_grouped_transfer_runs_on_wide_frontiers(monkeypatch, build, weighted):
    # at the default WIDE and GROUP the oracle takes the grouped path and
    # still equals an independent engine
    tables = []  # per table entry filled: whether its group carries a weight

    def spy(group, k):
        tables.append(any(w0 > 1 or any(w > 1 for _, w in slots) for _, w0, slots in group))
        return _fold(group, k)

    monkeypatch.setattr("lozenge.count._fold", spy)
    r, want = build()
    assert count_oracle(r) == want
    assert tables and any(tables) == weighted


@pytest.mark.parametrize(
    "build,fills",
    [(lambda: hexagon(HexParams(7, 7, 0)), 350), (lambda: wide_windowed_hexagon()[0], 478)],
    ids=["H-7-7-0", "H-7-6-3-D3@3"],
)
def test_each_grouped_table_entry_is_filled_once_per_scan(monkeypatch, build, fills):
    # the same groups recur row after row and share one table for the scan
    seen = []

    def spy(group, k):
        seen.append((group, k))
        return _fold(group, k)

    monkeypatch.setattr("lozenge.count._fold", spy)
    count_oracle(build())
    assert len(seen) == len(set(seen)) == fills


def test_tilings_partition_the_region():
    r = hexagon(HexParams(1, 1, 0))
    tilings = list(enumerate_tilings(r))
    assert len(tilings) == 2
    for t in tilings:
        covered = {c for pos in t for c in pos}
        assert covered == r.cells


def test_gv_equals_oracle_across_small_sweep():
    for family, l, q, x in members(3, 2, range(3)):
        reg = zigzag_walk(l, q, x, family == "Rbar")
        want = count_oracle(reg)
        for side in (SOUTHWEST, NORTHWEST):
            assert count_gv(reg, l, q, x, family, side) == want


def test_gv_empty_region_determinant_is_one():
    assert count_gv(Region(), (), (), 5, "R") == 1
    assert count_gv(Region(), (), (), 0, "Rbar") == 1


def test_gv_rejects_region_parameter_mismatch():
    reg = r_region((1,), (), 1)
    with pytest.raises(ValueError):
        count_gv(reg, (1,), (), 2, "R")
    with pytest.raises(ValueError):
        count_gv(reg, (1,), (), 1, "Rbar")


def test_endpoint_coordinates_match_the_boundary_walk():
    # the southwestern encoding's top start segment and the upper-bump end
    # segments have fixed coordinates in terms of the parameters
    for l, q, x in [((1,), (1,), 1), ((2, 3), (2, 4), 3), ((1, 3), (2,), 2)]:
        m, n = len(l), len(q)
        lm = l[-1]
        ep, _ = gv_matrix(l, q, x, "R", SOUTHWEST)
        assert ep.size == 2 * lm - m + n + 1
        assert ep.starts[-1] == (-lm - x + m - n - 1, n - m - 1)
        for k, qi in enumerate(q, start=1):
            assert ep.ends[ep.size - n + k - 1] == (-qi, 2 * qi - 1)
        # the unique dead-end segment on the connector row
        assert ep.ends[ep.size - n - 1] == (-l[0], -1)


def test_gv_matrix_determinant_is_side_independent():
    l, q, x = (2, 3), (2, 4), 3
    reg = r_region(l, q, x)
    _, m_sw = gv_matrix(l, q, x, "R", SOUTHWEST)
    _, m_nw = gv_matrix(l, q, x, "R", NORTHWEST)
    assert determinant(m_sw) == determinant(m_nw) == count_oracle(reg)


def reference_path_matrix(region: Region, ep: PathEndpoints) -> list[list[Fraction]]:
    """One Fraction sweep of the segment universe per start segment."""
    cells, half = region.cells, region.half
    starts, ends = ep.starts, ep.ends
    if ep.side == SOUTHWEST:
        order_key = lambda seg: seg

        def transitions(va, vb):
            pivot = (vb, 2 * va + 1)
            if pivot in cells:
                yield pivot, (vb, 2 * va + 2), (va + 1, vb)
                yield pivot, (vb + 1, 2 * va), (va, vb + 1)

        tails = {((col - 1) // 2, row) for row, col in cells if col % 2}
    else:
        order_key = lambda seg: (seg[0], -seg[1])

        def transitions(va, vb):
            pivot = (vb, 2 * va)
            if pivot in cells:
                yield pivot, (vb, 2 * va + 1), (va + 1, vb)
                yield pivot, (vb - 1, 2 * va + 1), (va + 1, vb - 1)

        tails = {(col // 2, row) for row, col in cells if col % 2 == 0}
    order = sorted(set(starts) | set(ends) | tails, key=order_key)
    rows = []
    for u in starts:
        values = {u: Fraction(1)}
        for seg in order:
            val = values.get(seg)
            if not val:
                continue
            for pivot, mate, nxt in transitions(*seg):
                if mate in cells:
                    w = Fraction(1, 2) if lozenge(pivot, mate) in half else Fraction(1)
                    values[nxt] = values.get(nxt, Fraction(0)) + val * w
        rows.append([values.get(seg, Fraction(0)) for seg in ends])
    return rows


def test_gv_matrix_equals_per_start_reference_sweep():
    # Rbar members carry the half-weighted steps
    checked = 0
    for family, l, q, x in members(3, 2, range(2)):
        for side in (SOUTHWEST, NORTHWEST):
            ep, matrix = gv_matrix(l, q, x, family, side)
            want = reference_path_matrix(zigzag_walk(l, q, x, family == "Rbar"), ep)
            assert rational_rows(matrix) == want, (family, l, q, x, side)
            checked += 1
    assert checked == 4 * 2 * (7 * 7 - 1)


@pytest.mark.parametrize(
    "family,l,q,x",
    [
        # the count_ladder benchmark's R rungs and CI's large Rbar member
        ("R", (1, 3, 5, 7, 9, 11), (), 40),
        ("R", tuple(range(1, 11)), (), 40),
        ("R", (2, 4, 6, 8, 10, 12, 14, 16), (), 40),
        ("Rbar", (2, 5, 7), (1, 4, 6), 3),
    ],
)
def test_gv_matrix_equals_per_start_reference_sweep_on_large_members(family, l, q, x):
    # long paths fill the packed per-start fields of the sweep
    for side in (SOUTHWEST, NORTHWEST):
        ep, matrix = gv_matrix(l, q, x, family, side)
        want = reference_path_matrix(zigzag_walk(l, q, x, family == "Rbar"), ep)
        assert rational_rows(matrix) == want


@settings(max_examples=150, deadline=None)
@given(holey_subregions(), st.integers(-2, 2))
@example(Region(frozenset({(0, 3)})), 0)  # southwest: a start and no end
@example(Region(frozenset({(0, -2)})), 0)  # southwest: an end and no start
def test_path_matrix_equals_per_start_reference_sweep_on_random_subregions(r, shift):
    # moved so that segment steps are negative on either side
    r = r.translate(shift, 4 * shift)
    for side in (SOUTHWEST, NORTHWEST):
        ep, matrix = _path_matrix(r, side)
        assert rational_rows(matrix) == reference_path_matrix(r, ep)


def reference_tilings(r: Region):
    """Recursive enumeration that always pairs the least uncovered cell."""

    def rec(remaining: set, acc: list):
        if not remaining:
            yield frozenset(acc)
            return
        cell = min(remaining)
        row, col = cell
        fwd = [(row, col + 1)] if is_up(cell) else [(row, col + 1), (row + 1, col - 1)]
        for mate in fwd:
            if mate in remaining:
                remaining -= {cell, mate}
                acc.append(lozenge(cell, mate))
                yield from rec(remaining, acc)
                acc.pop()
                remaining |= {cell, mate}

    if len(r.cells) % 2 == 0:
        yield from rec(set(r.cells), [])


@pytest.mark.parametrize(
    "r",
    [
        Region(),
        region([(0, 0)]),
        hexagon(HexParams(2, 2, 0)),
        hexagon(HexParams(3, 2, 0)),
        r_region((1, 3), (2,), 2),
        r_bar_region((1,), (1, 2), 1),
    ],
)
def test_enumerate_tilings_matches_least_cell_recursion_in_order(r):
    assert list(enumerate_tilings(r)) == list(reference_tilings(r))
