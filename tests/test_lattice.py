from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lozenge.regions as regions
from lozenge.count import count_oracle
from lozenge.lattice import (
    Cell,
    Region,
    balance,
    congruent,
    crossed_cells,
    eliminate_forced,
    lozenge,
    mirror_axis,
    partners,
    region,
    region_from_text,
    region_to_text,
    symmetry_axis_cut,
    vertebra_labels,
)
from lozenge.regions import (
    DegenerateHexagon,
    HexParams,
    WindowSpec,
    canonical_hexagon,
    carved_hexagon,
    hexagon,
    r_region,
    windowed_hexagon,
)
from lozenge.verify import hexagon_placements
from references import FIGURE_HEXAGONS, holey_subregions, sweep_regions


def test_partner_geometry_is_symmetric():
    for cell in [(0, 0), (0, 1), (-2, 5), (3, -4)]:
        for mate in partners(cell):
            assert cell in partners(mate)
            lozenge(cell, mate)  # does not raise


def test_lozenge_rejects_non_adjacent():
    with pytest.raises(ValueError):
        lozenge((0, 0), (0, 2))


def test_balance_examples():
    assert balance(Region()) == 0
    assert balance(hexagon(HexParams(1, 1, 1))) == 1
    assert balance(hexagon(HexParams(2, 3, 0))) == 0


def test_balance_nonzero_means_no_tilings():
    r = hexagon(HexParams(1, 1, 1))
    assert balance(r) != 0
    assert count_oracle(r) == 0


def test_eliminate_forced_trivial_cases():
    empty = Region()
    out, factor, dead = eliminate_forced(empty)
    assert (len(out), factor, dead) == (0, 1, False)

    pair = region([(0, 0), (0, 1)])
    out, factor, dead = eliminate_forced(pair)
    assert (len(out), factor, dead) == (0, 1, False)

    lone = region([(0, 0)])
    _, _, dead = eliminate_forced(lone)
    assert dead


def test_eliminate_forced_collects_half_weights():
    # a lone standing lozenge carrying weight 1/2 is forced as a whole
    r = region([(0, -1), (1, -2)], half=[((0, -1), (1, -2))])
    out, factor, dead = eliminate_forced(r)
    assert (len(out), factor, dead) == (0, Fraction(1, 2), False)
    # a half position whose cells are forced away by other lozenges does not
    # contribute to the factor
    r = region([(0, 0), (0, 1), (1, -1), (1, 0)], half=[((0, 1), (1, 0))])
    out, factor, dead = eliminate_forced(r)
    assert (len(out), factor, dead) == (0, Fraction(1), False)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: hexagon(HexParams(2, 2, 0)),
        lambda: r_region((2, 4), (1,), 1),
        lambda: r_region((1, 2), (2,), 0),
        lambda: windowed_hexagon(HexParams(2, 2, 2), [WindowSpec("DELTA", 2, 2)])[0],
    ],
)
def test_eliminate_forced_preserves_count(builder):
    r = builder()
    out, factor, dead = eliminate_forced(r)
    assert not dead
    assert count_oracle(r) == factor * count_oracle(out)


def test_eliminate_forced_is_order_independent():
    r = r_region((1, 2), (2,), 0)
    out1, f1, _ = eliminate_forced(r)
    # run again on a relabeled (translated) copy and map back
    moved = r.translate(5, 8)
    out2, f2, _ = eliminate_forced(moved)
    assert f1 == f2
    assert out2 == out1.translate(5, 8)


def test_congruent_examples():
    r = r_region((2, 4), (1,), 1)
    assert congruent(r, r)
    assert congruent(r, r.translate(3, -6))
    assert congruent(r, r.rotate180().translate(1, 2))
    weaker = Region(r.cells, frozenset())
    assert not congruent(r, weaker)


@settings(max_examples=30)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_congruent_is_an_equivalence(dr1, da1, dr2, da2):
    base = r_region((1, 3), (2,), 1)
    r1 = base.translate(dr1, 2 * da1)
    r2 = r1.rotate180().translate(dr2, 2 * da2)
    assert congruent(base, r1)
    assert congruent(r1, r2)
    assert congruent(base, r2)  # transitivity across a rotation
    assert congruent(r2, base)  # symmetry


def test_mirror_axis_detection():
    h = hexagon(HexParams(3, 2, 1))
    assert mirror_axis(h) == 4
    with pytest.raises(ValueError):
        mirror_axis(region([(0, 0), (0, 1)]))  # no half-integer axis fits
    with pytest.raises(ValueError):
        mirror_axis(region([(0, 0), (0, 1), (0, 2), (1, 1)]))  # rows disagree
    # a half-weighted position breaking the mirror symmetry is rejected
    r = hexagon(HexParams(1, 1, 0))
    bad = Region(r.cells, frozenset({lozenge((0, -1), (0, 0))}))
    with pytest.raises(ValueError):
        mirror_axis(bad)


def reference_mirror_axis(r: Region) -> int:
    """:func:`lozenge.lattice.mirror_axis` comparing r with the whole
    mirrored region."""
    if not r.cells:
        return 0
    rows: dict[int, list[int]] = {}
    for row, col in r.cells:
        rows.setdefault(row, []).append(col)
    row0, cols0 = next(iter(sorted(rows.items())))
    s = min(cols0) + max(cols0)
    if s % 2:
        raise ValueError("region has no vertical mirror axis")
    p = (s + 2 * row0 + 2) // 2
    mirrored = r.moved(lambda cell: (cell[0], 2 * p - 2 * cell[0] - 2 - cell[1]))
    if mirrored.cells != r.cells:
        raise ValueError("region has no vertical mirror axis")
    if mirrored.half != r.half:
        raise ValueError("half-weighted positions are not mirror symmetric")
    return p


def reference_eliminate_forced(r: Region) -> tuple[Region, Fraction, bool]:
    """:func:`lozenge.lattice.eliminate_forced` listing each cell's live
    partners and queueing the partners of both removed cells."""
    cells = set(r.cells)
    half = set(r.half)
    factor = Fraction(1)
    pending = sorted(cells)
    while pending:
        nxt: list[Cell] = []
        for cell in pending:
            if cell not in cells:
                continue
            live = [p for p in partners(cell) if p in cells]
            if not live:
                return Region(frozenset(cells), frozenset(
                    pos for pos in half if pos[0] in cells and pos[1] in cells)), factor, True
            if len(live) > 1:
                continue
            mate = live[0]
            pos = lozenge(cell, mate)
            if pos in half:
                factor /= 2
                half.discard(pos)
            cells.discard(cell)
            cells.discard(mate)
            for removed in (cell, mate):
                for p in partners(removed):
                    if p in cells:
                        nxt.append(p)
        pending = sorted(set(nxt))
    half = {pos for pos in half if pos[0] in cells and pos[1] in cells}
    return Region(frozenset(cells), frozenset(half)), factor, False


def axis_or_error(find_axis, r: Region):
    """The axis find_axis gives for r, or the text of its ValueError."""
    try:
        return find_axis(r)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_lattice_helpers_equal_references(r: Region) -> None:
    assert axis_or_error(mirror_axis, r) == axis_or_error(reference_mirror_axis, r)
    assert eliminate_forced(r) == reference_eliminate_forced(r)


def test_lattice_helpers_equal_their_references_on_the_sweeps():
    regions = list(sweep_regions())
    assert len(regions) == 3 * 472 + 2 * 3 * (7 * 7 - 1)
    for r in regions:
        assert_lattice_helpers_equal_references(r)


UNIT = hexagon(HexParams(1, 1, 0))
HEX2 = hexagon(HexParams(2, 2, 0))


@settings(max_examples=150, deadline=None)
@given(holey_subregions())
# mirror-symmetric cells whose half positions are not symmetric
@example(Region(UNIT.cells, frozenset({((0, -1), (0, 0))})))
# and whose half positions are
@example(Region(UNIT.cells, frozenset({((0, -1), (0, 0)), ((0, 0), (0, 1))})))
# the axis lozenge written both ways round: its mirror image is itself,
# but the mirrored positions, all sorted, are one fewer
@example(Region(HEX2.cells, frozenset({((0, 1), (1, 0)), ((1, 0), (0, 1))})))
def test_lattice_helpers_equal_their_references_on_random_subregions(r):
    assert_lattice_helpers_equal_references(r)


def test_cut_on_plain_hexagon():
    cut = symmetry_axis_cut(hexagon(HexParams(2, 2, 0)))
    assert cut.width == 2
    whole = count_oracle(hexagon(HexParams(2, 2, 0)))
    assert whole == 20
    assert whole == 2**cut.width * count_oracle(cut.plus) * count_oracle(cut.minus)


def test_cut_of_empty_region():
    cut = symmetry_axis_cut(Region())
    assert cut.width == 0
    assert count_oracle(cut.plus) == 1 == count_oracle(cut.minus)


def test_cut_rejects_odd_crossing_count():
    with pytest.raises(ValueError):
        symmetry_axis_cut(hexagon(HexParams(1, 1, 1)))


def test_vertebra_labels_plain_tall_hexagon():
    # every row of the 5,5,3 hexagon keeps its axis cell
    below, above = vertebra_labels(HexParams(5, 5, 3).axis, set(range(13)), 0, row_span=(0, 12))
    assert below == ()
    assert above == (1, 2, 3, 4, 5, 6, 7)


def test_vertebra_labels_after_windows():
    # D:4@5 spans rows 5..8 and D:2@11 rows 11..12 of the 5,6,6 hexagon
    rows = set(range(18)) - {5, 6, 7, 8, 11, 12}
    below, above = vertebra_labels(HexParams(5, 6, 6).axis, rows, 0, row_span=(0, 17))
    assert below == ()
    assert above == (1, 2, 5, 7, 8, 9)


def test_vertebra_labels_empty_axis():
    below, above = vertebra_labels(0, set(), 0, (0, 0))
    assert below == () and above == ()


def reference_vertebra_labels(
    r: Region, reference_row: int, row_span: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`lozenge.lattice.vertebra_labels` sorting the crossed cells into
    full pairs, triangles against the top or the base and dangling leftovers,
    then testing which side of the line each pair's interval lies on."""
    p = mirror_axis(r)
    present = set(crossed_cells(r, p))
    if not present:
        return (), ()
    row_lo, row_hi = row_span

    # classify present crossed cells into vertebrae by pair anchor r0 == p (mod 2)
    present_anchor: dict[int, tuple[int, int]] = {}  # anchor -> clipped row interval
    for cell in present:
        row = cell[0]
        r0 = row if (row - p) % 2 == 0 else row - 1
        if r0 in present_anchor:
            continue
        lo_in = (r0, p - r0 - 1) in present
        hi_in = (r0 + 1, p - r0 - 2) in present
        if lo_in and hi_in:
            present_anchor[r0] = (r0, r0 + 1)
        elif lo_in and r0 + 1 > row_hi:
            present_anchor[r0] = (r0, r0)  # triangular against the top edge
        elif hi_in and r0 < row_lo:
            present_anchor[r0] = (r0 + 1, r0 + 1)  # triangular against the base
        # otherwise: a dangling leftover whose mate was removed, not a vertebra

    def enumerate_side(above_side: bool) -> tuple[int, ...]:
        anchors = [r0 for r0 in range(row_lo - 1, row_hi + 1) if (r0 - p) % 2 == 0]
        slots = []
        for r0 in anchors:
            lo, hi = max(r0, row_lo), min(r0 + 1, row_hi)
            if lo > hi:
                continue
            if above_side and lo >= reference_row:
                slots.append((lo, r0, lo == hi, lo))
            elif not above_side and hi <= reference_row - 1:
                slots.append((-hi, r0, lo == hi, hi))
        slots.sort()
        out = []
        label = 0
        for i, (_, r0, triangular, near) in enumerate(slots):
            edge = near == (reference_row if above_side else reference_row - 1)
            if i == 0 and triangular and edge:
                continue  # skipped: triangular vertebra touching the line
            label += 1
            got = present_anchor.get(r0)
            if got is not None:
                lo, hi = got
                if (lo >= reference_row) if above_side else (hi <= reference_row - 1):
                    out.append(label)
        return tuple(out)

    return enumerate_side(False), enumerate_side(True)


@pytest.fixture(scope="module")
def sweep_label_reads():
    """For each sweep placement that is not degenerate: its canonical
    parameters and windows, its carved region and the arguments that
    :func:`lozenge.regions.windowed_hexagon` passes to ``vertebra_labels``."""
    reads, out = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "vertebra_labels", lambda *args: reads.append(args) or vertebra_labels(*args))
        for p, ws in [*hexagon_placements(6, 6, 3), *FIGURE_HEXAGONS]:
            try:
                cp, cws = canonical_hexagon(p, ws)
            except DegenerateHexagon:
                continue
            windowed_hexagon(cp, cws)
            out.append(((p, ws), cp, cws, carved_hexagon(cp, cws), reads[-1]))
    assert len(reads) == len(out) == 1725 + len(FIGURE_HEXAGONS)
    return out


def test_window_rows_are_the_crossed_rows_of_the_carved_region(sweep_label_reads):
    # a window centred on the axis removes the axis cell of each of its rows
    # and no other axis cell, so the rows no window spans are the crossed ones
    for placement, cp, _, carved, (axis, rows, _, _) in sweep_label_reads:
        assert mirror_axis(carved) == cp.axis == axis, placement
        assert rows == {row for row, _ in crossed_cells(carved, axis)}, placement


def test_vertebra_labels_equal_their_reference_on_the_hexagon_sweep(sweep_label_reads):
    # the package reads the axis and the rows no window spans, the reference
    # the carved region
    for placement, cp, cws, carved, args in sweep_label_reads:
        reference_row = next((w.base_row for w in cws if not w.even), 0)
        assert args[2:] == (reference_row, (0, cp.nrows - 1)), placement
        want = reference_vertebra_labels(carved, reference_row, (0, cp.nrows - 1))
        assert vertebra_labels(*args) == want, placement


@st.composite
def hexagons_with_axis_gaps(draw):
    """A hexagon with a, b <= 6 and k <= 5 and a random subset of its axis
    cells removed: its axis, the region, the rows that keep their axis cell,
    a reference row in -1..nrows+1 and the row span."""
    b = draw(st.integers(0, 6))
    p = HexParams(draw(st.integers(1, 6)), b, draw(st.integers(0 if b else 1, 5)))
    gone = draw(st.sets(st.integers(0, p.nrows - 1)))
    holey = Region(hexagon(p).cells - {(row, p.axis - row - 1) for row in gone})
    rows = set(range(p.nrows)) - gone
    return p.axis, holey, rows, draw(st.integers(-1, p.nrows + 1)), (0, p.nrows - 1)


@settings(max_examples=300, deadline=None)
@given(hexagons_with_axis_gaps())
def test_vertebra_labels_equal_their_reference_on_random_axis_gaps(case):
    axis, holey, rows, reference_row, row_span = case
    want = reference_vertebra_labels(holey, reference_row, row_span)
    assert vertebra_labels(axis, rows, reference_row, row_span) == want


def test_triregion_round_trip():
    r = r_region((2, 4, 5), (2, 4), 2)
    text = region_to_text(r)
    assert region_from_text(text) == r
    # canonical writer: identical bytes after a round trip
    assert region_to_text(region_from_text(text)) == text


def test_triregion_round_trip_hexagon():
    r = hexagon(HexParams(5, 5, 3))
    assert region_from_text(region_to_text(r)) == r


def test_triregion_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        region_from_text("TRIREGION 2\n")
    with pytest.raises(ValueError, match="line 2"):
        region_from_text("TRIREGION 1\nC 0 0 D\n")  # parity mismatch
    with pytest.raises(ValueError, match="line 3"):
        region_from_text("TRIREGION 1\nC 0 0 U\nX 1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: invalid literal for int\(\)"):
        region_from_text("TRIREGION 1\nC 0 x U\n")
    with pytest.raises(ValueError, match=r"^line 3: cells .* do not form a lozenge"):
        region_from_text("TRIREGION 1\nC 0 0 U\nH 0 0 U 0 2 U\n")
