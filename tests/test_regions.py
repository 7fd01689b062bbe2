from collections import Counter
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lozenge import regions
from lozenge.count import NORTHWEST, SOUTHWEST, count_oracle, gv_matrix
from lozenge.lattice import Region, balance, congruent, symmetry_axis_cut
from lozenge.regions import (
    HexParams,
    WindowSpec,
    canonical_hexagon,
    check_index_list,
    decrement,
    hexagon,
    increment,
    omit,
    r_bar_region,
    r_region,
    windowed_hexagon,
    zigzag_walk,
)
from lozenge.verify import hexagon_placements, hexagon_sides, verify_hexagon
from references import members


def test_index_list_helpers():
    assert check_index_list((1, 4, 9)) == (1, 4, 9)
    with pytest.raises(ValueError):
        check_index_list((2, 2))
    with pytest.raises(ValueError):
        check_index_list((0, 1))
    assert omit((2, 4, 5), 2) == (2, 5)
    assert decrement((2, 3, 6)) == (1, 2, 5)
    assert decrement((1, 3, 6)) == (2, 5)
    assert increment((1, 3), 2) == (1, 4)
    with pytest.raises(ValueError):
        increment((1, 2), 1)


def reference_check_index_list(lst, name: str = "list"):
    """Each entry checked positive, then each adjacent pair increasing."""
    lst = tuple(int(v) for v in lst)
    if any(v < 1 for v in lst):
        raise ValueError(f"{name} must contain positive integers, got {lst}")
    if any(lst[i] >= lst[i + 1] for i in range(len(lst) - 1)):
        raise ValueError(f"{name} must be strictly increasing, got {lst}")
    return lst


def _value_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize(
    "lst",
    [(), (1,), (0,), (3, 0), (2, 2), (-1, 5), (1, 4, 9), (2, 3, 5, 7), (1, 5, 3), (4, 2, 0),
     ["1", "3"], ["2", "x"], [1.5, 2]],
)
def test_index_list_check_equals_its_reference(lst):
    for name in ("list", "l"):
        want = _value_or_error(reference_check_index_list, lst, name)
        assert _value_or_error(check_index_list, lst, name) == want
        assert _value_or_error(check_index_list, (v for v in lst), name) == want


def reference_rasterize(boundary):
    """Crossings binned per row strip, each strip sorted, each cell added."""
    if boundary[0] != boundary[-1]:
        raise ValueError("boundary walk does not close")
    crossings = {}
    for (va1, vb1), (va2, vb2) in zip(boundary, boundary[1:]):
        if vb1 == vb2:
            continue
        strip = min(vb1, vb2)
        crossings.setdefault(strip, []).append(2 * (va1 + va2) + (vb1 + vb2))
    cells = set()
    for row, xs in crossings.items():
        xs.sort()
        if len(xs) % 2:
            raise ValueError("boundary is not a closed curve (odd crossing count)")
        for left, right in zip(xs[::2], xs[1::2]):
            first = (left + 1 - (2 * row + 2)) // 2
            last = (right - 1 - (2 * row + 2)) // 2
            for col in range(first, last + 1):
                cells.add((row, col))
    return frozenset(cells)


STEPS = (regions.E, regions.W, regions.NE, regions.NW, regions.SE, regions.SW)


def reference_walk(start, *runs):
    """Vertices visited from ``start`` along runs of (direction, count)."""
    out = [start]
    for (da, db), count in runs:
        if count < 0:
            raise ValueError("negative run length in boundary walk")
        if (da, db) not in STEPS:
            raise ValueError(f"{(da, db)} is not a lattice step direction")
        for _ in range(count):
            out.append((out[-1][0] + da, out[-1][1] + db))
    return out


def reference_rasterize_runs(start, *runs):
    return reference_rasterize(reference_walk(start, *runs))


def test_regions_rasterize_as_their_reference_does(monkeypatch):
    def built():
        out = []
        for p, ws in hexagon_placements(6, 6, 3):
            out.append(hexagon(p))
            out += [w.cells(p.axis) for w in ws]
        out += [zigzag_walk(l, q, x, family == "Rbar")
                for family, l, q, x in members(4, 2, range(3))]
        return out

    got = built()
    monkeypatch.setattr(regions, "rasterize", reference_rasterize_runs)
    assert built() == got


@pytest.mark.parametrize(
    "boundary",
    [
        ((0, 0), (regions.E, 1), (regions.NW, 1)),  # does not close
        ((0, 0), (regions.E, 2), (regions.NW, -1), (regions.SW, 1)),  # a negative run
        ((0, 0), (regions.E, 1), ((0, 2), 1), (regions.SW, 2), (regions.W, 1)),  # not a step
        # a U: two spans on row 1
        ((0, 0), (regions.E, 5), (regions.NE, 2), (regions.W, 1), (regions.SW, 1),
         (regions.W, 2), (regions.NW, 1), (regions.W, 1), (regions.SW, 2)),
    ],
)
def test_rasterize_equals_its_reference_on_drawn_boundaries(boundary):
    want = _value_or_error(reference_rasterize_runs, *boundary)
    assert _value_or_error(regions.rasterize, *boundary) == want


@st.composite
def closed_walks(draw):
    """A start and random runs of unit steps, closed by a vertical and a
    horizontal leg; the walk may cross and retrace itself."""
    start = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    runs = draw(st.lists(st.tuples(st.sampled_from(STEPS), st.integers(0, 4)), max_size=8))
    va = start[0] + sum(da * count for (da, _), count in runs)
    vb = start[1] + sum(db * count for (_, db), count in runs)
    up, right = start[1] - vb, start[0] - va
    return start, [*runs, (regions.NE if up > 0 else regions.SW, abs(up)),
                   (regions.E if right > 0 else regions.W, abs(right))]


@settings(max_examples=300, deadline=None)
@given(closed_walks())
def test_rasterize_equals_its_reference_on_random_closed_walks(walk):
    start, runs = walk
    assert regions.rasterize(start, *runs) == reference_rasterize_runs(start, *runs)


def test_unit_hexagon():
    r = hexagon(HexParams(1, 1, 0))
    assert len(r.cells) == 6
    assert balance(r) == 0


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_hexagon_balance_is_k(a, b, k):
    assert balance(hexagon(HexParams(a, b, k))) == k


def test_tall_hexagon_matches_row_by_row_fixture():
    # independently derived row spans: row r has columns
    # -(2r+1) .. 2(a+k)-1 for r < b, and -2b .. 2(a+b+k-r-1) for r >= b
    a, b, k = 5, 5, 3
    expected = set()
    for r in range(b):
        expected.update((r, c) for c in range(-(2 * r + 1), 2 * (a + k)))
    for r in range(b, 2 * b + k):
        expected.update((r, c) for c in range(-2 * b, 2 * (a + b + k - r - 1) + 1))
    assert hexagon(HexParams(a, b, k)).cells == frozenset(expected)


def test_zigzag_fixture_single_lower_bump():
    # R with l=(1), q=(), x=0: four cells worked out by hand
    r = r_region((1,), (), 0)
    assert r.cells == frozenset({(-3, 1), (-2, -1), (-2, 0), (-1, -2)})
    assert r.half == frozenset()
    assert count_oracle(r) == 1


def test_zigzag_fixture_single_upper_bump():
    # R with l=(), q=(1): a two-row strip whose rightmost standing position
    # carries weight 1/2; the x parameter may start at -1 here
    from fractions import Fraction

    for x in (-1, 0, 1, 2):
        r = r_region((), (1,), x)
        assert len(r.cells) == 4 * x + 6
        assert len(r.half) == 1
        assert count_oracle(r) == Fraction(x) + Fraction(3, 2)


def test_zigzag_empty_lists():
    assert r_region((), (), 7) == Region()
    assert r_bar_region((), (), 0) == Region()


def test_zigzag_rejects_x_below_bound():
    with pytest.raises(ValueError):
        r_region((1,), (4,), 0)  # needs x >= 4-1-1+1-1 = 2
    with pytest.raises(ValueError):
        r_bar_region((), (3,), 1)  # needs x >= 2
    r_region((1,), (4,), 2)
    r_bar_region((), (3,), 2)


@pytest.mark.parametrize("barred", [False, True])
def test_zigzag_regions_balance_and_side_lengths(barred):
    for family, l, q, x in members(4, 2, (0, 2)):
        if (family == "Rbar") != barred:
            continue
        m, n = len(l), len(q)
        lm = l[-1] if l else 0
        region = zigzag_walk(l, q, x, barred)
        assert balance(region) == 0
        assert len(region.half) == n
        sw, _ = gv_matrix(l, q, x, family, SOUTHWEST)
        nw, _ = gv_matrix(l, q, x, family, NORTHWEST)
        assert len(sw.starts) == len(sw.ends) == 2 * lm - m + n + (1 if (l and not barred) else 0)
        assert len(nw.starts) == len(nw.ends)
        # at most one start and one end per row, bottom to top southwest
        # and top to bottom northwest
        for segs in (sw.starts, sw.ends):
            assert all(u[1] < v[1] for u, v in zip(segs, segs[1:]))
        for segs in (nw.starts, nw.ends):
            assert all(u[1] > v[1] for u, v in zip(segs, segs[1:]))


def test_half_positions_sit_at_upper_bumps():
    region = r_region((2, 4, 5), (2, 4), 2)
    expected = {
        tuple(sorted(((2 * qi - 2, -2 * qi + 1), (2 * qi - 1, -2 * qi)))) for qi in (2, 4)
    }
    assert region.half == frozenset(expected)


def test_windowed_hexagon_families_and_labels():
    reg, fam, l, q = windowed_hexagon(
        HexParams(5, 6, 6), [WindowSpec("DELTA", 4, 5), WindowSpec("DELTA", 2, 11)]
    )
    assert (fam, l, q) == ("H_l", (1, 2, 5, 7, 8, 9), ())

    reg, fam, l, q = windowed_hexagon(
        HexParams(7, 8, 3),
        [
            WindowSpec("DELTA", 3, 9),
            WindowSpec("DELTA", 2, 12),
            WindowSpec("DELTA", 2, 16),
            WindowSpec("NABLA", 2, 8),
            WindowSpec("NABLA", 2, 4),
        ],
    )
    assert (fam, l, q) == ("H_lq", (2, 4), (3, 5))

    reg, fam, l, q = windowed_hexagon(
        HexParams(8, 8, 1),
        [
            WindowSpec("NABLA", 1, 8),
            WindowSpec("NABLA", 2, 5),
            WindowSpec("DELTA", 2, 11),
            WindowSpec("DELTA", 2, 13),
        ],
    )
    assert (fam, l, q) == ("Hbar_lq", (1, 3, 4), (1, 4))


def test_windowed_hexagon_rejects_bad_bookkeeping():
    with pytest.raises(ValueError):
        windowed_hexagon(HexParams(3, 3, 2), [])  # sizes must total k
    with pytest.raises(ValueError):
        windowed_hexagon(HexParams(3, 3, 2), [WindowSpec("NABLA", 2, 4)])
    with pytest.raises(ValueError):
        windowed_hexagon(HexParams(3, 3, 1), [WindowSpec("DELTA", 2, 2)])
    with pytest.raises(ValueError):
        # overlapping windows
        windowed_hexagon(
            HexParams(3, 3, 2),
            [WindowSpec("DELTA", 2, 2), WindowSpec("DELTA", 2, 2)],
        )
    with pytest.raises(ValueError):
        # wrong parity: not mirror symmetric on the lattice
        windowed_hexagon(HexParams(3, 3, 2), [WindowSpec("DELTA", 2, 2)])


def test_windowed_hexagon_rejects_an_untileable_region(monkeypatch):
    monkeypatch.setattr("lozenge.regions.eliminate_forced", lambda r: (r, 1, True))
    with pytest.raises(ValueError, match="no tilings"):
        windowed_hexagon(HexParams(3, 3, 2), [WindowSpec("DELTA", 2, 3)])


def test_window_apex_on_hull_is_absorbed():
    # a window whose apex touches the top side freezes the flanking strips;
    # the leftover is a plain hexagon with a longer top side
    reg, fam, l, q = windowed_hexagon(HexParams(2, 2, 2), [WindowSpec("DELTA", 2, 4)])
    assert (fam, l, q) == ("H_l", (1, 2), ())
    assert congruent(reg, hexagon(HexParams(4, 2, 0)))
    cp, cws = canonical_hexagon(HexParams(2, 2, 2), [WindowSpec("DELTA", 2, 4)])
    assert (cp, cws) == (HexParams(4, 2, 0), [])


DEGENERATE = "absorb the whole hexagon"


def test_windows_that_absorb_the_whole_hexagon_are_rejected():
    # the window is valid, but absorbing it leaves b + k = 0
    p, ws = HexParams(2, 0, 1), [WindowSpec("DELTA", 1, 0)]
    for build in (canonical_hexagon, windowed_hexagon):
        with pytest.raises(ValueError, match=DEGENERATE) as err:
            build(p, ws)
        assert str(p) in str(err.value)


@pytest.fixture
def calls(monkeypatch):
    """Counts of hexagon builds and canonicalizations inside lozenge.regions."""
    counts = Counter()
    for name in ("hexagon", "_canonical_params"):
        def counted(*args, _inner=getattr(regions, name), _name=name):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(regions, name, counted)
    return counts


def _raw_placements(max_side: int):
    """Every hexagon with a, b, k <= max_side (b = 0 included) with at most
    two windows, each lattice-symmetric and inside the hexagon."""
    for a, b, k in product(range(1, max_side + 1), range(max_side + 1), range(max_side + 1)):
        if b + k == 0:
            continue
        p = HexParams(a, b, k)
        hexa = hexagon(p).cells
        fits = []
        for kind, size, row in product(("DELTA", "NABLA"), range(1, p.nrows + 1), range(p.nrows + 1)):
            if (row - p.axis - size) % 2 == 0:
                w = WindowSpec(kind, size, row)
                if w.cells(p.axis) <= hexa:
                    fits.append(w)
        yield p, []
        for w in fits:
            yield p, [w]
        for pair in combinations(fits, 2):
            yield p, list(pair)


def test_only_the_given_placement_is_validated(calls):
    # canonicalization runs to a fixpoint, so a valid placement's canonical
    # form is valid and canonical unless its windows absorb the hexagon
    valid = changed = degenerate = 0
    for p, ws in _raw_placements(3):
        try:
            regions._check(p, ws)
        except ValueError:
            continue
        valid += 1
        calls.clear()
        try:
            cp, cws = canonical_hexagon(p, ws)
        except ValueError as exc:
            assert DEGENERATE in str(exc), (p, ws)
            cp = None
        assert calls == Counter(_canonical_params=1), (p, ws)
        if cp is None:
            degenerate += 1
            continue
        regions._check(cp, cws)
        assert regions._canonical_params(cp, cws) == (cp, cws), (p, ws)
        changed += (cp, cws) != (p, ws)

        calls.clear()
        got = windowed_hexagon(p, ws)
        assert calls == Counter(hexagon=1, _canonical_params=1), (p, ws)
        assert got == windowed_hexagon(cp, cws), (p, ws)
    assert (valid, changed, degenerate) == (145, 42, 4)


def test_hexagon_builds_per_placement(calls):
    placements = list(hexagon_placements(3, 2, 3))
    changed = 0
    for p, ws in placements:
        calls.clear()
        hexagon_sides(p, ws)
        assert calls["hexagon"] == 1, (p, ws)
        calls.clear()
        cp, cws = canonical_hexagon(p, ws)
        assert calls == Counter(_canonical_params=1), (p, ws)
        changed += (cp, cws) != (p, ws)
        for given in ((cp, cws), (p, ws)):
            calls.clear()
            windowed_hexagon(*given)
            assert calls == Counter(hexagon=1, _canonical_params=1), (p, ws)
    assert (len(placements), changed) == (62, 17)


@cache
def _hexagon_cells(p: HexParams) -> frozenset:
    return hexagon(p).cells


@cache
def _window_cells(w: WindowSpec, axis: int) -> frozenset:
    return w.cells(axis)


def reference_check(p: HexParams, windows: list[WindowSpec]) -> None:
    """The rasterizing checks the arithmetic validator replaced: each
    window's cells must lie in the hexagon's and no two windows may share a
    cell; then the size/order bookkeeping."""
    hexa = _hexagon_cells(p)
    win_cells = []
    for w in windows:
        if (w.base_row - (p.axis + w.size)) % 2:
            raise ValueError(
                f"window {w} is not lattice-symmetric about the axis "
                f"(base row parity must equal axis+size parity)"
            )
        cs = _window_cells(w, p.axis)
        if not cs <= hexa:
            raise ValueError(f"window {w} does not fit inside the hexagon")
        win_cells.append(cs)
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            if win_cells[i] & win_cells[j]:
                raise ValueError(f"windows {windows[i]} and {windows[j]} overlap")

    odd_windows = [w for w in windows if not w.even]
    if p.k % 2 == 0:
        if odd_windows:
            raise ValueError("even imbalance admits even windows only")
        if any(w.kind != "DELTA" for w in windows):
            raise ValueError("even imbalance admits DELTA windows only")
        if sum(w.size for w in windows) != p.k:
            raise ValueError(f"window sizes {[w.size for w in windows]} must total k={p.k}")
        return
    if len(odd_windows) != 1:
        raise ValueError("odd imbalance needs exactly one odd window")
    odd = odd_windows[0]
    delta_total = sum(w.size for w in windows if w.kind == "DELTA")
    nabla_total = sum(w.size for w in windows if w.kind == "NABLA")
    if delta_total != nabla_total + p.k:
        raise ValueError(
            f"DELTA window total {delta_total} must exceed NABLA total {nabla_total} by k={p.k}"
        )
    for w in windows:
        if w is odd:
            continue
        if w.kind == "DELTA":
            if w.row_lo <= odd.row_hi:
                raise ValueError(f"even DELTA window {w} must lie above the odd window")
        elif w.row_hi >= odd.row_lo:
            raise ValueError(f"even NABLA window {w} must lie below the odd window")


def _first_error(check, p, ws):
    try:
        check(p, ws)
    except ValueError as exc:
        return str(exc)
    return None


REASONS = ("lattice-symmetric", "does not fit", "overlap")


def test_validator_equals_the_rasterized_rule():
    # every window of either kind and parity with size 1..nrows+2 and base
    # row -2..nrows+2, alone on every hexagon with a, b, k <= 4, and every
    # ordered pair of fitting windows (the same window twice included) for a <= 3
    outcomes = Counter()
    for a, b, k in product(range(1, 5), range(5), range(5)):
        if b + k == 0:
            continue
        p = HexParams(a, b, k)
        candidates = [
            WindowSpec(kind, size, row)
            for kind, size, row in product(
                ("DELTA", "NABLA"), range(1, p.nrows + 3), range(-2, p.nrows + 3)
            )
        ]
        sets = [[]] + [[w] for w in candidates]
        if a <= 3:
            fitting = [
                w for w in candidates
                if (w.base_row - p.axis - w.size) % 2 == 0
                and _window_cells(w, p.axis) <= _hexagon_cells(p)
            ]
            sets += [list(pair) for pair in product(fitting, repeat=2)]
        for ws in sets:
            want = _first_error(reference_check, p, ws)
            assert _first_error(regions._check, p, ws) == want, (p, ws)
            reason = next((r for r in REASONS if want and r in want), want and "bookkeeping")
            outcomes[len(ws), reason] += 1
    assert outcomes == Counter({
        (0, None): 16, (0, "bookkeeping"): 80,
        (1, None): 200, (1, "lattice-symmetric"): 9760, (1, "does not fit"): 7627,
        (1, "bookkeeping"): 1933,
        (2, None): 480, (2, "overlap"): 25684, (2, "bookkeeping"): 22662,
    })


def test_cut_pieces_match_reduction_captions():
    # six fixed reduction instances, one per family and parity case
    cases = [
        (HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 0), WindowSpec("DELTA", 2, 8)],
         ("R", (), (2, 3, 4, 6, 7), 4), ("R", (1, 2, 3, 5, 6), (), 3)),
        (HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 4), WindowSpec("DELTA", 2, 8)],
         ("R", (), (1, 2, 4, 6, 7), 4), ("Rbar", (1, 3, 5, 6), (), 3)),
        (HexParams(5, 5, 4), [WindowSpec("DELTA", 2, 3), WindowSpec("DELTA", 2, 9)],
         ("R", (), (1, 3, 4, 6), 4), ("Rbar", (1, 3, 4, 6, 7), (), 2)),
        (HexParams(6, 8, 1),
         [WindowSpec("DELTA", 1, 8), WindowSpec("DELTA", 4, 9),
          WindowSpec("NABLA", 2, 7), WindowSpec("NABLA", 2, 3)],
         ("Rbar", (2, 4), (3, 4), 3), ("R", (3, 4), (2,), 3)),
        (HexParams(7, 8, 1),
         [WindowSpec("DELTA", 1, 9), WindowSpec("DELTA", 4, 10),
          WindowSpec("NABLA", 2, 8), WindowSpec("NABLA", 2, 4)],
         ("Rbar", (2, 4), (3,), 4), ("R", (3, 4), (2, 4), 3)),
        (HexParams(6, 8, 1),
         [WindowSpec("NABLA", 1, 6), WindowSpec("NABLA", 2, 5),
          WindowSpec("DELTA", 2, 9), WindowSpec("DELTA", 2, 13)],
         ("R", (2, 3), (1, 3, 5), 3), ("Rbar", (1, 3, 5), (2,), 3)),
    ]
    for params, windows, want_plus, want_minus in cases:
        sides = hexagon_sides(params, windows)
        assert (sides.plus, sides.minus) == (want_plus, want_minus)
        # congruent forced-free cores, equal forced factors, counts = polynomials
        *_, pieces = verify_hexagon(params, windows)
        assert pieces.match, pieces.line()


def test_widths_count_label_slots():
    # surviving label count below+above equals half the crossed cells
    region, fam, l, q = windowed_hexagon(
        HexParams(7, 8, 3),
        [
            WindowSpec("DELTA", 3, 9),
            WindowSpec("DELTA", 2, 12),
            WindowSpec("DELTA", 2, 16),
            WindowSpec("NABLA", 2, 8),
            WindowSpec("NABLA", 2, 4),
        ],
    )
    assert symmetry_axis_cut(region).width == len(l) + len(q)
    region, fam, l, q = windowed_hexagon(
        HexParams(5, 6, 6), [WindowSpec("DELTA", 4, 5), WindowSpec("DELTA", 2, 11)]
    )
    assert symmetry_axis_cut(region).width == len(l)
