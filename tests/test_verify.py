from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

import lozenge.formulas as F
import lozenge.lattice as L
import lozenge.verify as V
from lozenge.cli import main
from lozenge.lattice import Region, symmetry_axis_cut
from lozenge.count import count_oracle
from lozenge.regions import (
    HexParams,
    WindowSpec,
    _check,
    check_index_list,
    hexagon,
    min_x,
    windowed_hexagon,
    zigzag_walk,
)
from lozenge.verify import (
    CountReport,
    hexagon_formula,
    frozen_edges,
    hexagon_placements,
    hexagon_sides,
    nonempty_pairs,
    recurrence_terms,
    verify_boundary_reductions,
    verify_count_recurrences,
    verify_hexagon,
    verify_increment_relations,
    verify_poly_recurrences,
    verify_region_formula,
    window_placements,
)
from references import members


def test_region_formula_examples():
    assert verify_region_formula((), (), 3).match  # empty region, all methods give 1
    assert verify_region_formula((2, 4, 5), (2, 4), 2).match
    assert verify_region_formula((2, 4, 5), (2, 4), 3).match


def test_region_formula_builds_each_member_once(monkeypatch):
    # the oracle and both path determinants read one region per family
    walks = Counter()

    def counted(l, q, x, barred):
        walks[barred] += 1
        return zigzag_walk(l, q, x, barred)

    for module in ("regions", "count"):
        monkeypatch.setattr(f"lozenge.{module}.zigzag_walk", counted)
    assert verify_region_formula((2, 4), (1, 3), 2).match
    assert walks == {False: 1, True: 1}


def test_region_formula_rejects_inadmissible_x():
    with pytest.raises(ValueError):
        verify_region_formula((1,), (4,), 0)


def test_hexagon_formula_figure_instances():
    cases = [
        (HexParams(5, 6, 6), [WindowSpec("DELTA", 4, 5), WindowSpec("DELTA", 2, 11)]),
        (HexParams(7, 8, 3),
         [WindowSpec("DELTA", 3, 9), WindowSpec("DELTA", 2, 12), WindowSpec("DELTA", 2, 16),
          WindowSpec("NABLA", 2, 8), WindowSpec("NABLA", 2, 4)]),
        (HexParams(8, 8, 1),
         [WindowSpec("NABLA", 1, 8), WindowSpec("NABLA", 2, 5),
          WindowSpec("DELTA", 2, 11), WindowSpec("DELTA", 2, 13)]),
    ]
    for params, windows in cases:
        rep = next(verify_hexagon(params, windows))
        assert rep.match, rep.values


def test_count_recurrence_examples():
    assert verify_count_recurrences((1, 2), (1,), 2).match  # lower-list elimination
    assert verify_count_recurrences((1,), (1,), 1).match  # includes the equal-length extra term
    assert verify_count_recurrences((1,), (1, 2), 1).match  # shifted-family upper elimination
    with pytest.raises(ValueError):
        verify_count_recurrences((1,), (1,), 0)  # x at its minimum


def test_boundary_reduction_examples():
    assert verify_boundary_reductions((1, 3), (1,)).match
    rep = verify_boundary_reductions((1,), (1, 3))
    assert rep.match
    assert "R.top.lhs" in rep.values  # the half-factor case fires
    assert verify_boundary_reductions((), (2,)).match


def test_poly_recurrence_examples():
    assert verify_poly_recurrences((1,), (1, 3)).match
    assert verify_poly_recurrences((1, 3), (1,)).match
    assert verify_poly_recurrences((1,), (1,)).match


def test_increment_relation_examples():
    assert verify_increment_relations((1, 3), (), 2, 3, "l").match  # bump the largest label
    assert verify_increment_relations((1, 3), (), 1, 3, "l").match  # bump an inner label
    assert verify_increment_relations((), (1, 3), 2, 2, "q").match
    assert verify_increment_relations((1, 3), (1,), 2, 4, "l").match
    with pytest.raises(ValueError):
        verify_increment_relations((1, 2), (), 1, 3, "l")  # no longer increasing


def factorization_report(r: Region) -> CountReport:
    """Cutting any region along its mirror axis splits the count as
    2**width times the product of the two pieces' counts."""
    cut = symmetry_axis_cut(r)
    values = {"whole": count_oracle(r)}
    values["split"] = Fraction(2) ** cut.width * count_oracle(cut.plus) * count_oracle(cut.minus)
    return CountReport(f"factorization[region;w={cut.width}]", values).close()


def test_factorization_examples():
    assert factorization_report(hexagon(HexParams(2, 2, 0))).match
    region, _, _, _ = windowed_hexagon(
        HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 0), WindowSpec("DELTA", 2, 8)]
    )
    assert factorization_report(region).match
    rep = factorization_report(Region())
    assert rep.match and rep.values["whole"] == 1


CAPTION = HexParams(6, 5, 4), [WindowSpec("DELTA", 2, 0), WindowSpec("DELTA", 2, 8)]


def test_cut_piece_reports():
    *_, rep = verify_hexagon(*CAPTION)
    assert rep.instance.endswith(":pieces")
    assert rep.match
    assert rep.values["plus.count"] == rep.values["plus.poly"]


def test_broken_hexagon_engines_are_reported(monkeypatch):
    def matches():
        return tuple(rep.match for rep in verify_hexagon(*CAPTION))

    assert matches() == (True, True, True)
    evaluate = V.evaluate
    monkeypatch.setattr(V, "evaluate", lambda form, x: evaluate(form, x) + 1)
    assert matches() == (False, True, False)
    monkeypatch.setattr(V, "evaluate", evaluate)

    minus, count = hexagon_sides(*CAPTION).cut.minus, V.count_oracle
    monkeypatch.setattr(V, "count_oracle", lambda r: count(r) + (r == minus))
    assert matches() == (True, False, False)
    monkeypatch.setattr(V, "count_oracle", count)

    monkeypatch.setattr(V, "congruent", lambda r1, r2: False)
    assert matches() == (True, True, False)


def test_one_hexagon_check_finds_the_mirror_axis_once(monkeypatch):
    # the labels read the axis from the canonical description, so only the
    # cut searches the region for it
    calls, mirror_axis = [], L.mirror_axis
    monkeypatch.setattr(L, "mirror_axis", lambda r: calls.append(r) or mirror_axis(r))
    s = hexagon_sides(*CAPTION)
    assert calls == [s.region]


def test_each_hexagon_region_is_counted_once(capsys, monkeypatch):
    counted, count = [], V.count_oracle
    monkeypatch.setattr(V, "count_oracle", lambda r: counted.append(r) or count(r))
    placements = list(hexagon_placements(3, 2, 3))  # the CLI's default sweep
    sides = [hexagon_sides(p, ws) for p, ws in placements]
    regions = [(s.region, s.cut.plus, s.cut.minus) for s in sides]
    for (p, ws), want in zip(placements, regions):
        counted.clear()
        assert all(rep.match for rep in verify_hexagon(p, ws))
        assert counted == list(want)
    # theorem11 stops after the formula report, before any piece is counted
    for target, kept in (("theorem11", 1), ("factorization", 3)):
        counted.clear()
        assert main(["verify", "--target", target]) == 0
        assert counted == [r for whole_and_pieces in regions for r in whole_and_pieces[:kept]]
    capsys.readouterr()


def _pair_sweep_lines(values):
    sweeps = (
        V.sweep_region_formula,
        V.sweep_count_recurrences,
        V.sweep_boundary_reductions,
        V.sweep_poly_recurrences,
    )
    return [rep.line() for sweep in sweeps for rep in sweep(2, 2, values=values)]


def test_shared_member_values_change_no_report(monkeypatch):
    # one table shared by the four sweeps against a fresh table per report,
    # with the engines as they are and with each engine broken
    evaluate, count = V.evaluate, V.count_oracle
    for broken in (
        {},
        {"evaluate": lambda form, x: evaluate(form, x) + 1},
        {"count_oracle": lambda r: count(r) + 1},  # every region here is an R/Rbar member
    ):
        for name, engine in broken.items():
            monkeypatch.setattr(V, name, engine)
        shared = V.MemberValues()
        lines = _pair_sweep_lines(shared)
        assert lines == _pair_sweep_lines(None)
        assert shared.counts and shared.polys and shared.forms
        assert any(line.endswith("match=false") for line in lines) == bool(broken)
        monkeypatch.undo()


def test_a_verify_run_computes_each_member_value_once(capsys, monkeypatch):
    tables, counted, evaluated = [], Counter(), Counter()
    count, evaluate = V.count_oracle, V.evaluate

    class Recorded(V.MemberValues):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(V, "MemberValues", Recorded)
    monkeypatch.setattr(V, "count_oracle", lambda r: counted.update([r]) or count(r))
    # a form lives in the run's table, so its id names its (family, l, q)
    monkeypatch.setattr(V, "evaluate", lambda form, x: evaluated.update([(id(form), x)]) or evaluate(form, x))
    argv = ["verify", "--target", "all", "--max-entry", "2", "--max-a", "2", "--max-b", "2", "--max-k", "2"]
    assert main(argv) == 0
    capsys.readouterr()

    (table,) = tables
    members = Counter(V.build_region(*member) for member in table.counts)
    # every hexagon whole and cut piece is still counted once per placement
    sides = [hexagon_sides(p, ws) for p, ws in hexagon_placements(2, 2, 2)]
    hexagons = Counter(r for s in sides for r in (s.region, s.cut.plus, s.cut.minus))
    assert counted == members + hexagons
    assert set(evaluated) == {(id(table.forms[f, l, q]), x) for f, l, q, x in table.polys}
    assert set(evaluated.values()) == {1}
    assert len(table.counts) > 10 and len(table.polys) > 10 and len(sides) > 10


def test_a_verify_run_builds_each_factor_table_once(capsys, monkeypatch):
    built, table = Counter(), F._p_table

    def counted(l, q, barred):
        built[barred, l, q] += 1
        return table(l, q, barred)

    monkeypatch.setattr(F, "_p_table", counted)
    assert main(["verify", "--target", "all", "--max-entry", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(built) > 100 and set(built.values()) == {1}


def test_member_values_equal_the_family_polynomials():
    values = V.MemberValues()
    for family, l, q, x in members(3, 2, range(3)):
        for at in (x, x + Fraction(1, 2)):
            assert values.poly(family, l, q, at) == V.family_poly(family, l, q, at), (family, l, q, at)


def test_report_line_format():
    rep = CountReport("thing[x=1]", {"a": Fraction(3, 2), "b": Fraction(3, 2)})
    rep.match = True
    assert rep.line() == "RESULT thing[x=1] a=3/2 b=3/2 match=true"


def test_report_line_renders_each_value_as_a_reduced_fraction():
    rep = CountReport("thing[x=1]", {"a": Fraction(3, 1), "b": Fraction(-7, 2), "c": Fraction(0)})
    assert rep.close().line() == "RESULT thing[x=1] a=3 b=-7/2 c=0 match=false"


def instance_children(family: str, l, q, x: int):
    """The smaller instances the applicable recurrence or boundary reduction
    rewrites (family, l, q, x) into; empty exactly at the base case."""
    if not (l or q):
        return []
    lo = min_x(l, q, family == "Rbar")
    if x < lo:
        raise ValueError(f"invalid instance {family} l={l} q={q} x={x}")
    if x > lo:
        return [child for _, child in recurrence_terms(family, l, q, x)]
    return [next(child for _, xx, _, child in frozen_edges(family, l, q) if xx == lo)]


def check_reachability(family: str, l, q, x: int) -> int:
    """Walk the recurrence tree down to empty lists; returns the number of
    distinct instances visited.  Raises if any child is invalid or fails to
    shrink the induction rank."""

    def rank(fam, ll, qq, xx):
        return ((ll[-1] if ll else 0) + len(qq) + xx, 0 if fam == "Rbar" else 1)

    seen = set()

    def walk_down(fam, ll, qq, xx):
        key = (fam, ll, qq, xx)
        if key in seen:
            return
        seen.add(key)
        for child in instance_children(fam, ll, qq, xx):
            if rank(*child) >= rank(fam, ll, qq, xx):
                raise AssertionError(f"rank failed to drop: {key} -> {child}")
            walk_down(*child)

    walk_down(family, l, q, x)
    return len(seen)


def test_instance_children_shapes():
    # one upper-bump elimination per label plus the equal-length extra term
    kids = instance_children("R", (1,), (2,), 2)
    assert ("R", (1,), (), 2) in kids
    assert ("Rbar", (1,), (2,), 2) in kids
    # at the least x the frozen-edge reduction takes over
    kids = instance_children("R", (1, 3), (), 0)
    assert kids == [("R", (1,), (), 1)]
    assert instance_children("R", (), (), 5) == []


def test_frozen_edges_and_children_come_from_the_tables():
    for l, q in nonempty_pairs(3, 2):
        for fam in ("R", "Rbar"):
            edges = frozen_edges(fam, l, q)
            assert [name for name, _, _, _ in edges] == ["base"] * bool(l) + ["top"] * bool(q)
            for name, _, coeff, _ in edges:
                assert coeff == (Fraction(1, 2) if name == "top" else 1)
            lo = min_x(l, q, fam == "Rbar")
            for x in (lo + 1, lo + 2):
                want = [child for _, child in recurrence_terms(fam, l, q, x)]
                assert instance_children(fam, l, q, x) == want


def test_recurrence_terms_checks_its_lists_once(monkeypatch):
    # the coefficients of every term read the lists checked on entry
    names = []

    def spy(lst, name="list"):
        names.append(name)
        return check_index_list(lst, name)

    monkeypatch.setattr(V, "check_index_list", spy)
    monkeypatch.setattr(F, "check_index_list", spy)
    for family, l, q in [("R", (1, 3), (2, 4, 5)), ("Rbar", (1, 3, 5), (2, 4)), ("R", (2,), (2,))]:
        names.clear()
        assert len(recurrence_terms(family, l, q, 9)) >= 2
        assert names == ["l", "q"], family
    with pytest.raises(ValueError, match="strictly increasing"):
        recurrence_terms("R", (3, 1), (2,), 9)


def test_broken_recurrence_coefficients_are_reported(monkeypatch):
    # one family's coefficients are broken at a time, so each family's
    # check is pinned on its own
    for broken in (False, True):
        with monkeypatch.context() as mp:
            for name in ("_upper_coeff", "_lower_coeff"):
                good = getattr(V, name)
                mp.setattr(
                    V, name, lambda k, l, q, x, barred, good=good: good(k, l, q, x, barred) + (barred == broken)
                )
            # the upper-bump and the lower-bump expansions
            assert not verify_count_recurrences((1,), (1, 2), 1).match, broken
            assert not verify_count_recurrences((1, 2), (1,), 2).match, broken
            assert not verify_poly_recurrences((1,), (1, 2)).match, broken
            assert not verify_poly_recurrences((1, 2), (1,)).match, broken
        # the patch is undone between the two families
        assert verify_poly_recurrences((1,), (1, 2)).match


def test_reachability_full_small_sweep():
    for family, l, q, x in members(4, 2, (0, 3)):
        assert check_reachability(family, l, q, x) >= 1


def test_window_placements_respect_bookkeeping():
    for ws in window_placements(HexParams(3, 3, 3), 2):
        windowed_hexagon(HexParams(3, 3, 3), ws)  # must not raise
    for ws in window_placements(HexParams(4, 2, 2), 2):
        windowed_hexagon(HexParams(4, 2, 2), ws)
    assert list(window_placements(HexParams(3, 3, 0), 2)) == [[]]


def test_window_pairs_are_the_disjoint_pairs_of_fitting_windows():
    # k = 6 splits only into even DELTA windows of sizes 2 and 4 on one
    # axis: the pairs listed are exactly those whose cells do not meet
    p = HexParams(3, 3, 6)
    hexa = hexagon(p).cells

    def fitting(size):
        tops = range(p.nrows - size + 1)
        ws = [WindowSpec("DELTA", size, t) for t in tops if (t - p.axis - size) % 2 == 0]
        return [w for w in ws if w.cells(p.axis) <= hexa]

    candidates = list(product(fitting(2), fitting(4)))
    want = [[w1, w2] for w1, w2 in candidates if not w1.cells(p.axis) & w2.cells(p.axis)]
    pairs = [ws for ws in window_placements(p, 2) if len(ws) == 2]
    assert pairs == want and 0 < len(pairs) < len(candidates)


def reference_window_placements(p: HexParams, max_windows: int = 2):
    """The hand-written generator that listed the placements of at most two
    windows, one case per window pattern, before the one-rule generator."""
    hexa = hexagon(p)
    k = p.k
    nrows = p.nrows

    # the pair loops ask again for the same inner list, which rasterizes
    # every candidate window
    @cache
    def positions(kind: str, size: int) -> list[WindowSpec]:
        out = []
        base_range = range(0, nrows - size + 1) if kind == "DELTA" else range(size, nrows + 1)
        for t in base_range:
            if (t - (p.axis + size)) % 2:
                continue
            w = WindowSpec(kind, size, t)
            if w.cells(p.axis) <= hexa.cells:
                out.append(w)
        return out

    if k % 2 == 0:
        if k == 0:
            yield []
        if 2 <= k and max_windows >= 1:
            for w in positions("DELTA", k):
                yield [w]
        if max_windows >= 2:
            for s1 in range(2, k - 1, 2):
                s2 = k - s1
                if s2 < 2 or (s1 > s2):
                    continue
                for w1 in positions("DELTA", s1):
                    for w2 in positions("DELTA", s2):
                        # DELTA windows on one axis each cover the axis in
                        # every row they span, so they meet iff their rows do
                        if w1.row_lo <= w2.row_hi and w2.row_lo <= w1.row_hi:
                            continue
                        if s1 == s2 and w1.base_row >= w2.base_row:
                            continue
                        yield [w1, w2]
        return

    # odd imbalance: one odd window, evens above (DELTA) or below (NABLA)
    if max_windows >= 1:
        for w in positions("DELTA", k):
            yield [w]
    if max_windows < 2:
        return
    for s_e in range(2, nrows + 1, 2):
        # even DELTA above an odd DELTA, sizes summing to k
        s_o = k - s_e
        if s_o >= 1 and s_o % 2 == 1:
            for wo in positions("DELTA", s_o):
                for we in positions("DELTA", s_e):
                    if we.row_lo > wo.row_hi:
                        yield [we, wo]
        # even DELTA above an odd NABLA, difference k
        s_o = s_e - k
        if s_o >= 1 and s_o % 2 == 1:
            for wo in positions("NABLA", s_o):
                for we in positions("DELTA", s_e):
                    if we.row_lo > wo.row_hi:
                        yield [we, wo]
        # odd DELTA above an even NABLA, difference k
        s_o = s_e + k
        if s_o % 2 == 1:
            for wo in positions("DELTA", s_o):
                for we in positions("NABLA", s_e):
                    if we.row_hi < wo.row_lo:
                        yield [wo, we]


def test_window_placements_equal_the_reference_up_to_two_windows():
    checked = 0
    for a, b, k in product(range(1, 10), range(10), range(9)):
        if b + k < 1:
            continue
        p = HexParams(a, b, k)
        for n in (0, 1, 2):
            assert list(window_placements(p, n)) == list(reference_window_placements(p, n)), (p, n)
        checked += len(list(window_placements(p, 2)))
    assert checked == 35981


def test_window_placements_are_every_set_carve_accepts():
    # brute force: every set of at most three fitting axis windows, rasterized
    valid = 0
    for a, b, k in product(range(1, 4), range(1, 3), range(6)):
        p = HexParams(a, b, k)
        hexa = hexagon(p).cells
        fitting = {}
        for kind, size, t in product(("DELTA", "NABLA"), range(1, p.nrows + 1), range(p.nrows + 1)):
            if (t - p.axis - size) % 2 == 0:
                cells = WindowSpec(kind, size, t).cells(p.axis)
                if cells <= hexa:
                    fitting[WindowSpec(kind, size, t)] = cells
        want = set()
        for n in range(4):
            for ws in combinations(fitting, n):
                if any(fitting[v] & fitting[w] for v, w in combinations(ws, 2)):
                    continue
                try:
                    _check(p, list(ws))
                except ValueError:
                    continue
                want.add(frozenset(ws))
        got = Counter(frozenset(ws) for ws in window_placements(p, 3))
        assert set(got) == want and set(got.values()) <= {1}, p
        valid += len(want)
    assert valid == 171


def test_three_window_formula_equals_the_oracle():
    checked = 0
    for a, b, k in product(range(1, 4), range(1, 4), range(7)):
        p = HexParams(a, b, k)
        for ws in window_placements(p, 3):
            if len(ws) == 3:
                region = windowed_hexagon(p, ws)[0]
                assert hexagon_formula(p, ws) == count_oracle(region), (p, ws)
                checked += 1
    assert checked == 191
