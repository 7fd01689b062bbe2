"""Executable exact checks for every identity the package implements.

Each verifier computes both sides of one identity with exact arithmetic
and returns a :class:`CountReport`; sweep helpers enumerate the instances
the identities quantify over.  Nothing here tolerates error: match means
equal as rationals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .count import NORTHWEST, SOUTHWEST, count_gv, count_oracle
from .exact import format_rational
from .formulas import (
    bar_c_const,
    bar_p_poly,
    coeff_barC,
    coeff_barD,
    coeff_C,
    coeff_D,
    p_poly,
    p_poly_degree,
)
from .lattice import Region, congruent, eliminate_forced, symmetry_axis_cut
from .regions import (
    HexParams,
    IndexList,
    WindowSpec,
    canonical_hexagon,
    check_index_list,
    decrement,
    hexagon,
    increment,
    min_x,
    omit,
    r_bar_region,
    r_region,
    windowed_hexagon,
)

__all__ = [
    "CountReport",
    "check_reachability",
    "expected_cut_pieces",
    "hexagon_formula",
    "instance_children",
    "index_list_pairs",
    "sweep_boundary_reductions",
    "sweep_count_recurrences",
    "sweep_hexagons",
    "sweep_increment_relations",
    "sweep_poly_recurrences",
    "sweep_region_formula",
    "verify_boundary_reductions",
    "verify_count_recurrences",
    "verify_cut_pieces",
    "verify_factorization",
    "verify_hexagon_formula",
    "verify_increment_relations",
    "verify_poly_recurrences",
    "verify_region_formula",
    "window_placements",
]


@dataclass
class CountReport:
    """One verified instance: the values every method produced, and whether
    they all agree."""

    instance: str
    values: dict[str, Fraction] = field(default_factory=dict)
    match: bool = True
    elapsed: float = 0.0

    def close(self, started: float) -> "CountReport":
        vals = list(self.values.values())
        self.match = all(v == vals[0] for v in vals) if vals else True
        self.elapsed = time.perf_counter() - started
        return self

    def line(self) -> str:
        parts = [f"RESULT {self.instance}"]
        parts += [f"{k}={format_rational(v)}" for k, v in self.values.items()]
        parts.append(f"match={'true' if self.match else 'false'}")
        return " ".join(parts)


def fmt_list(t: IndexList) -> str:
    return ",".join(map(str, t)) if t else "-"


def region_instance(family: str, l: IndexList, q: IndexList, x: int) -> str:
    return f"{family}[l={fmt_list(l)};q={fmt_list(q)};x={x}]"


def build_region(family: str, l, q, x: int) -> Region:
    if family == "R":
        return r_region(l, q, x)
    if family == "Rbar":
        return r_bar_region(l, q, x)
    raise ValueError(f"unknown family {family!r}")


def family_poly(family: str, l, q, x) -> Fraction:
    return (p_poly if family == "R" else bar_p_poly)(l, q, x)


# ---------------------------------------------------------------------------
# tiling polynomial = tiling count, for the two zigzag families


def verify_region_formula(l, q, x: int, sides=(SOUTHWEST, NORTHWEST)) -> CountReport:
    """Oracle count, determinant count (both encodings), and polynomial value
    must agree, for whichever of the two families admit this x."""
    started = time.perf_counter()
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    rep = CountReport(region_instance("RRbar", l, q, x))
    ran = False
    ok = True
    for family in ("R", "Rbar"):
        barred = family == "Rbar"
        if (l or q) and x < min_x(l, q, barred):
            continue
        ran = True
        region = build_region(family, l, q, x)
        rep.values[f"{family}.oracle"] = count_oracle(region)
        for side in sides:
            rep.values[f"{family}.gv.{side[:2]}"] = count_gv(region, l, q, x, family, side)
        rep.values[f"{family}.poly"] = family_poly(family, l, q, x)
        vals = [v for key, v in rep.values.items() if key.startswith(family)]
        ok = ok and all(v == vals[0] for v in vals)
    if not ran:
        raise ValueError(f"x={x} is admissible for neither family at l={l}, q={q}")
    rep.elapsed = time.perf_counter() - started
    rep.match = ok  # the two families legitimately carry different values
    return rep


# ---------------------------------------------------------------------------
# hexagons with windows: product formula and the two-piece reduction


def expected_cut_pieces(family: str, l: IndexList, q: IndexList, a: int, k: int):
    """The two pieces (family, l, q, x) that the axis cut must produce."""
    m, n = len(l), len(q)
    if family == "H_l":
        if not l:
            return ("R", (), (), 0), ("R", (), (), 0)
        if a % 2 == 0:
            plus = ("R", (), l, (a + k - 2) // 2)
            minus = ("Rbar" if l[0] == 1 else "R", decrement(l), (), a // 2)
        else:
            plus = ("R", (), omit(l, m), (a + k - 1) // 2)
            minus = ("Rbar", l, (), (a - 1) // 2)
    elif family == "H_lq":
        if a % 2 == 0:
            # the last label below the line is the base triangle; with it gone
            # the frozen pattern at the bottom of the right piece flips the bar
            plus = ("Rbar", l, q, (a + k - 1) // 2)
            minus = ("R", q, omit(l, m), a // 2) if l else ("Rbar", q, (), a // 2)
        else:
            plus = ("Rbar", l, omit(q, n), (a + k) // 2)
            minus = ("R", q, l, (a - 1) // 2)
    elif family == "Hbar_lq":
        if a % 2 == 0:
            plus = ("R", l, q, (a + k - 1) // 2)
            minus = ("Rbar", q, omit(l, m), a // 2) if l else ("R", q, (), a // 2)
        else:
            plus = ("R", l, omit(q, n), (a + k) // 2)
            minus = ("Rbar", q, l, (a - 1) // 2)
    else:
        raise ValueError(f"unknown hexagon family {family!r}")
    return plus, minus


def hexagon_instance(p: HexParams, windows: list[WindowSpec]) -> str:
    wtxt = "+".join(
        f"{'D' if w.kind == 'DELTA' else 'N'}{w.size}@{w.base_row}" for w in windows
    )
    return f"H[a={p.a},b={p.b},k={p.k};w={wtxt or '-'}]"


def _hexagon_sides(p: HexParams, windows: list[WindowSpec]):
    """The canonical windowed region, its family, its cut width, and the
    product of the two piece polynomials selected by the family and the
    parity of a."""
    cp, cws = canonical_hexagon(p, windows)
    region, family, l, q = windowed_hexagon(cp, cws)
    plus, minus = expected_cut_pieces(family, l, q, cp.a, cp.k)
    width = symmetry_axis_cut(region).width
    return region, family, width, family_poly(*plus) * family_poly(*minus)


def hexagon_formula(p: HexParams, windows: list[WindowSpec]) -> Fraction:
    """The weighted count of a windowed hexagon by the product formula,
    2**width * P(plus) * P(minus); no tiling is counted."""
    _, _, width, product = _hexagon_sides(p, windows)
    return 2**width * product


def verify_hexagon_formula(
    p: HexParams, windows: list[WindowSpec], oracle_value: Fraction | None = None
) -> CountReport:
    """The weighted hexagon count, scaled by 2**-width, equals the product of
    the two piece polynomials selected by the family and the parity of a."""
    started = time.perf_counter()
    region, family, width, product = _hexagon_sides(p, windows)
    rep = CountReport(hexagon_instance(p, windows) + f":{family}")
    m_val = count_oracle(region) if oracle_value is None else oracle_value
    rep.values["lhs"] = m_val / 2**width
    rep.values["rhs"] = product
    return rep.close(started)


def verify_factorization(r: Region, instance: str = "region") -> CountReport:
    """Cutting along the mirror axis splits the count as 2**width times the
    product of the two pieces' counts."""
    started = time.perf_counter()
    cut = symmetry_axis_cut(r)
    rep = CountReport(f"factorization[{instance};w={cut.width}]")
    rep.values["whole"] = count_oracle(r)
    rep.values["split"] = (
        Fraction(2) ** cut.width * count_oracle(cut.plus) * count_oracle(cut.minus)
    )
    return rep.close(started)


def verify_cut_pieces(p: HexParams, windows: list[WindowSpec]) -> CountReport:
    """After removing forced lozenges, the two cut pieces are congruent to the
    predicted family members (the right piece up to a half turn), and carry
    the same counts."""
    started = time.perf_counter()
    cp, cws = canonical_hexagon(p, windows)
    region, family, l, q = windowed_hexagon(cp, cws)
    cut = symmetry_axis_cut(region)
    plus, minus = expected_cut_pieces(family, l, q, cp.a, cp.k)
    rep = CountReport(hexagon_instance(p, windows) + f":{family}:pieces")
    ok = True
    for side_name, got, want in (("plus", cut.plus, plus), ("minus", cut.minus, minus)):
        expect = build_region(want[0], want[1], want[2], want[3])
        got_core, got_f, got_dead = eliminate_forced(got)
        want_core, want_f, want_dead = eliminate_forced(expect)
        if got_dead or want_dead or not congruent(got_core, want_core) or got_f != want_f:
            ok = False
        # the piece count must also equal the predicted member's polynomial
        count = count_oracle(got)
        predicted = family_poly(want[0], want[1], want[2], want[3])
        rep.values[f"{side_name}.count"] = count
        rep.values[f"{side_name}.poly"] = predicted
        ok = ok and count == predicted
    rep.elapsed = time.perf_counter() - started
    rep.match = ok
    return rep


# ---------------------------------------------------------------------------
# count recurrences (eliminating one bump at a time)


def _lm1(l: IndexList) -> int:
    return l[-2] if len(l) >= 2 else 0


def verify_count_recurrences(l, q, x: int) -> CountReport:
    """Last-row determinant expansions as count identities, oracle on every
    term, for whichever of the two families apply at (l, q, x)."""
    started = time.perf_counter()
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    rep = CountReport(region_instance("recur", l, q, x))
    if not (l or q):
        raise ValueError("no recurrence applies to two empty lists")

    def m_of(family: str, ll, qq, xx) -> Fraction:
        return count_oracle(build_region(family, ll, qq, xx))

    if x <= min_x(l, q, barred=False):
        raise ValueError(f"x={x} is minimal for the plain family; recurrence needs x > min")
    if m <= n:
        lhs = m_of("R", l, q, x)
        rhs = Fraction(0)
        for k in range(1, n + 1):
            rhs += (-1) ** (n - k) * coeff_C(k, l, q, x) * m_of("R", l, omit(q, k), x)
        if m == n:
            rhs += (-1) ** n * m_of("Rbar", l, q, x)
        rep.values["R.lhs"], rep.values["R.rhs"] = lhs, rhs
    else:
        lhs = m_of("R", l, q, x)
        rhs = Fraction(0)
        for k in range(1, m):
            rhs += (-1) ** (m - k) * coeff_D(k, l, q, x) * m_of("R", omit(l, k), q, x - 1)
        rhs += coeff_D(m, l, q, x) * m_of("R", omit(l, m), q, x + l[-1] - _lm1(l) - 1)
        rep.values["R.lhs"], rep.values["R.rhs"] = lhs, rhs

    if x > min_x(l, q, barred=True):
        if m < n:
            lhs = m_of("Rbar", l, q, x)
            rhs = Fraction(0)
            for k in range(1, n + 1):
                rhs += (-1) ** (n - k) * coeff_barC(k, l, q, x) * m_of("Rbar", l, omit(q, k), x)
            rep.values["Rbar.lhs"], rep.values["Rbar.rhs"] = lhs, rhs
        else:
            lhs = m_of("Rbar", l, q, x)
            rhs = Fraction(0)
            for k in range(1, m):
                rhs += (-1) ** (m - k) * coeff_barD(k, l, q, x) * m_of("Rbar", omit(l, k), q, x - 1)
            rhs += coeff_barD(m, l, q, x) * m_of("Rbar", omit(l, m), q, x + l[-1] - _lm1(l) - 1)
            if m == n:
                rhs += (-1) ** m * m_of("R", l, q, x - 1)
            rep.values["Rbar.lhs"], rep.values["Rbar.rhs"] = lhs, rhs

    rep.close(started)
    rep.match = rep.values["R.lhs"] == rep.values["R.rhs"] and rep.values.get(
        "Rbar.lhs"
    ) == rep.values.get("Rbar.rhs")
    return rep


def verify_boundary_reductions(l, q) -> CountReport:
    """At the least admissible x the outermost lozenges freeze; the count
    collapses to a smaller member, with a factor 1/2 when the frozen run
    ends in a half-weighted position."""
    started = time.perf_counter()
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    rep = CountReport(region_instance("boundary", l, q, 0))
    lm = l[-1] if l else 0
    qn = q[-1] if q else 0
    any_case = False

    def m_of(family, ll, qq, xx):
        return count_oracle(build_region(family, ll, qq, xx))

    if l and lm - m + 1 >= qn - n:
        any_case = True
        rep.values["R.base.lhs"] = m_of("R", l, q, 0)
        rep.values["R.base.rhs"] = m_of("R", omit(l, m), q, lm - _lm1(l) - 1)
    if q and (not l or lm - m + 1 <= qn - n):
        any_case = True
        xx = qn - lm - n + m - 1
        rep.values["R.top.lhs"] = m_of("R", l, q, xx)
        rep.values["R.top.rhs"] = Fraction(1, 2) * m_of("R", l, omit(q, n), xx)
    if l and lm - m >= qn - n:
        any_case = True
        rep.values["Rbar.base.lhs"] = m_of("Rbar", l, q, 0)
        rep.values["Rbar.base.rhs"] = m_of("Rbar", omit(l, m), q, lm - _lm1(l) - 1)
    if q and (not l or lm - m <= qn - n):
        any_case = True
        xx = qn - lm - n + m
        rep.values["Rbar.top.lhs"] = m_of("Rbar", l, q, xx)
        rep.values["Rbar.top.rhs"] = Fraction(1, 2) * m_of("Rbar", l, omit(q, n), xx)
    if not any_case:
        raise ValueError(f"no boundary reduction applies to l={l}, q={q}")
    rep.close(started)
    rep.match = all(
        rep.values[k] == rep.values[k.replace(".lhs", ".rhs")]
        for k in rep.values
        if k.endswith(".lhs")
    )
    return rep


# ---------------------------------------------------------------------------
# polynomial identities


def _sample_points(l: IndexList, q: IndexList, count: int) -> list[int]:
    x0 = (l[-1] if l else 0) + (q[-1] if q else 0) + len(l) + len(q) + 3
    return list(range(x0, x0 + count))


def verify_poly_recurrences(l, q) -> CountReport:
    """The tiling polynomials satisfy the same last-row recurrences as the
    counts; checked at degree-bound+1 points, plus the four frozen-edge
    specializations at their exact arguments."""
    started = time.perf_counter()
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    rep = CountReport(region_instance("poly", l, q, 0))
    ok = True
    if not (l or q):
        raise ValueError("no polynomial recurrence applies to two empty lists")

    deg = max(p_poly_degree(l, q), p_poly_degree(l, q, barred=True)) + 1
    points = _sample_points(l, q, deg + 1)

    if m <= n:
        for x in points:
            lhs = p_poly(l, q, x)
            rhs = sum(
                ((-1) ** (n - k)) * coeff_C(k, l, q, x) * p_poly(l, omit(q, k), x)
                for k in range(1, n + 1)
            )
            if m == n:
                rhs += (-1) ** n * bar_p_poly(l, q, x)
            if lhs != rhs:
                ok = False
        rep.values["R.checked"] = Fraction(len(points))
    else:
        for x in points:
            lhs = p_poly(l, q, x)
            rhs = sum(
                ((-1) ** (m - k)) * coeff_D(k, l, q, x) * p_poly(omit(l, k), q, x - 1)
                for k in range(1, m)
            )
            rhs += coeff_D(m, l, q, x) * p_poly(omit(l, m), q, x + l[-1] - _lm1(l) - 1)
            if lhs != rhs:
                ok = False
        rep.values["R.checked"] = Fraction(len(points))

    if m < n:
        for x in points:
            lhs = bar_p_poly(l, q, x)
            rhs = sum(
                ((-1) ** (n - k)) * coeff_barC(k, l, q, x) * bar_p_poly(l, omit(q, k), x)
                for k in range(1, n + 1)
            )
            if lhs != rhs:
                ok = False
        rep.values["Rbar.checked"] = Fraction(len(points))
    else:
        for x in points:
            lhs = bar_p_poly(l, q, x)
            rhs = sum(
                ((-1) ** (m - k)) * coeff_barD(k, l, q, x) * bar_p_poly(omit(l, k), q, x - 1)
                for k in range(1, m)
            )
            rhs += coeff_barD(m, l, q, x) * bar_p_poly(omit(l, m), q, x + l[-1] - _lm1(l) - 1)
            if m == n:
                rhs += (-1) ** m * p_poly(l, q, x - 1)
            if lhs != rhs:
                ok = False
        rep.values["Rbar.checked"] = Fraction(len(points))

    # frozen-edge specializations at their exact arguments
    lm = l[-1] if l else 0
    qn = q[-1] if q else 0
    if q:
        xx = qn - lm - n + m - 1
        if p_poly(l, q, xx) != Fraction(1, 2) * p_poly(l, omit(q, n), xx):
            ok = False
        xx = qn - lm - n + m
        if bar_p_poly(l, q, xx) != Fraction(1, 2) * bar_p_poly(l, omit(q, n), xx):
            ok = False
    if l:
        arg = lm - _lm1(l) - 1
        if p_poly(l, q, 0) != p_poly(omit(l, m), q, arg):
            ok = False
        if bar_p_poly(l, q, 0) != bar_p_poly(omit(l, m), q, arg):
            ok = False

    rep.close(started)
    rep.match = ok
    return rep


def verify_increment_relations(l, q, k: int, x: int, which: str = "l") -> CountReport:
    """Bumping one selected label up by 1 multiplies the normalized shifted
    polynomial by two explicit linear factors; the normalizing constants obey
    their own one-term recurrences."""
    started = time.perf_counter()
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    rep = CountReport(region_instance(f"incr.{which}{k}", l, q, x))
    lm = l[-1] if l else 0

    def f_val(ll, qq, xx) -> Fraction:
        return bar_p_poly(ll, qq, xx) / bar_c_const(ll, qq)

    ok = True
    if which == "l":
        bumped = increment(l, k)
        if k < m:
            lhs = f_val(bumped, q, x)
            rhs = (x - l[k - 1] + lm) * (x + l[k - 1] + lm - m + n + 1) * f_val(l, q, x)
        else:
            lhs = f_val(bumped, q, x - 1)
            rhs = x * (x + 2 * lm - m + n + 1) * f_val(l, q, x)
        rep.values["lhs"], rep.values["rhs"] = lhs, rhs
        ok = lhs == rhs
    elif which == "q":
        bumped = increment(q, k)
        lhs = f_val(l, bumped, x)
        rhs = (x + q[k - 1] + lm + 1) * (x - q[k - 1] + lm - m + n) * f_val(l, q, x)
        rep.values["lhs"], rep.values["rhs"] = lhs, rhs
        ok = lhs == rhs
    else:
        raise ValueError("which must be 'l' or 'q'")

    # constant recurrences: dropping the largest label of either list
    if l:
        got = bar_c_const(l, q) / bar_c_const(omit(l, m), q)
        want = Fraction(2) ** (m - n - 1) / math.factorial(2 * lm - 1)
        for v in l[:-1]:
            want *= lm - v
        for v in q:
            want /= lm + v
        rep.values["cbar.l.ratio"] = got
        ok = ok and got == want
    if q:
        qn = q[-1]
        got = bar_c_const(l, q) / bar_c_const(l, omit(q, n))
        want = Fraction(2) ** (n - m - 1) / math.factorial(2 * qn)
        for v in q[:-1]:
            want *= qn - v
        for v in l:
            want /= qn + v
        rep.values["cbar.q.ratio"] = got
        ok = ok and got == want

    rep.close(started)
    rep.match = ok
    return rep


# ---------------------------------------------------------------------------
# induction reachability


def instance_children(family: str, l: IndexList, q: IndexList, x: int):
    """The smaller instances the applicable recurrence or boundary reduction
    rewrites (family, l, q, x) into; empty exactly at the base case."""
    l, q = check_index_list(l), check_index_list(q)
    m, n = len(l), len(q)
    if not (l or q):
        return []
    barred = family == "Rbar"
    lm, qn = l[-1] if l else 0, q[-1] if q else 0
    lo = min_x(l, q, barred)
    if x < lo:
        raise ValueError(f"invalid instance {family} l={l} q={q} x={x}")
    out = []
    if x > lo:
        if not barred:
            if m <= n:
                out += [("R", l, omit(q, k), x) for k in range(1, n + 1)]
                if m == n:
                    out.append(("Rbar", l, q, x))
            else:
                out += [("R", omit(l, k), q, x - 1) for k in range(1, m)]
                out.append(("R", omit(l, m), q, x + lm - _lm1(l) - 1))
        else:
            if m < n:
                out += [("Rbar", l, omit(q, k), x) for k in range(1, n + 1)]
            else:
                out += [("Rbar", omit(l, k), q, x - 1) for k in range(1, m)]
                out.append(("Rbar", omit(l, m), q, x + lm - _lm1(l) - 1))
                if m == n:
                    out.append(("R", l, q, x - 1))
    else:
        if not barred:
            if l and lm - m + 1 >= qn - n:
                out.append(("R", omit(l, m), q, lm - _lm1(l) - 1))
            else:
                out.append(("R", l, omit(q, n), x))
        else:
            if l and lm - m >= qn - n:
                out.append(("Rbar", omit(l, m), q, lm - _lm1(l) - 1))
            else:
                out.append(("Rbar", l, omit(q, n), x))
    return out


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

    walk_down(family, check_index_list(l), check_index_list(q), x)
    return len(seen)


# ---------------------------------------------------------------------------
# sweep enumeration


def index_list_pairs(max_entry: int, max_len: int):
    """All pairs of strictly increasing lists with entries <= max_entry and
    length <= max_len, empties included."""
    from itertools import combinations

    lists = [()]
    for size in range(1, max_len + 1):
        lists += list(combinations(range(1, max_entry + 1), size))
    for l in lists:
        for q in lists:
            yield l, q


def sweep_region_formula(max_entry=3, max_len=2, x_extra=2, sides=(SOUTHWEST, NORTHWEST)):
    for l, q in index_list_pairs(max_entry, max_len):
        if not l and not q:
            continue
        lo = min(min_x(l, q, False), min_x(l, q, True))
        hi = max(min_x(l, q, False), min_x(l, q, True)) + x_extra
        for x in range(lo, hi + 1):
            yield verify_region_formula(l, q, x, sides=sides)


def sweep_count_recurrences(max_entry=3, max_len=2, x_extra=2):
    for l, q in index_list_pairs(max_entry, max_len):
        if not l and not q:
            continue
        x0 = min_x(l, q, False)
        for x in range(x0 + 1, x0 + x_extra + 1):
            yield verify_count_recurrences(l, q, x)


def sweep_boundary_reductions(max_entry=3, max_len=2):
    for l, q in index_list_pairs(max_entry, max_len):
        if not l and not q:
            continue
        yield verify_boundary_reductions(l, q)


def sweep_poly_recurrences(max_entry=3, max_len=2):
    for l, q in index_list_pairs(max_entry, max_len):
        if not l and not q:
            continue
        yield verify_poly_recurrences(l, q)


def sweep_increment_relations(count=20, seed=0, max_entry=6):
    import random

    rng = random.Random(seed)
    made = 0
    while made < count:
        l = tuple(sorted(rng.sample(range(1, max_entry), rng.randint(0, 2))))
        q = tuple(sorted(rng.sample(range(1, max_entry), rng.randint(0, 2))))
        which = rng.choice(["l", "q"])
        lst = l if which == "l" else q
        if not lst:
            continue
        k = rng.randint(1, len(lst))
        try:
            increment(lst, k)
        except ValueError:
            continue
        made += 1
        yield verify_increment_relations(l, q, k, rng.randint(1, 5), which)


def sweep_hexagons(max_a=3, max_b=2, max_k=3, product=True, factorization=True, pieces=False):
    for a in range(1, max_a + 1):
        for b in range(1, max_b + 1):
            for k in range(0, max_k + 1):
                p = HexParams(a, b, k)
                for ws in window_placements(p, 2):
                    if product:
                        yield verify_hexagon_formula(p, ws)
                    if factorization:
                        region, _, _, _ = windowed_hexagon(p, ws)
                        yield verify_factorization(region, hexagon_instance(p, ws))
                    if pieces:
                        yield verify_cut_pieces(p, ws)


def window_placements(p: HexParams, max_windows: int = 2):
    """All valid window configurations with at most ``max_windows`` windows."""
    hexa = hexagon(p)
    k = p.k
    nrows = p.nrows

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
                        if w1.cells(p.axis) & w2.cells(p.axis):
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
