"""Executable exact checks for every identity the package implements.

Each verifier computes both sides of one identity with exact arithmetic
and returns a :class:`CountReport`; sweep helpers enumerate the instances
the identities quantify over.  Nothing here tolerates error: match means
equal as rationals.

The one-bump recurrences and frozen-edge reductions live only in the tables
:func:`recurrence_terms` and :func:`frozen_edges` (coefficients and child
members, never a value); the count check folds them with oracle counts, the
polynomial check with polynomial values.

A windowed hexagon is checked in one place: :func:`hexagon_sides`
canonicalizes, builds, cuts and predicts the two pieces once, and
:func:`verify_hexagon` turns that record into the product formula, the
factorization and the pieces reports, counting each region once.

A :class:`MemberValues` table given to the verifiers makes a run compute
each member's oracle count and polynomial value once, and prepare each
polynomial's product formula once; hexagons and their cut pieces are
still counted once per placement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, product as cartesian

from .count import NORTHWEST, SOUTHWEST, _path_matrix, count_oracle
from .exact import determinant
from .formulas import (
    ProductForm,
    _lower_coeff,
    _upper_coeff,
    bar_c_const,
    bar_p_poly,
    evaluate,
    p_poly,
    product_form,
)
from .lattice import CutResult, Region, congruent, eliminate_forced, symmetry_axis_cut
from .regions import (
    HexParams,
    IndexList,
    WindowSpec,
    canonical_hexagon,
    check_index_list,
    decrement,
    increment,
    min_x,
    omit,
    r_bar_region,
    r_region,
    top_edge_x,
    windowed_hexagon,
)

__all__ = [
    "CountReport",
    "HexagonSides",
    "MemberValues",
    "expected_cut_pieces",
    "frozen_edges",
    "hexagon_formula",
    "hexagon_placements",
    "hexagon_sides",
    "index_list_pairs",
    "nonempty_pairs",
    "recurrence_terms",
    "sweep_boundary_reductions",
    "sweep_count_recurrences",
    "sweep_increment_relations",
    "sweep_poly_recurrences",
    "sweep_region_formula",
    "verify_boundary_reductions",
    "verify_count_recurrences",
    "verify_hexagon",
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

    def close(self) -> "CountReport":
        vals = list(self.values.values())
        self.match = all(v == vals[0] for v in vals) if vals else True
        return self

    def close_pairs(self) -> "CountReport":
        """Close a report of ``*.lhs``/``*.rhs`` pairs: match means every pair is equal."""
        self.match = all(
            v == self.values[k.replace(".lhs", ".rhs")]
            for k, v in self.values.items()
            if k.endswith(".lhs")
        )
        return self

    def line(self) -> str:
        parts = [f"RESULT {self.instance}"]
        parts += [f"{k}={v}" for k, v in self.values.items()]
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


class MemberValues:
    """One run's oracle counts and polynomial values of family members, each
    computed once and keyed by the validated member (family, l, q, x), and
    the product formula of each (family, l, q), prepared once.

    The counts come only from :func:`count_oracle` on the member's region
    and the values only from the member's prepared product formula
    (:func:`lozenge.formulas.product_form`), so neither engine ever stands
    in for the other.  Scalars and prepared formulas are kept, never a
    region.
    """

    def __init__(self):
        self.counts: dict[tuple, Fraction] = {}
        self.polys: dict[tuple, Fraction] = {}
        self.forms: dict[tuple, ProductForm] = {}

    def count(self, family: str, l: IndexList, q: IndexList, x: int, region=None) -> Fraction:
        """The oracle count; ``region`` is the member's region if the caller
        has built it already."""
        key = (family, l, q, x)
        if key not in self.counts:
            self.counts[key] = count_oracle(build_region(*key) if region is None else region)
        return self.counts[key]

    def form(self, family: str, l: IndexList, q: IndexList) -> ProductForm:
        """The member's product formula, prepared once for every x."""
        key = (family, l, q)
        if key not in self.forms:
            self.forms[key] = product_form(l, q, family == "Rbar")
        return self.forms[key]

    def poly(self, family: str, l: IndexList, q: IndexList, x) -> Fraction:
        key = (family, l, q, x)
        if key not in self.polys:
            self.polys[key] = evaluate(self.form(family, l, q), x)
        return self.polys[key]


# ---------------------------------------------------------------------------
# tiling polynomial = tiling count, for the two zigzag families


def verify_region_formula(l, q, x: int, *, values: MemberValues | None = None) -> CountReport:
    """Oracle count, determinant count (both encodings), and polynomial value
    must agree, for whichever of the two families admit this x.  Each
    family's member is built once; the oracle and both path determinants
    read that one region."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    values = MemberValues() if values is None else values
    rep = CountReport(region_instance("RRbar", l, q, x))
    ok = True
    for family in ("R", "Rbar"):
        if (l or q) and x < min_x(l, q, family == "Rbar"):
            continue
        region = build_region(family, l, q, x)
        rep.values[f"{family}.oracle"] = values.count(family, l, q, x, region)
        for side in (SOUTHWEST, NORTHWEST):
            rep.values[f"{family}.gv.{side[:2]}"] = determinant(_path_matrix(region, side)[1])
        rep.values[f"{family}.poly"] = values.poly(family, l, q, x)
        vals = [v for key, v in rep.values.items() if key.startswith(family)]
        ok = ok and all(v == vals[0] for v in vals)
    if not rep.values:
        raise ValueError(f"x={x} is admissible for neither family at l={l}, q={q}")
    rep.match = ok  # the two families legitimately carry different values
    return rep


# ---------------------------------------------------------------------------
# hexagons with windows: product formula and the two-piece reduction


def expected_cut_pieces(family: str, l: IndexList, q: IndexList, a: int, k: int):
    """The two pieces (family, l, q, x) that the axis cut must produce.

    ``a`` and ``k`` must be the canonical parameters the labels were read
    against (:func:`lozenge.regions.canonical_hexagon`); the parameters of
    a placement whose windows reach the hull predict the wrong pieces.
    :func:`hexagon_sides` is the one caller that guarantees this.
    """
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
    elif family in ("H_lq", "Hbar_lq"):
        # Hbar_lq is H_lq with the two zigzag families swapped
        r, rbar = ("R", "Rbar") if family == "H_lq" else ("Rbar", "R")
        if a % 2 == 0:
            # the last label below the line is the base triangle; with it gone
            # the frozen pattern at the bottom of the right piece flips the bar
            plus = (rbar, l, q, (a + k - 1) // 2)
            minus = (r, q, omit(l, m), a // 2) if l else (rbar, q, (), a // 2)
        else:
            plus = (rbar, l, omit(q, n), (a + k) // 2)
            minus = (r, q, l, (a - 1) // 2)
    else:
        raise ValueError(f"unknown hexagon family {family!r}")
    return plus, minus


def hexagon_instance(p: HexParams, windows: list[WindowSpec]) -> str:
    wtxt = "+".join(
        f"{'D' if w.kind == 'DELTA' else 'N'}{w.size}@{w.base_row}" for w in windows
    )
    return f"H[a={p.a},b={p.b},k={p.k};w={wtxt or '-'}]"


@dataclass(frozen=True)
class HexagonSides:
    """A windowed hexagon read off once: its canonical parameters, region,
    family and labels, its axis cut, and the two family members
    (family, l, q, x) predicted for the cut pieces."""

    params: HexParams
    region: Region
    family: str
    l: IndexList
    q: IndexList
    cut: CutResult
    plus: tuple
    minus: tuple


def hexagon_sides(p: HexParams, windows: list[WindowSpec]) -> HexagonSides:
    """Canonicalize, build, cut and predict; labels and predictions are read
    relative to the canonical parameters, whatever placement is given."""
    cp, cws = canonical_hexagon(p, windows)
    region, family, l, q = windowed_hexagon(cp, cws)
    plus, minus = expected_cut_pieces(family, l, q, cp.a, cp.k)
    return HexagonSides(cp, region, family, l, q, symmetry_axis_cut(region), plus, minus)


def hexagon_formula(p: HexParams, windows: list[WindowSpec]) -> Fraction:
    """The weighted count of a windowed hexagon by the product formula,
    2**width * P(plus) * P(minus); no tiling is counted."""
    s = hexagon_sides(p, windows)
    return 2**s.cut.width * family_poly(*s.plus) * family_poly(*s.minus)


def verify_hexagon(p: HexParams, windows: list[WindowSpec], *, values: MemberValues | None = None):
    """The one check of a windowed hexagon, yielding three reports as their
    values exist: the product formula (count * 2**-width = P(plus) *
    P(minus)), the factorization, and the pieces (each cut piece, without
    its forced lozenges, is congruent to its predicted member, the right
    one up to a half turn, with the same forced factor, and counts its
    polynomial).  The oracle counts the region, then each piece only when
    the second report is asked for; the two members' polynomials come from
    ``values``."""
    values = MemberValues() if values is None else values
    s = hexagon_sides(p, windows)
    instance = hexagon_instance(p, windows)
    whole = count_oracle(s.region)
    polys = values.poly(*s.plus), values.poly(*s.minus)
    formula = {"lhs": whole / 2**s.cut.width, "rhs": polys[0] * polys[1]}
    yield CountReport(f"{instance}:{s.family}", formula).close()

    counts = count_oracle(s.cut.plus), count_oracle(s.cut.minus)
    split = Fraction(2) ** s.cut.width * counts[0] * counts[1]
    factorization = {"whole": whole, "split": split}
    yield CountReport(f"factorization[{instance};w={s.cut.width}]", factorization).close()

    rep = CountReport(f"{instance}:{s.family}:pieces")
    ok = True
    for side, got, want, count, poly in zip(
        ("plus", "minus"), (s.cut.plus, s.cut.minus), (s.plus, s.minus), counts, polys
    ):
        got_core, got_f, got_dead = eliminate_forced(got)
        want_core, want_f, want_dead = eliminate_forced(build_region(*want))
        ok = ok and not (got_dead or want_dead) and got_f == want_f
        ok = ok and congruent(got_core, want_core) and count == poly
        rep.values[f"{side}.count"] = count
        rep.values[f"{side}.poly"] = poly
    rep.match = ok
    yield rep


# ---------------------------------------------------------------------------
# the one-bump recurrences and frozen-edge reductions, as tables


def _drop_top_lower(family: str, l: IndexList, q: IndexList, x: int):
    """The member left when the top lower bump goes; the base grows by its gap."""
    return (family, l[:-1], q, x + l[-1] - (l[-2] if len(l) >= 2 else 0) - 1)


def recurrence_terms(family: str, l: IndexList, q: IndexList, x) -> list:
    """The last-row expansion of (family, l, q, x), for x above its least
    value, as ``[(coeff, child)]`` with the member = sum of coeff * child.
    It drops upper bumps when q is longer (for R also at equal length) and
    lower bumps otherwise; at equal length the other family adds a term."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    m, n = len(l), len(q)
    barred = family == "Rbar"
    if m < n or (m == n and not barred):
        terms = [
            ((-1) ** (n - k) * _upper_coeff(k, l, q, x, barred), (family, l, omit(q, k), x))
            for k in range(1, n + 1)
        ]
    else:
        terms = [
            ((-1) ** (m - k) * _lower_coeff(k, l, q, x, barred), (family, omit(l, k), q, x - 1))
            for k in range(1, m)
        ]
        terms.append((_lower_coeff(m, l, q, x, barred), _drop_top_lower(family, l, q, x)))
    if m == n:
        terms.append(((-1) ** n, ("R", l, q, x - 1) if barred else ("Rbar", l, q, x)))
    return terms


def frozen_edges(family: str, l: IndexList, q: IndexList) -> list:
    """The frozen-edge reductions as ``[(name, x, coeff, child)]``, member =
    coeff * child at that x: "base" (x = 0) drops the top lower bump, "top"
    the top upper bump, whose frozen run ends in a half-weighted position.
    Each holds for the polynomials; for the counts where x = min_x (an edge
    never lies above min_x)."""
    edges = []
    if l:
        edges.append(("base", 0, 1, _drop_top_lower(family, l, q, 0)))
    if q:
        x = top_edge_x(l, q, family == "Rbar")
        edges.append(("top", x, Fraction(1, 2), (family, l, q[:-1], x)))
    return edges


def _fold(terms, value) -> Fraction:
    return sum((coeff * value(*child) for coeff, child in terms), Fraction(0))


def verify_count_recurrences(l, q, x: int, *, values: MemberValues | None = None) -> CountReport:
    """Last-row determinant expansions as count identities, oracle on every
    term, for whichever of the two families apply at (l, q, x)."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    values = MemberValues() if values is None else values
    rep = CountReport(region_instance("recur", l, q, x))
    if not (l or q):
        raise ValueError("no recurrence applies to two empty lists")
    if x <= min_x(l, q, barred=False):
        raise ValueError(f"x={x} is minimal for the plain family; recurrence needs x > min")
    for family in ("R", "Rbar"):
        if x > min_x(l, q, barred=family == "Rbar"):
            rep.values[f"{family}.lhs"] = values.count(family, l, q, x)
            rep.values[f"{family}.rhs"] = _fold(recurrence_terms(family, l, q, x), values.count)
    return rep.close_pairs()


def verify_boundary_reductions(l, q, *, values: MemberValues | None = None) -> CountReport:
    """At the least admissible x the outermost lozenges freeze; the count
    collapses to a smaller member, with a factor 1/2 when the frozen run
    ends in a half-weighted position."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    values = MemberValues() if values is None else values
    rep = CountReport(region_instance("boundary", l, q, 0))
    for family in ("R", "Rbar"):
        lo = min_x(l, q, barred=family == "Rbar")
        for name, x, coeff, child in frozen_edges(family, l, q):
            if x == lo:
                rep.values[f"{family}.{name}.lhs"] = values.count(family, l, q, x)
                rep.values[f"{family}.{name}.rhs"] = coeff * values.count(*child)
    if not rep.values:
        raise ValueError(f"no boundary reduction applies to l={l}, q={q}")
    return rep.close_pairs()


# ---------------------------------------------------------------------------
# polynomial identities


def verify_poly_recurrences(l, q, *, values: MemberValues | None = None) -> CountReport:
    """The tiling polynomials satisfy the same last-row recurrences as the
    counts; checked at degree-bound+1 points, plus every frozen-edge
    specialization at its exact argument."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    values = MemberValues() if values is None else values
    rep = CountReport(region_instance("poly", l, q, 0))
    if not (l or q):
        raise ValueError("no polynomial recurrence applies to two empty lists")

    deg = max(values.form(family, l, q).degree for family in ("R", "Rbar")) + 1
    x0 = (l[-1] if l else 0) + (q[-1] if q else 0) + len(l) + len(q) + 3
    points = range(x0, x0 + deg + 1)
    ok = True
    for family in ("R", "Rbar"):
        checks = [(x, recurrence_terms(family, l, q, x)) for x in points]
        checks += [(x, [(coeff, child)]) for _, x, coeff, child in frozen_edges(family, l, q)]
        for x, terms in checks:
            ok = ok and values.poly(family, l, q, x) == _fold(terms, values.poly)
        rep.values[f"{family}.checked"] = Fraction(len(points))

    rep.match = ok
    return rep


def verify_increment_relations(
    l, q, k: int, x: int, which: str = "l", *, values: MemberValues | None = None
) -> CountReport:
    """Bumping one selected label up by 1 multiplies the normalized shifted
    polynomial by two explicit linear factors; the normalizing constants obey
    their own one-term recurrences."""
    l, q = check_index_list(l, "l"), check_index_list(q, "q")
    values = MemberValues() if values is None else values
    m, n = len(l), len(q)
    rep = CountReport(region_instance(f"incr.{which}{k}", l, q, x))
    lm = l[-1] if l else 0

    def f_val(ll, qq, xx) -> Fraction:
        return values.poly("Rbar", ll, qq, xx) / bar_c_const(ll, qq)

    if which == "l":
        bumped = increment(l, k)
        if k < m:
            lhs = f_val(bumped, q, x)
            rhs = (x - l[k - 1] + lm) * (x + l[k - 1] + lm - m + n + 1) * f_val(l, q, x)
        else:
            lhs = f_val(bumped, q, x - 1)
            rhs = x * (x + 2 * lm - m + n + 1) * f_val(l, q, x)
    elif which == "q":
        bumped = increment(q, k)
        lhs = f_val(l, bumped, x)
        rhs = (x + q[k - 1] + lm + 1) * (x - q[k - 1] + lm - m + n) * f_val(l, q, x)
    else:
        raise ValueError("which must be 'l' or 'q'")
    rep.values["lhs"], rep.values["rhs"] = lhs, rhs
    ok = lhs == rhs

    # constant recurrences: dropping the largest label of either list; the
    # factorial runs to 2*top - 1 for a lower label and to 2*top for an upper
    for name, own, other, dropped, odd in (
        ("l", l, q, (l[:-1], q), 1),
        ("q", q, l, (l, q[:-1]), 0),
    ):
        if not own:
            continue
        top = own[-1]
        got = bar_c_const(l, q) / bar_c_const(*dropped)
        want = Fraction(2) ** (len(own) - len(other) - 1) / math.factorial(2 * top - odd)
        for v in own[:-1]:
            want *= top - v
        for v in other:
            want /= top + v
        rep.values[f"cbar.{name}.ratio"] = got
        ok = ok and got == want

    rep.match = ok
    return rep


# ---------------------------------------------------------------------------
# sweep enumeration


def index_list_pairs(max_entry: int, max_len: int):
    """All pairs of strictly increasing lists with entries <= max_entry and
    length <= max_len, empties included."""
    lists = [()]
    for size in range(1, max_len + 1):
        lists += list(combinations(range(1, max_entry + 1), size))
    for l in lists:
        for q in lists:
            yield l, q


def nonempty_pairs(max_entry: int, max_len: int):
    """:func:`index_list_pairs` without the pair of two empty lists."""
    return ((l, q) for l, q in index_list_pairs(max_entry, max_len) if l or q)


def hexagon_placements(max_a: int, max_b: int, max_k: int):
    """Every (HexParams, windows) with 1 <= a <= max_a, 1 <= b <= max_b,
    0 <= k <= max_k and at most two windows."""
    for a, b, k in cartesian(range(1, max_a + 1), range(1, max_b + 1), range(max_k + 1)):
        p = HexParams(a, b, k)
        for ws in window_placements(p, 2):
            yield p, ws


# Each pair sweep passes ``values`` to every report; without one, each
# report computes its member values afresh.


def sweep_region_formula(max_entry=3, max_len=2, x_extra=2, *, values: MemberValues | None = None):
    for l, q in nonempty_pairs(max_entry, max_len):
        lo = min(min_x(l, q, False), min_x(l, q, True))
        hi = max(min_x(l, q, False), min_x(l, q, True)) + x_extra
        for x in range(lo, hi + 1):
            yield verify_region_formula(l, q, x, values=values)


def sweep_count_recurrences(max_entry=3, max_len=2, x_extra=2, *, values: MemberValues | None = None):
    for l, q in nonempty_pairs(max_entry, max_len):
        x0 = min_x(l, q, False)
        for x in range(x0 + 1, x0 + x_extra + 1):
            yield verify_count_recurrences(l, q, x, values=values)


def sweep_boundary_reductions(max_entry=3, max_len=2, *, values: MemberValues | None = None):
    for l, q in nonempty_pairs(max_entry, max_len):
        yield verify_boundary_reductions(l, q, values=values)


def sweep_poly_recurrences(max_entry=3, max_len=2, *, values: MemberValues | None = None):
    for l, q in nonempty_pairs(max_entry, max_len):
        yield verify_poly_recurrences(l, q, values=values)


def sweep_increment_relations(count=20, seed=0, *, values: MemberValues | None = None):
    rng = random.Random(seed)
    made = 0
    while made < count:
        l = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 2))))
        q = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 2))))
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
        yield verify_increment_relations(l, q, k, rng.randint(1, 5), which, values=values)


def _multisets(parts: list[tuple[int, str]], n: int, budget: int):
    """Nondecreasing n-tuples of ``parts`` (listed by size) whose sizes
    total at most ``budget``."""
    if n == 0:
        yield ()
        return
    for i, part in enumerate(parts):
        if part[0] * n > budget:
            return
        for rest in _multisets(parts[i:], n - 1, budget - part[0]):
            yield (part, *rest)


def window_placements(p: HexParams, max_windows: int = 2):
    """Every window set with at most ``max_windows`` windows that
    :func:`lozenge.regions.canonical_hexagon` accepts, each exactly once.

    Windows pass the validator's predicates (``WindowSpec.on_lattice``,
    ``fits``, ``meets``) and sets follow its bookkeeping: even ``k`` takes
    even DELTA windows only; odd ``k`` one odd window, even DELTA windows
    above it and even NABLA windows below it; DELTA total - NABLA total =
    ``k``.  Sets come by number of windows, then by the sizes and kinds of
    the even windows, then by the odd window's kind (DELTA first), then by
    position with the odd window outermost; with odd ``k`` each set is
    listed top to bottom.
    """
    nrows, odd_k = p.nrows, p.k % 2

    @cache
    def positions(kind: str, size: int) -> list[WindowSpec]:
        # only base rows that keep the window's rows in 0..nrows-1 are tried
        bases = range(nrows - size + 1) if kind == "DELTA" else range(size, nrows + 1)
        ws = (WindowSpec(kind, size, t) for t in bases)
        return [w for w in ws if w.on_lattice(p.axis) and w.fits(p)]

    def place(spec: tuple, placed: list[WindowSpec]):
        if not spec:
            yield sorted(placed, key=lambda w: -w.row_lo) if odd_k else placed
            return
        (size, kind), *rest = spec
        last = placed[-1] if placed else None
        for w in positions(kind, size):
            if any(w.meets(v) for v in placed):
                continue
            if odd_k and placed and (kind == "DELTA") != (w.row_lo > placed[0].row_hi):
                continue  # even DELTA above the odd window placed[0], even NABLA below
            if last and (last.size, last.kind) == (size, kind) and w.base_row < last.base_row:
                continue  # equal windows rise, so each set comes once
            yield from place(rest, placed + [w])

    kinds = ("DELTA", "NABLA") if odd_k else ("DELTA",)
    parts = [(size, kind) for size in range(2, nrows + 1, 2) for kind in kinds]
    for n in range(odd_k, max_windows + 1):
        for evens in _multisets(parts, n - odd_k, nrows):
            net = p.k - sum(size if kind == "DELTA" else -size for size, kind in evens)
            if not odd_k:
                if net == 0:
                    yield from place(evens, [])
                continue
            for kind, size in (("DELTA", net), ("NABLA", -net)):
                if size >= 1:
                    yield from place(((size, kind), *evens), [])
