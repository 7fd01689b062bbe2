"""Constructors for the hexagon families and the zigzag-anchored families.

Every region is one closed boundary on the triangular lattice: runs of
(direction, count) from a start vertex ``(va, vb)``, directions E, W, NE,
NW, SE, SW, rasterized by horizontal scanline parity (``rasterize``).

Two groups of families live here:

* ``hexagon``/``windowed_hexagon``: a hexagon with side lengths
  ``a, b+k, b, a+k, b, b+k`` (base ``a+k`` at the bottom, vertical mirror
  axis), optionally with axis-symmetric triangular windows removed.  The
  window rule is arithmetic, stated once (``WindowSpec.on_lattice``,
  ``fits``, ``meets`` and the bookkeeping of ``_check``), so a window is
  rasterized only to be cut out; windows reaching the hull are absorbed
  in one place, which also rejects a description whose windows absorb
  the whole hexagon, and only the canonical description is built.
* ``r_region``/``r_bar_region``: the simply connected regions carved out
  around two vertical zigzag paths through a lattice origin, parameterized
  by the labels of the selected bumps below (``l``) and above (``q``) plus
  a base length ``x``; the tile positions fitting the selected upper bumps
  carry weight 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import lt

from .lattice import Cell, Loz, Region, eliminate_forced, lozenge, vertebra_labels

Vertex = tuple[int, int]  # (va, vb)

# step vectors in (va, vb) coordinates
E = (1, 0)
W = (-1, 0)
NE = (0, 1)
NW = (-1, 1)
SE = (1, -1)
SW = (0, -1)

IndexList = tuple[int, ...]


def check_index_list(lst, name: str = "list") -> IndexList:
    """The entries as a tuple of ints; raises ``ValueError`` unless they are
    positive and strictly increasing."""
    lst = tuple(map(int, lst))
    if lst and (lst[0] < 1 or not all(map(lt, lst, lst[1:]))):
        if any(v < 1 for v in lst):
            raise ValueError(f"{name} must contain positive integers, got {lst}")
        raise ValueError(f"{name} must be strictly increasing, got {lst}")
    return lst


def omit(lst: IndexList, i: int) -> IndexList:
    """The list with its i-th entry (1-based) removed."""
    if not 1 <= i <= len(lst):
        raise ValueError(f"cannot omit entry {i} of {lst}")
    return lst[: i - 1] + lst[i:]


def decrement(lst: IndexList) -> IndexList:
    """Subtract 1 from every entry, dropping a leading 1 first."""
    if lst and lst[0] == 1:
        lst = lst[1:]
    return tuple(v - 1 for v in lst)


def increment(lst: IndexList, k: int) -> IndexList:
    """Increase the k-th entry (1-based) by 1; must stay strictly increasing."""
    if not 1 <= k <= len(lst):
        raise ValueError(f"cannot increment entry {k} of {lst}")
    out = lst[: k - 1] + (lst[k - 1] + 1,) + lst[k:]
    return check_index_list(out, "incremented list")


def rasterize(start: Vertex, *runs: tuple[tuple[int, int], int]) -> frozenset[Cell]:
    """Cells enclosed by the closed lattice boundary that walks from ``start``
    along runs of (direction, count), by scanline parity.

    Every non-horizontal unit step crosses exactly one row strip; its
    quarter-unit x position at mid-strip is ``2*(va1+va2) + (vb1+vb2)``,
    always odd, while cell centers sit at even quarter positions, so
    crossings and centers never collide.  Along a run both the strip and
    that x move by a fixed step, so each run adds two zipped ranges.  The
    crossings are sorted once as ``(strip, x)`` pairs; a closed walk of unit
    steps crosses each strip as often upward as downward, so consecutive
    pairs are the spans of one row.  Cell (r, c) is centered at 2c + 2r + 2,
    so the span from crossing left to crossing right holds columns
    (left - 2r - 1) / 2 up to, not including, (right - 2r - 1) / 2.
    Raises ``ValueError`` for a negative count, a direction that is not a
    lattice step, and a walk that does not end at ``start``.
    """
    va, vb = start
    crossings = []
    steps = (E, W, NE, NW, SE, SW)
    for direction, count in runs:
        if count < 0:
            raise ValueError("negative run length in boundary walk")
        if direction not in steps:
            raise ValueError(f"{direction} is not a lattice step direction")
        da, db = direction
        if db:
            row = vb if db > 0 else vb - 1
            x, dx = 4 * va + 2 * da + 2 * vb + db, 4 * da + 2 * db
            crossings += zip(range(row, row + count * db, db), range(x, x + count * dx, dx))
        va, vb = va + count * da, vb + count * db
    if (va, vb) != start:
        raise ValueError("boundary walk does not close")
    crossings.sort()
    spans = [
        zip(repeat(row), range((left - 2 * row - 1) // 2, (right - 2 * row - 1) // 2))
        for (row, left), (_, right) in zip(crossings[::2], crossings[1::2])
    ]
    return frozenset(chain.from_iterable(spans))


# ---------------------------------------------------------------------------
# hexagons and windows


@dataclass(frozen=True)
class HexParams:
    a: int
    b: int
    k: int

    def __post_init__(self):
        if self.a < 1 or self.b < 0 or self.k < 0 or self.b + self.k < 1:
            raise ValueError(f"hexagon needs a >= 1, b >= 0, k >= 0, b+k >= 1, got {self}")

    @property
    def nrows(self) -> int:
        return 2 * self.b + self.k

    @property
    def axis(self) -> int:
        return self.a + self.k  # the mirror axis is x = (a+k)/2

    def width(self, t: int) -> int:
        """The length of the hexagon's horizontal line at height 0 <= t <= nrows."""
        return self.axis + min(t, self.b) - max(0, t - self.b)


def hexagon(p: HexParams) -> Region:
    """The hexagon with sides a, b+k, b, a+k, b, b+k and base a+k at row 0."""
    a, b, k = p.a, p.b, p.k
    return Region(rasterize((0, 0), (E, a + k), (NE, b), (NW, b + k), (W, a), (SW, b + k), (SE, b)))


@dataclass(frozen=True)
class WindowSpec:
    """An axis-symmetric triangular hole: DELTA points up, NABLA points down.

    ``base_row`` is the lattice height of the window's horizontal base: a
    DELTA window occupies rows base_row..base_row+size-1, a NABLA window
    rows base_row-size..base_row-1.
    """

    kind: str  # "DELTA" or "NABLA"
    size: int
    base_row: int

    def __post_init__(self):
        if self.kind not in ("DELTA", "NABLA"):
            raise ValueError(f"window kind must be DELTA or NABLA, got {self.kind!r}")
        if self.size < 1:
            raise ValueError(f"window size must be positive, got {self.size}")

    @property
    def even(self) -> bool:
        return self.size % 2 == 0

    @property
    def row_lo(self) -> int:
        return self.base_row if self.kind == "DELTA" else self.base_row - self.size

    @property
    def row_hi(self) -> int:
        return self.base_row + self.size - 1 if self.kind == "DELTA" else self.base_row - 1

    def on_lattice(self, axis: int) -> bool:
        """Whether the window's corners are lattice vertices, centred on x = axis/2."""
        return (self.base_row - axis - self.size) % 2 == 0

    def fits(self, p: HexParams) -> bool:
        """Whether a window on the lattice lies inside the (convex) hexagon:
        its rows do, and its base is no longer than the hexagon there."""
        return 0 <= self.row_lo and self.row_hi < p.nrows and self.size <= p.width(self.base_row)

    def meets(self, other: "WindowSpec") -> bool:
        """Whether two windows on the axis share a cell: their row ranges meet."""
        return self.row_lo <= other.row_hi and other.row_lo <= self.row_hi

    def cells(self, axis: int) -> frozenset[Cell]:
        """The window's cells, for a window :meth:`on_lattice`."""
        s, t = self.size, self.base_row
        va_left = (axis - s - t) // 2
        if self.kind == "DELTA":
            return rasterize((va_left, t), (E, s), (NW, s), (SW, s))
        return rasterize((va_left, t), (E, s), (SW, s), (NW, s))


class DegenerateHexagon(ValueError):
    """A valid windowed-hexagon description whose windows absorb the whole
    hexagon: its carved region is legal, but it has no labels to read."""


def _check(p: HexParams, windows: list[WindowSpec]) -> None:
    """Raise ``ValueError`` unless every window is on the lattice and fits,
    no two meet, and the sizes and order obey the bookkeeping of the
    imbalance; arithmetic only, no cell is built."""
    for w in windows:
        if not w.on_lattice(p.axis):
            raise ValueError(f"window {w} is not lattice-symmetric about the axis "
                             "(base row parity must equal axis+size parity)")
        if not w.fits(p):
            raise ValueError(f"window {w} does not fit inside the hexagon")
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            if windows[i].meets(windows[j]):
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


def _canonical_params(
    p: HexParams, windows: list[WindowSpec]
) -> tuple[HexParams, list[WindowSpec]]:
    """Absorb hull-reshaping windows into the hexagon parameters.

    A DELTA window whose apex reaches the top side pins every lozenge in
    the flanking top strips, so removing the forced tiles leaves the
    hexagon with a longer top side and a smaller imbalance; dually for a
    NABLA window whose apex sits on the base.  If the imbalance goes
    negative the whole picture is rotated by a half turn.  The loop runs to
    a fixpoint, so its result is canonical.  Raises :class:`DegenerateHexagon`
    when the windows absorb the whole hexagon (``b + k`` reaches 0).
    """
    a, b, k = p.a, p.b, p.k
    ws = list(windows)
    changed = True
    while changed:
        changed = False
        nrows = 2 * b + k
        for w in ws:
            if w.kind == "DELTA" and w.base_row + w.size == nrows and b + k - w.size >= 0:
                a += w.size
                k -= w.size
                ws.remove(w)
                changed = True
                break
            if w.kind == "NABLA" and w.base_row - w.size == 0 and w.size <= b:
                b -= w.size
                k += w.size
                ws = [
                    WindowSpec(v.kind, v.size, v.base_row - w.size) for v in ws if v is not w
                ]
                changed = True
                break
        if k < 0:
            nrows = 2 * b + k
            a, b, k = a + k, b + k, -k
            ws = [
                WindowSpec("NABLA" if v.kind == "DELTA" else "DELTA", v.size, nrows - v.base_row)
                for v in ws
            ]
            changed = True
    if b + k == 0:
        raise DegenerateHexagon(
            f"hexagon {p} with windows {list(windows)} is degenerate: "
            "its windows absorb the whole hexagon"
        )
    return HexParams(a, b, k), ws


def canonical_hexagon(
    p: HexParams, windows: list[WindowSpec]
) -> tuple[HexParams, list[WindowSpec]]:
    """Validate a windowed-hexagon description, building no region, and return
    its canonical parameters and windows; raises ``ValueError`` for an
    invalid description and for one whose windows absorb the whole hexagon."""
    _check(p, windows)
    return _canonical_params(p, windows)


def carved_hexagon(p: HexParams, windows: list[WindowSpec]) -> Region:
    """The hexagon with its windows cut out; no window is absorbed and no
    forced lozenge removed, so a degenerate description has one too.  The
    description is not checked here: :func:`canonical_hexagon` must have
    accepted it, or refused it only as a :class:`DegenerateHexagon`."""
    return Region(hexagon(p).cells.difference(*(w.cells(p.axis) for w in windows)))


def windowed_hexagon(
    p: HexParams, windows: list[WindowSpec]
) -> tuple[Region, str, IndexList, IndexList]:
    """Remove windows from the hexagon, then forced lozenges.

    Returns ``(region, family, l, q)``.  For even ``k`` all windows are
    even DELTA windows of total size k; the family is ``H_l`` and ``l``
    labels the surviving vertebrae from the base.  For odd ``k`` exactly
    one window is odd (even DELTA windows above it, even NABLA windows
    below it, DELTA total = NABLA total + k); the family is ``H_lq`` for
    an odd DELTA window and ``Hbar_lq`` for an odd NABLA window, and the
    labels count from the odd window's base line.  Only the canonical
    description (:func:`canonical_hexagon`: windows whose apex lies on the
    hull absorbed) is built; its labels are read from the rows no window
    spans, as a window removes exactly the axis cells of its rows.  Raises
    ``ValueError`` as :func:`canonical_hexagon` does, and for no tilings.
    """
    cp, cws = canonical_hexagon(p, windows)
    odd = next((w for w in cws if not w.even), None)
    rows = set(range(cp.nrows)).difference(*(range(w.row_lo, w.row_hi + 1) for w in cws))
    below, above = vertebra_labels(cp.axis, rows, odd.base_row if odd else 0, (0, cp.nrows - 1))
    if odd is None:
        family, l, q = "H_l", above, ()
    else:
        family = "H_lq" if odd.kind == "DELTA" else "Hbar_lq"
        l, q = below, above

    final, factor, untileable = eliminate_forced(carved_hexagon(cp, cws))
    if untileable:
        raise ValueError(f"hexagon {p} with windows {windows} has no tilings: "
                         "forced-lozenge elimination reached a dead end")
    if factor != 1:
        raise AssertionError("hexagon windows carry no weights; factor must stay 1")
    return final, family, l, q


# ---------------------------------------------------------------------------
# the zigzag-anchored families


def top_edge_x(l: IndexList, q: IndexList, barred: bool) -> int:
    """The base length at which the top upper bump's frozen edge lies."""
    lm = l[-1] if l else 0
    qn = q[-1] if q else 0
    return qn - lm - len(q) + len(l) - (0 if barred else 1)


def _zigzag_bounds(l: IndexList, q: IndexList, barred: bool) -> int:
    top = top_edge_x(l, q, barred)
    return max(0, top) if l else top


def min_x(l, q, barred: bool = False) -> int:
    """Least base length for which the family member exists."""
    return _zigzag_bounds(check_index_list(l, "l"), check_index_list(q, "q"), barred)


def check_member(l, q, x: int, barred: bool) -> tuple[IndexList, IndexList]:
    """The validated lists of a family member; raises ``ValueError`` when
    ``x`` is below :func:`min_x`, unless both lists are empty."""
    l = check_index_list(l, "l")
    q = check_index_list(q, "q")
    if l or q:
        lo = _zigzag_bounds(l, q, barred)
        if x < lo:
            raise ValueError(f"x={x} below the least admissible value {lo}")
    return l, q


def _joined(runs: list[tuple[tuple[int, int], int]]) -> list[tuple[tuple[int, int], int]]:
    """The runs with each run of the direction before it added to that one,
    and runs of length 0 left out."""
    out: list[tuple[tuple[int, int], int]] = []
    for direction, count in runs:
        if out and out[-1][0] == direction:
            out[-1] = (direction, out[-1][1] + count)
        elif count:
            out.append((direction, count))
    return out


def zigzag_walk(l, q, x: int, barred: bool) -> Region:
    """Build a zigzag-anchored region by walking its boundary; the runs are
    joined (:func:`_joined`) before they are rasterized."""
    l, q = check_member(l, q, x, barred)
    m, n = len(l), len(q)
    if m == 0 and n == 0:
        return Region()
    lm = l[-1] if l else 0
    qn = q[-1] if q else 0
    h = -1 if barred else 0  # height of the horizontal connector through the origin

    right: list[tuple[tuple[int, int], int]] = []
    if q:
        # down the chain of selected upper bumps, from the top bump to the connector
        for i in range(n, 0, -1):
            right.append((SE, 1))
            right.append((SW, 1))
            if i > 1:
                right.append((SW, 2 * q[i - 1] - 2 - 2 * q[i - 2]))
                right.append((E, q[i - 1] - 1 - q[i - 2]))
        right.append((SW, 2 * q[0] - 2 - h))
        start: Vertex = (-qn, 2 * qn)
    else:
        start = (-l[0] - h, h)
    if l:
        va_cross = -l[0] - h
        if q:
            # the connector runs along height h between the two zigzag chains
            delta = va_cross - (-q[0] + 1)
            right.append((E if delta > 0 else W, abs(delta)))
        right.append((SE, h + 2 * l[0] - 1))
        for i in range(1, m + 1):
            right.append((SE, 1))
            right.append((SW, 1))
            if i < m:
                right.append((W, l[i] - l[i - 1] - 1))
                right.append((SE, 2 * (l[i] - l[i - 1]) - 2))

    if l:
        base_len = x
        n_sw = 2 * lm - m + n + (0 if barred else 1)
    else:
        base_len = (x - q[0] + 1) if barred else (x - q[0] + 2)
        n_sw = n

    # the northeast and top sides run from where the base and the southwest
    # side end back to start
    lower = [*right, (W, base_len), (NW, n_sw)]
    va, vb = start
    for (da, db), count in lower:
        va, vb = va + count * da, vb + count * db
    n_ne, n_top = (2 * qn if q else h) - vb, start[0] - va
    cells = rasterize(start, *_joined([*lower, (NE, n_ne), (E, n_top)]))

    half: set[Loz] = set()
    for qi in q:
        pos = lozenge((2 * qi - 2, -2 * qi + 1), (2 * qi - 1, -2 * qi))
        if not (pos[0] in cells and pos[1] in cells):
            raise AssertionError(f"selected bump {qi} fell outside the region")
        half.add(pos)

    return Region(cells, frozenset(half))


def r_region(l, q, x: int) -> Region:
    """Member of the plain zigzag family (connector through the origin)."""
    return zigzag_walk(l, q, x, barred=False)


def r_bar_region(l, q, x: int) -> Region:
    """Member of the shifted family (connector one step southwest)."""
    return zigzag_walk(l, q, x, barred=True)
