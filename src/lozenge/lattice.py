"""Triangular-lattice cells, regions, weights, and symmetry operations.

Coordinate system
-----------------
Lattice vertices are integer pairs ``(va, vb)`` at real position
``(va + vb/2, vb*sqrt(3)/2)``.  A unit triangle is addressed as
``(row, col)``:

* ``row`` is the horizontal strip between heights ``row`` and ``row+1``
  (rows increase upward);
* even ``col = 2*va`` is the up triangle with vertices
  ``(va, row), (va+1, row), (va, row+1)``;
* odd ``col = 2*va + 1`` is the down triangle immediately to its right.

Orientation is therefore the parity of ``col``.  Within a row, ``col``
increases one triangle at a time left to right.  Lattice translations act
as ``(row, col) -> (row+dr, col+dc)`` with ``dc`` even, and the half turn
about a lattice point acts as ``(row, col) -> (-row-1, -col-1)``.

A vertical mirror axis is parameterized by an integer ``p`` (the line
``x = p/2``); reflection acts as ``(row, col) -> (row, 2p - 2row - 2 - col)``
and the single cell of row ``r`` crossed by the axis has ``col = p - r - 1``.
The vertebrae (:func:`vertebra_labels`) follow one rule: a slot, the row
pair ``(r0, r0 + 1)`` with ``r0 == p (mod 2)`` clipped to the ambient row
span, is a vertebra when its rows keep their axis cells (``rows``: in a
windowed hexagon, the rows that no window spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Cell = tuple[int, int]
Loz = tuple[Cell, Cell]

UP = "U"
DOWN = "D"


def is_up(cell: Cell) -> bool:
    return cell[1] % 2 == 0


def orientation(cell: Cell) -> str:
    return UP if is_up(cell) else DOWN


def partners(cell: Cell) -> tuple[Cell, Cell, Cell]:
    """The three cells that can pair with ``cell`` into a lozenge."""
    r, c = cell
    if c % 2 == 0:
        return ((r, c - 1), (r, c + 1), (r - 1, c + 1))
    return ((r, c - 1), (r, c + 1), (r + 1, c - 1))


def lozenge(a: Cell, b: Cell) -> Loz:
    """Canonical (sorted) form of the lozenge covering cells a and b."""
    if b not in partners(a):
        raise ValueError(f"cells {a} and {b} do not form a lozenge")
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Region:
    """A finite set of unit triangles plus the tile positions of weight 1/2.

    The weight of a tiling is the product of its lozenge weights; every
    position not listed in ``half`` weighs 1.  The weighted sum over all
    tilings is the region's tiling generating function, computed by
    :func:`lozenge.count.count_oracle`.
    """

    cells: frozenset[Cell] = field(default_factory=frozenset)
    half: frozenset[Loz] = field(default_factory=frozenset)

    def __post_init__(self):
        for a, b in self.half:
            if a not in self.cells or b not in self.cells:
                raise ValueError(f"half-weighted position {(a, b)} leaves the region")
            if b not in partners(a):
                raise ValueError(f"half-weighted pair {(a, b)} is not a lozenge")

    def __bool__(self) -> bool:
        return bool(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def moved(self, move) -> "Region":
        """The image under ``move``, a cell map that sends lozenges to
        lozenges; each half position is mapped cellwise and re-sorted."""
        half = frozenset(tuple(sorted((move(a), move(b)))) for a, b in self.half)
        return Region(frozenset(map(move, self.cells)), half)

    def translate(self, dr: int, dc: int) -> "Region":
        if dc % 2:
            raise ValueError("column offset of a lattice translation must be even")
        return self.moved(lambda cell: (cell[0] + dr, cell[1] + dc))

    def rotate180(self) -> "Region":
        return self.moved(lambda cell: (-cell[0] - 1, -cell[1] - 1))


def region(cells, half=()) -> Region:
    return Region(frozenset(cells), frozenset(lozenge(a, b) for a, b in half))


def balance(r: Region) -> int:
    """Number of up cells minus number of down cells (nonzero means untileable)."""
    down = sum(col & 1 for _, col in r.cells)
    return len(r.cells) - 2 * down


def eliminate_forced(r: Region) -> tuple[Region, Fraction, bool]:
    """Remove forced lozenges until none remain.

    A cell with a single available partner forces that lozenge into every
    tiling; both cells are removed and the lozenge's weight is collected in
    the returned factor, so the tiling generating function satisfies
    M(input) = factor * M(output).  If a cell runs out of partners entirely
    the region is untileable and the flag is set.
    """
    cells = set(r.cells)
    half = set(r.half)
    factor = Fraction(1)
    pending = sorted(cells)
    while pending:
        nxt: list[Cell] = []
        for cell in pending:
            if cell not in cells:
                continue
            row, col = cell
            west, east = (row, col - 1), (row, col + 1)
            vertical = (row + 1, col - 1) if col & 1 else (row - 1, col + 1)
            live = (west in cells) + (east in cells) + (vertical in cells)
            if not live:
                return Region(frozenset(cells), frozenset(
                    pos for pos in half if pos[0] in cells and pos[1] in cells)), factor, True
            if live > 1:
                continue
            mate = west if west in cells else east if east in cells else vertical
            pos = (cell, mate) if cell < mate else (mate, cell)
            if pos in half:
                factor /= 2
                half.discard(pos)
            cells.discard(cell)
            cells.discard(mate)
            # the mate was the cell's only partner, so only the mate's
            # partners can have lost one
            nxt.extend(p for p in partners(mate) if p in cells)
        pending = sorted(set(nxt))
    half = {pos for pos in half if pos[0] in cells and pos[1] in cells}
    return Region(frozenset(cells), frozenset(half)), factor, False


def congruent(r1: Region, r2: Region) -> bool:
    """True when r2 is a translate of r1, optionally rotated by 180 degrees.

    Half-weighted positions must map onto each other as well.
    """
    if len(r1.cells) != len(r2.cells) or len(r1.half) != len(r2.half):
        return False
    if not r1.cells:
        return True
    target = min(r2.cells)
    for cand in (r1, r1.rotate180()):
        base = min(cand.cells)
        dr, dc = target[0] - base[0], target[1] - base[1]
        if dc % 2:
            continue
        if cand.translate(dr, dc) == r2:
            return True
    return False


# ---------------------------------------------------------------------------
# vertical mirror symmetry, crossed cells, and the two-piece cut


def mirror_axis(r: Region) -> int:
    """The integer p such that r is symmetric about the line x = p/2.

    The lowest row fixes the only candidate p; then every cell's image
    ``(row, 2p - 2row - 2 - col)`` must be in ``r.cells`` and every half
    position's image in ``r.half``, a membership test per cell and per
    position that builds no mirrored region.  Raises ValueError when no
    vertical mirror axis exists.
    """
    cells = r.cells
    if not cells:
        return 0
    row0, lo = min(cells)
    s = lo + max(col for row, col in cells if row == row0)
    if s % 2:
        raise ValueError("region has no vertical mirror axis")
    p = (s + 2 * row0 + 2) // 2
    # the image of (row, col) is (row, m - 2 * row - col)
    m = 2 * p - 2
    for row, col in cells:
        if (row, m - 2 * row - col) not in cells:
            raise ValueError("region has no vertical mirror axis")
    # r.half equals its image, a set of sorted positions, when each of its
    # positions is sorted and has its sorted image in r.half
    for a, b in r.half:
        ma, mb = (a[0], m - 2 * a[0] - a[1]), (b[0], m - 2 * b[0] - b[1])
        if not a < b or ((ma, mb) if ma < mb else (mb, ma)) not in r.half:
            raise ValueError("half-weighted positions are not mirror symmetric")
    return p


def crossed_cells(r: Region, p: int) -> list[Cell]:
    """Cells of r crossed by the axis x = p/2, ordered bottom to top."""
    out = []
    for row in sorted({row for row, _ in r.cells}):
        cell = (row, p - row - 1)
        if cell in r.cells:
            out.append(cell)
    return out


@dataclass(frozen=True)
class CutResult:
    plus: Region
    minus: Region
    width: int


def symmetry_axis_cut(r: Region) -> CutResult:
    """Split a mirror-symmetric region along its axis into left and right pieces.

    The cutting path hugs the axis on its right side, and after each gap in
    the run of crossed cells it switches sides exactly when the gap holds an
    odd number of lattice triangles.  Crossed cells travel with whichever
    side the path leaves them on; every crossed pair forming a lozenge
    position straddling the axis gets weight 1/2 in its piece.  The width is
    half the number of crossed cells, and the pieces satisfy
    M(r) = 2**width * M(plus) * M(minus).
    """
    p = mirror_axis(r)
    crossed = crossed_cells(r, p)
    if len(crossed) % 2:
        raise ValueError("odd number of axis-crossed cells (region is untileable)")
    width = len(crossed) // 2

    # walk the crossed cells top to bottom; the path changes sides at a gap
    # of an odd number of rows (a gap of 0 rows never flips it)
    side_of: dict[Cell, bool] = {}  # True: the path passes on the cell's right
    on_right = True
    prev_row = crossed[-1][0] + 1 if crossed else 0
    for cell in reversed(crossed):
        row = cell[0]
        if (prev_row - row - 1) % 2:
            on_right = not on_right
        side_of[cell] = on_right
        prev_row = row

    plus_cells, minus_cells = set(), set()
    for cell in r.cells:
        row, col = cell
        axis_col = p - row - 1
        if col < axis_col:
            plus_cells.add(cell)
        elif col > axis_col:
            minus_cells.add(cell)
        else:
            (plus_cells if side_of[cell] else minus_cells).add(cell)

    new_half = {True: set(), False: set()}
    for cell in crossed:
        row, col = cell
        if (row - p) % 2 == 0:  # bottom cell of an axis lozenge position
            mate = (row + 1, col - 1)
            if mate in side_of and side_of[mate] == side_of[cell]:
                new_half[side_of[cell]].add(lozenge(cell, mate))

    def build(cells: set[Cell], extra: set[Loz]) -> Region:
        kept = {pos for pos in r.half if pos[0] in cells and pos[1] in cells}
        if kept & extra:
            raise ValueError("axis position already carries weight 1/2")
        return Region(frozenset(cells), frozenset(kept | extra))

    return CutResult(build(plus_cells, new_half[True]), build(minus_cells, new_half[False]), width)


# ---------------------------------------------------------------------------
# vertebra labeling


def vertebra_labels(
    p: int, rows, reference_row: int, row_span: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Label the vertebrae of the axis x = p/2 below and above a horizontal
    reference line, given the ``rows`` whose axis cell survives.

    A slot is a row pair ``(r0, r0 + 1)`` with ``r0 == p (mod 2)``, clipped
    to ``row_span``, the ambient (lowest, highest) row; a slot clipped to
    one row is a triangle.  A slot is a vertebra exactly when its clipped
    rows are in ``rows``; a window on the axis removes exactly the axis
    cells of its rows.  Each side lists its slots outward from the line
    (above: lowest row at or above ``reference_row``; below: highest row
    under it), drops the first if it is a triangle on the line, numbers the
    rest from 1 and returns the numbers of the vertebrae.
    """
    row_lo, row_hi = row_span
    first = row_lo - 1 + (p - row_lo + 1) % 2  # the least r0 >= row_lo - 1 of p's parity
    slots = [(max(r0, row_lo), min(r0 + 1, row_hi)) for r0 in range(first, row_hi + 1, 2)]

    def labels(side: list[tuple[int, int]], edge: int) -> tuple[int, ...]:
        if side and side[0] == (edge, edge):
            side = side[1:]
        return tuple(n for n, (lo, hi) in enumerate(side, 1) if lo in rows and hi in rows)

    below = [slot for slot in reversed(slots) if slot[1] < reference_row]
    above = [slot for slot in slots if slot[0] >= reference_row]
    return labels(below, reference_row - 1), labels(above, reference_row)


# ---------------------------------------------------------------------------
# text format


def region_to_text(r: Region) -> str:
    """Serialize in the line-based TRIREGION format (bit-exact, canonical)."""
    lines = ["TRIREGION 1"]
    for row, col in sorted(r.cells):
        lines.append(f"C {row} {col} {orientation((row, col))}")
    for a, b in sorted(r.half):
        lines.append(
            f"H {a[0]} {a[1]} {orientation(a)} {b[0]} {b[1]} {orientation(b)}"
        )
    return "\n".join(lines) + "\n"


def region_from_text(text: str) -> Region:
    """Parse the TRIREGION format; parse errors carry 1-based line numbers."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "TRIREGION 1":
        raise ValueError("line 1: expected header 'TRIREGION 1'")

    def parse_cell(parts: list[str]) -> Cell:
        row, col, orient = int(parts[0]), int(parts[1]), parts[2]
        if orient not in (UP, DOWN):
            raise ValueError("orientation must be U or D")
        if orientation((row, col)) != orient:
            raise ValueError(f"orientation {orient} inconsistent with column parity")
        return (row, col)

    cells: set[Cell] = set()
    half: set[Loz] = set()
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "C" and len(parts) == 4:
                cells.add(parse_cell(parts[1:]))
            elif parts[0] == "H" and len(parts) == 7:
                half.add(lozenge(parse_cell(parts[1:4]), parse_cell(parts[4:7])))
            else:
                raise ValueError("expected 'C r c O' or 'H r c O r c O'")
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from exc
    return Region(frozenset(cells), frozenset(half))
