"""Two independent engines for tiling generating functions.

``count_oracle`` sums lozenge weights over all tilings by a profile
dynamic program: cells are scanned in (row, col) order, and each state is
the bitmask of already-covered cells ahead of the scan front.  An up cell
and its east down neighbour are scanned as one step: the down cell's only
backward partner is that up cell, so it is never covered before the pair
is reached.  It works on any region.

``count_gv`` applies the nonintersecting-path determinant method to the
two zigzag-anchored families: tilings biject onto tuples of paths of
rhombi from one boundary side to the other, so the weighted count is a
determinant of single-path generating functions.  Both encodings are
available: paths can start on the southwestern side (steps east and
northeast on the segment lattice) or on the northwestern side (steps
east and southeast).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalMatrix, determinant
from .lattice import Loz, Region, balance, is_up, lozenge
from .regions import IndexList, Vertex, ZigzagWalk, zigzag_walk

SOUTHWEST = "southwest"
NORTHWEST = "northwest"


def count_oracle(r: Region) -> Fraction:
    """Exact weighted tiling count by a profile DP over the scan frontier.

    Cells are scanned in (row, col) order; a state is the bitmask of cells
    at or after the scan position that are already covered, mapped to the
    weighted number of partial tilings.  An up cell's only forward partner
    is its east neighbour, and a down cell's only backward partner is its
    west neighbour.  So when an up cell is followed by its east neighbour,
    that down cell cannot be covered yet (bit 1 is clear in every state),
    and the pair is one step shifted by 2: a free up cell takes the
    horizontal lozenge, a covered one lets the down cell pair with its east
    neighbour or the up cell above it.  Every other cell is one step
    shifted by 1.

    Weight-1 lozenges are counted with weight 2 internally and the total is
    divided by 2**(cells/2) at the end, so the whole dynamic program runs
    over Python integers.
    """
    ncells = len(r.cells)
    if ncells == 0:
        return Fraction(1)
    if ncells % 2 or balance(r) != 0:
        return Fraction(0)
    cells = sorted(r.cells)
    index = {c: i for i, c in enumerate(cells)}
    half = r.half

    def down_slots(j: int, base: int) -> list[tuple[int, int]]:
        """(bit relative to cell base, doubled weight) for each forward
        partner of down cell j."""
        row, col = cell = cells[j]
        slots = []
        for mate in ((row, col + 1), (row + 1, col - 1)):
            m = index.get(mate)
            if m is not None:
                slots.append((1 << (m - base), 1 if (cell, mate) in half else 2))
        return slots

    # (pair, horizontal weight, slots) per step; a pair step pads its slots
    # to two with bit 0, which is set in every state that reads them
    steps: list[tuple[bool, int, list[tuple[int, int]]]] = []
    i = 0
    while i < ncells:
        row, col = cell = cells[i]
        if not is_up(cell):
            steps.append((False, 0, down_slots(i, i)))
            i += 1
        elif i + 1 < ncells and cells[i + 1] == (row, col + 1):
            w2 = 1 if (cell, cells[i + 1]) in half else 2
            slots = down_slots(i + 1, i)
            steps.append((True, w2, slots + [(1, 0)] * (2 - len(slots))))
            i += 2
        else:
            steps.append((False, 0, []))
            i += 1

    states: dict[int, int] = {0: 1}
    for pair, h2, slots in steps:
        nxt: dict[int, int] = {}
        get = nxt.get
        if pair:
            (b1, w1), (b2, w2) = slots
            for mask, val in states.items():
                if mask & 1:
                    if not mask & b1:
                        key = (mask | b1) >> 2
                        nxt[key] = get(key, 0) + val * w1
                    if not mask & b2:
                        key = (mask | b2) >> 2
                        nxt[key] = get(key, 0) + val * w2
                else:
                    key = mask >> 2
                    nxt[key] = get(key, 0) + val * h2
        else:
            for mask, val in states.items():
                if mask & 1:
                    key = mask >> 1
                    nxt[key] = get(key, 0) + val
                    continue
                for bit, w2 in slots:
                    if not mask & bit:
                        key = (mask | bit) >> 1
                        nxt[key] = get(key, 0) + val * w2
        if not nxt:
            return Fraction(0)
        states = nxt
    return Fraction(states.get(0, 0), 1 << (ncells // 2))


def _walk_tilings(r: Region):
    """Backtrack over every tiling of a small region.

    The first uncovered cell of the sorted scan is paired with each
    still-uncovered forward partner in turn (east, then the up cell above
    for a down cell), so tilings come out in a fixed order.  At each
    tiling this yields the list of its lozenge positions, which is shared
    and mutated by the walk, and the number of them that are half-weighted.
    """
    cells = sorted(r.cells)
    ncells = len(cells)
    if ncells % 2:
        return
    index = {c: i for i, c in enumerate(cells)}
    half = r.half
    # (mate index, position, 1 if half-weighted) per forward move
    moves: list[list[tuple[int, Loz, int]]] = []
    for cell in cells:
        row, col = cell
        fwd = [(row, col + 1)] if is_up(cell) else [(row, col + 1), (row + 1, col - 1)]
        opts = []
        for mate in fwd:
            if mate in index:
                pos = lozenge(cell, mate)
                opts.append((index[mate], pos, int(pos in half)))
        moves.append(opts)

    covered = [False] * ncells
    acc: list[Loz] = []
    placed: list[tuple[int, int]] = []  # (cell index, move index) per lozenge in acc
    halves = i = k = 0
    while True:
        while i < ncells and covered[i]:
            i += 1
        if i == ncells:
            yield acc, halves
        else:
            opts = moves[i]
            while k < len(opts) and covered[opts[k][0]]:
                k += 1
            if k < len(opts):
                j, pos, h = opts[k]
                covered[i] = covered[j] = True
                acc.append(pos)
                halves += h
                placed.append((i, k))
                i, k = i + 1, 0
                continue
        # dead end or a finished tiling: undo the last lozenge, try its next move
        if not placed:
            return
        i, k = placed.pop()
        j, _, h = moves[i][k]
        covered[i] = covered[j] = False
        acc.pop()
        halves -= h
        k += 1


def enumerate_tilings(r: Region):
    """Yield every tiling as a frozenset of lozenge positions (small regions),
    in the fixed order of the backtracking walk."""
    for acc, _ in _walk_tilings(r):
        yield frozenset(acc)


def enumerated_count(r: Region) -> Fraction:
    """Weighted tiling count by walking every tiling (small regions).

    Independent of the oracle's frontier DP; a tiling with h half-weighted
    lozenges contributes 2**-h.
    """
    by_halves: dict[int, int] = {}
    for _, h in _walk_tilings(r):
        by_halves[h] = by_halves.get(h, 0) + 1
    return sum((Fraction(n, 1 << h) for h, n in by_halves.items()), Fraction(0))


@dataclass(frozen=True)
class PathEndpoints:
    """Start and end segments of the path encoding, in determinant order."""

    side: str
    starts: tuple[Vertex, ...]
    ends: tuple[Vertex, ...]

    @property
    def size(self) -> int:
        return len(self.starts)


def _path_matrix(walkdata: ZigzagWalk, side: str) -> tuple[PathEndpoints, RationalMatrix]:
    """Single-path generating functions between boundary segments.

    Southwestern encoding: segments are southwest-facing edges keyed
    (va, vb); a path steps east to (va+1, vb) across the flat lozenge on
    cells ((vb, 2va+1), (vb, 2va+2)) or northeast to (va, vb+1) across the
    standing lozenge on cells ((vb, 2va+1), (vb+1, 2va)).  Northwestern
    encoding: segments are northwest-facing edges; a path steps east to
    (va+1, vb) across cells ((vb, 2va), (vb, 2va+1)) or southeast to
    (va+1, vb-1) across ((vb, 2va), (vb-1, 2va+1)).  Either way the
    segment coordinates only grow in a fixed lexicographic order, so one
    sorted sweep of the segments is a topological order for every start.

    The sweep runs once for all start segments: each segment carries one
    Python int per start, the sum over paths of the product of doubled
    step weights (2 for weight 1, 1 for weight 1/2).  Every step adds 1 to
    va+vb on the southwestern side and to va on the northwestern side, so
    all paths from u to v have the same number of steps, steps(v) -
    steps(u), and the (u, v) entry is the integer sum divided by
    2**(steps(v) - steps(u)).
    """
    region = walkdata.region
    cells = region.cells
    half = region.half
    # transitions(seg) yields (mate cell, sorted lozenge position, next segment)
    if side == SOUTHWEST:
        starts = tuple(walkdata.sw_side)
        ends = tuple(reversed(walkdata.right_se))
        order_key = lambda seg: seg
        steps = lambda seg: seg[0] + seg[1]
        def transitions(seg: Vertex):
            va, vb = seg
            pivot = (vb, 2 * va + 1)
            if pivot in cells:
                east, northeast = (vb, 2 * va + 2), (vb + 1, 2 * va)
                yield east, (pivot, east), (va + 1, vb)
                yield northeast, (pivot, northeast), (va, vb + 1)
    else:
        starts = tuple(walkdata.nw_side)
        ends = tuple(walkdata.right_sw)
        order_key = lambda seg: (seg[0], -seg[1])
        steps = lambda seg: seg[0]
        def transitions(seg: Vertex):
            va, vb = seg
            pivot = (vb, 2 * va)
            if pivot in cells:
                east, southeast = (vb, 2 * va + 1), (vb - 1, 2 * va + 1)
                yield east, (pivot, east), (va + 1, vb)
                yield southeast, (southeast, pivot), (va + 1, vb - 1)

    # all segments with an outgoing move, plus every endpoint; both moves
    # strictly increase the order key, so one sorted sweep is a valid
    # topological order
    universe: set[Vertex] = set(starts) | set(ends)
    for row_, col_ in cells:
        if side == SOUTHWEST and col_ % 2 == 1:
            universe.add(((col_ - 1) // 2, row_))
        elif side == NORTHWEST and col_ % 2 == 0:
            universe.add((col_ // 2, row_))
    order = sorted(universe, key=order_key)

    n = len(starts)
    sums: dict[Vertex, list[int]] = {}
    for i, u in enumerate(starts):
        sums.setdefault(u, [0] * n)[i] = 1
    # a vector is dropped once propagated, unless its segment is an end, so
    # only the sweep front is held in memory
    keep = set(ends)
    for seg in order:
        vec = sums.get(seg) if seg in keep else sums.pop(seg, None)
        if vec is None:
            continue
        for mate, pos, nxt in transitions(seg):
            if mate in cells:
                w2 = 1 if pos in half else 2
                acc = sums.get(nxt)
                if acc is None:
                    sums[nxt] = [w2 * v for v in vec]
                else:
                    sums[nxt] = [a + w2 * v for a, v in zip(acc, vec)]

    unreached = [0] * n
    columns = [sums.get(v, unreached) for v in ends]
    zero = Fraction(0)
    rows = []
    for i, u in enumerate(starts):
        su = steps(u)
        rows.append([
            Fraction(col[i], 1 << (steps(v) - su)) if col[i] else zero
            for v, col in zip(ends, columns)
        ])
    return PathEndpoints(side, starts, ends), RationalMatrix(rows)


def gv_matrix(
    l: IndexList, q: IndexList, x: int, family: str, side: str = SOUTHWEST
) -> tuple[PathEndpoints, RationalMatrix]:
    """Endpoints and the path-count matrix for one family member."""
    if family not in ("R", "Rbar"):
        raise ValueError(f"family must be 'R' or 'Rbar', got {family!r}")
    if side not in (SOUTHWEST, NORTHWEST):
        raise ValueError(f"side must be southwest or northwest, got {side!r}")
    walkdata = zigzag_walk(l, q, x, barred=family == "Rbar")
    return _path_matrix(walkdata, side)


def count_gv(
    r: Region, l: IndexList, q: IndexList, x: int, family: str, side: str = SOUTHWEST
) -> Fraction:
    """Weighted tiling count as a determinant of path generating functions."""
    walkdata = zigzag_walk(l, q, x, barred=family == "Rbar")
    if walkdata.region != r:
        raise ValueError("region does not match the given family parameters")
    _, matrix = gv_matrix(l, q, x, family, side)
    return determinant(matrix)
