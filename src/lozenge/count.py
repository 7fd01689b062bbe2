"""Two independent engines for tiling generating functions.

``count_oracle`` sums lozenge weights over all tilings by a profile
dynamic program: cells are scanned in (row, col) order, and each state is
the bitmask of already-covered cells ahead of the scan front.  An up cell
and its east down neighbour are scanned as one step: the down cell's only
backward partner is that up cell, so it is never covered before the pair
is reached.  A 120-degree turn of the lattice maps tilings to tilings and
keeps every weight, so on a large region the oracle ranks the three
orientations by a bound on their frontier states and scans the cheapest.
The orientations are ranked on their sorted cell lists, and the half
positions are turned only for the scan that runs.  Only half-weighted
positions carry a weight in the DP, so a region without them is counted
in plain integer counts.  On a wide frontier the DP applies several scan
steps per rebuild of its state dict: the moves of a group of steps depend
only on the few state bits the group reads, so they are listed once per
distinct value of those bits and each state is looked up once.  A scan
repeats the same groups row after row, so each distinct group fills one
table for the whole scan, and a group without half weights lists its moves
as bare target keys, which are applied without a multiply.  It works on
any region.

``count_gv`` applies the nonintersecting-path determinant method to the
two zigzag-anchored families: tilings biject onto tuples of paths of
rhombi from one boundary side to the other, so the weighted count is a
determinant of single-path generating functions.  Both encodings are
available: paths can start on the southwestern side (steps east and
northeast on the segment lattice) or on the northwestern side (steps
east and southeast).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import comb

from .exact import DyadicMatrix, determinant
from .lattice import Cell, Loz, Region, balance, is_up, lozenge
from .regions import IndexList, Vertex, zigzag_walk

SOUTHWEST = "southwest"
NORTHWEST = "northwest"

# (pair, weight of the move that reads no slot, ((bit, weight), ...) slots)
Step = tuple[bool, int, tuple[tuple[int, int], ...]]

# From a frontier of WIDE states on, the oracle applies GROUP steps per
# transfer.  The seven count_ladder oracle scans take 125 ms step by step
# and 72-75 ms with GROUP 4 at WIDE 64 to 256 (76-77 ms at 512); at WIDE
# 256, GROUP 3 and 5 take 75 and 82 ms.  The 1416 hexagon_sweep scans take
# 212 ms step by step, 210-213 ms with GROUP 4 at WIDE 128 to 512 and 248 ms
# at WIDE 64, where tables are filled for too few states.  GROUP 3 at WIDE
# 128 is best there (205-207 ms) and GROUP 4 at WIDE 128 on the ladder
# (72 ms); no one value is best on both, so the constants stay.  (Fastest
# of 21 and of 11 in-process rounds, two runs, 2-core Xeon, Python 3.11.)
WIDE = 256
GROUP = 4


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

    The scan may run on the region turned by 120 degrees once or twice
    (:func:`_turn`), which leaves the count unchanged.  A cheap row bound
    on the state-steps of the as-given scan gates the choice: above
    16 per cell, the three orientations are ranked by the finer
    :func:`_position_bound`, a turned one charged one extra step per cell,
    and the cheapest is scanned (:func:`_scan_plan`).

    Each half-weighted position counts 2 while unused and 1 once placed;
    every other position counts 1.  So the DP sums 2**len(half) times the
    weighted count over Python integers, and the total is divided by
    2**len(half) at the end; a region without half weights is counted in
    plain tiling counts.

    On a wide frontier several steps run as one transfer (:func:`_frontier_sum`).
    """
    ncells = len(r.cells)
    if ncells == 0:
        return Fraction(1)
    if ncells % 2 or balance(r) != 0:
        return Fraction(0)
    _, steps = _scan_plan(r)
    return Fraction(_frontier_sum(steps), 1 << len(r.half))


def _turn(cell: Cell) -> Cell:
    """The counterclockwise 120-degree turn about the lattice vertex (0, 0).

    It has order 3, keeps up cells up and maps the partners of a cell to
    the partners of its image, so it maps tilings to tilings.
    """
    row, col = cell
    return col // 2, -col - 2 * row - 2


def _turned_half(half, k: int) -> list[Loz]:
    """The half positions turned k times, each position sorted."""
    for _ in range(k):
        half = [tuple(sorted((_turn(a), _turn(b)))) for a, b in half]
    return list(half)


def _scan_plan(r: Region) -> tuple[int, list[Step]]:
    """How many turns the oracle scans r after, and the steps of that scan.

    The orientations are ranked on their sorted cell lists alone; the steps
    are built, and the half positions turned, only for the orientation that
    is scanned.
    """
    cells = sorted(r.cells)
    k = 0
    if _row_bound(cells) > 16 * len(cells):
        orientations = [cells]
        for _ in range(2):
            orientations.append(sorted(map(_turn, orientations[-1])))
        costs = [_position_bound(c) + (len(c) if t else 0) for t, c in enumerate(orientations)]
        k = costs.index(min(costs))
        cells = orientations[k]
    return k, _scan_steps(cells, _turned_half(r.half, k))


def _row_bound(cells: list[Cell]) -> int:
    """A cheap bound on the number of frontier states the per-cell scan of
    the sorted cells visits: the sum of C(ups_r, carry_r) * len_r over rows,
    where carry_r, the downs minus the ups of the rows below, is the number
    of up cells of row r covered when its scan starts.
    """
    bound = carry = length = ups = 0
    last = cells[0][0] if cells else None
    for row, col in cells:
        if row != last:
            if carry >= 0:
                bound += comb(ups, carry) * length
            carry += length - 2 * ups
            last, length, ups = row, 0, 0
        length += 1
        ups += not col & 1
    if carry >= 0:
        bound += comb(ups, carry) * length
    return bound


def _scan_steps(cells: list[Cell], half) -> list[Step]:
    """The oracle's steps over the sorted cells.

    A half position is decided at its first scanned cell: if that cell is
    already covered, or takes a slot that is another position, the position
    stays unused and the step multiplies by 2.  A pair step's slot-free move
    is the horizontal lozenge, which covers the down cell; a single step's
    is the shift past a covered cell.

    A down cell's east partner is the next cell of its row, and the up
    cell above it is found by a pointer that moves forward through the
    next row's cells as the scan moves east.
    """
    ncells = len(cells)
    # the other cell of each half position, keyed by its first scanned cell
    marked: dict[Cell, list[Cell]] = {}
    for a, b in half:
        marked.setdefault(a, []).append(b)

    # A down cell ends the step of its west neighbour when that is in the
    # region; such a pair step pads its slots to two with bit 0, which is
    # set in every state that reads them.
    steps: list[Step] = []
    start = 0
    while start < ncells:
        row = cells[start][0]
        end = bisect_left(cells, (row + 1,), start)
        # cells[end:top] is row + 1, empty when that row has no cells
        top = bisect_left(cells, (row + 2,), end)
        above = end
        for i in range(start, end):
            col = cells[i][1]
            if not col & 1:
                # without its east neighbour it has no forward partner
                if i + 1 == end or cells[i + 1][1] != col + 1:
                    steps.append((False, 1, ()))
                continue
            pair = i > start and cells[i - 1][1] == col - 1
            own, unused = (), 0
            if marked:
                own = marked.get(cells[i], ())
                unused = len(own) + (pair and cells[i] in marked.get(cells[i - 1], ()))
            slots = []
            if i + 1 < end and cells[i + 1][1] == col + 1:
                slots.append((2 << pair, 1 << (unused - ((row, col + 1) in own))))
            while above < top and cells[above][1] < col - 1:
                above += 1
            if above < top and cells[above][1] == col - 1:
                slots.append((1 << (above - i + pair), 1 << (unused - ((row + 1, col - 1) in own))))
            if pair:
                slots += [(1, 0)] * (2 - len(slots))
            steps.append((pair, 1 << len(own), tuple(slots)))
        start = end
    return steps


def _position_bound(cells: list[Cell]) -> int:
    """A bound on the frontier states the per-cell scan of the sorted
    cells visits: the sum over scan positions of C(live, covered).

    The covered cells ahead of the scan at (row, col) are up cells: of this
    row at or after col, or of the next row at columns <= col - 2 (above a
    scanned down cell).  There are ``live`` of those, and ``covered``, the
    downs minus the ups scanned so far, of them are covered.  Each row is
    walked with the count of its up cells not yet scanned and a pointer
    into the next row that passes its up cells west of col - 1.
    """
    ncells = len(cells)
    bound = covered = start = 0
    while start < ncells:
        row = cells[start][0]
        end = bisect_left(cells, (row + 1,), start)
        # cells[end:top] is row + 1, empty when that row has no cells
        top = bisect_left(cells, (row + 2,), end)
        here = sum(1 for i in range(start, end) if not cells[i][1] & 1)
        above = end
        passed = 0  # up cells of row + 1 west of col - 1
        for i in range(start, end):
            col = cells[i][1]
            while above < top and cells[above][1] <= col - 2:
                passed += not cells[above][1] & 1
                above += 1
            if covered >= 0:
                bound += comb(here + passed, covered)
            if col & 1:
                covered += 1
            else:
                here -= 1
                covered -= 1
        start = end
    return bound


def _frontier_sum(steps: list[Step]) -> int:
    """The DP's weighted sum over tilings of the scanned cells.

    While the frontier holds at least WIDE states, the next GROUP steps
    are applied as one transfer.  ``read`` is the OR of the bits that each
    step of the group reads, bit 0 and its slot bits, each shifted by the
    shifts of the steps before it, and ``shift`` is the group's total
    shift.  For each distinct ``mask & read`` a table lists the states
    that :func:`_step`, folded over the group (:func:`_fold`), reaches from
    that value alone, with their weights; a state ``mask`` then goes to
    each of them ORed with ``mask >> shift``.  Filling an entry walks up to
    2**GROUP ways, so the table pays for itself only when many states share
    their read bits, on a wide frontier; a narrow frontier and a last lone
    step take one step at a time.

    The same groups recur row after row, so each distinct group keeps its
    table, keyed by the group itself, for the whole scan, and each entry is
    filled once.  A group whose steps carry no half weight moves a state
    with weight 1 on every way, so its entries are flat lists of target
    keys, a key listed once per way, and a move is one add with no multiply.
    On the slowest count_ladder rung (H 7,6,3 with D:3@3) shared tables
    alone save about 2% and flat entries a further 10%.  A weighted group
    keeps ``(key, weight)`` pairs: listing its keys once per unit of weight
    made H 7,7,0 with every third column half-weighted about 3.5 times
    slower.
    """
    states: dict[int, int] = {0: 1}
    wide, size = WIDE, GROUP
    # group -> (read, shift, flat, table of moves per read value)
    tables: dict[tuple[Step, ...], tuple[int, int, bool, dict[int, list]]] = {}
    rest = iter(steps)
    for step in rest:
        if len(states) >= wide and (more := tuple(islice(rest, size - 1))):
            group = (step, *more)
            try:
                read, shift, flat, table = tables[group]
            except KeyError:
                read = shift = 0
                for pair, _, slots in group:
                    for bit, _ in slots:
                        read |= bit << shift
                    read |= 1 << shift
                    shift += 1 + pair
                # a half weight makes a weight 2 or more; a pad slot weighs 0
                flat = all(w0 == 1 and all(w < 2 for _, w in slots) for _, w0, slots in group)
                table = {}
                tables[group] = read, shift, flat, table
            nxt: dict[int, int] = {}
            get = nxt.get
            if flat:
                for mask, val in states.items():
                    k = mask & read
                    try:
                        keys = table[k]
                    except KeyError:
                        keys = table[k] = [key for key, w in _fold(group, k) for _ in range(w)]
                    high = mask >> shift
                    for key in keys:
                        key |= high
                        nxt[key] = get(key, 0) + val
            else:
                for mask, val in states.items():
                    k = mask & read
                    try:
                        moves = table[k]
                    except KeyError:
                        moves = table[k] = _fold(group, k)
                    high = mask >> shift
                    for key, w in moves:
                        key |= high
                        nxt[key] = get(key, 0) + val * w
        else:
            nxt = _step(states, step)
        if not nxt:
            return 0
        states = nxt
    return states.get(0, 0)


def _step(states: dict[int, int], step: Step) -> dict[int, int]:
    """The states after one scan step, each with its weighted count.

    A pair step takes one of its two slots when bit 0 is set and its
    slot-free move otherwise, and shifts by 2; a single step takes its
    slot-free move when bit 0 is set and one of its slots otherwise, and
    shifts by 1.  A slot is taken only when its bit is clear.
    """
    nxt: dict[int, int] = {}
    get = nxt.get
    if step[0]:
        _, w0, ((b1, w1), (b2, w2)) = step
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
                nxt[key] = get(key, 0) + val * w0
    else:
        _, w0, slots = step
        for mask, val in states.items():
            if mask & 1:
                key = mask >> 1
                nxt[key] = get(key, 0) + val * w0
                continue
            for bit, w in slots:
                if not mask & bit:
                    key = (mask | bit) >> 1
                    nxt[key] = get(key, 0) + val * w
    return nxt


def _fold(group: tuple[Step, ...], k: int) -> list[tuple[int, int]]:
    """The states the group's steps reach from the single state k, with weights."""
    return list(reduce(_step, group, {k: 1}).items())


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


@dataclass(frozen=True)
class PathEndpoints:
    """Start and end segments of the path encoding, in determinant order."""

    side: str
    starts: tuple[Vertex, ...]
    ends: tuple[Vertex, ...]

    @property
    def size(self) -> int:
        return len(self.starts)


def _path_matrix(region: Region, side: str) -> tuple[PathEndpoints, DyadicMatrix]:
    """Single-path generating functions between boundary segments, as
    integer fields and the step count of each start and each end.

    Segment (va, vb) is the edge west of its pivot cell (vb, col), with
    col = 2va + parity: a down cell (parity 1) on the southwestern side, an
    up cell (parity 0) on the northwestern.  A path leaves it east to
    (va+1, vb) across the flat lozenge on the pivot and (vb, col+1), or
    turns to (va + (d < 0), vb + d) across the lozenge on the pivot and
    (vb+d, col-d): d = 1 southwest, a standing lozenge and a step
    northeast, and d = -1 northwest, a sloping lozenge and a step
    southeast.  Either way the segment coordinates only grow in the order
    of (va, d*vb), so one sorted sweep of the segments is a topological
    order for every start.

    A path starts at a segment whose pivot is the only one of its two
    cells in the region, and ends at one whose other cell is.  Starts and
    ends run in the order of d*vb: bottom to top on the southwestern side
    and top to bottom on the northwestern.

    The sweep runs once for all start segments and carries one Python int
    per segment, packing a field per start: field i, at bit ``width * i``,
    holds the sum over paths from start i of the product of doubled step
    weights (2 for weight 1, 1 for weight 1/2), so a step adds the packed
    int shifted left by one, or the int itself for a half-weighted lozenge.
    Every step adds 1 to va+vb on the southwestern side and to va on the
    northwestern side, so all paths from u to v have the same number of
    steps, n = steps(v) - steps(u).  The fields are returned as they are,
    with steps(u) for each start and steps(v) for each end, as a
    :class:`DyadicMatrix`.  There are at most 2**n paths from u to v, each
    weighing at most 2**n doubled, so the field is at most 4**n.  Let span
    be the largest ``steps`` of an end minus the smallest of a start: a
    field at a segment from which an end is reached is at most 4**span, so
    ``width = 2 * span + 1`` bits keep those fields from carrying into each
    other, and a segment that reaches no end adds to none.
    """
    cells = region.cells
    # each half-weighted position in either order, so (pivot, mate) looks it up
    half = {pos for a, b in region.half for pos in ((a, b), (b, a))}
    if side == SOUTHWEST:
        parity, d = 1, 1
        order_key = None  # (va, vb)
        steps = sum  # va + vb
    else:
        parity, d = 0, -1
        order_key = lambda seg: (seg[0], -seg[1])
        steps = lambda seg: seg[0]

    # the segment west of each pivot cell, from which paths move on; a move
    # reaches the segment east of its mate cell, which is swept if the next
    # cell is in the region and an end if not, so no end is swept
    swept: list[Vertex] = []
    starts: list[Vertex] = []
    ends: list[Vertex] = []
    for row, col in cells:
        if col & 1 == parity:
            seg = (col // 2, row)
            swept.append(seg)
            if (row, col - 1) not in cells:
                starts.append(seg)
        elif (row, col + 1) not in cells:
            ends.append(((col + 1) // 2, row))
    row_order = lambda seg: d * seg[1]
    starts.sort(key=row_order)
    ends.sort(key=row_order)
    swept.sort(key=order_key)

    span = max(map(steps, ends), default=0) - min(map(steps, starts), default=0)
    # a negative span means no start reaches an end: every field stays 0
    width = 2 * max(span, 0) + 1
    # a segment's int is dropped once propagated, so only the sweep front
    # and the ends are held in memory
    sums: dict[Vertex, int] = {u: 1 << (width * i) for i, u in enumerate(starts)}
    get, pop = sums.get, sums.pop
    for seg in swept:
        vec = pop(seg, None)
        if vec is None:
            continue
        va, vb = seg
        col = 2 * va + parity
        pivot = (vb, col)
        east = (vb, col + 1)
        if east in cells:
            nxt = (va + 1, vb)
            sums[nxt] = get(nxt, 0) + (vec if (pivot, east) in half else vec << 1)
        turn = (vb + d, col - d)
        if turn in cells:
            nxt = (va + (d < 0), vb + d)
            sums[nxt] = get(nxt, 0) + (vec if (pivot, turn) in half else vec << 1)

    mask = (1 << width) - 1
    columns = [get(v, 0) for v in ends]
    fields = [[packed >> (width * i) & mask for packed in columns] for i in range(len(starts))]
    matrix = DyadicMatrix(fields, [steps(u) for u in starts], [steps(v) for v in ends])
    return PathEndpoints(side, tuple(starts), tuple(ends)), matrix


def gv_matrix(
    l: IndexList, q: IndexList, x: int, family: str, side: str = SOUTHWEST
) -> tuple[PathEndpoints, DyadicMatrix]:
    """Endpoints and the path-count matrix for one family member."""
    if family not in ("R", "Rbar"):
        raise ValueError(f"family must be 'R' or 'Rbar', got {family!r}")
    if side not in (SOUTHWEST, NORTHWEST):
        raise ValueError(f"side must be southwest or northwest, got {side!r}")
    return _path_matrix(zigzag_walk(l, q, x, barred=family == "Rbar"), side)


def count_gv(
    r: Region, l: IndexList, q: IndexList, x: int, family: str, side: str = SOUTHWEST
) -> Fraction:
    """Weighted tiling count as a determinant of path generating functions."""
    if zigzag_walk(l, q, x, barred=family == "Rbar") != r:
        raise ValueError("region does not match the given family parameters")
    _, matrix = gv_matrix(l, q, x, family, side)
    return determinant(matrix)
