"""The four benchmark workloads: instance sets, one timed pass, and checks.

Every workload is a closed loop with one client in one process: each
instance starts only after the previous one has finished.  The instance
set is fixed; the seed only shuffles the order of instances in a pass
(and, for ``verify_cli``, is passed on as ``verify --seed``).  Every
instance is checked against an identity that ties independent engines
together, and a mismatch or an exception counts as one failure without
stopping the pass.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from lozenge import cli
from lozenge.count import NORTHWEST, SOUTHWEST, count_gv, count_oracle
from lozenge.formulas import macmahon
from lozenge.lattice import symmetry_axis_cut
from lozenge.regions import HexParams, canonical_hexagon, min_x, r_bar_region, r_region, windowed_hexagon
from lozenge.verify import expected_cut_pieces, family_poly, index_list_pairs, window_placements

# instance key -> seconds, and the number of failed instances
PassResult = tuple[dict[int, float], int]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], list]  # seed -> instances
    run_pass: Callable[[list, random.Random], PassResult]


def _checked_loop(instances: list, check: Callable[[object], bool], rng: random.Random) -> PassResult:
    order = list(range(len(instances)))
    rng.shuffle(order)
    times: dict[int, float] = {}
    failed = 0
    for i in order:
        start = time.perf_counter()
        try:
            ok = check(instances[i])
        except Exception:  # a crash is a failed instance; the loop goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        times[i] = time.perf_counter() - start
        failed += not ok
    return times, failed


# ---------------------------------------------------------------------------
# zigzag_sweep: the acceptance-2 fixture with three base lengths, not four


ZIGZAG_MAX_ENTRY = 4
ZIGZAG_MAX_LEN = 2
ZIGZAG_X_SPAN = 3


def make_zigzag(seed: int) -> list:
    out = []
    for l, q in index_list_pairs(ZIGZAG_MAX_ENTRY, ZIGZAG_MAX_LEN):
        if not l and not q:
            continue
        for family, barred in (("R", False), ("Rbar", True)):
            lo = min_x(l, q, barred)
            out += [(family, l, q, x) for x in range(lo, lo + ZIGZAG_X_SPAN)]
    return out


def check_zigzag(member) -> bool:
    family, l, q, x = member
    region = (r_bar_region if family == "Rbar" else r_region)(l, q, x)
    oracle = count_oracle(region)
    gv_sw = count_gv(region, l, q, x, family, SOUTHWEST)
    gv_nw = count_gv(region, l, q, x, family, NORTHWEST)
    return oracle == gv_sw == gv_nw == family_poly(family, l, q, x)


# ---------------------------------------------------------------------------
# hexagon_sweep: the acceptance-3/4 fixture with a <= 5 and b <= 4


HEX_MAX_A = 5
HEX_MAX_B = 4
HEX_MAX_K = 3


def make_hexagons(seed: int) -> list:
    out = []
    for a in range(1, HEX_MAX_A + 1):
        for b in range(1, HEX_MAX_B + 1):
            for k in range(0, HEX_MAX_K + 1):
                p = HexParams(a, b, k)
                out += [(p, ws) for ws in window_placements(p, 2)]
    return out


def check_hexagon(instance) -> bool:
    p, ws = instance
    cp, cws = canonical_hexagon(p, ws)
    region, family, l, q = windowed_hexagon(cp, cws)
    cut = symmetry_axis_cut(region)
    whole = count_oracle(region)
    plus = count_oracle(cut.plus)
    minus = count_oracle(cut.minus)
    want_plus, want_minus = expected_cut_pieces(family, l, q, cp.a, cp.k)
    product = family_poly(*want_plus) * family_poly(*want_minus)
    return whole / 2**cut.width == product and whole == 2**cut.width * plus * minus


# ---------------------------------------------------------------------------
# count_ladder: a few large regions through ``lozenge count``


def _hex_argv(a: int, b: int, k: int, windows: tuple[str, ...] = ()) -> list[str]:
    argv = ["count", "--family", "H", "--a", str(a), "--b", str(b), "--k", str(k)]
    for w in windows:
        argv += ["--window", w]
    return argv


def make_ladder(seed: int) -> list:
    """Rungs of (argument lists that must print one value, expected value or None)."""
    rungs = []
    for s in range(4, 8):
        rungs.append(([_hex_argv(s, s, 0)], Fraction(macmahon(s, s, s))))
    for a, b, k, w in ((6, 5, 2, "D:2@4"), (7, 5, 2, "D:2@3"), (7, 6, 3, "D:3@3")):
        base = _hex_argv(a, b, k, (w,))
        rungs.append(([base + ["--method", "oracle"], base + ["--method", "formula"]], None))
    for l in ("1,3,5,7,9,11", "1,2,3,4,5,6,7,8,9,10", "2,4,6,8,10,12,14,16"):
        base = ["count", "--family", "R", "--l", l, "--q", "-", "--x", "40"]
        rungs.append(([base + ["--method", "gv"], base + ["--method", "formula"]], None))
    return rungs


def _cli_value(argv: list[str]) -> Fraction:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lozenge {' '.join(argv)} exited with {code}")
    return Fraction(out.getvalue().strip())


def check_rung(rung) -> bool:
    argvs, expected = rung
    values = [_cli_value(argv) for argv in argvs]
    if expected is not None:
        values.append(expected)
    return all(v == values[0] for v in values)


# ---------------------------------------------------------------------------
# verify_cli: ``lozenge verify --target all``, one timed span per report


VERIFY_MAX_ENTRY = 3
VERIFY_REPORTS = 559  # reports ``verify --target all --max-entry 3`` prints


class LineClock(io.TextIOBase):
    """A text sink that stamps each completed line with the clock."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)


def make_verify(seed: int) -> list:
    return [["verify", "--target", "all", "--max-entry", str(VERIFY_MAX_ENTRY), "--seed", str(seed)]]


def run_verify_pass(instances: list, rng: random.Random) -> PassResult:
    """Each RESULT line is one instance, timed from the line before it."""
    (argv,) = instances
    sink = LineClock()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {}, 1
    times: dict[int, float] = {}
    failed = 0
    previous = start
    for stamp, line in sink.lines:
        if line.startswith("RESULT "):
            times[len(times)] = stamp - previous
            failed += not line.endswith(" match=true")
            previous = stamp
    summary = sink.lines[-1][1] if sink.lines else ""
    if code != 0 or len(times) != VERIFY_REPORTS or summary != f"SUMMARY total={VERIFY_REPORTS} mismatches=0":
        failed += 1
    return times, failed


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("zigzag_sweep", make_zigzag, lambda inst, rng: _checked_loop(inst, check_zigzag, rng)),
        Workload("hexagon_sweep", make_hexagons, lambda inst, rng: _checked_loop(inst, check_hexagon, rng)),
        Workload("count_ladder", make_ladder, lambda inst, rng: _checked_loop(inst, check_rung, rng)),
        Workload("verify_cli", make_verify, run_verify_pass),
    )
}
