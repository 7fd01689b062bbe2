"""Command line front end.

Subcommands: ``count`` (oracle / determinant / closed formula), ``formula``
(evaluate any of the product formulas), ``macmahon`` (boxed plane
partitions), ``verify`` (identity sweeps with RESULT lines), ``render``
(ASCII or SVG), and ``cut`` (split a mirror-symmetric region).  Exact
values print as ``p/q`` or a bare integer.  Exit codes: 0 success,
1 verification mismatch, 2 for any input error (a bad flag, a flag the
chosen family, formula or count method does not read, a missing or
malformed file, an invalid region or number), reported as one ``error:``
line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from itertools import islice

from . import verify as V
from .count import NORTHWEST, SOUTHWEST, count_oracle, gv_matrix
from .exact import determinant
from .formulas import b_poly, bar_b_poly, bar_c_const, bar_p_poly, c_const, macmahon, p_poly
from .lattice import Region, region_from_text, region_to_text, symmetry_axis_cut
from .regions import (
    DegenerateHexagon,
    HexParams,
    IndexList,
    WindowSpec,
    carved_hexagon,
    check_index_list,
    check_member,
    hexagon,
    windowed_hexagon,
)
from .render import first_tiling, render_ascii, render_svg


def parse_index_list(text: str, name: str):
    if text in ("", "-"):
        return ()
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--{name} expects comma-separated integers, got {text!r}") from exc
    return check_index_list(values, name)


def parse_window(text: str) -> WindowSpec:
    try:
        kind_txt, rest = text.split(":", 1)
        size_txt, row_txt = rest.split("@", 1)
        kind, size, row = {"D": "DELTA", "N": "NABLA"}[kind_txt], int(size_txt), int(row_txt)
    except (ValueError, KeyError) as exc:
        raise ValueError(
            f"--window expects D:<size>@<row> or N:<size>@<row>, got {text!r}"
        ) from exc
    # a well-formed window that WindowSpec refuses keeps WindowSpec's message
    return WindowSpec(kind, size, row)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"expected a rational like 7 or 7/2, got {text!r}") from exc


def member_from_args(args) -> tuple[str, IndexList, IndexList, int]:
    """The ``(family, l, q, x)`` of an R or Rbar member."""
    l = parse_index_list(args.l or "-", "l")
    q = parse_index_list(args.q or "-", "q")
    if args.x is None:
        raise ValueError("--x is required for the R and Rbar families")
    return args.family, l, q, args.x


def hexagon_from_args(args) -> tuple[HexParams, list[WindowSpec]]:
    """The parameters and windows of an H description."""
    if args.a is None or args.b is None or args.k is None:
        raise ValueError("--a, --b and --k are required for the H family")
    return HexParams(args.a, args.b, args.k), [parse_window(w) for w in args.window or []]


def build_region_from_args(args) -> Region:
    if args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return region_from_text(fh.read())
    if args.family in ("R", "Rbar"):
        return V.build_region(*member_from_args(args))
    params, windows = hexagon_from_args(args)
    if not windows and params.k > 0:
        # the bare unbalanced hexagon is a legal region (with no tilings)
        return hexagon(params)
    try:
        return windowed_hexagon(params, windows)[0]
    except DegenerateHexagon:
        # a legal region (with one tiling), but with no labels to read
        return carved_hexagon(params, windows)


# the flags each region source, each formula and each count method reads;
# any other of them is refused
REGION_FLAGS = {"R": "l q x", "Rbar": "l q x", "H": "a b k window", "--in": ""}
FORMULA_FLAGS = {
    "P": "l q x", "Pbar": "l q x", "B": "m n x", "Bbar": "m n x", "c": "l q", "cbar": "l q",
}
METHOD_FLAGS = {"oracle": "", "gv": "side", "formula": ""}


def refuse_unread(args, reads: dict[str, str], key: str, what: str) -> None:
    """Raise on the flags of ``reads`` given to ``args`` that ``key`` does not read."""
    flags = dict.fromkeys(" ".join(reads.values()).split())
    unread = [f"--{f}" for f in flags if getattr(args, f) is not None and f not in reads[key].split()]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")


def add_region_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--family", choices=["R", "Rbar", "H"], help="region family")
    sub.add_argument("--l", help="lower bump labels, comma separated (or '-')")
    sub.add_argument("--q", help="upper bump labels, comma separated (or '-')")
    sub.add_argument("--x", type=int, help="base length parameter")
    sub.add_argument("--a", type=int, help="hexagon top side")
    sub.add_argument("--b", type=int, help="hexagon lower-left side")
    sub.add_argument("--k", type=int, help="hexagon imbalance")
    sub.add_argument(
        "--window", action="append", metavar="D:SIZE@ROW",
        help="triangular window (repeatable); D points up, N points down",
    )
    sub.add_argument("--in", dest="infile", help="read the region from a TRIREGION file")


def cmd_count(args) -> int:
    # each method refuses a source it does not read before the region is read
    if args.method == "formula" and args.infile is not None:
        raise ValueError("the formula method needs a constructed family, not a file")
    if args.method == "gv" and args.family not in ("R", "Rbar"):
        raise ValueError("the determinant method applies to the R and Rbar families only")
    if args.method == "oracle":
        value = count_oracle(build_region_from_args(args))
    elif args.family == "H":
        try:
            value = V.hexagon_formula(*hexagon_from_args(args))
        except DegenerateHexagon as exc:
            raise ValueError(f"{exc}, so the formula method has no labels to read") from exc
    else:
        family, l, q, x = member_from_args(args)
        if args.method == "formula":
            # the polynomial reads the member's parameters, never its region
            check_member(l, q, x, family == "Rbar")
            value = V.family_poly(family, l, q, x)
        else:
            # gv_matrix builds the member from its parameters, once
            value = determinant(gv_matrix(l, q, x, family, args.side or SOUTHWEST)[1])
    print(value)
    return 0


def cmd_formula(args) -> int:
    which = args.which
    if which in ("P", "Pbar"):
        l = parse_index_list(args.l or "-", "l")
        q = parse_index_list(args.q or "-", "q")
        x = parse_rational(args.x if args.x is not None else "0")
        value = (p_poly if which == "P" else bar_p_poly)(l, q, x)
    elif which in ("B", "Bbar"):
        if args.m is None or args.n is None:
            raise ValueError("--m and --n are required for B and Bbar")
        x = parse_rational(args.x if args.x is not None else "0")
        value = (b_poly if which == "B" else bar_b_poly)(args.m, args.n, x)
    else:
        l = parse_index_list(args.l or "-", "l")
        q = parse_index_list(args.q or "-", "q")
        value = (c_const if which == "c" else bar_c_const)(l, q)
    print(value)
    return 0


def cmd_macmahon(args) -> int:
    print(macmahon(args.a, args.b, args.c))
    return 0


def cmd_render(args) -> int:
    reg = build_region_from_args(args)
    tiling = None
    if args.tiling == "first":
        tiling = first_tiling(reg)
        if tiling is None:
            raise ValueError("region has no tiling to draw")
    if args.format == "ascii":
        text = render_ascii(reg)
    else:
        text = render_svg(reg, tiling)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_cut(args) -> int:
    cut = symmetry_axis_cut(build_region_from_args(args))
    print(f"width {cut.width}")
    for path, piece in ((args.out_plus, cut.plus), (args.out_minus, cut.minus)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(region_to_text(piece))
    return 0


# each verify target and the least value of each bound that it reads: at
# these bounds or above every target selects at least one instance, so no
# run passes having checked nothing
PAIR_BOUNDS = {"max_entry": 1, "max_len": 1}
HEXAGON_BOUNDS = {"max_a": 1, "max_b": 1, "max_k": 0}
LEAST_BOUNDS = {
    "theorem11": HEXAGON_BOUNDS,
    "prop21": {**PAIR_BOUNDS, "x_extra": 0},
    "recurrences": {**PAIR_BOUNDS, "x_extra": 1},
    "boundary": PAIR_BOUNDS,
    "poly": PAIR_BOUNDS,
    "increments": {"random_count": 1},
    "factorization": HEXAGON_BOUNDS,
}
VERIFY_TARGETS = tuple(LEAST_BOUNDS)


def cmd_verify(args) -> int:
    targets = VERIFY_TARGETS if args.target == "all" else (args.target,)
    for target in targets:
        for bound, least in LEAST_BOUNDS[target].items():
            if getattr(args, bound) < least:
                flag = "--" + bound.replace("_", "-")
                raise ValueError(f"--target {target} needs {flag} >= {least}, got {getattr(args, bound)}")
    reports = []

    def run(reps):
        for rep in reps:
            reports.append(rep)
            print(rep.line())

    # one table for the whole run: each member is counted and evaluated once
    values = V.MemberValues()
    pair_args = dict(max_entry=args.max_entry, max_len=args.max_len, values=values)
    if "prop21" in targets:
        run(V.sweep_region_formula(x_extra=args.x_extra, **pair_args))
    if "recurrences" in targets:
        run(V.sweep_count_recurrences(x_extra=args.x_extra, **pair_args))
    if "boundary" in targets:
        run(V.sweep_boundary_reductions(**pair_args))
    if "poly" in targets:
        run(V.sweep_poly_recurrences(**pair_args))
    if "increments" in targets:
        run(V.sweep_increment_relations(count=args.random_count, seed=args.seed, values=values))
    if "theorem11" in targets or "factorization" in targets:
        # each placement reports the product formula, then the factorization
        # and the pieces; theorem11 stops before any piece is counted
        first = 0 if "theorem11" in targets else 1
        stop = 3 if "factorization" in targets else 1
        for p, ws in V.hexagon_placements(args.max_a, args.max_b, args.max_k):
            run(islice(V.verify_hexagon(p, ws, values=values), first, stop))
    mismatches = sum(1 for rep in reports if not rep.match)
    print(f"SUMMARY total={len(reports)} mismatches={mismatches}")
    return 1 if mismatches else 0


class Parser(argparse.ArgumentParser):
    """A parser that raises its usage errors as ``ValueError``, so that
    :func:`main` reports them as one ``error:`` line with exit code 2;
    its subcommand parsers are of the same class."""

    def error(self, message: str):
        raise ValueError(message)


@cache
def build_parser() -> Parser:
    """The command line parser, built on first use and kept for the process."""
    parser = Parser(
        prog="lozenge",
        description="Exact weighted lozenge-tiling counts for hexagons with "
        "triangular holes and their zigzag-anchored reductions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_count = subs.add_parser("count", help="count weighted tilings of one region")
    add_region_flags(p_count)
    p_count.add_argument("--method", choices=["oracle", "gv", "formula"], default="oracle")
    p_count.add_argument(
        "--side", choices=[SOUTHWEST, NORTHWEST],
        help="side the paths start on, read by --method gv only (default southwest)",
    )
    p_count.set_defaults(func=cmd_count)

    p_formula = subs.add_parser("formula", help="evaluate a closed formula")
    p_formula.add_argument("--which", choices=["P", "Pbar", "B", "Bbar", "c", "cbar"], required=True)
    p_formula.add_argument("--l")
    p_formula.add_argument("--q")
    p_formula.add_argument("--m", type=int)
    p_formula.add_argument("--n", type=int)
    p_formula.add_argument("--x", help="rational argument, e.g. 3 or 7/2")
    p_formula.set_defaults(func=cmd_formula)

    p_mac = subs.add_parser("macmahon", help="boxed plane partition count")
    p_mac.add_argument("a", type=int)
    p_mac.add_argument("b", type=int)
    p_mac.add_argument("c", type=int)
    p_mac.set_defaults(func=cmd_macmahon)

    p_verify = subs.add_parser("verify", help="run identity sweeps")
    p_verify.add_argument(
        "--target",
        choices=[*VERIFY_TARGETS, "all"],
        default="all",
    )
    p_verify.add_argument("--max-entry", type=int, default=3)
    p_verify.add_argument("--max-len", type=int, default=2)
    p_verify.add_argument("--x-extra", type=int, default=2)
    p_verify.add_argument("--max-a", type=int, default=3)
    p_verify.add_argument("--max-b", type=int, default=2)
    p_verify.add_argument("--max-k", type=int, default=3)
    p_verify.add_argument("--random-count", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_render = subs.add_parser("render", help="draw a region")
    add_region_flags(p_render)
    p_render.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p_render.add_argument("--tiling", choices=["none", "first"], default="none")
    p_render.add_argument("--out")
    p_render.set_defaults(func=cmd_render)

    p_cut = subs.add_parser("cut", help="split a mirror-symmetric region")
    add_region_flags(p_cut)
    p_cut.add_argument("--out-plus")
    p_cut.add_argument("--out-minus")
    p_cut.set_defaults(func=cmd_cut)
    return parser


def main(argv=None) -> int:
    # exact counts can pass the 4300-digit limit that Python 3.10.7+ puts on
    # int/str conversion; lift it for this call and restore it on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if "infile" in vars(args):
            if (args.family is None) == (args.infile is None):
                raise ValueError("a region needs exactly one of --family and --in")
            source = f"the {args.family} family" if args.family else "--in"
            refuse_unread(args, REGION_FLAGS, args.family or "--in", source)
            if args.command == "count":
                refuse_unread(args, METHOD_FLAGS, args.method, f"--method {args.method}")
        elif args.command == "formula":
            refuse_unread(args, FORMULA_FLAGS, args.which, f"--which {args.which}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
