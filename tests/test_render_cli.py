import sys
from pathlib import Path

import pytest

from lozenge.cli import main
from lozenge.count import enumerate_tilings
from lozenge.lattice import lozenge, region_from_text, region_to_text
from lozenge.regions import HexParams, hexagon, r_region, zigzag_walk
from lozenge.render import first_tiling, render_ascii, render_svg, validate_tiling

GOLDEN = Path(__file__).parent / "golden"


def test_ascii_empty_region():
    from lozenge.lattice import Region

    assert render_ascii(Region()) == "region 0 cells 0 half\n"


def test_ascii_unit_hexagon():
    text = render_ascii(hexagon(HexParams(1, 1, 0)))
    assert text == "region 6 cells 0 half\n^v^\nv^v\n"


def test_render_is_deterministic():
    r = r_region((2, 4, 5), (2, 4), 2)
    assert render_svg(r) == render_svg(r)
    assert render_ascii(r) == render_ascii(r)


@pytest.mark.parametrize(
    "name,builder",
    [
        ("hex_5_5_3.svg", lambda: hexagon(HexParams(5, 5, 3))),
        ("zigzag_245_24_2.svg", lambda: r_region((2, 4, 5), (2, 4), 2)),
        ("unit_hex_tiling.svg", lambda: hexagon(HexParams(1, 1, 0))),
    ],
)
def test_svg_matches_golden_file(name, builder):
    r = builder()
    tiling = first_tiling(r) if name == "unit_hex_tiling.svg" else None
    got = render_svg(r, tiling)
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert got == want


def test_validate_tiling_errors():
    r = hexagon(HexParams(1, 1, 0))
    good = next(iter(enumerate_tilings(r)))
    validate_tiling(r, good)
    with pytest.raises(ValueError):
        validate_tiling(r, frozenset())  # misses cells
    bad = frozenset(list(good)[:-1] + [lozenge((5, 0), (5, 1))])
    with pytest.raises(ValueError):
        validate_tiling(r, bad)


# ---------------------------------------------------------------------------
# command line


def test_cli_macmahon(capsys):
    assert main(["macmahon", "2", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_cli_prints_counts_past_the_int_digit_limit(capsys):
    # Python before 3.10.7 has no limit and no getter
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = digits()
    outs = []
    for argv in (["macmahon", "120", "120", "120"],
                 ["count", "--family", "H", "--a", "120", "--b", "120", "--k", "0",
                  "--method", "formula"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out.strip())
        assert digits() == limit
    assert outs[0] == outs[1] and len(outs[0]) > 4300


def test_cli_count_methods_agree(capsys):
    values = []
    for method in ("oracle", "gv", "formula"):
        assert main(["count", "--family", "R", "--l", "2,4,5", "--q", "2,4",
                     "--x", "2", "--method", method]) == 0
        values.append(capsys.readouterr().out.strip())
    assert len(set(values)) == 1


def test_cli_count_unbalanced_hexagon(capsys):
    assert main(["count", "--family", "H", "--a", "1", "--b", "1", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_count_windowed_hexagon_formula(capsys):
    args = ["--family", "H", "--a", "6", "--b", "5", "--k", "4",
            "--window", "D:2@0", "--window", "D:2@8"]
    assert main(["count", *args, "--method", "oracle"]) == 0
    oracle = capsys.readouterr().out.strip()
    assert main(["count", *args, "--method", "formula"]) == 0
    formula = capsys.readouterr().out.strip()
    assert oracle == formula


@pytest.mark.parametrize(
    "shape",
    [
        ["--a", "3", "--b", "3", "--k", "2", "--window", "D:2@3"],
        ["--a", "3", "--b", "3", "--k", "1", "--window", "D:2@4", "--window", "N:1@3"],
    ],
)
def test_cli_count_hexagon_formula_never_runs_the_oracle(capsys, monkeypatch, shape):
    args = ["count", "--family", "H", *shape]
    assert main([*args, "--method", "oracle"]) == 0
    oracle = capsys.readouterr().out.strip()

    def refuse(region):
        raise AssertionError("the formula method ran the oracle")

    monkeypatch.setattr("lozenge.cli.count_oracle", refuse)
    monkeypatch.setattr("lozenge.verify.count_oracle", refuse)
    assert main([*args, "--method", "formula"]) == 0
    assert capsys.readouterr().out.strip() == oracle


@pytest.mark.parametrize("family,which", [("R", "P"), ("Rbar", "Pbar")])
def test_cli_count_member_formula_builds_no_region(capsys, monkeypatch, family, which):
    member = ["--l", "2,4", "--q", "1,3", "--x", "2"]
    assert main(["formula", "--which", which, *member]) == 0
    poly = capsys.readouterr().out

    def refuse(start, *runs):
        raise AssertionError("the formula method built a region")

    monkeypatch.setattr("lozenge.regions.rasterize", refuse)
    assert main(["count", "--family", family, *member, "--method", "formula"]) == 0
    assert capsys.readouterr().out == poly


@pytest.mark.parametrize("method", ["oracle", "gv", "formula"])
def test_cli_count_member_below_min_x_exits_2(capsys, method):
    argv = ["count", "--family", "R", "--l", "1", "--q", "4", "--x", "0", "--method", method]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: x=0 below the least admissible value 2\n"


def test_cli_count_gv_builds_the_member_once(capsys, monkeypatch):
    walks = []

    def counted(*args, **kwargs):
        walks.append(args)
        return zigzag_walk(*args, **kwargs)

    for module in ("regions", "count"):
        monkeypatch.setattr(f"lozenge.{module}.zigzag_walk", counted)
    argv = ["count", "--family", "Rbar", "--l", "2,4", "--q", "1,3", "--x", "2", "--method", "gv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "338688\n"
    assert len(walks) == 1


def test_cli_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; an appended --window must not
    # reach the next call
    args = ["count", "--family", "H", "--a", "4", "--b", "3", "--k", "2"]
    assert main(args) == 0
    alone = capsys.readouterr().out
    assert main([*args, "--window", "D:2@2"]) == 0
    assert capsys.readouterr().out != alone
    assert main(args) == 0
    assert capsys.readouterr().out == alone


def test_cli_usage_errors(capsys):
    assert main(["count", "--family", "R", "--l", "3,2", "--x", "1"]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert main(["count", "--family", "R", "--l", "1", "--q", "4", "--x", "0"]) == 2
    assert main(["count", "--family", "H", "--a", "3", "--b", "3", "--k", "2",
                 "--window", "D:2@2"]) == 2
    assert main(["count", "--family", "R", "--l", "1", "--x", "1",
                 "--method", "gv", "--side", "northwest"]) == 0
    capsys.readouterr()


def test_cli_untileable_windowed_hexagon_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("lozenge.regions.eliminate_forced", lambda r: (r, 1, True))
    assert main(["count", "--family", "H", "--a", "3", "--b", "3", "--k", "2",
                 "--window", "D:2@3"]) == 2
    assert "no tilings" in capsys.readouterr().err


def test_cli_counts_hexagons_their_windows_absorb(capsys):
    # the carved region has exactly one tiling, but no labels for the formula
    for a, k, window in ((2, 1, "D:1@0"), (4, 4, "D:4@0")):
        args = ["count", "--family", "H", "--a", str(a), "--b", "0", "--k", str(k), "--window", window]
        assert main([*args, "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert main([*args, "--method", "formula"]) == 2
        err = capsys.readouterr().err
        assert f"HexParams(a={a}, b=0, k={k})" in err and "absorb the whole hexagon" in err
        assert "no labels to read" in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["count", "--in", "{missing}"], "No such file"),
        (["formula", "--which", "P", "--l", "1", "--x", "1/0"], "'1/0'"),
        # a bare unbalanced hexagon has no windows for the formula to read
        (["count", "--family", "H", "--a", "3", "--b", "3", "--k", "2", "--method", "formula"],
         "window sizes [] must total k=2"),
        # the region comes from exactly one of the two sources
        (["count"], "exactly one of --family and --in"),
        (["count", "--in", "{missing}", "--family", "R"], "exactly one of --family and --in"),
        # a flag that the region's source or the formula does not read
        (["count", "--family", "R", "--l", "1", "--x", "1", "--a", "5", "--window", "D:2@2"],
         "the R family does not read --a, --window"),
        (["count", "--family", "H", "--a", "2", "--b", "2", "--k", "0", "--l", "3", "--x", "9"],
         "the H family does not read --l, --x"),
        (["count", "--in", "{unit}", "--x", "3"], "--in does not read --x"),
        (["formula", "--which", "c", "--l", "1", "--x", "5", "--m", "3"], "--which c does not read --x, --m"),
        # --side is read by the determinant method alone
        (["count", "--family", "R", "--l", "1", "--x", "1", "--side", "northwest", "--method", "oracle"],
         "--method oracle does not read --side"),
        (["count", "--family", "R", "--l", "1", "--x", "1", "--side", "northwest", "--method", "formula"],
         "--method formula does not read --side"),
        # flags that the parser itself refuses
        (["count", "--family", "R", "--l", "1", "--x", "1/2"], "argument --x: invalid int value: '1/2'"),
        (["count", "--family", "R", "--l", "1", "--x", "1", "--method", "nope"],
         "argument --method: invalid choice: 'nope'"),
        (["count", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        # a method refuses a source it does not read before reading the region:
        # the file is missing, and this window is not symmetric about the axis
        (["count", "--in", "{missing}", "--method", "formula"],
         "the formula method needs a constructed family, not a file"),
        (["count", "--in", "{missing}", "--method", "gv"],
         "the determinant method applies to the R and Rbar families only"),
        (["count", "--family", "H", "--a", "3", "--b", "3", "--k", "2", "--window", "D:2@2",
          "--method", "gv"],
         "the determinant method applies to the R and Rbar families only"),
        # a target whose bounds select no instance would pass checking nothing
        (["verify", "--max-entry", "0"], "--target prop21 needs --max-entry >= 1, got 0"),
        (["verify", "--target", "recurrences", "--x-extra", "0"],
         "--target recurrences needs --x-extra >= 1, got 0"),
        (["verify", "--target", "theorem11", "--max-a", "0"], "--target theorem11 needs --max-a >= 1, got 0"),
        # a well-formed window keeps WindowSpec's own message
        (["count", "--family", "H", "--a", "2", "--b", "2", "--k", "0", "--window", "D:0@1"],
         "window size must be positive, got 0"),
    ],
)
def test_cli_malformed_input_exits_2_with_one_error_line(capsys, tmp_path, argv, needle):
    unit = tmp_path / "unit.tri"
    unit.write_text(region_to_text(hexagon(HexParams(1, 1, 0))), encoding="utf-8")
    argv = [arg.format(missing=tmp_path / "missing.tri", unit=unit) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and needle in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]])
def test_cli_help_exits_0_with_its_usage(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: lozenge") and captured.err == ""


def test_cli_formula_values(capsys):
    assert main(["formula", "--which", "c", "--l", "1", "--q", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1/8"
    assert main(["formula", "--which", "B", "--m", "0", "--n", "1", "--x", "7/2"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["formula", "--which", "Pbar", "--l", "1", "--q", "1", "--x", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_cli_formula_at_a_removable_pole(capsys):
    # B(1, 1) = (x+1)(x+2)^2(x+3) has no pole; its product form divides by x + 3/2
    assert main(["formula", "--which", "B", "--m", "1", "--n", "1", "--x=-3/2"]) == 0
    assert capsys.readouterr().out.strip() == "-3/16"


def test_cli_verify_all_matches_golden_output(capsys):
    assert main(["verify", "--target", "all", "--max-entry", "3", "--seed", "1"]) == 0
    want = (GOLDEN / "verify_all_e3_s1.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("target", ["theorem11", "factorization"])
def test_cli_verify_hexagon_target_prints_its_golden_lines(capsys, target):
    golden = (GOLDEN / "verify_all_e3_s1.txt").read_text(encoding="utf-8").splitlines()
    hexagon_lines = [
        line for line in golden if line.startswith(("RESULT H[", "RESULT factorization[H["))
    ]
    # theorem11 is the product formula report, the one with an lhs
    want = [line for line in hexagon_lines if (" lhs=" in line) == (target == "theorem11")]
    want.append(f"SUMMARY total={len(want)} mismatches=0")
    assert main(["verify", "--target", target, "--max-entry", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == want

def test_cli_render_formats(capsys, tmp_path):
    assert main(["render", "--family", "H", "--a", "1", "--b", "1", "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("region 6 cells")
    svg_path = tmp_path / "out.svg"
    assert main(["render", "--family", "R", "--l", "1", "--x", "1",
                 "--format", "svg", "--tiling", "first", "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<?xml")


def test_cli_cut_round_trip(capsys, tmp_path):
    plus = tmp_path / "plus.tri"
    minus = tmp_path / "minus.tri"
    assert main(["cut", "--family", "H", "--a", "2", "--b", "2", "--k", "0",
                 "--out-plus", str(plus), "--out-minus", str(minus)]) == 0
    assert capsys.readouterr().out.strip() == "width 2"
    piece = region_from_text(plus.read_text())
    assert len(piece.half) == 2
    # pieces read back in and count through the oracle path
    assert main(["count", "--in", str(plus), "--method", "oracle"]) == 0
    assert capsys.readouterr().out.strip() == "5/2"
    assert main(["count", "--in", str(minus), "--method", "oracle"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_cut_rejects_asymmetric_region(capsys):
    # zigzag regions have no vertical mirror axis
    assert main(["cut", "--family", "R", "--l", "1,3", "--q", "2", "--x", "1"]) == 2
    assert "mirror" in capsys.readouterr().err


def test_cli_verify_all_targets(capsys):
    assert main(["verify", "--target", "all", "--max-entry", "2", "--max-len", "1",
                 "--x-extra", "1", "--max-a", "2", "--max-b", "1", "--max-k", "1",
                 "--random-count", "3"]) == 0
    out = capsys.readouterr().out
    assert "SUMMARY" in out and "mismatches=0" in out
    kinds = {line.split()[1].split("[")[0] for line in out.splitlines() if line.startswith("RESULT")}
    assert {"RRbar", "recur", "boundary", "poly"} <= kinds
    assert any(k.startswith("incr") for k in kinds)
    assert any(k.startswith("H") for k in kinds)
    assert any(k.startswith("factorization") for k in kinds)


def test_cli_verify_reports_and_exit_codes(capsys, monkeypatch):
    assert main(["verify", "--target", "boundary", "--max-entry", "2", "--max-len", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("mismatches=0")
    assert all(line.startswith(("RESULT", "SUMMARY")) for line in out.strip().splitlines())

    # a mismatching report must flip the exit code to 1
    from lozenge import verify as V
    from lozenge.verify import CountReport
    from fractions import Fraction

    def fake_sweep(**kwargs):
        bad = CountReport("forced[mismatch]", {"a": Fraction(1), "b": Fraction(2)})
        bad.match = False
        yield bad

    monkeypatch.setattr(V, "sweep_boundary_reductions", fake_sweep)
    assert main(["verify", "--target", "boundary"]) == 1
    assert "match=false" in capsys.readouterr().out
