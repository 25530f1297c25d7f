import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tiltwall import NumClass
from tiltwall import _wallscan_py, cli, numclass
from tiltwall.cli import run

from oracles import scan_candidates_exhaustive

SRC = Path(__file__).resolve().parents[1] / "src"


def out_of(capsys):
    return capsys.readouterr().out.strip()


def test_class_verb(capsys):
    assert run(["class", "T(-2)"]) == 0
    assert out_of(capsys) == "3,-2,0,2/3"


def test_class_roundtrip(capsys):
    assert run(["class", "3,-2,0,2/3"]) == 0
    text = out_of(capsys)
    assert NumClass.parse(text) == NumClass.parse("3,-2,0,2/3")
    assert text == "3,-2,0,2/3"


def test_class_bad_name(capsys):
    assert run(["class", "Frobenius"]) == 2


def test_reduce_json_exact(capsys):
    assert run(["reduce", "7/3", "3", "--json"]) == 0
    assert out_of(capsys) == \
        '{"beta":"-1/3","alpha":"1/3","log":["shift:-2","dual"]}'


def test_collection_check_omega(capsys):
    assert run(["collection-check", "omega", "--beta", "-1/4"]) == 0
    assert out_of(capsys) == "(-47/96, 1/96)"


def test_collection_check_lines_exit_codes():
    assert run(["collection-check", "lines", "--beta", "-1/2"]) == 1
    assert run(["collection-check", "lines", "--beta", "-5/4"]) == 0


def test_collection_check_with_a0(capsys):
    assert run(["collection-check", "lines", "--beta", "-5/4",
                "--a0", "3/32"]) == 0
    assert run(["collection-check", "lines", "--beta", "-1/2",
                "--a0", "0"]) == 1


def test_interval_verb(capsys):
    assert run(["interval", "lines", "--beta", "-5/4"]) == 0
    assert out_of(capsys) == "(3/32, 25/96)"
    assert run(["interval", "omega", "--beta", "-3/4"]) == 1


def test_tilt_verb_json_deterministic(capsys):
    args = ["tilt", "O(1)", "--beta", "-1/4", "--alpha", "1/8",
            "--a", "1/32", "--json"]
    assert run(args) == 0
    first = out_of(capsys)
    assert run(args) == 0
    assert out_of(capsys) == first
    data = json.loads(first)
    assert data["Z3"] == ["-55/192", "11/16"]
    assert data["twisted"] == ["1", "5/4", "25/32", "125/384"]


def test_tilt_infinite_slope_is_oo(capsys):
    # Im Z = 0: the tilt slope is +infinity, spelled as Slope spells it
    args = ["tilt", "0,0,1,0", "--beta", "0", "--alpha", "1"]
    assert run(args) == 0
    assert "nu: oo" in out_of(capsys).splitlines()
    assert run(args + ["--json"]) == 0
    assert json.loads(out_of(capsys))["nu"] == "oo"


def test_tilt_outside_U_is_input_error():
    assert run(["tilt", "O", "--beta", "0", "--alpha", "0"]) == 2


@pytest.mark.parametrize("argv, point", [
    (["tilt", "O", "--beta", "1", "--alpha", "1/2"], "(1, 1/2)"),
    (["bg-check", "O", "--beta", "0", "--alpha", "0", "--json"], "(0, 0)"),
    (["reduce", "1", "1/2"], "(1, 1/2)"),
    # beta = 1 puts the distinguished O(1) on its parabola at alpha = 1/2
    (["interval", "beilinson4", "--beta", "1"], "(1, 1/2)"),
    (["collection-check", "beilinson4", "--beta", "1", "--a0", "0"], "(1, 1/2)"),
])
def test_point_off_U_is_input_error(capsys, argv, point):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {point} is not in U\n"


def test_bg_check_exit_codes():
    beta = "-1/3"
    assert run(["bg-check", "O", "--beta", beta, "--alpha", "1/9"]) == 0
    assert run(["bg-check", "O(1)", "--beta", "-1/4", "--alpha", "1/8"]) == 1


def test_walls_verb_json(capsys):
    args = ["walls", "1,0,-1,0", "--beta-min", "-2", "--beta-max", "0",
            "--alpha-max", "2", "--json"]
    assert run(args) == 0
    data = json.loads(out_of(capsys))
    assert data["schema"] == "tiltwall/walls-v1"
    assert data["search_box"]["w0_max"] > 0
    assert data["walls"], "expected at least one wall"
    assert run(args) == 0  # determinism: byte-identical reruns
    assert json.loads(out_of(capsys)) == data


def test_walls_golden_digest_at_disc_400(capsys):
    # 40,261 scanned candidates, 4,498 distinct wall keys, 3 walls; the
    # digest of the exact stdout as the Fraction wall construction made it
    args = ["walls", "2,-1,-3/2,1/6", "--beta-min", "-4", "--beta-max", "2",
            "--alpha-max", "6", "--disc-bound", "400", "--json"]
    assert run(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "a61149e48e6c84298a6b9665bc56d55b66bfd225b5994e224c8345842ea768fd")


def test_walls_golden_digest_at_disc_4000(capsys):
    # the same class and region: 1,435,405 scanned candidates, 722,707 of
    # them visited, 83,088 distinct wall keys and 5 walls
    args = ["walls", "2,-1,-3/2,1/6", "--beta-min", "-4", "--beta-max", "2",
            "--alpha-max", "6", "--disc-bound", "4000", "--json"]
    assert run(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "43b1d8961c0a7c5c412a86b70e15dacff1f8da939f7c595bbe5690d6e4c5885b")


# Inputs whose scan once walked every w1 of a huge Im-window range, or
# whose box was once over the scan budget or the memory: each must answer
# in a fresh process within the time limit
FAST_WALLS_ARGV = [
    # 1,0,-1,0 twisted by O(99999999)
    ["walls", "1,99999999,9999999799999999/2,333333323333333233333335/2",
     "--beta-min", "-1", "--beta-max", "1", "--alpha-max", "2", "--disc-bound", "4"],
    ["walls", "1,0,-1,0", "--beta-min", "-1e400", "--beta-max", "0",
     "--alpha-max", "1e400"],
    ["walls", "0,1,-1/2,1/6", "--beta-min", "-1e300", "--beta-max", "0",
     "--alpha-max", "1"],
    # Im Z(v) = v1 < 0 at every beta: an empty Im window, so no wall and no scan
    ["walls", "0,-1,1/2,-1/6", "--beta-min", "-1e400", "--beta-max", "0",
     "--alpha-max", "1"],
    # Delta(v) = 0: no wall, answered before the w0 budget and the scan
    ["walls", "point", "--beta-min", "-1e400", "--beta-max", "0",
     "--alpha-max", "1"],
    ["walls", "O", "--disc-bound", "1e400", "--beta-min", "-1", "--beta-max", "0",
     "--alpha-max", "1"],
    ["walls", "O", "--disc-bound", "1e13", "--beta-min", "-1", "--beta-max", "0",
     "--alpha-max", "1"],
    ["walls", "O", "--disc-bound", "1e9", "--beta-min", "-1", "--beta-max", "0",
     "--alpha-max", "1"],
    ["walls", "3000000,0,0,0", "--beta-min", "-1", "--beta-max", "0",
     "--alpha-max", "1"],
]
SCANNED_FAST_WALLS = 3  # the first three have Delta(v) > 0 and an Im window


@pytest.mark.parametrize("argv", FAST_WALLS_ARGV)
def test_walls_with_huge_im_window_answers_in_time(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "tiltwall.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


def test_fast_walls_inputs_scan_exactly_when_they_have_a_window(monkeypatch, capsys):
    # the inputs that guard the scan's row walk over a huge Im window must
    # reach the scan; the others are answered before it
    scans = []
    scan = _wallscan_py.scan_candidates
    monkeypatch.setattr(_wallscan_py, "scan_candidates",
                        lambda *args: scans.append(args) or scan(*args))
    for i, argv in enumerate(FAST_WALLS_ARGV):
        scans.clear()
        assert run(argv) == 0
        assert len(scans) == (1 if i < SCANNED_FAST_WALLS else 0), argv
    capsys.readouterr()


# Inputs whose search box holds over SCAN_W0_BUDGET values of w0: the class's
# discriminant, its rank or the discriminant bound makes the box huge, and
# each is rejected before the scan
OVER_BUDGET_WALLS_ARGV = [
    ["walls", "1,1e100,0,0"],
    ["walls", "1,0,-1,0", "--disc-bound", "1e400"],
    ["walls", "3000000,0,-1,0"],
    ["walls", "1,0,-1,0", "--disc-bound", "1e13"],
]


@pytest.mark.parametrize("argv", OVER_BUDGET_WALLS_ARGV)
def test_walls_over_the_scan_budget_is_input_error_in_time(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "tiltwall.cli", *argv,
                           "--beta-min", "-1", "--beta-max", "0", "--alpha-max", "1"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: search box |w0| <= ")
    assert proc.stderr.endswith(" values of w0, over the scan budget of 10000000\n")
    assert proc.stderr.count("\n") == 1


def test_walls_with_an_empty_window_is_answered_before_the_scan_budget(capsys):
    # over the w0 budget, but Im Z(v) = -beta <= 0 on all of [0, 1]: no
    # wall, and no box to scan
    assert run(["walls", "1,0,-1,0", "--disc-bound", "1e400", "--beta-min", "0",
                "--beta-max", "1", "--alpha-max", "1"]) == 0
    assert capsys.readouterr() == ("no walls found\n", "")


# enumerate_candidate_walls wrapped in a frame of 200 locals, then the CLI
_WIDE_FRAME_CLI = """
import sys
from tiltwall import cli
inner = cli.enumerate_candidate_walls
source = ("def wrapper(v, region, disc):\\n"
          + "".join(f"    x{i} = {i}\\n" for i in range(200))
          + "    return inner(v, region, disc)\\n")
exec(source)
cli.enumerate_candidate_walls = wrapper
sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="an RLIMIT_AS address-space limit is Linux-only")
@pytest.mark.parametrize("launcher", [["-m", "tiltwall.cli"], ["-c", _WIDE_FRAME_CLI]],
                         ids=["cli", "wide-frame"])
def test_out_of_memory_is_internal_error_on_one_line(launcher):
    # under the w0 budget, but the scan's candidate list outgrows a 400 MB
    # address space; building the InputError clause's tuple used to raise
    # a second MemoryError and dump several lines with exit 1.  The scan
    # frees its candidate list before its MemoryError unwinds; with the
    # list still held, CPython 3.11 printed "SystemError: error return
    # without exception set" under a caller with a large frame, as the
    # wide-frame launcher puts above the scan
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *launcher, "walls", "1,0,-1,0",
                           "--beta-min", "-1", "--beta-max", "0", "--alpha-max", "1",
                           "--disc-bound", "1e9"],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "internal error: MemoryError\n"


def test_plot_over_the_scan_budget_is_input_error(tmp_path, capsys):
    svg = tmp_path / "scene.svg"
    assert run(["plot", "1,1e100,0,0", "--beta-min", "-1", "--beta-max", "0",
                "--alpha-max", "1", "-o", str(svg)]) == 2
    assert capsys.readouterr().err == (
        "error: search box |w0| <= 2.00e100 holds 4.00e100 values of w0, "
        "over the scan budget of 10000000\n")
    assert not svg.exists()


@pytest.mark.parametrize("args", [
    # 1,0,-1,0 twisted by O(9999): no wall over a huge Im window
    ["walls", "1,9999,99979999/2,333233323335/2", "--beta-min", "-1", "--beta-max", "1",
     "--alpha-max", "2", "--disc-bound", "4", "--json"],
    # the same class, with its two walls
    ["walls", "1,9999,99979999/2,333233323335/2", "--beta-min", "9997",
     "--beta-max", "9999", "--alpha-max", "99980005/2", "--json"],
])
def test_walls_json_matches_exhaustive_scan(monkeypatch, capsys, args):
    assert run(args) == 0
    scanned = capsys.readouterr().out
    exhaustive = []
    monkeypatch.setattr(_wallscan_py, "scan_candidates", lambda *a: exhaustive.append(
        a) or scan_candidates_exhaustive(*a))
    assert run(args) == 0
    assert capsys.readouterr().out == scanned
    assert len(exhaustive) == 1  # the comparison ran through a scan


def test_plot_of_a_region_beyond_floats_is_input_error(tmp_path, capsys):
    svg = tmp_path / "scene.svg"
    for region in (["-1e400", "0", "1e400"], ["-1e308", "1e308", "1"]):
        argv = ["plot", "O", "--beta-min", region[0], "--beta-max", region[1],
                "--alpha-max", region[2], "-o", str(svg)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not svg.exists()


def test_plot_rejects_an_undrawable_region_before_enumerating(tmp_path):
    # the enumeration of this class over this region takes minutes
    svg = tmp_path / "scene.svg"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "tiltwall.cli", "plot", "1,0,-1000000,0",
         "--beta-min", "-1e400", "--beta-max", "0", "--alpha-max", "1e400",
         "-o", str(svg)], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not svg.exists()


def test_twist_verb(capsys):
    assert run(["twist", "O", "1,0,0,-1"]) == 0
    assert out_of(capsys) == "-1,0,0,-1"
    # a non-spherical twisting class is invalid input, on one short line
    for twisting in ("point", "2,0,0,0"):
        assert run(["twist", twisting, "O"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
    assert run(["twist", "Omega(1)", "O(1)", "--json"]) == 0
    assert out_of(capsys) == ('{"schema":"tiltwall/twist-v1",'
                              '"result":"-41,15,15/2,5/2","pairing":"14"}')


def test_plot_writes_svg(tmp_path, capsys):
    out = tmp_path / "scene.svg"
    assert run(["plot", "1,0,-1,0", "--beta-min", "-2", "--beta-max", "0",
                "--alpha-max", "2", "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg
    # a rank-0 class whose curve is the vertical line beta = -1/2, inside
    # the region: the scene lists it and the SVG draws it as one blue line
    capsys.readouterr()
    assert run(["plot", "0,1,-1/2,1/6", "--beta-min", "-2", "--beta-max", "0",
                "--alpha-max", "2", "-o", str(out), "--json"]) == 0
    curves = json.loads(out_of(capsys))["curves"]
    assert {"kind": "curve-CE", "shape": "vertical", "beta": "-1/2"} in curves
    assert [line for line in out.read_text().splitlines() if "blue" in line] == [
        '<line x1="350.0000" y1="20.0000" x2="350.0000" y2="340.0000" '
        'stroke="blue"/>']


def test_out_flag(tmp_path):
    path = tmp_path / "cls.txt"
    assert run(["class", "T(-2)", "--out", str(path)]) == 0
    assert path.read_text().strip() == "3,-2,0,2/3"


def test_out_flag_unwritable_is_input_error(tmp_path, capsys):
    assert run(["class", "O", "--out", str(tmp_path / "missing" / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


PLOT_ARGV = ["plot", "1,0,-1,0", "--beta-min", "-2", "--beta-max", "0",
             "--alpha-max", "2", "-o"]


def test_precision_is_a_plot_option(tmp_path, capsys):
    svg = tmp_path / "scene.svg"
    assert run(["class", "O", "--precision", "3"]) == 2
    assert run(PLOT_ARGV + [str(svg), "--precision", "-1"]) == 2
    err = capsys.readouterr().err
    assert "argument --precision" in err and "internal error" not in err
    assert not svg.exists()
    assert run(PLOT_ARGV + [str(svg), "--precision", "3"]) == 0
    assert '<rect x="20.000" y="20.000"' in svg.read_text()


def test_precision_is_bounded(tmp_path, capsys):
    svg = tmp_path / "scene.svg"
    for bad in ("18", "20000"):
        assert run(PLOT_ARGV + [str(svg), "--precision", bad]) == 2
        err = capsys.readouterr().err
        assert "argument --precision" in err and "internal error" not in err
        assert not svg.exists()
    assert run(PLOT_ARGV + [str(svg), "--precision", "17"]) == 0
    assert '<rect x="20.00000000000000000"' in svg.read_text()


@pytest.mark.parametrize("argv", [
    ["tilt", "O", "--beta", "1e99999", "--alpha", "1"],
    ["class", "1e5000,0,0,0"],
    ["class", "1e999999999,0,0,0"],
    ["reduce", "1/" + "3" * 500, "1"],
])
def test_literal_over_the_digit_budget_is_input_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"budget of {numclass.DIGIT_BUDGET} digits" in err


def test_literals_at_the_digit_budget_print(capsys):
    # unit fractions with B - 1 denominator digits: Re Z3 carries the
    # denominators of v0..v3, beta^3 and a, about 8*B digits
    B = numclass.DIGIT_BUDGET
    u = [f"1/{10 ** (B - 2) + k}" for k in (1, 3, 7, 9, 13, 19)]
    cls = ",".join(u[:4])
    for argv in (["tilt", cls, "--beta", u[4], "--alpha", "9" * B, "--a", u[5]],
                 ["bg-check", cls, "--beta", u[4], "--alpha", "9" * B]):
        assert run(argv + ["--json"]) in (0, 1)
        longest = max(len(t) for t in re.findall(r"\d+", capsys.readouterr().out))
        assert longest > 6 * B
    assert run(["class", "1e499,0,0,0"]) == 0
    assert out_of(capsys) == f"{10 ** 499},0,0,0"


@pytest.mark.parametrize("verb, rest, code", [
    ("class", [], 0),
    ("tilt", ["--beta", "0", "--alpha", "1"], 0),
    ("twist", ["O"], 0),
    ("bg-check", ["--beta", "0", "--alpha", "1"], 1),
])
def test_line_bundle_index_digit_budget(capsys, verb, rest, code):
    B = numclass.DIGIT_BUDGET
    assert run([verb, f"O({'9' * B})"] + rest) == code
    assert capsys.readouterr().err == ""
    for digits in (B + 1, 3 * B, 10 * B):
        assert run([verb, f"O(-{'9' * digits})"] + rest) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"budget of {B} digits" in err


@pytest.mark.parametrize("argv", [
    ["class", "x" * 100_000],
    ["class", "x" * 100_000 + ",1,1,1"],
    ["class", "O(" + "x" * 100_000 + ")"],
    ["tilt", "O", "--beta", "x" * 100_000, "--alpha", "1"],
    ["interval", "x" * 100_000, "--beta", "-1/4"],
    ["interval", "@" + "x" * 100_000, "--beta", "-1/4"],
    ["class", "O", "--out", "x" * 100_000],
])
def test_long_malformed_token_is_quoted_in_short(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200 and "xxxx" in err


@pytest.mark.parametrize("argv", [
    ["x" * 100_000],
    ["class", "O", "--bogus", "y" * 5000],
    ["x " * 50_000],
])
def test_argparse_error_is_one_short_line(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("tiltwall: error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["twist", "1e499,0,0,0", "O"],
    ["tilt", "O", "--beta", "1e499", "--alpha", "1"],
    ["bg-check", "O", "--beta", "1/3", "--alpha", "-1e499"],
    ["collection-check", "{json}", "--beta", "0"],
])
def test_message_echoing_a_huge_value_is_one_short_line(tmp_path, capsys, argv):
    # the library's message echoes the class, the point, or the name of a
    # collection member, here 100,000 characters long, whose class is not
    # integral (ch3 of O(-3) moved by 1/2)
    path = tmp_path / "collection.json"
    classes = [["1", "-3", "9/2", "-4"], ["1", "-2", "2", "-4/3"],
               ["1", "-1", "1/2", "-1/6"], ["1", "0", "0", "0"]]
    path.write_text(json.dumps({"names": ["x" * 100_000, "b", "c", "d"],
                                "classes": classes}))
    assert run([f"@{path}" if a == "{json}" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= 243 + 1 and "..." in err


def test_usage_errors_exit_2():
    assert run(["frobnicate"]) == 2
    assert run(["tilt", "O"]) == 2
    assert run(["reduce", "x", "y"]) == 2


def test_unexpected_exception_is_internal_error_exit_3(monkeypatch, capsys):
    def broken(ns):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_class", broken)
    assert run(["class", "O"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def verbose(ns):
        raise RuntimeError("a" * 5_000 + "\n" + "b" * 4_999)

    monkeypatch.setattr(cli, "_cmd_class", verbose)
    assert run(["class", "O"]) == 3
    err = capsys.readouterr().err
    assert err == f"internal error: RuntimeError: {'a' * 40}... {'b' * 40}...\n"
    # a check that fails is still exit 1, not an internal error
    assert run(["interval", "beilinson4", "--beta", "-1/4"]) == 1
    assert "internal error" not in capsys.readouterr().err


LINES_CLASSES = [["1", "-3", "9/2", "-9/2"], ["1", "-2", "2", "-4/3"],
                 ["1", "-1", "1/2", "-1/6"], ["1", "0", "0", "0"]]


@pytest.mark.parametrize("spec", [
    {"names": ["O(-3)", "O(-2)", "O(-1)", "O"], "classes": [1, 2, 3, 4]},
    {"names": "abcd", "classes": LINES_CLASSES},
    pytest.param(b'{"names": ', id="truncated"),
    pytest.param(b"\xff\xfe", id="not-utf-8"),
    pytest.param(b"[" * 100_000, id="nested-too-deep"),
    # E is integral with chi(E, E) = 1 and of rank 20000000089, so the
    # radicand of mu1(E) is over the budget
    pytest.param({"names": ["O(-3)", "O(-2)", "O(-1)", "E"],
                  "classes": LINES_CLASSES[:3] + [[
                      "20000000089", "2725463363", "-9628592519/2",
                      "23434850831/6"]]}, id="mu1-over-radicand-budget"),
    # slopes increase and each member is exceptional, but
    # chi(O(5), O(-1)) = chi(O(-6)) = -10
    pytest.param({"names": ["O(-1)", "O", "O(1)", "O(5)"],
                  "classes": [["1", "-1", "1/2", "-1/6"], ["1", "0", "0", "0"],
                              ["1", "1", "1/2", "1/6"], ["1", "5", "25/2", "125/6"]]},
                 id="not-semiorthogonal"),
])
def test_malformed_collection_json_is_input_error(tmp_path, capsys, spec):
    path = tmp_path / "collection.json"
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    assert run(["collection-check", f"@{path}", "--beta", "-5/4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_custom_collection_json_accepted(tmp_path, capsys):
    path = tmp_path / "collection.json"
    path.write_text(json.dumps({"names": ["O(-3)", "O(-2)", "O(-1)", "O"],
                                "classes": LINES_CLASSES}))
    assert run(["interval", f"@{path}", "--beta", "-5/4"]) == 0
    assert out_of(capsys) == "(3/32, 25/96)"


def test_a_collection_file_without_an_object_is_input_error(tmp_path, capsys):
    path = tmp_path / "collection.json"
    path.write_text("[]")
    assert run(["collection-check", f"@{path}", "--beta", "-5/4"]) == 2
    assert capsys.readouterr().err == (
        "error: collection JSON needs an object with 'names' and 'classes'\n")


def test_a_custom_collection_check_notes_what_it_leaves_unverified(tmp_path, capsys):
    # the classes of the built-in lines under new names: the same verdicts,
    # with a note that the custom collection's exceptionality is unchecked
    path = tmp_path / "collection.json"
    path.write_text(json.dumps({"names": ["A", "B", "C", "D"],
                                "classes": LINES_CLASSES}))
    check = ["--beta", "-5/4", "--a0", "1/8", "--json"]
    assert run(["collection-check", "lines"] + check) == 0
    builtin = json.loads(out_of(capsys))
    assert run(["collection-check", f"@{path}"] + check) == 0
    assert json.loads(out_of(capsys)) == {**builtin, "notes": [
        "categorical exceptionality of a custom collection is not verified"]}


# Exact stdout, exit code and SVG digest of every verb, text and --json,
# recorded from the CLI before its handlers shared one output path.  The
# SVG path is written as "{svg}".
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_transcript(tmp_path, capsys, case):
    svg = tmp_path / "scene.svg"
    assert run([str(svg) if a == "{svg}" else a for a in case["argv"]]) == case["code"]
    assert capsys.readouterr().out.replace(str(svg), "{svg}") == case["stdout"]
    if "svg_sha256" in case:
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == case["svg_sha256"]


@pytest.mark.parametrize("region", [
    ["1e20", "1e20", "1e40"],  # beta + 1 rounds back to beta
    ["-1", "1", "-1e40"],      # alpha_max - 1 rounds back to alpha_max
])
def test_plot_of_a_frame_of_width_zero_is_input_error(tmp_path, capsys, region):
    svg = tmp_path / "x.svg"
    argv = ["plot", "0,1,1e20,0", "--beta-min", region[0], "--beta-max",
            region[1], "--alpha-max", region[2], "-o", str(svg)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: scene too large to draw: a value is beyond the float range\n")
    assert not svg.exists()


# --- README ------------------------------------------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_cli_examples_print_what_their_comments_say(capsys):
    # "tiltwall ARGS  # OUTPUT", where "..." in OUTPUT ends a prefix
    examples = [re.fullmatch(r"tiltwall (.*?)\s+# (.*)", line).groups()
                for block in readme_blocks("sh") for line in block.splitlines()
                if line.startswith("tiltwall ") and "#" in line]
    assert len(examples) == 5
    for args, shown in examples:
        assert run(shlex.split(args)) == 0, args
        out = out_of(capsys)
        prefix, dots, _ = shown.partition("...")
        assert out.startswith(prefix) if dots else out == shown, args


def test_readme_library_snippet_prints_what_its_comments_say(capsys):
    # each comment opens with the line its print writes, in order
    (snippet,) = readme_blocks("python")
    exec(snippet, {})
    printed = iter(out_of(capsys).splitlines())
    shown = [re.split(r"[,:]", comment)[0]
             for comment in re.findall(r"# (.*)", snippet)]
    assert len(shown) == 3
    assert all(line in printed for line in shown), shown
