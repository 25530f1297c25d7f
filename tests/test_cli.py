import hashlib
import json
import re
from pathlib import Path

import pytest

from tiltwall import NumClass
from tiltwall import cli, numclass
from tiltwall.cli import run


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


def test_twist_verb(capsys):
    assert run(["twist", "O", "1,0,0,-1"]) == 0
    assert out_of(capsys) == "-1,0,0,-1"
    # non-spherical twisting class is invalid input
    assert run(["twist", "point", "O"]) == 2


def test_plot_writes_svg(tmp_path, capsys):
    out = tmp_path / "scene.svg"
    assert run(["plot", "1,0,-1,0", "--beta-min", "-2", "--beta-max", "0",
                "--alpha-max", "2", "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


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


def test_usage_errors_exit_2():
    assert run(["frobnicate"]) == 2
    assert run(["tilt", "O"]) == 2
    assert run(["reduce", "x", "y"]) == 2


def test_unexpected_exception_is_internal_error_exit_3(monkeypatch, capsys):
    def broken(ns):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "class", broken)
    assert run(["class", "O"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
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
