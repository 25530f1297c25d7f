"""Command-line surface: exact-fraction I/O, JSON reports, SVG plots.

Each verb's sub-parser carries its handler ``_cmd_*`` as ``cmd``.  A
handler returns ``(data, text, exit_code)``, the JSON object, its text
rendering and the exit code, and prints nothing; ``run`` calls it and
emits one of the two (``--json`` picks) to stdout or ``--out``.

Exit codes: 0 = success / check passed, 1 = a requested check failed,
2 = invalid input, 3 = internal error (a bug, reported on one stderr
line).  JSON output is deterministic (compact separators, fixed key order).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InputError, one_line
from .euler import chi_local, chi_p3, spherical_twist_class
from .heartgate import CollectionSpec, admissible_a_interval, general_condition_check
from .numclass import NumClass, class_of_named, parse_rational
from .tiltcalc import (ParamPoint, bg_margin, bg_margin_meaningful,
                       central_charge_2, central_charge_3, quadratic_form_Q,
                       reduce_to_fundamental, tilt_slope_nu, twisted_v)
from .walls import (Region, enumerate_candidate_walls, plot_frame, plot_scene,
                    scene_svg, search_box)


def _parse_class(tok: str) -> NumClass:
    if "," in tok:
        return NumClass.parse(tok)
    return class_of_named(tok)


def _parse_collection(tok: str) -> CollectionSpec:
    if tok.startswith("@"):
        return CollectionSpec.from_json_file(tok[1:])
    return CollectionSpec.builtin_by_name(tok)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _charge_str(z) -> str:
    return f"{z.re} + {z.im}*i"


class _Parser(argparse.ArgumentParser):
    # treat "-1/4", "-1,0,0,-1" etc. as values, not option flags
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        # one short stderr line, as for every other rejected input, and no
        # usage block (argparse echoes an unknown verb or argument whole)
        self.exit(2, one_line(f"{self.prog}: error: {message}") + "\n")


def _decimals(tok: str) -> int:
    # past 17 decimals a float has no digits left to print
    if not (tok.isdecimal() and int(tok) <= 17):
        raise argparse.ArgumentTypeError(f"not an integer from 0 to 17: {tok!r}")
    return int(tok)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="tiltwall",
                  description="exact tilt-stability calculator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--out", metavar="PATH", help="write output to file")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("cls")
    point.add_argument("--beta", required=True)
    point.add_argument("--alpha", required=True)
    box = argparse.ArgumentParser(add_help=False)
    box.add_argument("cls")
    box.add_argument("--beta-min", required=True)
    box.add_argument("--beta-max", required=True)
    box.add_argument("--alpha-max", required=True)
    box.add_argument("--disc-bound", default="0")
    sub = top.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def verb(name, cmd, *parents):
        p = sub.add_parser(name, parents=[common, *parents])
        p.set_defaults(cmd=cmd)
        return p

    verb("class", _cmd_class).add_argument("name")
    verb("tilt", _cmd_tilt, point).add_argument("--a")
    verb("bg-check", _cmd_bg_check, point)
    verb("walls", _cmd_walls, box)

    p = verb("reduce", _cmd_reduce)
    p.add_argument("beta")
    p.add_argument("alpha")

    for name in ("collection-check", "interval"):
        p = verb(name, _cmd_collection_check)
        p.add_argument("collection")
        p.add_argument("--beta", required=True)
        p.set_defaults(a0=None)  # interval is collection-check without --a0
        if name == "collection-check":
            p.add_argument("--a0")

    p = verb("twist", _cmd_twist)
    p.add_argument("s_cls")
    p.add_argument("v_cls")

    p = verb("plot", _cmd_plot, box)
    p.add_argument("-o", "--output", dest="svg_out", required=True)
    p.add_argument("--precision", type=_decimals, default=4,
                   help="decimals in the SVG, 0 to 17")

    return top


def _cmd_class(ns) -> tuple[dict, str, int]:
    v = _parse_class(ns.name)
    data = {"schema": "tiltwall/class-v1", "class": str(v),
            "chi": str(chi_p3(v))}
    return data, str(v), 0


def _cmd_tilt(ns) -> tuple[dict, str, int]:
    v = _parse_class(ns.cls)
    p = ParamPoint(parse_rational(ns.beta), parse_rational(ns.alpha))
    tv = twisted_v(v, p.beta)
    nu = tilt_slope_nu(v, p)
    z2 = central_charge_2(v, p)
    data = {"schema": "tiltwall/tilt-v1", "class": str(v),
            "twisted": [str(c) for c in tv],
            "nu": str(nu),
            "Z2": [str(z2.re), str(z2.im)]}
    lines = [f"twisted: {','.join(data['twisted'])}",
             f"nu: {data['nu']}",
             f"Z2: {_charge_str(z2)}"]
    if ns.a is not None:
        z3 = central_charge_3(v, p, parse_rational(ns.a))
        data["Z3"] = [str(z3.re), str(z3.im)]
        lines.append(f"Z3: {_charge_str(z3)}")
    return data, "\n".join(lines), 0


def _cmd_bg_check(ns) -> tuple[dict, str, int]:
    v = _parse_class(ns.cls)
    p = ParamPoint(parse_rational(ns.beta), parse_rational(ns.alpha))
    m = bg_margin(v, p)
    passed = m >= 0
    data = {"schema": "tiltwall/bg-v1", "class": str(v), "margin": str(m),
            "on_curve": bg_margin_meaningful(v, p),
            "Q": str(quadratic_form_Q(v, p)), "passed": passed}
    text = (f"margin: {m}\non_curve: {data['on_curve']}\nQ: {data['Q']}\n"
            f"{'pass' if passed else 'FAIL'}")
    return data, text, 0 if passed else 1


def _parse_box(ns) -> tuple[NumClass, Region, Fraction]:
    v = _parse_class(ns.cls)
    region = Region(parse_rational(ns.beta_min), parse_rational(ns.beta_max),
                    parse_rational(ns.alpha_max))
    return v, region, parse_rational(ns.disc_bound)


def _cmd_walls(ns) -> tuple[dict, str, int]:
    v, region, disc = _parse_box(ns)
    walls = enumerate_candidate_walls(v, region, disc)
    data = {"schema": "tiltwall/walls-v1", "class": str(v),
            "region": region.to_json_dict(), "search_box": search_box(v, disc),
            "walls": [{"A": w.A, "B": w.B, "C": w.C, "witness": str(wit)}
                      for w, wit in walls]}
    lines = [f"{w}  (witness {wit})" for w, wit in walls]
    return data, "\n".join(lines) if lines else "no walls found", 0


def _cmd_reduce(ns) -> tuple[dict, str, int]:
    p = ParamPoint(parse_rational(ns.beta), parse_rational(ns.alpha))
    res = reduce_to_fundamental(p)
    data = {"beta": str(res.point.beta), "alpha": str(res.point.alpha),
            "log": list(res.log)}
    log = ",".join(res.log) if res.log else "identity"
    return data, f"beta={res.point.beta} alpha={res.point.alpha} log={log}", 0


def _cmd_collection_check(ns) -> tuple[dict, str, int]:
    spec = _parse_collection(ns.collection)
    beta = parse_rational(ns.beta)
    if ns.a0 is None:
        iv = admissible_a_interval(spec, beta)
        data = {"schema": "tiltwall/interval-v1", "beta": str(beta),
                "interval": None if iv is None else [str(iv[0]), str(iv[1])]}
        text = f"({iv[0]}, {iv[1]})" if iv else "no admissible interval"
        return data, text, 0 if iv is not None else 1
    report = general_condition_check(spec, beta, parse_rational(ns.a0))
    data = report.to_json_dict()
    data["schema"] = "tiltwall/check-v1"
    text = "\n".join(c.describe() for c in report.conditions)
    return data, text, 0 if report.passed else 1


def _cmd_twist(ns) -> tuple[dict, str, int]:
    s, v = _parse_class(ns.s_cls), _parse_class(ns.v_cls)
    result = spherical_twist_class(s, v)
    data = {"schema": "tiltwall/twist-v1", "result": str(result),
            "pairing": str(chi_local(s, v))}
    return data, str(result), 0


def _cmd_plot(ns) -> tuple[dict, str, int]:
    v, region, disc = _parse_box(ns)
    # a region that cannot be drawn is rejected before the enumeration
    plot_frame(region.beta_min, region.beta_max, region.alpha_max)
    walls = [w for w, _ in enumerate_candidate_walls(v, region, disc)]
    scene = plot_scene(v, region, walls)
    svg = scene_svg(scene, precision=ns.precision)
    with open(ns.svg_out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return scene, f"wrote {ns.svg_out} ({len(walls)} walls)", 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for bad usage
        return 0 if exc.code == 0 else 2
    try:
        data, text, code = ns.cmd(ns)
        _emit(_dumps(data) if ns.json else text, ns.out)
        return code
    except MemoryError:
        # first: matching the next clause builds a tuple, which allocates
        line, code = "internal error: MemoryError", 3
    except (InputError, DomainError, OSError) as exc:
        line, code = f"error: {exc}", 2
    except Exception as exc:  # exit 1 is reserved for a failed check
        line, code = f"internal error: {type(exc).__name__}: {exc}", 3
    print(one_line(line), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
