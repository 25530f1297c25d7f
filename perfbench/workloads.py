"""The three workloads: fixed input pools, the operation each input runs,
and the check of every outcome against its committed expected result.

Every pool is fixed data, so every input the seed can draw has an entry in
``perfbench/expected/<workload>.json`` (written by ``perfbench/record.py``).
The seed only orders the pool: a run makes whole passes over it, each pass
in a fresh seeded order, so every run sees the same mix of cheap and
expensive inputs.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import NAMES, ROOT, SRC

from tiltwall import euler, heartgate, numclass, tiltcalc
from tiltwall import walls as tw_walls

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
CHILD = Path(__file__).resolve().parent / "child.py"
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Op:
    """One pool member: ``kind`` selects the operation, ``args`` are its
    string inputs, ``key`` names its expected result."""

    kind: str
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return "|".join((self.kind,) + self.args)


class Raised:
    """Outcome of an in-process operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


# --- walls-sweep ---------------------------------------------------------------

# The ROADMAP class matrix: trivial line bundle, an ideal-sheaf class, the
# tangent twist, rank-2 and rank-3 classes, and the rank-0 plane class.
WALL_CLASSES = ("O", "1,0,-1,0", "T(-2)", "2,-1,-3/2,1/6", "3,-1,-5/2,1/6",
                "0,1,-1/2,1/6")
WALL_REGIONS = (("-2", "0", "2"), ("-4", "2", "6"), ("-3", "-1", "4"))
WALL_DISCS = ("0", "5", "20", "40")


def _walls_pool() -> list[Op]:
    return [Op("walls", (cls,) + region + (disc,))
            for cls in WALL_CLASSES for region in WALL_REGIONS
            for disc in WALL_DISCS]


# --- point-queries -------------------------------------------------------------

SMALL_CLASSES = ("O", "O(1)", "O(-2)", "T(-2)", "Omega(1)", "1,0,-1,0",
                 "2,-1,-3/2,1/6", "3,-1,-5/2,1/6")
PLANE_CLASS = "0,1,-1/2,1/6"
# Integral classes with coefficients up to ~6000 on the line-bundle basis,
# drawn once with a fixed seed; discriminants 2.4e7 .. 1.4e8, none a square,
# so every square root of one factors a large radicand.
LARGE_CLASSES = ("3070,9235,16523/2,32077/6", "-1195,-8954,-9502,-17773/3",
                 "-723,4144,5159,11027/3", "505,-10414,-2416,-8021/3",
                 "-298,9764,3582,8461/3", "7488,17123,22169/2,49589/6",
                 "-1811,-12667,-11203/2,-37963/6", "-1131,-12034,-5796,-12491/3")
POINTS = (("-1/4", "1/8"), ("-1/2", "1"), ("1/3", "1/2"), ("-3/2", "5/4"),
          ("2", "5/2"))
CHARGE_A = ("1/32", "-1/6", "2/3")
REDUCE_POINTS = tuple((f"{k}/3", f"{k * k + 5}/18") for k in range(-11, 12, 2))
TWIST_S = ("O", "O(1)", "T(-2)", "Omega(1)")
TWIST_V = ("1,0,0,-1", "O(1)", "2,-1,-3/2,1/6", LARGE_CLASSES[0])
# beta grids inside each collection's slope range, avoiding the one beta
# where the distinguished member's parabola meets the boundary of U
COLLECTION_BETAS = {
    "beilinson4": ("-7/8", "-3/4", "-1/2", "-1/3", "-1/4", "-1/8", "1/4", "1/2"),
    "omega": ("-15/16", "-7/8", "-3/4", "-5/8", "-1/2", "-3/8", "-1/4", "-1/8"),
    "lines": ("-11/4", "-5/2", "-2", "-7/4", "-5/4", "-1", "-3/4", "-1/4"),
}
A0_GRID = ("0", "1/16", "-1/8", "1/4")


def _point_pool() -> list[Op]:
    ops = []
    for i, cls in enumerate(SMALL_CLASSES + (PLANE_CLASS,)):
        for j, (beta, alpha) in enumerate(POINTS[:3]):
            ops.append(Op("tilt", (cls, beta, alpha, CHARGE_A[(i + j) % 3])))
        for beta, alpha in POINTS[3:]:
            ops.append(Op("bg", (cls, beta, alpha)))
    for i, cls in enumerate(LARGE_CLASSES):
        beta, alpha = POINTS[i % len(POINTS)]
        ops.append(Op("tilt", (cls, beta, alpha, CHARGE_A[i % 3])))
        ops.append(Op("bg", (cls, beta, alpha)))
    ops += [Op("reduce", p) for p in REDUCE_POINTS]
    ops += [Op("mu12", (cls,)) for cls in SMALL_CLASSES + LARGE_CLASSES]
    ops += [Op("twist", (s, v)) for s in TWIST_S for v in TWIST_V]
    for name, betas in COLLECTION_BETAS.items():
        for i, beta in enumerate(betas):
            ops.append(Op("check", (name, beta, A0_GRID[i % len(A0_GRID)])))
            ops.append(Op("interval", (name, beta)))
    return ops


# --- cli-cold ------------------------------------------------------------------

SVG_SLOT = "{svg}"
_BOX = ("--beta-min", "-2", "--beta-max", "0", "--alpha-max", "2")

# Small inputs for all nine verbs, so interpreter start and imports dominate;
# the last one is rejected as invalid input (exit 2).
CLI_ARGVS = (
    ("class", "O"), ("class", "T(-2)"), ("class", "2,-1,-3/2,1/6"),
    ("class", "Omega(1)"),
    ("tilt", "O(1)", "--beta", "-1/4", "--alpha", "1/8", "--a", "1/32"),
    ("tilt", "1,0,-1,0", "--beta", "-1/2", "--alpha", "1"),
    ("bg-check", "O", "--beta", "-1/3", "--alpha", "1/9"),
    ("bg-check", "T(-2)", "--beta", "-1", "--alpha", "1"),
    ("walls", "1,0,-1,0") + _BOX,
    ("walls", "O") + _BOX,
    ("walls", "0,1,-1/2,1/6") + _BOX,
    ("reduce", "7/3", "3"), ("reduce", "-5/4", "2"),
    ("collection-check", "omega", "--beta", "-1/4"),
    ("collection-check", "lines", "--beta", "-5/4", "--a0", "1/8"),
    ("interval", "lines", "--beta", "-5/4"),
    ("interval", "beilinson4", "--beta", "-1/4"),
    ("twist", "O", "1,0,0,-1"), ("twist", "T(-2)", "O(1)"),
    ("plot", "1,0,-1,0") + _BOX + ("-o", SVG_SLOT),
    ("plot", "O", "--beta-min", "-1", "--beta-max", "1", "--alpha-max", "1",
     "-o", SVG_SLOT),
    ("tilt", "O", "--beta", "0", "--alpha", "-1"),
)
# Fields that describe how a result was searched for rather than what it
# is; they are not part of the compared mathematical content.
CLI_IGNORED_FIELDS = ("schema", "search_box")


def _cli_pool() -> list[Op]:
    return [Op("cli", argv + ("--json",)) for argv in CLI_ARGVS]


POOLS: dict[str, Callable[[], list[Op]]] = {
    "walls-sweep": _walls_pool,
    "point-queries": _point_pool,
    "cli-cold": _cli_pool,
}


# --- in-process operations -----------------------------------------------------

def _q(tok: str):
    return numclass.parse_rational(tok)


def _cls(tok: str):
    if "," in tok:
        return numclass.NumClass.parse(tok)
    return numclass.class_of_named(tok)


def _pair(z) -> list[str]:
    return [str(z.re), str(z.im)]


def _op_walls(cls, bmin, bmax, amax, disc):
    region = tw_walls.Region(_q(bmin), _q(bmax), _q(amax))
    found = tw_walls.enumerate_candidate_walls(_cls(cls), region, _q(disc))
    return [[w.A, w.B, w.C, str(wit)] for w, wit in found]


def _op_tilt(cls, beta, alpha, a):
    v, p = _cls(cls), tiltcalc.ParamPoint(_q(beta), _q(alpha))
    return {"nu": str(tiltcalc.tilt_slope_nu(v, p)),
            "Z2": _pair(tiltcalc.central_charge_2(v, p)),
            "Z3": _pair(tiltcalc.central_charge_3(v, p, _q(a)))}


def _op_bg(cls, beta, alpha):
    v, p = _cls(cls), tiltcalc.ParamPoint(_q(beta), _q(alpha))
    return {"margin": str(tiltcalc.bg_margin(v, p)),
            "Q": str(tiltcalc.quadratic_form_Q(v, p))}


def _op_reduce(beta, alpha):
    res = tiltcalc.reduce_to_fundamental(tiltcalc.ParamPoint(_q(beta), _q(alpha)))
    return {"beta": str(res.point.beta), "alpha": str(res.point.alpha),
            "log": list(res.log)}


def _op_mu12(cls):
    v = _cls(cls)
    lo, hi = tiltcalc.mu12(v)
    return {"mu1": str(lo), "mu2": str(hi),
            "endpoint": str(tiltcalc.curve_endpoint(v))}


def _op_twist(s, v):
    s, v = _cls(s), _cls(v)
    return {"result": str(euler.spherical_twist_class(s, v)),
            "pairing": str(euler.chi_local(s, v))}


def _op_check(name, beta, a0):
    spec = heartgate.CollectionSpec.builtin_by_name(name)
    report = heartgate.general_condition_check(spec, _q(beta), _q(a0))
    return {"passed": report.passed,
            "conditions": [[c.name, c.passed, str(c.residual), c.strict]
                           for c in report.conditions]}


def _op_interval(name, beta):
    spec = heartgate.CollectionSpec.builtin_by_name(name)
    iv = heartgate.admissible_a_interval(spec, _q(beta))
    return {"interval": None if iv is None else [str(iv[0]), str(iv[1])]}


IN_PROCESS_OPS: dict[str, Callable[..., Any]] = {
    "walls": _op_walls, "tilt": _op_tilt, "bg": _op_bg, "reduce": _op_reduce,
    "mu12": _op_mu12, "twist": _op_twist, "check": _op_check,
    "interval": _op_interval,
}


def run_in_process(op: Op):
    """Parse, compute and format one pool member; an exception becomes a
    Raised outcome so one bad input cannot stop the run."""
    try:
        return IN_PROCESS_OPS[op.kind](*op.args)
    except Exception as exc:  # counted as a failed operation by the check
        return Raised(exc)


# --- cli operations ------------------------------------------------------------

def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _cli_argv(op: Op, workdir: Path) -> list[str]:
    svg = str(workdir / "scene.svg")
    return [svg if a == SVG_SLOT else a for a in op.args]


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    wrote_svg: bool
    peak_rss_mb: float


def _read_to_eof(stream, timeout_s: float) -> bytes:
    """Read a pipe until the writer closes it; TimeoutError past the deadline."""
    deadline = time.monotonic() + timeout_s
    chunks = []
    fd = stream.fileno()
    while True:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise TimeoutError(f"cli op exceeded {timeout_s} s")
        data = os.read(fd, 65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def run_cli(op: Op, workdir: Path, trace_file: Path | None = None):
    """One cold CLI process.  The child is reaped with ``os.wait4`` so its
    own peak RSS is known; set-up probes, also children, stay out of it.

    With ``trace_file`` the process is ``perfbench/child.py``, which installs
    the trace hooks around ``tiltwall.cli.run`` and writes its layer
    statistics there.
    """
    argv = _cli_argv(op, workdir)
    if trace_file is None:
        cmd = [sys.executable, "-m", "tiltwall.cli", *argv]
    else:
        cmd = [sys.executable, str(CHILD), "cli-trace", str(trace_file), *argv]
    svg = workdir / "scene.svg"
    if svg.exists():
        svg.unlink()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        stdout = _read_to_eof(proc.stdout, CLI_TIMEOUT_S)
    except TimeoutError as exc:
        proc.kill()
        proc.wait()
        return Raised(exc)
    finally:
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wrote_svg = SVG_SLOT in op.args and svg.is_file() and \
        svg.read_text(encoding="utf-8").startswith("<svg")
    return CliOutcome(proc.returncode, stdout.decode(), wrote_svg,
                      usage.ru_maxrss / 1024)  # ru_maxrss is in KiB


def cli_content(outcome: CliOutcome) -> dict:
    """The comparable content of a CLI outcome: exit code, JSON fields
    (without CLI_IGNORED_FIELDS) and whether the SVG was written."""
    data = None
    if outcome.code != 2 and outcome.stdout.strip():
        data = json.loads(outcome.stdout)
        for name in CLI_IGNORED_FIELDS:
            data.pop(name, None)
    return {"exit": outcome.code, "json": data, "svg": outcome.wrote_svg}


def cli_matches(expected: dict, outcome) -> bool:
    """Exit code and SVG flag equal, and every expected JSON field equal;
    fields the program adds later are ignored."""
    if isinstance(outcome, Raised):
        return False
    try:
        actual = cli_content(outcome)
    except json.JSONDecodeError:
        return False
    if actual["exit"] != expected["exit"] or actual["svg"] != expected["svg"]:
        return False
    want, got = expected["json"], actual["json"]
    if want is None:
        return True
    return isinstance(got, dict) and all(
        k in got and got[k] == v for k, v in want.items())


def in_process_matches(expected, outcome) -> bool:
    return not isinstance(outcome, Raised) and outcome == expected


# --- the workload object -------------------------------------------------------

@dataclass
class Workload:
    name: str
    pool: list[Op]
    expected: dict[str, Any]
    rng: random.Random
    child_peak_rss_mb: float = 0.0  # largest CLI child so far

    @property
    def is_cli(self) -> bool:
        return self.name == "cli-cold"

    def next_pass(self) -> list[Op]:
        """The whole pool in a fresh seeded order."""
        return self.rng.sample(self.pool, len(self.pool))

    def run(self, op: Op, workdir: Path, trace_file: Path | None = None):
        if not self.is_cli:
            return run_in_process(op)
        outcome = run_cli(op, workdir, trace_file)
        if isinstance(outcome, CliOutcome):
            self.child_peak_rss_mb = max(self.child_peak_rss_mb, outcome.peak_rss_mb)
        return outcome

    def matches(self, op: Op, outcome) -> bool:
        """True when the outcome equals the committed expected result; an
        input without one counts as failed."""
        if op.key not in self.expected:
            return False
        if self.is_cli:
            return cli_matches(self.expected[op.key], outcome)
        return in_process_matches(self.expected[op.key], outcome)

    def record(self, op: Op, outcome):
        """The expected-result entry for an outcome (used when recording)."""
        if isinstance(outcome, Raised):
            raise RuntimeError(f"{op.key}: {outcome.error}")
        return cli_content(outcome) if self.is_cli else outcome


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load(name: str, seed: int, expected: bool = True) -> Workload:
    """Set up a workload: build its pool, seed its order and load the
    expected results."""
    if name not in POOLS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    table = {}
    if expected:
        with open(expected_path(name), encoding="utf-8") as fh:
            table = json.load(fh)["results"]
    return Workload(name, POOLS[name](), table, random.Random(seed))
