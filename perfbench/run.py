#!/usr/bin/env python3
"""Run one tiltwall benchmark workload and print its metrics.

    python3 perfbench/run.py --workload walls-sweep --seed 1 --seconds 30 --trace 0

Load is a closed loop with one client in this process: each operation
starts after the previous one completed.  A run makes whole passes over
the workload's input pool, each in a fresh seeded order, until ``--seconds``
have passed and at least MIN_OPS operations ran.  Every outcome is checked
against the committed expected results.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the trace hooks installed (perfbench/hooks.py)
and reports the per-layer metrics, per pass over the pool, plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
from array import array
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import (NAMES, ROOT, SRC, calibration_loop,  # noqa: E402
                       use_checkout_source)

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_OPS = 100       # so that at least ten latency samples lie above p90
SETUP_PROBES = 15   # set-ups per run, spread over it; setup_s is their median
CLI_PROBES = 5      # cold-start probes per traced run
CAL_PERIOD_S = 0.1
CAL_REF_S = 0.005     # reference duration of perfbench.calibration_loop
INTERP_REF_S = 0.05   # reference duration of a bare interpreter start

E2E_UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}

# -X importtime module name -> metric
IMPORT_METRICS = {
    "tiltwall": "import.tiltwall_ms", "tiltwall.cli": "import.cli_ms",
    "tiltwall.walls": "import.walls_ms",
    "tiltwall._wallscan_py": "import.wallscan_py_ms",
    "tiltwall.surd": "import.surd_ms", "tiltwall.numclass": "import.numclass_ms",
    "tiltwall.tiltcalc": "import.tiltcalc_ms",
    "tiltwall.heartgate": "import.heartgate_ms",
    "tiltwall.euler": "import.euler_ms", "tiltwall.errors": "import.errors_ms",
}

LAYER_UNITS = {
    "wallscan.scan_candidates.self_ms": "ms",
    "wallscan.scan_share": "ratio",
    "wallscan.candidates": "count",
    "walls.wall_between.self_ms": "ms",
    "walls.wall_between.calls": "count",
    "walls.enumerate.self_ms": "ms",
    "walls.distinct_keys": "count",
    "walls.key_ratio": "ratio",
    "walls.repeat_key_share": "ratio",
    "walls.accept_ratio": "ratio",
    "walls.walls_out": "count",
    "surd.sqrt.calls": "count",
    "surd.sqrt.self_ms": "ms",
    "surd.sqrt.max_radicand_digits": "digits",
    "numclass.parse.self_ms": "ms",
    "tiltcalc.self_ms": "ms",
    "tiltcalc.calls": "count",
    "heartgate.CollectionSpec.self_ms": "ms",
    "heartgate.general_condition_check.self_ms": "ms",
    "heartgate.admissible_a_interval.self_ms": "ms",
    "euler.self_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.verb_ms": "ms",
    **{name: "ms" for name in IMPORT_METRICS.values()},
    "trace.overhead_ops_per_s": "1/s",
}

# Wall-enumeration fingerprint case: its candidate, distinct-key and wall
# counts were measured independently when the benchmark was defined.
FINGERPRINT_CASE = "2,-1,-3/2,1/6 in Region(-4,2,6) disc 40"


def _bare_interpreter() -> None:
    """A fresh ``python -c pass``, started the way CLI operations are (same
    working directory, environment and pipes) but running no tiltwall code."""
    from perfbench.workloads import cli_env

    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=cli_env(),
                   stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                   check=True, timeout=120)


class Calibrator:
    """Host-speed probe.  The host's speed drifts by tens of percent within
    seconds, whatever runs on it, so every measured time is divided by the
    duration of a fixed probe run at most ``period_s`` earlier, never inside
    an operation, and multiplied by ``ref_s``: times read as on a host where
    the probe takes ``ref_s``.  The duration used is the median of the last
    ``window`` probes.  In-process operations use the in-process loop; CLI
    child processes use a bare interpreter start, which cancels what the
    parent cannot see of the child's speed, over three starts so that one
    slow start does not skew the operation after it."""

    def __init__(self, probe, ref_s: float, period_s: float, window: int):
        self.probe, self.ref_s, self.period_s = probe, ref_s, period_s
        self.window = window
        self.samples: list[float] = []
        self._due = 0.0

    @classmethod
    def in_process(cls) -> "Calibrator":
        return cls(calibration_loop, CAL_REF_S, CAL_PERIOD_S, 1)

    @classmethod
    def process_start(cls) -> "Calibrator":
        return cls(_bare_interpreter, INTERP_REF_S, 0.0, 3)

    def tick(self) -> None:
        if time.perf_counter() < self._due:
            return
        t0 = time.perf_counter()
        self.probe()
        self.samples.append(time.perf_counter() - t0)
        self._due = time.perf_counter() + self.period_s

    def correct(self, seconds: float) -> float:
        return seconds * self.ref_s / statistics.median(self.samples[-self.window:])


@dataclass
class Loop:
    """What one timed phase measured."""

    # seconds per op, corrected and as measured; arrays keep the harness's
    # own memory small next to the program's (peak_rss_mb)
    latencies: array = field(default_factory=lambda: array("d"))
    raw_latencies: array = field(default_factory=lambda: array("d"))
    passes: int = 0
    failed_keys: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def timed_loop(wl, workdir: Path, seconds: float, min_ops: int, cal: Calibrator,
               trace_dir: Path | None = None,
               setups: SetupProbes | None = None) -> Loop:
    """Whole passes over the pool until ``seconds`` and ``min_ops`` are
    reached.  Only the operation is timed, not the result check, the
    calibration or a set-up probe due in between."""
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    while True:
        for op in wl.next_pass():
            if setups is not None:
                setups.tick()
            cal.tick()
            trace_file = None
            if trace_dir is not None:
                trace_file = trace_dir / f"{loop.attempted}.json"
            t0 = clock()
            outcome = wl.run(op, workdir, trace_file)
            dt = clock() - t0
            loop.raw_latencies.append(dt)
            loop.latencies.append(cal.correct(dt))
            if not wl.matches(op, outcome):
                loop.failed_keys.append(op.key)
        loop.passes += 1
        if clock() - start >= seconds and loop.attempted >= min_ops:
            return loop


def percentile_ms(samples, q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB -> MB


class SetupProbes:
    """Fresh-process set-ups spread over the run: time from spawning a
    process to the point where it has imported tiltwall, built its pool and
    loaded the expected results.  Each is corrected by the calibration loop
    that the same process runs right after its set-up."""

    def __init__(self, name: str, seed: int, count: int, seconds: float):
        self.argv = [sys.executable, str(CHILD), "setup", name, str(seed)]
        self.count, self.period = count, seconds / count
        self.raw: list[float] = []
        self.corrected: list[float] = []
        self.calibrations: list[float] = []
        self._due = time.perf_counter()

    def tick(self) -> None:
        if len(self.raw) < self.count and time.perf_counter() >= self._due:
            self._probe()
            self._due = time.perf_counter() + self.period

    def finish(self) -> None:
        while len(self.raw) < self.count:
            self._probe()

    def _probe(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {self.argv[3:]} failed (exit {code})")
        calibration = float(rest)
        self.raw.append(elapsed)
        self.calibrations.append(calibration)
        self.corrected.append(elapsed * CAL_REF_S / calibration)


def _run_probe(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()[-300:]}")
    return elapsed, proc


def cold_start_probes(n: int) -> dict[str, float | None]:
    """Medians over ``n`` fresh interpreters: bare start, the import of
    tiltwall.cli, and each tiltwall module's self import time."""
    interp, imports = [], []
    per_module: dict[str, list[float]] = {m: [] for m in IMPORT_METRICS}
    timed_import = ("import time; t = time.perf_counter(); import tiltwall.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(n):
        interp.append(_run_probe(["-c", "pass"])[0])
        imports.append(float(_run_probe(["-c", timed_import])[1].stdout))
        stderr = _run_probe(["-X", "importtime", "-c", "import tiltwall.cli"])[1].stderr
        for line in stderr.splitlines():
            # "import time:   self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in per_module:
                per_module[parts[2].strip()].append(int(parts[0].split(":")[1]))
    out = {"cli.interp_ms": statistics.median(interp) * 1e3,
           "cli.import_ms": statistics.median(imports) * 1e3}
    for module, metric in IMPORT_METRICS.items():
        us = per_module[module]
        out[metric] = statistics.median(us) / 1e3 if us else None
    return out


def layer_metrics(tracer, traced: Loop, plain: Loop,
                  probes: dict, verb_ms: list[float]) -> dict:
    """Per-layer metrics, per pass over the pool of the traced phase; a
    metric whose hook did not install reads None."""
    passes = traced.passes
    st, c = tracer.stats, tracer.counters
    on = tracer.bound

    def self_ms(key):
        return st[key][2] / 1e6 / passes if on(key) else None

    def calls(key):
        return st[key][0] / passes if on(key) else None

    def per_pass(name, *keys):
        return c[name] / passes if all(map(on, keys)) else None

    def ratio(num, den, *keys):
        if not all(map(on, keys)):
            return None
        return c[num] / c[den] if c[den] else 0.0

    walls_keys = ("walls.enumerate", "walls.wall_between")
    busy_ns = sum(traced.raw_latencies) * 1e9  # spans are uncorrected too
    scan_ns = st["wallscan.scan_candidates"][2]
    out = {
        "wallscan.scan_candidates.self_ms": self_ms("wallscan.scan_candidates"),
        "wallscan.scan_share": (scan_ns / busy_ns
                                if on("wallscan.scan_candidates") else None),
        "wallscan.candidates": per_pass("candidates", "wallscan.scan_candidates"),
        "walls.wall_between.self_ms": self_ms("walls.wall_between"),
        "walls.wall_between.calls": calls("walls.wall_between"),
        "walls.enumerate.self_ms": self_ms("walls.enumerate"),
        "walls.distinct_keys": per_pass("distinct_keys", *walls_keys),
        "walls.key_ratio": ratio("distinct_keys", "candidates",
                                 "wallscan.scan_candidates", *walls_keys),
        "walls.repeat_key_share": ratio("repeat_keys", "keys_seen", *walls_keys),
        "walls.accept_ratio": ratio("walls_out", "distinct_keys", *walls_keys),
        "walls.walls_out": per_pass("walls_out", "walls.enumerate"),
        "surd.sqrt.calls": calls("surd.sqrt"),
        "surd.sqrt.self_ms": self_ms("surd.sqrt"),
        "surd.sqrt.max_radicand_digits": (c["max_radicand_digits"]
                                          if on("surd.sqrt") else None),
        "numclass.parse.self_ms": self_ms("numclass.parse"),
        "tiltcalc.self_ms": self_ms("tiltcalc"),
        "tiltcalc.calls": calls("tiltcalc"),
        "heartgate.CollectionSpec.self_ms": self_ms("heartgate.CollectionSpec"),
        "heartgate.general_condition_check.self_ms":
            self_ms("heartgate.general_condition_check"),
        "heartgate.admissible_a_interval.self_ms":
            self_ms("heartgate.admissible_a_interval"),
        "euler.self_ms": self_ms("euler"),
        "cli.verb_ms": statistics.median(verb_ms) if verb_ms else 0.0,
        **probes,
        "trace.overhead_ops_per_s": (ops_per_s(traced.latencies)
                                     - ops_per_s(plain.latencies)),
    }
    return {name: out[name] for name in LAYER_UNITS}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, seconds: float, trace: bool) -> dict:
    from tiltwall import walls
    return {"python": platform.python_version(),
            "have_compiled_kernel": getattr(walls, "HAVE_COMPILED_KERNEL", None),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit(), "seed": seed, "seconds": seconds,
            "trace": int(trace)}


def _merge_child_traces(tracer, trace_dir: Path) -> list[float]:
    verb_ms = []
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        tracer.merge(data)
        verb_ms.append(data["verb_ms"])
    return verb_ms


def ops_per_s(latencies) -> float:
    """Completed operations per second of operation time."""
    return len(latencies) / sum(latencies)


def _e2e(latencies, setups: list[float]) -> dict:
    return {"ops_per_s": ops_per_s(latencies),
            "p50_ms": percentile_ms(latencies, 0.5),
            "p90_ms": percentile_ms(latencies, 0.9),
            "setup_s": statistics.median(setups)}


def run_benchmark(wl, seed: int, seconds: float, trace: bool,
                  min_ops: int = MIN_OPS, setup_probes: int = SETUP_PROBES,
                  cli_probes: int = CLI_PROBES) -> dict:
    """Measure one workload; returns the full result record."""
    from perfbench.hooks import Tracer

    notes: list[str] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        if wl.is_cli:  # untimed: let the byte-code cache fill
            wl.run(wl.pool[0], workdir)
        cal = Calibrator.process_start() if wl.is_cli else Calibrator.in_process()
        if not trace:
            setups = SetupProbes(wl.name, seed, setup_probes, seconds)
            loop = timed_loop(wl, workdir, seconds, min_ops, cal, setups=setups)
            setups.finish()
            loops = [loop]
            metrics = _e2e(loop.latencies, setups.corrected)
            metrics["peak_rss_mb"] = (wl.child_peak_rss_mb if wl.is_cli
                                      else peak_rss_mb())
            units = E2E_UNITS
            detail = {"latency_samples": loop.attempted, "passes": loop.passes,
                      "setup_samples": len(setups.raw),
                      "uncorrected": _e2e(loop.raw_latencies, setups.raw),
                      "calibration_ms": statistics.median(cal.samples) * 1e3,
                      "calibration_ref_ms": cal.ref_s * 1e3,
                      "setup_calibration_ms": statistics.median(setups.calibrations) * 1e3,
                      "calibrations": len(cal.samples)}
        else:
            plain = timed_loop(wl, workdir, seconds / 2, 1, cal)
            tracer = Tracer()
            if wl.is_cli:
                trace_dir = workdir / "traces"
                trace_dir.mkdir()
                traced = timed_loop(wl, workdir, seconds / 2, 1, cal, trace_dir)
                verb_ms = _merge_child_traces(tracer, trace_dir)
            else:
                tracer.install()
                try:
                    traced = timed_loop(wl, workdir, seconds / 2, 1, cal)
                finally:
                    tracer.uninstall()
                verb_ms = []
            loops = [plain, traced]
            metrics = layer_metrics(tracer, traced, plain,
                                    cold_start_probes(cli_probes), verb_ms)
            units = LAYER_UNITS
            for key, target in tracer.missing:
                notes.append(f"hook {target} not found: {key} metrics are null")
            notes += tracer.notes
            detail = {"traced_passes": traced.passes, "plain_passes": plain.passes,
                      "fingerprints": tracer.fingerprints}
    attempted = sum(lp.attempted for lp in loops)
    failed_keys = [k for lp in loops for k in lp.failed_keys]
    if failed_keys:
        notes.append(f"failed inputs: {sorted(set(failed_keys))[:10]}")
    return {"workload": wl.name, "env": environment(seed, seconds, trace),
            "attempted": attempted, "failed": len(failed_keys),
            "metrics": metrics, "units": units, "detail": detail, "notes": notes}


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def report_lines(result: dict) -> list[str]:
    """Human-readable lines printed before the final JSON line."""
    env, m, units = result["env"], result["metrics"], result["units"]
    lines = [f"perfbench {result['workload']}: "
             + " ".join(f"{k}={v}" for k, v in env.items())]
    if not env["trace"]:
        d = result["detail"]
        n = d["latency_samples"]
        extra = {"ops_per_s": f"{d['passes']} passes",
                 "p50_ms": f"n={n}", "p90_ms": f"n={n}",
                 "setup_s": f"median of {d['setup_samples']}",
                 "peak_rss_mb": "children" if result["workload"] == "cli-cold"
                 else "this process"}
        lines.append(f"  {'metric':<14} {'value':>12} {'unit':<6} {'uncorrected':>12}")
        for name, value in m.items():
            raw = _fmt(d["uncorrected"][name]) if name in d["uncorrected"] else ""
            lines.append(f"  {name:<14} {_fmt(value):>12} {units[name]:<6} {raw:>12} "
                         f"({extra[name]})")
        error_rate = result["failed"] / result["attempted"]
        lines.append(f"  {'error_rate':<14} {_fmt(error_rate):>12} {'ratio':<6} {'':>12} "
                     f"({result['failed']} failed / {result['attempted']} attempted)")
        lines.append(f"  operation times corrected to a calibration of "
                     f"{d['calibration_ref_ms']:g} ms (measured median "
                     f"{d['calibration_ms']:.4g} ms over {d['calibrations']}); set-ups "
                     f"to {CAL_REF_S * 1e3:g} ms (measured median "
                     f"{d['setup_calibration_ms']:.4g} ms)")
    else:
        for name, value in m.items():
            lines.append(f"  {name:<42} {_fmt(value):>12} {units[name]}")
        fp = result["detail"]["fingerprints"].get(FINGERPRINT_CASE)
        if fp is not None:
            lines.append(f"  fingerprint {FINGERPRINT_CASE}: candidates={fp[0]} "
                         f"distinct_keys={fp[1]} walls={fp[2]}")
    lines += [f"  note: {n}" for n in result["notes"]]
    lines.append("report " + json.dumps({k: result[k] for k in
                                         ("workload", "env", "detail", "notes")}))
    return lines


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tiltwall
    if Path(tiltwall.__file__).resolve().parent != (SRC / "tiltwall").resolve():
        print(f"perfbench: imported tiltwall from {tiltwall.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    wl = workloads.load(args.workload, args.seed)
    result = run_benchmark(wl, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
