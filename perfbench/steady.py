#!/usr/bin/env python3
"""Steadiness helper: run workloads K times and summarise each metric.

    python3 perfbench/steady.py --workload walls-sweep --runs 10 [--seconds S]
                                [--first-seed N] [--trajectory]

Each run uses the next seed.  For every end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json: "steady" when the spread is below a third of the bound,
"within" when below the bound, else "UNRESOLVED" -- a change to that
metric on that workload cannot be told from noise.

``--trajectory`` appends the summary, with the environment record, to
``perfbench/BENCH_walls.json``.  The last line of output is the raw values
as JSON, for comparing two sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import NAMES  # noqa: E402

TRAJECTORY = HERE / "BENCH_walls.json"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced benchmark run; returns (final JSON line, environment)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report["env"]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "within" if spread <= bound else "UNRESOLVED"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trajectory", action="store_true",
                        help="append the summary to perfbench/BENCH_walls.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs needs at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw: dict[str, dict[str, list]] = {}
    summary: dict[str, dict] = {}
    env = None
    for workload in args.workload or NAMES:
        values: dict[str, list] = {}
        failed = attempted = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.perf_counter()
            line, env = run_once(workload, seed, args.seconds)
            failed += line["failed"]
            attempted += line["attempted"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={line['correct']}", file=sys.stderr, flush=True)
        raw[workload] = values
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": {}}
        print(f"{workload}: {args.runs} runs x {args.seconds} s, "
              f"{failed} failed / {attempted} attempted")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            s = summarise(vals)
            summary[workload]["metrics"][name] = s
            print(f"  {name:<14} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {bounds[name]:>6.2f} "
                  f"{verdict(s['spread'], bounds[name])}")
    if args.trajectory:
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) \
            if TRAJECTORY.exists() else []
        history.append({"env": {**env, "seed": f"{args.first_seed}.."
                                f"{args.first_seed + args.runs - 1}"},
                        "runs": args.runs, "workloads": summary})
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
