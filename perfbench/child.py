#!/usr/bin/env python3
"""Child processes started by perfbench/run.py.

    python3 perfbench/child.py setup WORKLOAD SEED
        Set the workload up (imports, pool, expected results) and print
        "ready"; the parent times spawn -> "ready" as setup_s.  Then time
        the calibration loop in this same process, print its duration in
        seconds and exit.

    python3 perfbench/child.py cli-trace STATS_FILE VERB [ARG ...]
        Run ``tiltwall.cli.run`` on the arguments with the trace hooks
        installed, like ``python -m tiltwall.cli``, and write the layer
        statistics to STATS_FILE.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import calibration_loop, use_checkout_source  # noqa: E402


def setup(name: str, seed: str) -> int:
    use_checkout_source()
    from perfbench import workloads

    workloads.load(name, int(seed)).next_pass()
    print("ready", flush=True)
    t0 = time.perf_counter()
    calibration_loop()
    print(time.perf_counter() - t0, flush=True)
    return 0


def cli_trace(stats_file: str, argv: list[str]) -> int:
    use_checkout_source()
    t0 = time.perf_counter()
    import tiltwall.cli
    import_ms = (time.perf_counter() - t0) * 1e3
    from perfbench.hooks import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    code = tiltwall.cli.run(argv)
    verb_ms = (time.perf_counter() - t1) * 1e3
    sys.stdout.flush()
    record = {"import_ms": import_ms, "verb_ms": verb_ms, **tracer.snapshot()}
    Path(stats_file).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "cli-trace":
        sys.exit(cli_trace(rest[0], rest[1:]))
    sys.exit(f"unknown mode {mode!r}")
