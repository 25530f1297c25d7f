#!/usr/bin/env python3
"""Re-record the expected results of every pool member.

    python3 perfbench/record.py [--workload NAME ...]

Runs each input of the pool once against the checkout's tiltwall and
writes ``perfbench/expected/<workload>.json``.  Re-record only in a change
that alters results on purpose, and say so in that change.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import NAMES, ROOT, use_checkout_source  # noqa: E402


def record(name: str) -> Path:
    from perfbench import workloads

    wl = workloads.load(name, seed=0, expected=False)
    results = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for op in wl.pool:
            results[op.key] = wl.record(op, wl.run(op, Path(tmp)))
    path = workloads.expected_path(name)
    path.write_text(json.dumps({"workload": name, "results": results},
                               indent=1) + "\n", encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=NAMES)
    args = parser.parse_args()
    use_checkout_source()
    for name in args.workload or NAMES:
        print(f"wrote {record(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
