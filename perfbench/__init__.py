"""End-to-end and per-layer benchmark of the tiltwall calculator.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout; see ``perfbench/README.md``.
"""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("walls-sweep", "point-queries", "cli-cold")


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises FileNotFoundError when the checkout holds no tiltwall sources,
    so the benchmark never measures some other installed copy.
    """
    if not (SRC / "tiltwall" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tiltwall sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


CALIBRATION_ITERATIONS = 800  # ~5 ms on the host the benchmark was defined on


def calibration_loop() -> None:
    """Fixed work shaped like the program's: small exact fractions,
    comparisons and a dict of integer tuples.  It calls no tiltwall code,
    so no change to the program can move its duration, which therefore
    measures the host's speed."""
    seen: dict[tuple[int, int], int] = {}
    for k in range(CALIBRATION_ITERATIONS):
        a = Fraction(k % 7 + 1, k % 5 + 2)
        b = a * a - Fraction(k % 3, 4)
        key = (b.numerator, b.denominator)
        seen[key] = seen.get(key, 0) + (b > a)
