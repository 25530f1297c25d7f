"""Trace hooks: wrap the public entry points of each tiltwall module from
outside the program and aggregate per-layer time and counts.

A hook names a metric key, a module and an attribute (``func``,
``Class.attr``, or ``*`` for every public function defined in the module).
Installing a hook rebinds the attribute in its home module and in every
``tiltwall.*`` / ``perfbench.*`` namespace that imported it, so calls made
through ``from .walls import wall_between`` are traced too.  A hook whose
module or attribute no longer exists is recorded in ``Tracer.missing`` and
the metrics that depend on it read ``None``; nothing raises.

Self time of a span is its duration minus the time its traced child spans
(and their wrapper bookkeeping) cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from fractions import Fraction
from typing import Any, Callable

# (metric key, module, attribute)
HOOKS = (
    ("cli.verb", "tiltwall.cli", "run"),
    ("walls.enumerate", "tiltwall.walls", "enumerate_candidate_walls"),
    ("walls.wall_between", "tiltwall.walls", "wall_between"),
    ("wallscan.scan_candidates", "tiltwall._wallscan_py", "scan_candidates"),
    ("surd.sqrt", "tiltwall.surd", "Surd.sqrt"),
    ("numclass.parse", "tiltwall.numclass", "NumClass.parse"),
    ("numclass.parse", "tiltwall.numclass", "parse_rational"),
    ("numclass.parse", "tiltwall.numclass", "class_of_named"),
    ("tiltcalc", "tiltwall.tiltcalc", "*"),
    ("heartgate.CollectionSpec", "tiltwall.heartgate", "CollectionSpec.builtin_by_name"),
    ("heartgate.CollectionSpec", "tiltwall.heartgate", "CollectionSpec.from_json_dict"),
    ("heartgate.CollectionSpec", "tiltwall.heartgate", "CollectionSpec.__init__"),
    ("heartgate.general_condition_check", "tiltwall.heartgate",
     "general_condition_check"),
    ("heartgate.admissible_a_interval", "tiltwall.heartgate",
     "admissible_a_interval"),
    ("euler", "tiltwall.euler", "*"),
)

COUNTERS = ("candidates", "keys_seen", "repeat_keys", "distinct_keys",
            "walls_out", "max_radicand_digits")


class _WallsCall:
    """Counts inside one enumerate_candidate_walls call."""

    __slots__ = ("keys", "candidates")

    def __init__(self):
        self.keys: set = set()
        self.candidates = 0


class Tracer:
    """Aggregated spans and counters, kept in memory for one process."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # key -> [calls, total_ns, self_ns]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.fingerprints: dict[str, tuple[int, int, int]] = {}
        self.missing: list[list[str]] = []  # [metric key, target] pairs
        self.notes: list[str] = []
        self._stack = [0]  # child time accumulated under each open span
        self._walls_calls: list[_WallsCall] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, key: str, fn: Callable, before=None, after=None) -> Callable:
        st = self.stats.setdefault(key, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            t_in = clock()
            try:
                if before is not None:
                    self._observe(before, key, args, None)
                stack.append(0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child
                if after is not None:
                    self._observe(after, key, args, result)
                return result
            finally:
                stack[-1] += clock() - t_in

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observe(self, observer, key, args, result):
        """Run a counting observer; one that no longer fits the program
        (say, after a refactor) is reported once and then ignored."""
        try:
            observer(self, args, result)
        except Exception as exc:  # observers must never stop the benchmark
            note = f"observer on {key} failed: {type(exc).__name__}: {exc}"
            if note not in self.notes:
                self.notes.append(note)

    # -- counters ---------------------------------------------------------

    def _enter_enumerate(self, args, _result):
        self._walls_calls.append(_WallsCall())

    def _exit_enumerate(self, args, result):
        call = self._walls_calls.pop()
        self.counters["distinct_keys"] += len(call.keys)
        self.counters["walls_out"] += len(result)
        v, region, disc = args[:3]
        name = (f"{v} in Region({region.beta_min},{region.beta_max},"
                f"{region.alpha_max}) disc {disc}")
        self.fingerprints[name] = (call.candidates, len(call.keys), len(result))

    def _exit_wall_between(self, args, result):
        if not self._walls_calls or result is None:
            return
        call = self._walls_calls[-1]
        key = (result.A, result.B, result.C)
        self.counters["keys_seen"] += 1
        if key in call.keys:
            self.counters["repeat_keys"] += 1
        else:
            call.keys.add(key)

    def _exit_scan(self, args, result):
        n = len(result)
        self.counters["candidates"] += n
        if self._walls_calls:
            self._walls_calls[-1].candidates += n

    def _enter_sqrt(self, args, _result):
        x = Fraction(args[0])
        digits = len(str(abs(x.numerator * x.denominator)))
        if digits > self.counters["max_radicand_digits"]:
            self.counters["max_radicand_digits"] = digits

    OBSERVERS = {
        "walls.enumerate": (_enter_enumerate, _exit_enumerate),
        "walls.wall_between": (None, _exit_wall_between),
        "wallscan.scan_candidates": (None, _exit_scan),
        "surd.sqrt": (_enter_sqrt, None),
    }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target; record the ones that cannot be found."""
        for key, module_name, attr in HOOKS:
            self.stats.setdefault(key, [0, 0, 0])
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append([key, f"{module_name}.{attr}"])
                continue
            if attr == "*":
                names = [n for n, f in vars(module).items()
                         if inspect.isfunction(f) and f.__module__ == module_name
                         and not n.startswith("_")]
                if not names:
                    self.missing.append([key, f"{module_name}.*"])
                for name in names:
                    self._install_function(key, module, name)
            elif "." in attr:
                self._install_method(key, module, *attr.split(".", 1))
            else:
                self._install_function(key, module, attr)

    def _install_function(self, key, module, name):
        original = getattr(module, name, None)
        if not callable(original):
            self.missing.append([key, f"{module.__name__}.{name}"])
            return
        before, after = self.OBSERVERS.get(key, (None, None))
        wrapper = self.wrap(key, original, before, after)
        for mod in _namespaces():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _install_method(self, key, module, cls_name, name):
        owner = getattr(module, cls_name, None)
        raw = None if owner is None else inspect.getattr_static(owner, name, None)
        if raw is None or name not in vars(owner):
            self.missing.append([key, f"{module.__name__}.{cls_name}.{name}"])
            return
        before, after = self.OBSERVERS.get(key, (None, None))
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(key, raw.__func__, before, after))
        else:
            wrapped = self.wrap(key, raw, before, after)
        self._undo.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def merge(self, other: dict) -> None:
        """Add the ``snapshot()`` of a tracer from another process."""
        for key, (calls, total, self_ns) in other["stats"].items():
            st = self.stats.setdefault(key, [0, 0, 0])
            st[0] += calls
            st[1] += total
            st[2] += self_ns
        for name, value in other["counters"].items():
            if name == "max_radicand_digits":
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value
        for item in other["missing"]:
            if list(item) not in self.missing:
                self.missing.append(list(item))
        for note in other["notes"]:
            if note not in self.notes:
                self.notes.append(note)

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "missing": self.missing, "notes": self.notes}

    def bound(self, key: str) -> bool:
        """Did every hook feeding this metric key install?"""
        return all(k != key for k, _ in self.missing)


def _namespaces():
    """Modules that may hold a reference to a hooked function."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] in ("tiltwall", "perfbench")]
