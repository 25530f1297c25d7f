"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import NAMES, use_checkout_source  # noqa: E402

use_checkout_source()

from perfbench import hooks, run, workloads  # noqa: E402
from tiltwall import NumClass, Region  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the cheapest few inputs of each pool, for runs of a fraction of a second
TINY = {
    "walls-sweep": ["walls|O|-2|0|2|0", "walls|1,0,-1,0|-2|0|2|0"],
    "point-queries": ["reduce|-1/3|6/18", "interval|lines|-5/4", "mu12|O"],
    "cli-cold": ["cli|class|O|--json", "cli|tilt|O|--beta|0|--alpha|-1|--json"],
}


def tiny(name, seed=1):
    wl = workloads.load(name, seed)
    wl.pool = [op for op in wl.pool if op.key in TINY[name]]
    assert len(wl.pool) == len(TINY[name])
    return wl


def small_run(wl, trace=False):
    return run.run_benchmark(wl, seed=1, seconds=0, trace=trace, min_ops=4,
                             setup_probes=1, cli_probes=1)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_each_workload(name):
    result = small_run(tiny(name))
    assert result["failed"] == 0 and result["attempted"] >= 4
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert [m["name"] for m in SPEC["end_to_end"]] == list(line["metrics"])
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_reports_every_layer_metric(name):
    result = small_run(tiny(name), trace=True)
    line = json.loads(run.result_line(result))
    assert line["correct"] is True
    assert [m["name"] for m in SPEC["per_layer"]] == list(line["metrics"])
    for m in SPEC["per_layer"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    assert result["notes"] == []


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_value_counts_as_failure(name):
    wl = tiny(name)
    key = TINY[name][0]
    if wl.is_cli:
        wl.expected[key] = dict(wl.expected[key], json={"class": "2,0,0,0"})
    else:
        wl.expected[key] = ["not the answer"]
    result = small_run(wl)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert json.loads(run.result_line(result))["correct"] is False


def test_cli_check_ignores_added_fields_but_not_changed_ones():
    expected = {"exit": 0, "json": {"class": "1,0,0,0"}, "svg": False}
    out = workloads.CliOutcome
    added = out(0, json.dumps({"class": "1,0,0,0", "stats": {"n": 3}}), False, 19.0)
    changed = out(0, json.dumps({"class": "1,0,0,1"}), False, 19.0)
    wrong_exit = out(1, json.dumps({"class": "1,0,0,0"}), False, 19.0)
    assert workloads.cli_matches(expected, added)
    assert not workloads.cli_matches(expected, changed)
    assert not workloads.cli_matches(expected, wrong_exit)


def test_every_expected_result_is_recorded():
    for name in NAMES:
        wl = workloads.load(name, 0)
        assert {op.key for op in wl.pool} == set(wl.expected)


def test_every_trace_hook_binds_and_rebinds_importers():
    import tiltwall
    import tiltwall.cli
    from tiltwall import walls

    original = walls.enumerate_candidate_walls
    tracer = hooks.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = walls.enumerate_candidate_walls
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert tiltwall.cli.enumerate_candidate_walls is wrapped
        assert tiltwall.enumerate_candidate_walls is wrapped
        assert workloads.tw_walls.enumerate_candidate_walls is wrapped
    finally:
        tracer.uninstall()
    assert walls.enumerate_candidate_walls is original
    assert tiltwall.cli.enumerate_candidate_walls is original


def test_missing_hook_reads_null_with_note(monkeypatch):
    gone = ("wallscan.scan_candidates", "tiltwall._wallscan_py", "no_such_kernel")
    table = tuple(h for h in hooks.HOOKS if h[0] != gone[0]) + (gone,)
    monkeypatch.setattr(hooks, "HOOKS", table)
    result = small_run(tiny("walls-sweep"), trace=True)
    m = result["metrics"]
    assert m["wallscan.scan_candidates.self_ms"] is None
    assert m["wallscan.candidates"] is None and m["walls.key_ratio"] is None
    assert m["walls.wall_between.calls"] > 0
    assert any("no_such_kernel" in note for note in result["notes"])
    assert json.loads(run.result_line(result))["correct"] is True


def test_fingerprint_of_reference_case():
    """The re-anchor fingerprint: 1,034 candidates, 192 distinct wall keys
    and 2 walls for 2,-1,-3/2,1/6 in Region(-4,2,6) at disc-bound 40."""
    from tiltwall import walls

    tracer = hooks.Tracer()
    tracer.install()
    try:
        walls.enumerate_candidate_walls(NumClass.parse("2,-1,-3/2,1/6"),
                                        Region(-4, 2, 6), 40)
    finally:
        tracer.uninstall()
    assert tracer.fingerprints[run.FINGERPRINT_CASE] == (1034, 192, 2)
    c = tracer.counters
    assert c["keys_seen"] - c["repeat_keys"] == 192


def test_self_time_excludes_children():
    tracer = hooks.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    outer()
    calls, total, self_ns = tracer.stats["outer"]
    assert calls == 1 and tracer.stats["inner"][0] == 5
    assert self_ns < total - tracer.stats["inner"][1]


def test_run_py_contract_line_and_missing_sources():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "point-queries", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["attempted"] >= run.MIN_OPS
    assert "error_rate" in proc.stdout

    # a directory holding only the benchmark: no sources, so no result
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "walls-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LAYER_UNITS)
    for m in SPEC["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert run.LAYER_UNITS[m["name"]] == m["unit"]
