"""The benchmark's own tests: python3 -m pytest benchmark/test_benchmark.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    assert wl.make_inputs(workload, 7) != wl.make_inputs(workload, 8)
    assert json.loads(json.dumps(wl.make_inputs(workload, 7))) == wl.make_inputs(workload, 7)


def test_seed_zero_is_the_reference_point_set():
    assert [(p["kind"], p["beta"]) for p in wl.make_inputs("gc_oracle", 0)["points"]] == list(
        wl.GC_POINTS
    )
    for seed in range(1, 20):
        for p, (_, beta) in zip(wl.make_inputs("gc_oracle", seed)["points"], wl.GC_POINTS):
            assert abs(p["beta"] / beta - 1.0) <= wl.JITTER


def _reference_outcomes(workload):
    ref = wl.load_reference()[workload]
    outs = [wl.Outcome(name, dict(values)) for name, values in ref["values"].items()]
    return outs, ref


def test_reference_values_pass_their_own_check():
    for workload in ("gc_oracle", "bounds_quad"):
        outs, ref = _reference_outcomes(workload)
        wl.check_against_reference(workload, outs, ref)
        assert all(o.ok for o in outs)


def test_gc_off_by_1e5_relative_is_a_failure():
    outs, ref = _reference_outcomes("gc_oracle")
    outs[0].values["gc_exact"] *= 1.0 + 1e-5
    wl.check_against_reference("gc_oracle", outs, ref)
    assert not outs[0].ok
    assert all(o.ok for o in outs[1:])


def test_bound_above_oracle_is_a_failure():
    out = wl.Outcome("exp", {"gc_bound": 8.0, "gc_exact": 7.9, "converged": True})
    wl.check_gc_point(out, "exp")
    assert not out.ok


def test_one_changed_csv_byte_is_a_failure():
    ref = wl.load_reference()["fig2_pool"]
    text = ref["csv"]["fig2.csv"]
    i = text.rindex("7")
    changed = text[:i] + "8" + text[i + 1:]
    out = wl.Outcome("fig2:row5", {})
    wl.check_csv_bytes(out, "fig2.csv", changed, ref)
    assert not out.ok
    same = wl.Outcome("fig2:row5", {})
    wl.check_csv_bytes(same, "fig2.csv", text, ref)
    assert same.ok


def test_error_rows_and_missing_rows_fail():
    inputs = wl.make_inputs("fig2_pool", 0)
    text = wl.load_reference()["fig2_pool"]["csv"]["fig2.csv"]
    lines = text.splitlines()
    broken = "\n".join(lines[:3] + ["# error: g=2 m=4: ConvergenceError: x"] + lines[3:-1]) + "\n"
    outs = wl.fig2_outcomes(inputs, 1, broken)
    assert len(outs) == 6 and sum(not o.ok for o in outs) == 1
    missing = wl.fig2_outcomes(inputs, 1, "\n".join(lines[:-1]) + "\n")
    assert len(missing) == 6 and missing[-1].problems == ["row missing"]
    assert all(o.ok for o in wl.fig2_outcomes(inputs, 0, text))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "a", "parent": None, "name": "p", "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "name": "c", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "name": "c", "start": 3.0, "end": 5.0},  # overlaps b
        {"id": "d", "parent": "a", "name": "c", "start": 9.0, "end": 12.0},  # runs past a
    ]
    own = tracer.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)


def _run(args, cwd, timeout):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_mode_finishes_in_seconds(workload, trace):
    t0 = time.perf_counter()
    proc = _run(["benchmark/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke"], ROOT, 120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == names
    assert time.perf_counter() - t0 < 30.0


def test_fails_without_the_package_source():
    (ROOT / ".benchrun").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".benchrun") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["benchmark/run.py", "--workload", "gc_oracle", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], tmp, 60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
