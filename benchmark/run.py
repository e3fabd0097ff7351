"""Benchmark of salpeter-bounds: one workload, one seed, one JSON result.

    python3 benchmark/run.py --workload gc_oracle --seed 0 --seconds 42 --trace 0

Run from the repository root (or any checkout of it).  The package is
imported from the checkout's ``src/``; nothing under ``src/`` is changed.

A run first starts SETUP_PROBES processes that only import the package and
generate the inputs, then repeats whole workload passes, each in a fresh
process so that every cache starts cold, for as long as the next pass still
fits in ``--seconds`` (always at least one pass).  With ``--trace 0`` it
reports the medians over those passes of the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes (at least one of
each) and reports the per-layer metrics of the traced passes plus the
tracing overhead.  The last line of standard output is the result object;
the line before it records the environment.  Full per-pass records go to
``.benchrun/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
PASS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 165.0  # the whole run must end well inside 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that are times are medians over traced passes; the
# counts must repeat exactly between passes of one seed
LAYER_UNITS = {
    "solver.eigensolve_calls": "count",
    "solver.eigensolve_s": "s",
    "solver.eigensolve_dense_calls": "count",
    "solver.eigensolve_dense_s": "s",
    "solver.eigensolve_iter_calls": "count",
    "solver.eigensolve_iter_s": "s",
    "solver.max_N": "count",
    "solver.gc_calls": "count",
    "solver.gc_s": "s",
    "solver.gc_self_s": "s",
    "solver.solves_per_gc": "ratio",
    "solver.ground_state_calls": "count",
    "solver.ground_state_s": "s",
    "solver.solves_per_ground_state": "ratio",
    "bounds.bound_calls": "count",
    "bounds.bound_s": "s",
    "bounds.self_s": "s",
    "bounds.cutoff_calls": "count",
    "bounds.cutoff_s": "s",
    "bounds.norms_per_bound": "ratio",
    "potentials.norm_calls": "count",
    "potentials.norm_s": "s",
    "potentials.truncated_norm_calls": "count",
    "potentials.truncated_norm_s": "s",
    "specfun.green_calls": "count",
    "specfun.green_s": "s",
    "specfun.green_reuse": "ratio",
    "cli.main_s": "s",
    "cli.rows": "count",
    "cli.error_rows": "count",
    "cli.sweep_cpu_per_wall": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class RunFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, out: Path, smoke: bool,
              timeout: float) -> dict:
    """Start one child process, wait for it, return its result record."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(out)]
    spawn = time.perf_counter()
    argv.append(repr(spawn))
    if smoke:
        argv.append("smoke")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise RunFailed(f"{mode} process of {workload} exceeded {timeout:.0f} s") from None
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0 or not out.is_file():
        raise RunFailed(f"{mode} process of {workload} exited with {proc.returncode}: "
                        f"{err.decode(errors='replace').strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _reap_group(pgid: int) -> None:
    """Stop anything the child left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            rundir: Path) -> dict:
    t_start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    setups, passes, traced = [], [], []
    for i in range(SETUP_PROBES):
        rec = run_child(workload, seed, "setup", rundir / f"setup{i}.json", smoke, remaining())
        setups.append(rec["setup_s"])
    longest = 0.0
    k = 0
    while True:
        mode = "trace" if trace and k % 2 == 1 else "pass"
        p0 = time.perf_counter()
        rec = run_child(workload, seed, mode, rundir / f"{mode}{k}.json", smoke, min(
            PASS_TIMEOUT_S, remaining()))
        longest = max(longest, time.perf_counter() - p0)
        (traced if mode == "trace" else passes).append(rec)
        setups.append(rec["setup_s"])
        k += 1
        elapsed = time.perf_counter() - t_start
        if trace and not traced:
            continue
        if elapsed + longest > seconds or elapsed + longest > RUN_LIMIT_S - 10.0:
            break
    return {"setup_s": setups, "passes": passes, "traced": traced}


def summarize(raw: dict, trace: bool) -> dict:
    passes, traced = raw["passes"], raw["traced"]
    records = passes + traced
    outcomes = [o for rec in records for o in rec["outcomes"]]
    failed = [o for o in outcomes if o["problems"]]
    metrics = {}
    if not trace:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        layers = [r["layers"] for r in traced]
        for rec, lay in zip(traced, layers):
            lay["cli.rows"] = rec["csv_rows"]
            lay["cli.error_rows"] = rec["csv_error_rows"]
            sweep = rec["sweep"]
            nproc = rec["env"]["nproc"] or 1
            lay["cli.sweep_cpu_per_wall"] = (
                sweep["cpu_s"] / (sweep["wall_s"] * nproc) if sweep else 0.0
            )
            lay["trace.wall_s"] = rec["wall_s"]
        untraced_wall = statistics.median(r["wall_s"] for r in passes)
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = statistics.median(lay["trace.wall_s"] for lay in layers) - untraced_wall
            elif unit == "count":
                counts = {lay[name] for lay in layers}
                if len(counts) != 1:
                    failed.append({"name": name, "problems": [f"count varies: {counts}"]})
                value = layers[0][name]
            else:
                value = statistics.median(lay[name] for lay in layers)
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, invariant checks only (for the benchmark's tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "salpeter_bounds" / "__init__.py").is_file():
        print(f"benchmark: no salpeter_bounds source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rundir = ROOT / ".benchrun" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.smoke, rundir)
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    result = summarize(raw, bool(args.trace))
    records = raw["passes"] + raw["traced"]
    failed_frac = result["failed"] / result["attempted"]
    env = dict(records[0]["env"], failed_frac=failed_frac, passes=len(raw["passes"]),
               traced_passes=len(raw["traced"]), setup_samples=len(raw["setup_s"]))
    with open(rundir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "result": result, "raw": raw}, fh)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
