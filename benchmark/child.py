"""One workload pass in a fresh process, so every cache starts cold.

    python3 benchmark/child.py <workload> <seed> <mode> <out.json> <spawn time>

``mode`` is ``setup`` (import the package and generate the inputs, nothing
else), ``pass`` (also run the workload) or ``trace`` (run it with spans
recorded).  ``spawn time`` is the parent's ``time.perf_counter()`` just
before it started this process; perf_counter is the system-wide monotonic
clock here, so the difference to this process's reading is the set-up time
including interpreter start.  Add ``smoke`` as a last argument for the tiny
input set used by the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_package():
    """Import salpeter_bounds from this checkout's src/, never from elsewhere."""
    if not (SRC / "salpeter_bounds" / "__init__.py").is_file():
        raise SystemExit(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import salpeter_bounds
    from salpeter_bounds import cli  # noqa: F401 - makes sb.cli available

    if Path(salpeter_bounds.__file__).resolve().parent != (SRC / "salpeter_bounds").resolve():
        raise SystemExit(f"imported {salpeter_bounds.__file__}, not the checkout's source")
    return salpeter_bounds


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # noqa: BLE001 - the record notes what it could not read
        blas = {"error": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_workload(workload, inputs, check_reference, outdir=None):
    """Runs one pass and returns its timings, outcomes and reference data."""
    import workloads as wl

    sb = import_package()
    outdir = Path(outdir or ROOT / ".benchrun" / "reference")
    outdir.mkdir(parents=True, exist_ok=True)
    ref = wl.load_reference()[workload] if check_reference else None
    outcomes, csv_texts, sweep = [], {}, {}

    t0, c0 = time.perf_counter(), _cpu()
    if workload == "fig2_pool":
        for name, argv, csv_path, spec in wl.fig2_pool_commands(inputs, outdir):
            w0, k0 = time.perf_counter(), _cpu()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    rc = sb.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            w1, k1 = time.perf_counter(), _cpu()
            text = csv_path.read_text(encoding="utf-8") if csv_path.is_file() else ""
            csv_texts[csv_path.name] = text
            if spec is None:
                outs = wl.fig2_outcomes(inputs, rc, text)
                sweep = {"wall_s": w1 - w0, "cpu_s": k1 - k0}
            else:
                outs = [wl.solve_outcome(name, spec, rc, text)]
            if ref is not None:
                wl.check_csv_bytes(outs[-1], csv_path.name, text, ref)
            outcomes.extend(outs)
    else:
        ops = wl.gc_oracle_ops if workload == "gc_oracle" else wl.bounds_quad_ops
        for name, thunk in ops(sb, inputs):
            outcomes.append(wl.run_op(name, thunk))
        if ref is not None:
            wl.check_against_reference(workload, outcomes, ref)
    wall, cpu = time.perf_counter() - t0, _cpu() - c0

    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "sweep": sweep,
        "outcomes": [o.record() for o in outcomes],
        "csv_rows": sum(len(wl.parse_csv(t)[1]) for t in csv_texts.values()),
        "csv_error_rows": sum(len(wl.parse_csv(t)[2]) for t in csv_texts.values()),
        "reference_entry": wl.reference_entry(workload, outcomes, csv_texts),
    }


def main(argv) -> int:
    workload, seed, mode, out_path, spawn_t = argv[:5]
    smoke = argv[5:] == ["smoke"]
    sys.path.insert(0, str(HERE))
    import workloads as wl

    sb = import_package()
    inputs = wl.make_inputs(workload, int(seed), smoke=smoke)
    setup_s = time.perf_counter() - float(spawn_t)
    result = {"setup_s": setup_s, "pid": os.getpid()}
    if mode != "setup":
        outdir = Path(out_path).with_suffix(".d")
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            outdir.mkdir(parents=True, exist_ok=True)
            tracer = Tracer(outdir)
            tracer.install(sb)
        run = run_workload(workload, inputs, check_reference=int(seed) == 0 and not smoke,
                           outdir=outdir)
        run.pop("reference_entry")
        result.update(run)
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            from tracer import layer_metrics

            tracer.uninstall()
            spans = tracer.collect()
            result["layers"] = layer_metrics(spans)
            result["spans"] = len(spans)
            with open(outdir / "spans.json", "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
        result["env"] = environment()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
