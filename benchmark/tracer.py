"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function in the modules whose callers
look it up (``bounds.negative_part_norm`` is the name ``bounds`` calls, for
example) with a wrapper that records a span: name, start, end, parent and a
few attributes.  Spans stay in memory and are analysed when the pass ends.

Sweep workers forked by the CLI's process pool inherit the wrappers.  A
worker appends its finished spans to ``spans-<pid>.jsonl`` in the spool
directory each time it returns to the depth it was forked at (once per
sweep point), and ``collect`` merges those files.  Workers started by spawn
or forkserver would not inherit the wrappers; their spans are then absent.

Per-point functions (``evaluate``, the Bessel kernels) are not wrapped: at
hundreds of thousands of calls per pass the wrapper would dominate them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


def _eigensolve_attrs(args, kwargs):
    N = args[4] if len(args) > 4 else kwargs["N"]
    dense_max = args[5] if len(args) > 5 else kwargs.get("dense_max", 2048)
    return {"N": int(N), "dense": bool(N <= dense_max)}


def _green_attrs(dim):
    def attrs(args, kwargs):
        q = args[0] if args else kwargs["q"]
        return {"key": [float(q), dim]}

    return attrs


def traced_functions(sb):
    """(span name, function name, modules to patch, attrs) for every traced
    function of the imported package ``sb``."""
    solver, bounds, cli = sb.solver, sb.bounds, sb.cli
    entries = [
        ("solver.eigensolve", "solve_once_3d", [solver], _eigensolve_attrs),
        ("solver.eigensolve", "solve_once_1d", [solver], _eigensolve_attrs),
        ("solver.gc", "critical_coupling_exact", [solver, sb], None),
        ("solver.ground_state", "ground_state_3d_swave", [solver, sb], None),
        ("solver.ground_state", "ground_state_1d", [solver, sb], None),
        ("potentials.norm", "negative_part_norm", [bounds], None),
        ("potentials.truncated_norm", "truncated_negative_norm", [bounds], None),
        ("specfun.green", "green_constant_3d", [bounds], _green_attrs(3)),
        ("specfun.green", "green_constant_1d", [bounds], _green_attrs(1)),
        ("bounds.cutoff", "cutoff_for_exponent", [bounds], None),
        ("cli.main", "main", [cli], None),
    ]
    for name in ("mass_bound_3d", "mass_bound_1d", "optimize_mass_bound_3d",
                 "optimize_mass_bound_1d", "binding_energy_bound_3d",
                 "critical_coupling_bound_3d", "confining_bound"):
        entries.append(("bounds.bound", name, [bounds, sb], None))
    return entries


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0
        self.fork_depth: int | None = None  # set in forked workers
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.fork_depth = len(self.stack)

    def install(self, sb) -> None:
        for span_name, fn_name, modules, attrs in traced_functions(sb):
            orig = getattr(modules[0], fn_name)
            wrapper = self._wrap(orig, span_name, attrs)
            for module in modules:
                if getattr(module, fn_name) is orig:
                    self._patched.append((module, fn_name, orig))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, orig in reversed(self._patched):
            setattr(module, fn_name, orig)
        self._patched.clear()

    def _wrap(self, fn, span_name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count += 1
            sid = f"{tracer.pid}.{tracer.count}"
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                span = {"id": sid, "parent": parent, "name": span_name,
                        "start": start, "end": end}
                if attrs is not None:
                    span.update(attrs(args, kwargs))
                tracer.spans.append(span)
                if tracer.fork_depth is not None and len(tracer.stack) == tracer.fork_depth:
                    tracer._spool()

        return wrapper

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus those spooled by forked workers."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None:
            children.setdefault(p["id"], []).append(
                (max(s["start"], p["start"]), min(s["end"], p["end"]))
            )
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one pass (see README.md for the list)."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def has_ancestor(s, name):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == name:
                return True
            p = by_id.get(p["parent"])
        return False

    def under(child_name, parent_name):
        return sum(1 for s in named(child_name)
                   if by_id.get(s["parent"], {}).get("name") == parent_name)

    m: dict[str, float] = {}
    eig = named("solver.eigensolve")
    dense = [s for s in eig if s["dense"]]
    iterative = [s for s in eig if not s["dense"]]
    m["solver.eigensolve_calls"] = len(eig)
    m["solver.eigensolve_s"] = sum(map(dur, eig))
    m["solver.eigensolve_dense_calls"] = len(dense)
    m["solver.eigensolve_dense_s"] = sum(map(dur, dense))
    m["solver.eigensolve_iter_calls"] = len(iterative)
    m["solver.eigensolve_iter_s"] = sum(map(dur, iterative))
    m["solver.max_N"] = max((s["N"] for s in eig), default=0)

    gc = named("solver.gc")
    m["solver.gc_calls"] = len(gc)
    m["solver.gc_s"] = sum(map(dur, gc))
    m["solver.gc_self_s"] = sum(own[s["id"]] for s in gc)
    m["solver.solves_per_gc"] = under("solver.eigensolve", "solver.gc") / len(gc) if gc else 0.0

    gs = named("solver.ground_state")
    m["solver.ground_state_calls"] = len(gs)
    m["solver.ground_state_s"] = sum(map(dur, gs))
    m["solver.solves_per_ground_state"] = (
        under("solver.eigensolve", "solver.ground_state") / len(gs) if gs else 0.0
    )

    bound = named("bounds.bound")
    outer = [s for s in bound if not has_ancestor(s, "bounds.bound")]
    cutoff = named("bounds.cutoff")
    norms = named("potentials.norm")
    tnorms = named("potentials.truncated_norm")
    m["bounds.bound_calls"] = len(outer)
    m["bounds.bound_s"] = sum(map(dur, outer))
    m["bounds.self_s"] = sum(own[s["id"]] for s in bound + cutoff)
    m["bounds.cutoff_calls"] = len(cutoff)
    m["bounds.cutoff_s"] = sum(map(dur, cutoff))
    m["bounds.norms_per_bound"] = (len(norms) + len(tnorms)) / len(outer) if outer else 0.0
    m["potentials.norm_calls"] = len(norms)
    m["potentials.norm_s"] = sum(map(dur, norms))
    m["potentials.truncated_norm_calls"] = len(tnorms)
    m["potentials.truncated_norm_s"] = sum(map(dur, tnorms))

    green = named("specfun.green")
    m["specfun.green_calls"] = len(green)
    m["specfun.green_s"] = sum(map(dur, green))
    distinct = {tuple(s["key"]) for s in green}
    m["specfun.green_reuse"] = 1.0 - len(distinct) / len(green) if green else 0.0

    main = named("cli.main")
    m["cli.main_s"] = sum(map(dur, main))
    return m
