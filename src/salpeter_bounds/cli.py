"""Command-line front end: single computations and the fig1/fig2 CSV sweeps.

Each command takes ``--config`` and only the options it reads; P stands for
``--potential --g --R --m --alpha`` and Q for ``--quad-abs-tol --quad-rel-tol``:

  bound3d, bound1d  P Q --q --out
  critical          P --method --L --N --g-root-tol Q --out
  confining         P --dim Q --out
  solve             P --dim --L --N --eigen-tol --out
  fig1              --alpha --beta-grid --potentials --N --g-root-tol Q
                    --workers --out
  fig2              --R --alpha --g-list --m-grid --N --eigen-tol Q --workers --out

``fig1`` compares the analytic critical-coupling bound of exp/pexp/sing with
the oracle, ``fig2`` the cutoff mass bound of the logarithmic potential.
``--g-root-tol`` is the required relative stability of the oracle's critical
coupling under grid doubling;
``--eigen-tol``, the ground state's N -> 2N drift, is read by solve and fig2.
``--q`` prints one fixed-exponent bound and no CSV, so it excludes ``--out``.
Flags override a ``key = value`` config file, which may carry keys a given
command does not use (checked, then ignored).  A malformed or out-of-range
option value exits with status 2 and a one-line message, whether it comes
from a flag, the config file or the environment; so does an unreadable or
malformed ``table:<path>`` file.
CSVs carry ``#`` comments with a schema version, the units and every option
the command takes but ``--out``/``--workers``; identical configurations
rerun byte-identically.  ``--out -`` writes the CSV to stdout and no report
lines.  Failed sweep points become ``# error:`` lines and a nonzero exit
status.  A reader that closes stdout early (``| head -n 1``) ends the
command with status 1 and nothing on stderr.  Sweep workers: --workers,
else SALPETER_BOUNDS_WORKERS, else (unset or empty) all cores; both take
only an integer >= 1, and a sweep starts no more processes than it has
rows.  Rows keep input order.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import string
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NoReturn

import numpy as np

from . import bounds, potentials, solver
from .errors import DomainError, PotentialClassError, SalpeterBoundsError
from .specfun import QuadratureSpec

SCHEMA_VERSION = 1
_UNITS = "GeV natural units (hbar=c=1); r,R,L in GeV^-1; masses/energies in GeV"


def positive_int(text: str) -> int:
    """An integer >= 1: the range of ``--workers``."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} < 1")
    return value


@dataclass(frozen=True)
class Option:
    """One option: flag ``--key`` (``_`` written ``-``), config-file key ``key``."""

    key: str
    default: object
    type: type = str
    choices: tuple | None = None
    help: str = ""

    def parse(self, text: str):
        """The typed value of a config-file entry, checked like the flag."""
        try:
            value = self.type(text)
            if self.choices is None or value in self.choices:
                return value
        except ValueError:
            pass
        allowed = " | ".join(map(_fmt, self.choices)) if self.choices else self.type.__name__
        raise ValueError(f"invalid value {text!r} for {self.key!r} (expected {allowed})")


OPTIONS = {opt.key: opt for opt in (
    Option("potential", "exp", help="exp | pexp | sing | log | table:<path>"),
    Option("g", 1.0, float, help="coupling strength (> 0)"),
    Option("R", 1.0, float, help="range in GeV^-1 (> 0)"),
    Option("m", 1.0, float, help="particle mass in GeV (> 0)"),
    Option("alpha", 2.0, float, (1.0, 2.0), help="kinetic prefactor, 1 or 2"),
    Option("dim", 3, int, (1, 3), help="spatial dimension"),
    Option("q", None, float, help="fix the exponent instead of optimizing"),
    Option("method", "both", str, ("bound", "exact", "both"), help="what to compute"),
    Option("L", None, float, help="oracle box size in GeV^-1 (default 20*max(R, 1/m))"),
    Option("N", 256, int, help="oracle starting grid count"),
    Option("eigen_tol", 1e-6, float, help="relative grid self-convergence of the oracle"),
    Option("g_root_tol", 1e-6, float,
           help="required stability of the oracle critical coupling under grid doubling"),
    Option("quad_abs_tol", 1e-10, float, help="absolute quadrature tolerance"),
    Option("quad_rel_tol", 1e-10, float, help="relative quadrature tolerance"),
    Option("beta_grid", "0.2:5:9", help="a:b:n geometric grid of beta=m*R"),
    Option("g_list", "0.1,0.5,2", help="comma list of couplings"),
    Option("m_grid", "0.4:4:10", help="a:b:n linear grid of masses (GeV)"),
    Option("potentials", "exp,pexp,sing", help="comma list from exp,pexp,sing"),
    Option("workers", None, positive_int,
           help="processes, an integer >= 1 ($SALPETER_BOUNDS_WORKERS, else all cores)"),
    Option("out", None, help="CSV output path"),
)}


def _usage_error(message: str) -> NoReturn:
    """Exit with argparse's status for a bad flag, 2, and a one-line message."""
    print(f"salpeter-bounds: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)  # exact round-trip


def _make_potential(opts) -> potentials.PotentialModel:
    spec = opts["potential"]
    if spec.startswith("table:"):
        return potentials.load_table(spec[len("table:"):], g=opts["g"])
    makers = {"exp": potentials.exponential, "pexp": potentials.power_exponential,
              "sing": potentials.singular, "log": potentials.logarithmic}
    if spec not in makers:
        raise DomainError(f"unknown potential {spec!r} (use exp|pexp|sing|log|table:<path>)")
    return makers[spec](opts["g"], opts["R"])


def _quad_spec(opts) -> QuadratureSpec:
    return QuadratureSpec(abs_tol=opts["quad_abs_tol"], rel_tol=opts["quad_rel_tol"])


def _solver_cfg(opts) -> solver.SolverConfig:
    return solver.SolverConfig(m=opts["m"], alpha=opts["alpha"], dimension=opts["dim"],
                               L=opts["L"], N=opts["N"], eigen_tol=opts["eigen_tol"])


def _parse_grid(text, kind) -> list[float]:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        _usage_error(f"bad grid {text!r}; expected a:b:n")
    if n < 1 or not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or (n > 1 and b <= a):
        _usage_error(f"grid {text!r} must be finite, positive, increasing, n >= 1")
    if n == 1:
        return [a]
    grid = np.geomspace(a, b, n) if kind == "geom" else np.linspace(a, b, n)
    return [float(v) for v in grid]


def _parse_list(text) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        _usage_error(f"bad list {text!r}; expected numbers separated by commas")
    increasing = all(b > a for a, b in zip(values, values[1:]))  # False at a nan
    if not (values and values[0] > 0 and math.isfinite(values[-1]) and increasing):
        _usage_error(f"list {text!r} must be nonempty, finite, positive and strictly increasing")
    return values


# Point functions: one row each, as a dict holding at least the CSV columns.
# A single-shot command's point takes the options and the potential that
# _check_options built from them, so a table file is read once; a sweep's
# point takes one job and builds its own.  They stay module-level so the sweep
# pool can pickle them, and they look up bounds.* and solver.* at call time,
# where tracing may have replaced them.


def _bound_point(opts, V) -> dict:
    spec = _quad_spec(opts)
    m, alpha, q, dim = opts["m"], opts["alpha"], opts["q"], opts["dim"]
    if q is not None:
        value = (bounds.mass_bound_3d if dim == 3 else bounds.mass_bound_1d)(V, m, alpha, q, spec)
        return {"q": q, "fixed_bound": value, "vacuous_note": "  [vacuous]" if value < 0 else ""}
    opt = bounds.optimize_mass_bound_3d if dim == 3 else bounds.optimize_mass_bound_1d
    rep = opt(V, m, alpha, spec)
    return dict(vars(rep), norm=rep.norm_value, trivial_bound=rep.trivial_limit_bound,
                vacuous=int(rep.vacuous), vacuous_note="  [vacuous]" if rep.vacuous else "")


def _critical_point(opts, V) -> dict:
    m, alpha, method = opts["m"], opts["alpha"], opts["method"]
    row = dict(beta=m * V.R, potential=opts["potential"], gc_lower_bound=None, gc_exact=None)
    if method in ("bound", "both"):
        row["gc_lower_bound"] = bounds.critical_coupling_bound_3d(V, m, alpha, _quad_spec(opts))
    if method in ("exact", "both"):
        # the r^(-1/2) core converges only algebraically in the grid spacing;
        # its residual (~1e-4 relative) is negligible against the bound/exact gap
        tol = opts["g_root_tol"]
        stability = max(tol, 1e-3) if opts["potential"] == "sing" else None
        row["gc_exact"] = solver.critical_coupling_exact(
            V, cfg=_solver_cfg(opts), g_tol_rel=tol, grid_stability_rel=stability).coupling
    if method == "both":
        row["ratio"] = row["gc_lower_bound"] / row["gc_exact"]
    return row


def _confining_point(opts, V) -> dict:
    res = bounds.confining_bound(V, opts["m"], opts["alpha"], _quad_spec(opts), dim=opts["dim"])
    if res.vacuous:
        raise PotentialClassError("bound vacuous: no admissible cutoff at any exponent")
    return dict(vars(res), at_cap=int(res.at_cap), cap_note="  [at cap]" if res.at_cap else "")


def _solve_point(opts, V) -> dict:
    run = solver.ground_state_3d_swave if opts["dim"] == 3 else solver.ground_state_1d
    return vars(run(V, _solver_cfg(opts)))


def _fig1_point(job) -> dict:
    opts = dict(job, m=job["beta"])  # R = 1, m = beta
    return _critical_point(opts, _make_potential(opts))


def _fig2_point(job) -> dict:
    V = _make_potential(job)
    res = bounds.confining_bound(V, job["m"], job["alpha"], _quad_spec(job), dim=3)
    exact = solver.ground_state_3d_swave(V, _solver_cfg(job)).mass
    return {"g": job["g"], "m": job["m"], "beta": job["m"] * job["R"], "M_exact": exact,
            "M_lower_bound_Cstar": res.c_star, "q_star": res.q_star}


def _fig1_jobs(opts) -> list[dict]:
    kinds = [k.strip() for k in opts["potentials"].split(",") if k.strip()]
    if not kinds:
        _usage_error("fig1 potentials must name at least one of exp,pexp,sing")
    for kind in kinds:
        if kind not in ("exp", "pexp", "sing"):
            _usage_error(f"fig1 potentials must be from exp,pexp,sing; got {kind!r}")
    return [{"beta": beta, "potential": kind}
            for beta in _parse_grid(opts["beta_grid"], "geom") for kind in kinds]


def _fig2_jobs(opts) -> list[dict]:
    return [{"g": g, "m": m}
            for g in _parse_list(opts["g_list"]) for m in _parse_grid(opts["m_grid"], "lin")]


@dataclass(frozen=True)
class Command:
    """A subcommand; its CSV schema bears its name.  ``options`` are in echo
    order; ``defaults`` also fix options it does not take; ``jobs`` makes a
    sweep of per-row parameters merged over the options, and then ``point``
    takes one job, else the options and their potential; ``lines`` template a
    single-shot row's stdout, a line printing if the row has all its fields."""

    help: str
    options: tuple[str, ...]
    point: Callable[..., dict]
    header: tuple[str, ...]
    lines: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)
    jobs: Callable[[dict], list[dict]] | None = None


_POTENTIAL = ("potential", "g", "R", "m", "alpha")
_QUAD = ("quad_abs_tol", "quad_rel_tol")

COMMANDS = {
    **{f"bound{d}d": Command(
        f"optimized {d}D ground-state mass bound", _POTENTIAL + _QUAD + ("q", "out"),
        _bound_point, ("q_opt", "norm", "green_norm", "mass_bound", "energy_bound",
                       "trivial_bound", "vacuous"), (
            "mass bound at q={q}: M >= {fixed_bound} GeV{vacuous_note}",
            "dimension:        {dimension}",
            "alpha, m:         {alpha}, {m} GeV",
            "optimal q:        {q_opt}",
            "||V^-||_q/(q-1):  {norm}",
            "||G||_q:          {green_norm}",
            "mass bound:       M >= {mass_bound} GeV{vacuous_note}",
            "binding bound:    E >= {energy_bound} GeV",
            "q->1 trivial:     M >= {trivial_bound} GeV"), defaults={"dim": d})
       for d in (3, 1)},
    "critical": Command(
        "critical coupling: analytic lower limit / oracle",
        _POTENTIAL + ("method", "L", "N", "g_root_tol") + _QUAD + ("out",),
        _critical_point, ("beta", "gc_lower_bound", "gc_exact"), (
            "beta = m*R:       {beta}",
            "g_c lower bound:  {gc_lower_bound}",
            "g_c exact:        {gc_exact}",
            "bound/exact:      {ratio}")),
    "confining": Command(
        "cutoff-optimized bound for confining potentials",
        _POTENTIAL + ("dim",) + _QUAD + ("out",),
        _confining_point, ("q_star", "c_star", "mass_bound", "residual", "at_cap"), (
            "optimal q*:       {q_star}",
            "optimal C*:       {c_star} GeV",
            "mass bound:       M >= {mass_bound} GeV",
            "root residual:    {residual}{cap_note}")),
    "solve": Command(
        "pseudospectral oracle ground state", _POTENTIAL + ("dim", "L", "N", "eigen_tol", "out"),
        _solve_point, ("mass", "binding_energy", "grid_count", "box_size",
                       "refinement_delta_rel"), (
            "ground-state mass:   M = {mass} GeV",
            "binding energy:      E = {binding_energy} GeV",
            "grid, box:           N = {grid_count}, L = {box_size} GeV^-1",
            "N->2N drift:         {refinement_delta} GeV (relative {refinement_delta_rel})",
            "boundary amplitude:  {boundary_amplitude}")),
    "fig1": Command(
        "critical-coupling sweep: exact vs lower bound",
        ("alpha", "beta_grid", "potentials", "N", "g_root_tol") + _QUAD + ("workers", "out"),
        _fig1_point, ("beta", "potential", "gc_exact", "gc_lower_bound", "ratio"),
        defaults={"g": 1.0, "R": 1.0, "method": "both", "out": "fig1.csv"}, jobs=_fig1_jobs),
    "fig2": Command(
        "confining sweep: exact mass vs cutoff bound",
        ("R", "alpha", "g_list", "m_grid", "N", "eigen_tol") + _QUAD + ("workers", "out"),
        _fig2_point, ("g", "m", "beta", "M_exact", "M_lower_bound_Cstar", "q_star"),
        defaults={"potential": "log", "R": 2.5, "out": "fig2.csv"}, jobs=_fig2_jobs),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salpeter-bounds", description="Lower bounds and a pseudospectral oracle for "
        "the semirelativistic (spinless Salpeter) ground state.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key in cmd.options:
            opt = OPTIONS[key]
            default = cmd.defaults.get(key, opt.default)
            text = opt.help if default is None else f"{opt.help} (default {default})"
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.type,
                           choices=opt.choices, help=text)
        p.add_argument("--config", help="key = value file; flags override it")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        _usage_error(f"cannot read config file {path}: {exc.strerror}")
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTIONS:
            _usage_error(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = OPTIONS[key].parse(value)
        except ValueError as exc:
            _usage_error(f"{path}:{lineno}: {exc}")
    return out


def _effective_options(cmd: Command, args: argparse.Namespace) -> dict:
    opts = {key: opt.default for key, opt in OPTIONS.items()}
    opts.update(cmd.defaults)
    given = _load_config_file(args.config) if args.config else {}
    given.update((key, value) for key, value in vars(args).items() if value is not None)
    opts.update((key, value) for key, value in given.items() if key in cmd.options)
    if "workers" in cmd.options and opts["workers"] is None:
        env = os.environ.get("SALPETER_BOUNDS_WORKERS", "")
        try:
            opts["workers"] = positive_int(env) if env else os.cpu_count() or 1
        except ValueError:
            _usage_error(f"SALPETER_BOUNDS_WORKERS={env!r} is not an integer >= 1")
    return opts


def _check_options(opts) -> potentials.PotentialModel:
    """Build the potential, solver config and quadrature spec that the points
    use, and check ``--q``, so that an out-of-range value is a usage error
    before any point runs; returns the potential."""
    try:
        V = _make_potential(opts)
        _solver_cfg(opts), _quad_spec(opts)
        if not 0.0 < opts["g_root_tol"] < math.inf:
            raise DomainError("root tolerance must be positive and finite")
        if opts["q"] is not None:
            if opts["out"] is not None:
                raise DomainError("--q prints one fixed-exponent bound and no CSV; "
                                  "drop --q or --out")
            bounds._check_q(opts["q"], opts["dim"])
    except DomainError as exc:
        _usage_error(str(exc))
    return V


def _write_csv(path, schema, config_line, header, rows, error_lines):
    lines = [f"# salpeter-bounds CSV schema: {schema}/{SCHEMA_VERSION}",
             f"# units: {_UNITS}", f"# config: {config_line}"]
    lines.extend(f"# error: {msg}" for msg in error_lines)
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _run_sweep(jobs, worker, workers: int):
    """Evaluate jobs, preserving input order; exceptions become per-row errors.
    The pool gets at most one process per job; one process runs serially."""
    workers = min(workers, len(jobs))
    results = []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            calls = [pool.submit(worker, job).result for job in jobs]
        else:
            calls = [functools.partial(worker, job) for job in jobs]
        for job, call in zip(jobs, calls):
            try:
                results.append((job, call(), None))
            except Exception as exc:  # noqa: BLE001 - per-row fault isolation
                results.append((job, None, f"{type(exc).__name__}: {exc}"))
    return results


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    opts = _effective_options(cmd, args)
    V = _check_options(opts)
    try:
        if cmd.jobs is None:
            params, results = [{}], [(opts, cmd.point(opts, V), None)]
        else:
            params = cmd.jobs(opts)
            results = _run_sweep([{**opts, **p} for p in params], cmd.point, opts["workers"])
    except SalpeterBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [row for _, row, err in results if err is None]
    errors = [" ".join(f"{k}={_fmt(v)}" for k, v in p.items()) + f": {err}"
              for p, (_, _, err) in zip(params, results) if err is not None]
    try:
        for row in ([] if opts["out"] == "-" else rows):  # with --out -, stdout is the CSV alone
            for template in cmd.lines:
                fields = [f for _, f, _, _ in string.Formatter().parse(template) if f]
                if all(row.get(f) is not None for f in fields):
                    print(template.format_map({f: _fmt(row[f]) for f in fields}))
        if opts["out"] is not None:
            echo = " ".join(f"{k}={_fmt(opts[k])}" for k in cmd.options
                            if k not in ("out", "workers") and opts[k] is not None)
            table = [[math.nan if row[k] is None else row[k] for k in cmd.header] for row in rows]
            _write_csv(opts["out"], args.command, echo, cmd.header, table, errors)
        sys.stdout.flush()  # a closed pipe raises here, inside the guard
    except BrokenPipeError:
        # the reader closed stdout: the interpreter flushes stdout at exit, so
        # point it at devnull, or that flush raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
