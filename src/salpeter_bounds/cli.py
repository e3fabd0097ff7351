"""Command-line front end.

Subcommands: ``bound3d``, ``bound1d``, ``critical``, ``confining``, ``solve``
for single computations, and ``fig1``/``fig2`` for the CSV sweeps comparing
analytic lower bounds against the pseudospectral oracle (critical couplings
of the three short-range test potentials, and ground-state masses of the
logarithmic confining potential).

Options come from flags, optionally backed by a ``key = value`` config file
(flags win).  Sweep outputs are UTF-8 CSV with ``#`` header comments carrying
a schema version, the units, and the full effective configuration; reruns
with identical configuration produce byte-identical files.  Failed sweep
points are recorded as comment lines and the exit status is nonzero, but
completed rows are still written.

The worker count for sweeps comes from --workers or the
SALPETER_BOUNDS_WORKERS environment variable (default: all cores); rows are
emitted in input order regardless of completion order.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bounds, potentials, solver
from .errors import SalpeterBoundsError
from .specfun import QuadratureSpec

SCHEMA_VERSION = 1
_UNITS = "GeV natural units (hbar=c=1); r,R,L in GeV^-1; masses/energies in GeV"

_DEFAULTS = {
    "potential": "exp",
    "g": 1.0,
    "R": 1.0,
    "m": 1.0,
    "alpha": 2.0,
    "dim": 3,
    "q": None,
    "method": "both",
    "L": None,
    "N": 256,
    "eigen_tol": 1e-6,
    "g_bisect_tol": 1e-6,
    "quad_abs_tol": 1e-10,
    "quad_rel_tol": 1e-10,
    "beta_grid": "0.2:5:9",
    "g_list": "0.1,0.5,2",
    "m_grid": "0.4:4:10",
    "potentials": "exp,pexp,sing",
    "workers": None,
    "out": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salpeter-bounds",
        description="Lower bounds and a pseudospectral oracle for the "
        "semirelativistic (spinless Salpeter) ground state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_potential=True):
        if with_potential:
            p.add_argument(
                "--potential",
                help="exp | pexp | sing | log | table:<path> (default exp)",
            )
            p.add_argument("--g", type=float, help="coupling strength (> 0)")
            p.add_argument("--R", type=float, help="range in GeV^-1 (> 0)")
        p.add_argument("--m", type=float, help="particle mass in GeV (> 0)")
        p.add_argument("--alpha", type=float, choices=(1.0, 2.0), help="1 or 2")
        p.add_argument("--quad-abs-tol", type=float, dest="quad_abs_tol")
        p.add_argument("--quad-rel-tol", type=float, dest="quad_rel_tol")
        p.add_argument("--eigen-tol", type=float, dest="eigen_tol")
        p.add_argument("--g-bisect-tol", type=float, dest="g_bisect_tol")
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("bound3d", help="optimized 3D ground-state mass bound")
    add_common(p)
    p.add_argument("--q", type=float, help="fix the exponent instead of optimizing")

    p = sub.add_parser("bound1d", help="optimized 1D ground-state mass bound")
    add_common(p)
    p.add_argument("--q", type=float, help="fix the exponent instead of optimizing")

    p = sub.add_parser("critical", help="critical coupling: analytic lower limit / oracle")
    add_common(p)
    p.add_argument("--method", choices=("bound", "exact", "both"))
    p.add_argument("--L", type=float, help="oracle box size (GeV^-1)")
    p.add_argument("--N", type=int, help="oracle starting grid count")

    p = sub.add_parser("confining", help="cutoff-optimized bound for confining potentials")
    add_common(p)
    p.add_argument("--dim", type=int, choices=(1, 3))

    p = sub.add_parser("solve", help="pseudospectral oracle ground state")
    add_common(p)
    p.add_argument("--dim", type=int, choices=(1, 3))
    p.add_argument("--L", type=float, help="box size (GeV^-1)")
    p.add_argument("--N", type=int, help="starting grid count")

    p = sub.add_parser("fig1", help="critical-coupling sweep: exact vs lower bound")
    add_common(p, with_potential=False)
    p.add_argument("--beta-grid", dest="beta_grid", help="a:b:n geometric grid of beta=m*R")
    p.add_argument("--potentials", help="comma list from exp,pexp,sing")
    p.add_argument("--N", type=int, help="oracle starting grid count")
    p.add_argument("--workers", type=int)

    p = sub.add_parser("fig2", help="confining sweep: exact mass vs cutoff bound")
    add_common(p, with_potential=False)
    p.add_argument("--R", type=float, help="logarithmic range (default 2.5 GeV^-1)")
    p.add_argument("--g-list", dest="g_list", help="comma list of couplings")
    p.add_argument("--m-grid", dest="m_grid", help="a:b:n linear grid of masses (GeV)")
    p.add_argument("--N", type=int, help="oracle starting grid count")
    p.add_argument("--workers", type=int)

    return parser


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _DEFAULTS:
                raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


_TYPES = {
    "g": float,
    "R": float,
    "m": float,
    "alpha": float,
    "dim": int,
    "q": float,
    "L": float,
    "N": int,
    "eigen_tol": float,
    "g_bisect_tol": float,
    "quad_abs_tol": float,
    "quad_rel_tol": float,
    "workers": int,
}


def _effective_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if args.command == "fig2":
        opts["R"] = 2.5  # the standard logarithmic-potential range
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            opts[key] = _TYPES[key](value) if key in _TYPES else value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        opts[key] = value
    if opts["workers"] is None:
        opts["workers"] = int(os.environ.get("SALPETER_BOUNDS_WORKERS", 0)) or (
            os.cpu_count() or 1
        )
    return opts


def _make_potential(opts) -> potentials.PotentialModel:
    spec = opts["potential"]
    if spec.startswith("table:"):
        return potentials.load_table(spec[len("table:"):], g=opts["g"])
    makers = {
        "exp": potentials.exponential,
        "pexp": potentials.power_exponential,
        "sing": potentials.singular,
        "log": potentials.logarithmic,
    }
    if spec not in makers:
        raise SystemExit(f"unknown potential {spec!r} (use exp|pexp|sing|log|table:<path>)")
    return makers[spec](opts["g"], opts["R"])


def _quad_spec(opts) -> QuadratureSpec:
    return QuadratureSpec(abs_tol=opts["quad_abs_tol"], rel_tol=opts["quad_rel_tol"])


def _solver_cfg(opts, dim=None) -> solver.SolverConfig:
    return solver.SolverConfig(
        m=opts["m"],
        alpha=opts["alpha"],
        dimension=dim or opts.get("dim") or 3,
        L=opts["L"],
        N=opts["N"],
        eigen_tol=opts["eigen_tol"],
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")  # exact round-trip for emitted data
    return str(x)


def _config_echo(opts, keys) -> str:
    return " ".join(f"{k}={_fmt(opts[k])}" for k in keys if opts.get(k) is not None)


def _write_csv(path, schema, config_line, header, rows, error_lines):
    lines = [
        f"# salpeter-bounds CSV schema: {schema}/{SCHEMA_VERSION}",
        f"# units: {_UNITS}",
        f"# config: {config_line}",
    ]
    lines.extend(f"# error: {msg}" for msg in error_lines)
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_grid(text, kind) -> list[float]:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise SystemExit(f"bad grid {text!r}; expected a:b:n") from None
    if n < 1 or a <= 0 or (n > 1 and b <= a):
        raise SystemExit(f"grid {text!r} must be positive, increasing, n >= 1")
    if n == 1:
        return [a]
    grid = np.geomspace(a, b, n) if kind == "geom" else np.linspace(a, b, n)
    return [float(v) for v in grid]


def _parse_list(text) -> list[float]:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise SystemExit(f"list {text!r} must be nonempty and strictly increasing")
    return values


# ---------------------------------------------------------------------------
# single-shot commands


def _cmd_bound(opts, dim: int) -> int:
    V = _make_potential(opts)
    spec = _quad_spec(opts)
    m, alpha = opts["m"], opts["alpha"]
    if opts["q"] is not None:
        fn = bounds.mass_bound_3d if dim == 3 else bounds.mass_bound_1d
        value = fn(V, m, alpha, opts["q"], spec)
        print(f"mass bound at q={_fmt(opts['q'])}: M >= {_fmt(value)} GeV"
              + ("  [vacuous]" if value < 0 else ""))
        return 0
    opt = bounds.optimize_mass_bound_3d if dim == 3 else bounds.optimize_mass_bound_1d
    rep = opt(V, m, alpha, spec)
    print(f"dimension:        {rep.dimension}")
    print(f"alpha, m:         {_fmt(rep.alpha)}, {_fmt(rep.m)} GeV")
    print(f"optimal q:        {_fmt(rep.q_opt)}")
    print(f"||V^-||_q/(q-1):  {_fmt(rep.norm_value)}")
    print(f"||G||_q:          {_fmt(rep.green_norm)}")
    print(f"mass bound:       M >= {_fmt(rep.mass_bound)} GeV"
          + ("  [vacuous]" if rep.vacuous else ""))
    print(f"binding bound:    E >= {_fmt(rep.energy_bound)} GeV")
    print(f"q->1 trivial:     M >= {_fmt(rep.trivial_limit_bound)} GeV")
    if opts["out"]:
        _write_csv(
            opts["out"],
            f"bound{dim}d",
            _config_echo(opts, ("potential", "g", "R", "m", "alpha",
                                "quad_abs_tol", "quad_rel_tol")),
            ("q_opt", "norm", "green_norm", "mass_bound", "energy_bound",
             "trivial_bound", "vacuous"),
            [(rep.q_opt, rep.norm_value, rep.green_norm, rep.mass_bound,
              rep.energy_bound, rep.trivial_limit_bound, int(rep.vacuous))],
            [],
        )
    return 0


def _cmd_critical(opts) -> int:
    V = _make_potential(opts)
    m, alpha = opts["m"], opts["alpha"]
    spec = _quad_spec(opts)
    rows = {}
    if opts["method"] in ("bound", "both"):
        rows["lower bound"] = bounds.critical_coupling_bound_3d(V, m, alpha, spec)
    if opts["method"] in ("exact", "both"):
        res = solver.critical_coupling_exact(
            V, m, alpha, _solver_cfg(opts, dim=3), g_tol_rel=opts["g_bisect_tol"]
        )
        rows["oracle (bisection)"] = res.coupling
    beta = m * V.R
    print(f"beta = m*R:       {_fmt(beta)}")
    for label, value in rows.items():
        print(f"g_c {label}: {_fmt(value)}")
    if len(rows) == 2:
        ratio = rows["lower bound"] / rows["oracle (bisection)"]
        print(f"bound/exact:      {_fmt(ratio)}")
    if opts["out"]:
        _write_csv(
            opts["out"],
            "critical",
            _config_echo(opts, ("potential", "g", "R", "m", "alpha", "method",
                                "eigen_tol", "g_bisect_tol")),
            ("beta", "gc_lower_bound", "gc_exact"),
            [(beta, rows.get("lower bound", math.nan),
              rows.get("oracle (bisection)", math.nan))],
            [],
        )
    return 0


def _cmd_confining(opts) -> int:
    V = _make_potential(opts)
    spec = _quad_spec(opts)
    res = bounds.confining_bound(V, opts["m"], opts["alpha"], spec, dim=opts["dim"] or 3)
    if res.vacuous:
        print("bound vacuous: no admissible cutoff at any exponent")
        return 1
    print(f"optimal q*:       {_fmt(res.q_star)}")
    print(f"optimal C*:       {_fmt(res.c_star)} GeV")
    print(f"mass bound:       M >= {_fmt(res.mass_bound)} GeV")
    print(f"root residual:    {_fmt(res.residual)}" + ("  [at cap]" if res.at_cap else ""))
    if opts["out"]:
        _write_csv(
            opts["out"],
            "confining",
            _config_echo(opts, ("potential", "g", "R", "m", "alpha", "dim",
                                "quad_abs_tol", "quad_rel_tol")),
            ("q_star", "c_star", "mass_bound", "residual", "at_cap"),
            [(res.q_star, res.c_star, res.mass_bound, res.residual, int(res.at_cap))],
            [],
        )
    return 0


def _cmd_solve(opts) -> int:
    V = _make_potential(opts)
    dim = opts["dim"] or 3
    cfg = _solver_cfg(opts, dim=dim)
    run = solver.ground_state_3d_swave if dim == 3 else solver.ground_state_1d
    res = run(V, cfg)
    print(f"ground-state mass:   M = {_fmt(res.mass)} GeV")
    print(f"binding energy:      E = {_fmt(res.binding_energy)} GeV")
    print(f"grid, box:           N = {res.grid_count}, L = {_fmt(res.box_size)} GeV^-1")
    print(f"N->2N drift:         {_fmt(res.refinement_delta)} GeV "
          f"(relative {_fmt(res.refinement_delta_rel)})")
    print(f"boundary amplitude:  {_fmt(res.boundary_amplitude)}")
    if opts["out"]:
        _write_csv(
            opts["out"],
            "solve",
            _config_echo(opts, ("potential", "g", "R", "m", "alpha", "dim",
                                "L", "N", "eigen_tol")),
            ("mass", "binding_energy", "grid_count", "box_size",
             "refinement_delta_rel"),
            [(res.mass, res.binding_energy, res.grid_count, res.box_size,
              res.refinement_delta_rel)],
            [],
        )
    return 0


# ---------------------------------------------------------------------------
# sweeps


def _fig1_point(job) -> tuple:
    kind, beta, opts = job
    makers = {
        "exp": potentials.exponential,
        "pexp": potentials.power_exponential,
        "sing": potentials.singular,
    }
    shape = makers[kind](1.0, 1.0)  # R = 1, m = beta
    m, alpha = beta, opts["alpha"]
    spec = _quad_spec(opts)
    gc_bound = bounds.critical_coupling_bound_3d(shape, m, alpha, spec)
    cfg = solver.SolverConfig(
        m=m, alpha=alpha, dimension=3, N=opts["N"], eigen_tol=opts["eigen_tol"]
    )
    # the r^(-1/2) core converges only algebraically in the grid spacing;
    # its residual (~1e-4 relative) is negligible against the bound/exact gap
    stability = max(opts["g_bisect_tol"], 1e-3) if kind == "sing" else None
    gc_exact = solver.critical_coupling_exact(
        shape, m, alpha, cfg, g_tol_rel=opts["g_bisect_tol"],
        grid_stability_rel=stability,
    ).coupling
    return (beta, kind, gc_exact, gc_bound, gc_bound / gc_exact)


def _fig2_point(job) -> tuple:
    g, m, opts = job
    R = opts["R"]
    V = potentials.logarithmic(g, R)
    spec = _quad_spec(opts)
    res = bounds.confining_bound(V, m, opts["alpha"], spec, dim=3)
    cfg = solver.SolverConfig(
        m=m, alpha=opts["alpha"], dimension=3, N=opts["N"], eigen_tol=opts["eigen_tol"]
    )
    exact = solver.ground_state_3d_swave(V, cfg).mass
    return (g, m, m * R, exact, res.c_star, res.q_star)


def _run_sweep(jobs, worker, workers: int):
    """Evaluate jobs, preserving input order; exceptions become per-row errors."""
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, job) for job in jobs]
            for job, fut in zip(jobs, futures):
                try:
                    results.append((job, fut.result(), None))
                except Exception as exc:  # noqa: BLE001 - per-row fault isolation
                    results.append((job, None, f"{type(exc).__name__}: {exc}"))
    else:
        for job in jobs:
            try:
                results.append((job, worker(job), None))
            except Exception as exc:  # noqa: BLE001
                results.append((job, None, f"{type(exc).__name__}: {exc}"))
    return results


def _cmd_fig1(opts) -> int:
    betas = _parse_grid(opts["beta_grid"], "geom")
    kinds = [k.strip() for k in opts["potentials"].split(",") if k.strip()]
    for kind in kinds:
        if kind not in ("exp", "pexp", "sing"):
            raise SystemExit(f"fig1 potentials must be from exp,pexp,sing; got {kind!r}")
    jobs = [(kind, beta, opts) for beta in betas for kind in kinds]
    results = _run_sweep(jobs, _fig1_point, opts["workers"])
    rows, errors = [], []
    for (kind, beta, _), value, err in results:
        if err is None:
            rows.append(value)
        else:
            errors.append(f"beta={_fmt(beta)} potential={kind}: {err}")
    _write_csv(
        opts["out"] or "fig1.csv",
        "fig1",
        _config_echo(opts, ("alpha", "beta_grid", "potentials", "N", "eigen_tol",
                            "g_bisect_tol", "quad_abs_tol", "quad_rel_tol")),
        ("beta", "potential", "gc_exact", "gc_lower_bound", "ratio"),
        rows,
        errors,
    )
    return 1 if errors else 0


def _cmd_fig2(opts) -> int:
    gs = _parse_list(opts["g_list"])
    ms = _parse_grid(opts["m_grid"], "lin")
    jobs = [(g, m, opts) for g in gs for m in ms]
    results = _run_sweep(jobs, _fig2_point, opts["workers"])
    rows, errors = [], []
    for (g, m, _), value, err in results:
        if err is None:
            rows.append(value)
        else:
            errors.append(f"g={_fmt(g)} m={_fmt(m)}: {err}")
    _write_csv(
        opts["out"] or "fig2.csv",
        "fig2",
        _config_echo(opts, ("R", "alpha", "g_list", "m_grid", "N", "eigen_tol",
                            "quad_abs_tol", "quad_rel_tol")),
        ("g", "m", "beta", "M_exact", "M_lower_bound_Cstar", "q_star"),
        rows,
        errors,
    )
    return 1 if errors else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    opts = _effective_options(args)
    try:
        if args.command == "bound3d":
            return _cmd_bound(opts, 3)
        if args.command == "bound1d":
            return _cmd_bound(opts, 1)
        if args.command == "critical":
            return _cmd_critical(opts)
        if args.command == "confining":
            return _cmd_confining(opts)
        if args.command == "solve":
            return _cmd_solve(opts)
        if args.command == "fig1":
            return _cmd_fig1(opts)
        if args.command == "fig2":
            return _cmd_fig2(opts)
    except SalpeterBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
