"""Pseudospectral oracle for the ground state of alpha*sqrt(p^2+m^2) + V.

The pseudo-differential kinetic operator is diagonal in momentum
representation, so the Hamiltonian is discretized on a uniform grid with the
kinetic term applied spectrally:

* 3D, s-wave: reduced radial function u(r) = r Psi(r) on r_j = j L / N,
  j = 1..N-1, with exact Dirichlet boundary u(0) = u(L) = 0.  The type-I
  discrete sine transform diagonalizes the kinetic operator at momenta
  p_k = k pi / L.
* 1D: periodic plane-wave grid on [-L/2, L/2] (offset half a step so the
  origin is never sampled) with momenta 2 pi k / L.

Ground states are converged by doubling the grid count until the N vs 2N
eigenvalue drift falls below the configured tolerance, doubling the box as
well when a bound state's tail touches the boundary.  Every solve, in both
dimensions and at every N, finds the lowest eigenpair of the matrix-free
spectral operator, deterministically.  A cold solve (every refinement solve,
and the first solve of a coupling root) runs restarted Lanczos (``eigsh``)
from a flat vector.  A warm solve (every later solve of the root, started
from an earlier eigenvector) runs LOBPCG (Knyazev, SIAM J. Sci. Comput. 23,
517, 2001) preconditioned by the inverse of the shifted kinetic diagonal,
applied through the same transform pair as the operator; it raises
``ConvergenceError`` if its residual misses the tolerance.

The critical coupling where the ground-state mass crosses zero is located by
a bracketed Newton-chord root at each grid level: M(g) is concave in g and
its slope <u|v|u> comes with the eigenvector, so Newton steps stay on the
M < 0 side and chord steps on the M > 0 side.  Each level starts from the
previous level's root, and each solve from the nearest stored eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg
from scipy.fft import dst

from .errors import BracketError, ConvergenceError, DomainError
from .potentials import PotentialModel, evaluate, length_scale, with_coupling
from .specfun import _check_mass_alpha

__all__ = [
    "SolverConfig",
    "SpectrumResult",
    "CriticalCouplingResult",
    "sine_momenta",
    "kinetic_diagonal",
    "apply_kinetic_3d",
    "solve_once_3d",
    "solve_once_1d",
    "ground_state_3d_swave",
    "ground_state_1d",
    "critical_coupling_exact",
]

# the box doubles, at most _MAX_BOX_DOUBLINGS times, while a converged state's
# boundary amplitude relative to its peak exceeds _TAIL_THRESHOLD
_TAIL_THRESHOLD = 1e-8
_MAX_BOX_DOUBLINGS = 4
# the largest grid count of the refinement loop and the coupling root
_MAX_GRID = 16384
# a warm-started solve must bring the residual |H u - M u| of the unit vector
# u below _LOBPCG_TOL times the lowest kinetic energy within _LOBPCG_MAXITER
# LOBPCG iterations, or it raises
_LOBPCG_TOL = 1e-9
_LOBPCG_MAXITER = 500


@dataclass(frozen=True)
class SolverConfig:
    """Numerical configuration of the oracle (GeV units).

    ``L = None`` selects the default box 20 * max(R, 1/m), and ``N`` is the
    starting grid count of the refinement loop; it must leave room for one
    doubling within ``_MAX_GRID``.
    """

    m: float = 1.0
    alpha: float = 2.0
    dimension: int = 3
    L: float | None = None
    N: int = 256
    eigen_tol: float = 1e-6

    def __post_init__(self):
        _check_mass_alpha(self.m, self.alpha)
        if self.dimension not in (1, 3):
            raise DomainError(f"dimension must be 1 or 3, got {self.dimension!r}")
        if self.N < 16:
            raise DomainError("grid count must be at least 16")
        if self.N > _MAX_GRID // 2:
            raise DomainError(f"grid count must be at most {_MAX_GRID // 2}, "
                              f"so that it can double within {_MAX_GRID}")
        if self.L is not None and not 0.0 < self.L < math.inf:
            raise DomainError("box size must be positive and finite")
        if not 0.0 < self.eigen_tol < math.inf:
            raise DomainError("eigen tolerance must be positive and finite")


@dataclass
class SpectrumResult:
    """Converged ground state: mass, binding energy E = M - alpha m, and the
    normalized wavefunction samples (sum |psi|^2 dx = 1 on the grid)."""

    mass: float
    binding_energy: float
    grid: np.ndarray
    wavefunction: np.ndarray
    refinement_delta: float
    refinement_delta_rel: float
    grid_count: int
    box_size: float
    converged: bool
    boundary_amplitude: float = 0.0


@dataclass
class CriticalCouplingResult:
    """Coupling at which the ground-state mass crosses zero."""

    coupling: float
    converged: bool
    iterations: int
    bracket_history: list = field(default_factory=list)
    grid_count: int = 0
    box_size: float = 0.0
    mass_residual: float = math.nan


def sine_momenta(L: float, N: int) -> np.ndarray:
    """Momenta p_k = k pi / L, k = 1..N-1, of the Dirichlet sine basis."""
    return np.arange(1, N) * (math.pi / L)


def kinetic_diagonal(p: np.ndarray, m: float, alpha: float) -> np.ndarray:
    """Relativistic kinetic energies alpha * sqrt(p^2 + m^2)."""
    return alpha * np.sqrt(p * p + m * m)


def apply_kinetic_3d(u: np.ndarray, L: float, m: float, alpha: float) -> np.ndarray:
    """Kinetic operator acting on reduced radial samples via the sine basis."""
    eps = kinetic_diagonal(sine_momenta(L, len(u) + 1), m, alpha)
    return dst(eps * dst(u, type=1, norm="ortho"), type=1, norm="ortho")


def _lowest_state(apply, eps, Vx, grid, L: float, N: int, v0=None):
    """Lowest eigenpair of H = apply(., eps) + diag(Vx) on ``grid``, where
    ``apply(x, d)`` multiplies x by the diagonal d in the kinetic basis;
    returns (M, grid, u) with sum u^2 L/N = 1 and a positive peak.

    With no start vector, restarted Lanczos (``eigsh``) runs from a flat
    vector.  A start vector ``v0`` (an eigenvector of a nearby problem) runs
    LOBPCG from it instead, preconditioned by (eps - sigma)^-1 with sigma
    just below the Rayleigh quotient of ``v0``; the eigenvalue is the
    Rayleigh quotient of the result, whose residual must reach
    _LOBPCG_TOL * (lowest kinetic energy) within _LOBPCG_MAXITER iterations.
    """
    n = len(grid)

    def mv(x):
        return apply(x, eps) + Vx * x

    if v0 is None:
        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=mv, dtype=float)
        v0 = np.full(n, 1.0 / math.sqrt(n))
        w, v = scipy.sparse.linalg.eigsh(op, k=1, which="SA", v0=v0, maxiter=50000)
        M, u = float(w[0]), v[:, 0]
    else:
        scale = float(eps.min())  # alpha m, up to the box's lowest momentum
        tol = _LOBPCG_TOL * scale
        x = v0 / math.sqrt(np.dot(v0, v0))
        sigma = float(np.dot(x, mv(x))) - 0.1 * scale
        inv = 1.0 / np.maximum(eps - sigma, 0.05 * scale)
        # lobpcg passes (n, 1) blocks; the transforms act on 1-D vectors
        _, X = scipy.sparse.linalg.lobpcg(
            lambda X: mv(X[:, 0])[:, None], x[:, None],
            M=lambda X: apply(X[:, 0], inv)[:, None],
            largest=False, tol=tol, maxiter=_LOBPCG_MAXITER)
        u = X[:, 0] / math.sqrt(np.dot(X[:, 0], X[:, 0]))
        Hu = mv(u)
        M = float(np.dot(u, Hu))
        residual = float(np.linalg.norm(Hu - M * u))
        if not residual <= tol:
            raise ConvergenceError(
                f"warm-started eigensolve not converged at N = {N}, L = {L:g}: "
                f"residual {residual:.3g} > {tol:.3g} after at most "
                f"{_LOBPCG_MAXITER} LOBPCG iterations")
    u = u / math.sqrt(np.sum(u * u) * (L / N))
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    return M, grid, u


def _sample_points(L: float, N: int, dim: int) -> np.ndarray:
    """Grid of the N-point discretization: r_j = j L / N, j = 1..N-1, in 3D;
    x_j = -L/2 + (j + 1/2) L / N, j = 0..N-1, in 1D, where the half-step
    offset keeps the (possibly singular) origin off the grid."""
    if dim == 3:
        return np.arange(1, N) * (L / N)
    return -0.5 * L + (np.arange(N) + 0.5) * (L / N)


def solve_once_3d(
    V: PotentialModel, m: float, alpha: float, L: float, N: int, v0=None
):
    """Single-resolution s-wave ground state; returns (M, r, u_normalized).
    ``v0`` is a start vector near the ground state, such as a nearby
    coupling's eigenvector; None (the default) starts from a flat vector."""
    r = _sample_points(L, N, 3)
    eps = kinetic_diagonal(sine_momenta(L, N), m, alpha)

    def apply(x, d):
        return dst(d * dst(x, type=1, norm="ortho"), type=1, norm="ortho")

    return _lowest_state(apply, eps, evaluate(V, r), r, L, N, v0)


def solve_once_1d(
    V: PotentialModel, m: float, alpha: float, L: float, N: int, v0=None
):
    """Single-resolution 1D ground state; returns (M, x, psi_normalized).
    ``v0`` is a start vector as for ``solve_once_3d``."""
    x = _sample_points(L, N, 1)
    p = 2.0 * math.pi * np.fft.fftfreq(N, d=L / N)
    eps = kinetic_diagonal(p, m, alpha)

    def apply(y, d):
        return np.fft.ifft(d * np.fft.fft(y)).real

    return _lowest_state(apply, eps, evaluate(V, np.abs(x)), x, L, N, v0)


def _default_box(V: PotentialModel, m: float) -> float:
    return 20.0 * max(length_scale(V), 1.0 / m)


def _coupling_slope(shape: PotentialModel, grid, u, L: float, N: int) -> float:
    """dM/dg = <u|v|u> for the normalized ground state u of K + g v, where v
    is the unit-coupling ``shape`` (Hellmann-Feynman)."""
    return float(np.sum(u * u * evaluate(shape, np.abs(grid)))) * (L / N)


def _refine(grid, u, L: float, N: int, dim: int) -> np.ndarray:
    """Linear interpolation of a coarser level's state u onto the N-point grid."""
    fine = _sample_points(L, N, dim)
    if dim == 3:
        return np.interp(fine, np.r_[0.0, grid, L], np.r_[0.0, u, 0.0])
    return np.interp(fine, grid, u, period=L)


def _boundary_amplitude(u: np.ndarray, dim: int) -> float:
    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        return 0.0
    if dim == 3:
        return float(np.abs(u[-1])) / peak
    return float(max(np.abs(u[0]), np.abs(u[-1]))) / peak


def _ground_state(V: PotentialModel, cfg: SolverConfig, dim: int) -> SpectrumResult:
    solve = solve_once_3d if dim == 3 else solve_once_1d
    m, alpha = cfg.m, cfg.alpha
    L = cfg.L if cfg.L is not None else _default_box(V, m)
    n_start = cfg.N
    scale = alpha * m
    best = None

    for _ in range(_MAX_BOX_DOUBLINGS + 1):
        N = n_start
        M, grid, u = solve(V, m, alpha, L, N)
        converged = False
        delta = math.inf
        while 2 * N <= _MAX_GRID:
            M2, grid2, u2 = solve(V, m, alpha, L, 2 * N)
            delta = abs(M - M2)
            M, grid, u, N = M2, grid2, u2, 2 * N
            if delta <= cfg.eigen_tol * max(abs(M2), scale):
                converged = True
                break
        if not converged:
            doubled = "" if best is None else (
                f" in the doubled box L = {L:g}; the box L = {best.box_size:g} "
                f"left boundary amplitude {best.boundary_amplitude:.3g}")
            raise ConvergenceError(
                f"ground state not converged to {cfg.eigen_tol:g} at N = {N}{doubled}")
        tail = _boundary_amplitude(u, dim)
        best = SpectrumResult(
            mass=M,
            binding_energy=M - alpha * m,
            grid=grid,
            wavefunction=u,
            refinement_delta=delta,
            refinement_delta_rel=delta / max(abs(M), scale),
            grid_count=N,
            box_size=L,
            converged=True,
            boundary_amplitude=tail,
        )
        # only a genuinely bound state can have an untrapped tail; free-like
        # states legitimately fill the box.  Stop when a doubled box could not
        # reach the current spacing within the grid budget.
        if tail <= _TAIL_THRESHOLD or M >= alpha * m or 2 * N > _MAX_GRID:
            break
        L *= 2.0
        n_start = min(2 * n_start, _MAX_GRID // 2)  # keep the grid spacing
    return best


def ground_state_3d_swave(V: PotentialModel, cfg: SolverConfig) -> SpectrumResult:
    """Converged s-wave ground state of the 3D eigenproblem."""
    if cfg.dimension != 3:
        raise DomainError("config dimension must be 3 for the s-wave solver")
    return _ground_state(V, cfg, 3)


def ground_state_1d(V: PotentialModel, cfg: SolverConfig) -> SpectrumResult:
    """Converged ground state of the 1D eigenproblem (V read as V(|x|))."""
    if cfg.dimension != 1:
        raise DomainError("config dimension must be 1 for the 1D solver")
    return _ground_state(V, cfg, 1)


def critical_coupling_exact(
    v: PotentialModel,
    m: float | None = None,
    alpha: float | None = None,
    cfg: SolverConfig | None = None,
    g_tol_rel: float = 1e-6,
    grid_stability_rel: float | None = None,
) -> CriticalCouplingResult:
    """Coupling g at which the ground-state mass of g * v crosses zero.

    M(g) is concave (an infimum of functions affine in g), and its slope
    dM/dg = <u|v|u> comes with the eigenvector (Hellmann-Feynman).  So a
    Newton step lands on the M <= 0 side and a chord step between the two
    ends of a bracket on the M >= 0 side: the bracket invariant
    M(g_lo) > 0 > M(g_hi) holds by construction at every step.  Each grid
    level narrows its bracket to 1e-3 * ``g_tol_rel``; the first level is
    bracketed by doubling from g = 1, each later one by a Newton step from
    the previous root.  Every eigensolve but the first is warm: it starts
    from the stored eigenvector of the nearest coupling at the same N, or
    from the coarser level's one, and so runs LOBPCG.

    ``m``/``alpha`` override the config values when given; ``v`` is used as
    the unit-coupling shape.  ``grid_stability_rel`` (default: equal to
    ``g_tol_rel``) is the required stability of the root under grid doubling;
    potentials with a non-smooth core (the r^(-1/2) kind) converge only
    algebraically in the grid spacing and need a looser value than the
    root tolerance to finish at desk scale.
    """
    cfg = cfg or SolverConfig()
    if m is not None or alpha is not None:
        cfg = replace(cfg, m=cfg.m if m is None else m,
                      alpha=cfg.alpha if alpha is None else alpha)
    m, alpha = cfg.m, cfg.alpha
    stability = grid_stability_rel if grid_stability_rel is not None else g_tol_rel
    if not (0.0 < g_tol_rel < math.inf and 0.0 < stability < math.inf):
        raise DomainError("root and grid-stability tolerances must be positive and finite")
    dim = cfg.dimension
    shape = with_coupling(v, 1.0)
    solve = solve_once_3d if dim == 3 else solve_once_1d
    L = cfg.L if cfg.L is not None else _default_box(shape, m)
    # |M| below the eigensolver's noise has no reliable sign: such a coupling
    # is a root, never a bracket end
    floor = 1e-12 * alpha * m
    level_tol = 1e-3 * g_tol_rel

    states: dict[int, dict[float, tuple]] = {}

    def start_vector(g: float, N: int):
        for n in (N, N // 2):
            level = states.get(n)
            if level:
                _, grid, u = level[min(level, key=lambda h: abs(h - g))]
                return u if n == N else _refine(grid, u, L, N, dim)
        return None

    def state(g: float, N: int) -> tuple:
        level = states.setdefault(N, {})
        if g not in level:
            v0 = start_vector(g, N)
            level[g] = solve(with_coupling(shape, g), m, alpha, L, N, v0=v0)
        return level[g]

    def mass(g: float, N: int) -> float:
        return state(g, N)[0]

    def newton(g: float, N: int) -> float:
        M, grid, u = state(g, N)
        return g - M / _coupling_slope(shape, grid, u, L, N)

    history: list[tuple[float, float, int]] = []

    def converge(lo: float, hi: float, N: int) -> float:
        """Newton from g_hi or chord from g_lo, whichever leaves the narrower
        bracket, until the bracket is level_tol wide; returns a solved g."""
        while True:
            history.append((lo, hi, N))
            m_lo, m_hi = mass(lo, N), mass(hi, N)
            steps = []  # (width of the bracket the step leaves, g)
            if hi - lo > level_tol * hi:
                g = newton(hi, N)
                if lo < g < hi:
                    steps.append((g - lo, g))
                g = lo - m_lo * (hi - lo) / (m_hi - m_lo)
                if lo < g < hi:
                    steps.append((hi - g, g))
            if not steps:  # narrow enough, or both steps round onto an end
                return lo if m_lo < -m_hi else hi
            g = min(steps)[1]
            M = mass(g, N)
            if abs(M) <= floor:
                return g
            if M > 0.0:
                lo = g
            else:
                hi = g

    def bracket(g: float, N: int) -> tuple[float, float]:
        """Bracket at a new level from the previous root g: a Newton step
        from g, then reflections of g through the newest M < 0 end."""
        lo = hi = None
        trial = g
        for _ in range(80):
            M = mass(trial, N)
            if abs(M) <= floor:
                return trial, trial
            if M > 0.0:
                lo = trial
            else:
                hi = trial
            if lo is not None and hi is not None:
                return lo, hi
            trial = newton(trial, N) if hi is None or hi == g else 2.0 * hi - g
            if trial <= g_tol_rel * g:  # the root fell out of reach of g
                break
        raise BracketError(
            f"crossing not bracketed from the previous root g = {g:g} at N = {N}"
        )

    # first level: double g from 1 until M < 0, then halve it until M > 0
    N = cfg.N
    lo = hi = 1.0
    for _ in range(80):
        if mass(hi, N) < -floor:
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketError("mass never crosses zero: coupling bracket not found")
    for _ in range(80):
        if mass(lo, N) > floor:
            break
        hi = lo
        lo /= 2.0
    else:
        raise BracketError("no positive-mass coupling found below the crossing")
    if not mass(hi, N) < -floor:
        raise BracketError(
            f"bracket [{lo:g}, {hi:g}] misses M(g_lo) > 0 > M(g_hi) at N = {N}"
        )

    gc = converge(lo, hi, N)
    gc_prev = None
    while gc_prev is None or abs(gc - gc_prev) > stability * gc:
        if 2 * N > _MAX_GRID:
            raise ConvergenceError(
                f"critical coupling not stable under grid doubling at N = {N}"
            )
        N *= 2
        gc_prev = gc
        lo, hi = bracket(gc_prev, N)
        gc = lo if lo == hi else converge(lo, hi, N)
    return CriticalCouplingResult(
        coupling=gc,
        converged=True,
        iterations=len(history),
        bracket_history=history,
        grid_count=N,
        box_size=L,
        mass_residual=mass(gc, N),
    )
