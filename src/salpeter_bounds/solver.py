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
well when a bound state's tail touches the boundary.  The box is judged on
its first two grid levels (rungs): a bound state whose boundary amplitude
exceeds the threshold at both, and holds from the one to the next, leaves
the box there.  Should the doubled box run out of grid, the box it left is
settled by running the same loop again from that box, over the rungs already
solved: each (L, N) is solved at most once per call.

The critical coupling of a unit-coupling shape v, where the ground-state
mass of K + g v crosses zero, is an eigenvalue of its own: K + g v is
nonnegative exactly when g lambda_max(K^(-1/2) W K^(-1/2)) <= 1, with
W = diag(-v) (Birman, Mat. Sb. 55, 125, 1961; Schwinger, PNAS 47, 122,
1961).  So each grid level's critical coupling is 1 / lambda_max, and the
grid doubles until that value is stable.

Every eigensolve, in both dimensions and at every N, finds one extreme
eigenpair of a matrix-free spectral operator by restarted Lanczos
(``eigsh``) from a flat vector, deterministically.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
import scipy.sparse.linalg
from scipy.fft import dst

from .errors import ConvergenceError, DomainError
from .potentials import PotentialModel, evaluate, length_scale, with_coupling
from .specfun import _check_mass_alpha

__all__ = [
    "SolverConfig",
    "SpectrumResult",
    "CriticalCouplingResult",
    "solve_once_3d",
    "solve_once_1d",
    "ground_state_3d_swave",
    "ground_state_1d",
    "critical_coupling_exact",
]

# the box doubles, at most _MAX_BOX_DOUBLINGS times, while a converged state's
# boundary amplitude relative to its peak exceeds _TAIL_THRESHOLD.  A box is
# left after its first two rungs already when the amplitude exceeds it at both
# and the finer rung's is at least 0.9 of the coarser's: a tail that falls with
# the spacing is the grid's.  If the box after it runs out of grid, the same
# loop runs again from the box left, over rungs already solved, without leaving.
_TAIL_THRESHOLD = 1e-8
_MAX_BOX_DOUBLINGS = 4
# the largest grid count of the refinement loop and the critical coupling
_MAX_GRID = 16384


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
        try:
            object.__setattr__(self, "N", operator.index(self.N))
        except TypeError:
            raise DomainError(f"grid count must be an integer, got {self.N!r}") from None
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
    boundary_amplitude: float = 0.0


@dataclass
class CriticalCouplingResult:
    """Coupling at which the ground-state mass crosses zero, with the
    (grid count, coupling) of every grid level that led to it."""

    coupling: float
    converged: bool
    levels: list
    grid_count: int
    box_size: float


def _discretization(L: float, N: int, dim: int, m: float, alpha: float):
    """(grid, eps, apply) of the N-point discretization: the sample points,
    the kinetic energies alpha sqrt(p^2 + m^2) of the basis modes, and
    ``apply(x, d)``, which multiplies x by the diagonal d in that basis.
    3D: r_j = j L / N, j = 1..N-1, and DST-I sine modes at p_k = k pi / L.
    1D: x_j = -L/2 + (j + 1/2) L / N, j = 0..N-1, and FFT plane waves; the
    half-step offset keeps the (possibly singular) origin off the grid."""
    if dim == 3:
        grid = np.arange(1, N) * (L / N)
        p = np.arange(1, N) * (math.pi / L)

        def apply(x, d):
            return dst(d * dst(x, type=1, norm="ortho"), type=1, norm="ortho")
    else:
        grid = -0.5 * L + (np.arange(N) + 0.5) * (L / N)
        p = 2.0 * math.pi * np.fft.fftfreq(N, d=L / N)

        def apply(x, d):
            return np.fft.ifft(d * np.fft.fft(x)).real

    p_max = float(np.max(np.abs(p)))
    if not p_max * p_max + m * m < math.inf:
        raise DomainError(f"kinetic energies p^2 + m^2 overflow at N = {N}, "
                          f"L = {L!r}, m = {m!r}")
    return grid, alpha * np.sqrt(p * p + m * m), apply


def _extreme_eigenpair(matvec, n: int, which: str, N: int):
    """Lowest (``which="SA"``) or highest (``"LA"``) eigenpair, as (eigenvalue,
    unit eigenvector), of the symmetric n x n operator ``matvec`` of the
    N-point grid, by restarted Lanczos from a flat vector; an ARPACK failure
    raises ``ConvergenceError``."""
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        w, v = scipy.sparse.linalg.eigsh(op, k=1, which=which, v0=v0, maxiter=50000)
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceError(f"eigensolver failed at N = {N}: {exc}") from None
    return float(w[0]), v[:, 0]


def _lowest_state(V: PotentialModel, m: float, alpha: float, L: float, N: int, dim: int):
    """Lowest eigenpair of H = K + diag(V) on the N-point grid; returns
    (M, grid, u) with sum u^2 L/N = 1 and a positive peak."""
    grid, eps, apply = _discretization(L, N, dim, m, alpha)
    Vx = evaluate(V, np.abs(grid))
    M, u = _extreme_eigenpair(lambda x: apply(x, eps) + Vx * x, len(grid), "SA", N)
    u = u / math.sqrt(np.sum(u * u) * (L / N))
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    return M, grid, u


def solve_once_3d(V: PotentialModel, m: float, alpha: float, L: float, N: int):
    """Single-resolution s-wave ground state; returns (M, r, u_normalized)."""
    return _lowest_state(V, m, alpha, L, N, 3)


def solve_once_1d(V: PotentialModel, m: float, alpha: float, L: float, N: int):
    """Single-resolution 1D ground state; returns (M, x, psi_normalized)."""
    return _lowest_state(V, m, alpha, L, N, 1)


def _default_box(V: PotentialModel, m: float) -> float:
    return 20.0 * max(length_scale(V), 1.0 / m)


def _boundary_amplitude(u: np.ndarray, dim: int) -> float:
    peak = float(np.max(np.abs(u)))
    if dim == 3:
        return float(np.abs(u[-1])) / peak
    return float(max(np.abs(u[0]), np.abs(u[-1]))) / peak


def _not_converged(tol: float, N: int, L: float, best: SpectrumResult | None):
    """The error of box L, whose ladder ran out of grid at N; ``best`` is the
    converged state of the box it doubled, if any."""
    doubled = "" if best is None else (
        f" in the doubled box L = {L:g}; the box L = {best.box_size:g} "
        f"left boundary amplitude {best.boundary_amplitude:.3g}")
    return ConvergenceError(f"ground state not converged to {tol:g} at N = {N}{doubled}")


def _ground_state(V: PotentialModel, cfg: SolverConfig) -> SpectrumResult:
    dim, m, alpha, tol = cfg.dimension, cfg.m, cfg.alpha, cfg.eigen_tol
    solve = solve_once_3d if dim == 3 else solve_once_1d
    scale = alpha * m
    rung = cache(partial(solve, V, m, alpha))  # (L, N) -> (M, grid, u), once per call

    def untrapped(M, tail):
        # only a genuinely bound state can have an untrapped tail; free-like
        # states legitimately fill the box
        return not (tail <= _TAIL_THRESHOLD or M >= scale)

    def boxes(L, n_start, k, best, leave):
        left = None  # (L, n_start, k, best) of a box left after its first two rungs
        while True:
            # the grid ladder N, 2N, 4N, ... of box L, up to its first
            # converged rung or the last one the grid allows
            N, M_prev, tail_prev = n_start, math.nan, math.nan
            while True:
                M, grid, u = rung(L, N)
                delta, tail = abs(M_prev - M), _boundary_amplitude(u, dim)
                converged = delta <= tol * max(abs(M), scale)
                if converged or 2 * N > _MAX_GRID:
                    break
                # a tail that halves with the spacing is the grid's, not the state's
                if (leave and left is None and N == 2 * n_start and k < _MAX_BOX_DOUBLINGS
                        and untrapped(M_prev, tail_prev) and untrapped(M, tail)
                        and tail >= 0.9 * tail_prev):
                    break
                M_prev, tail_prev, N = M, tail, 2 * N
            if converged:
                left, best = None, SpectrumResult(
                    mass=M, binding_energy=M - scale, grid=grid, wavefunction=u,
                    refinement_delta=delta, refinement_delta_rel=delta / max(abs(M), scale),
                    grid_count=N, box_size=L, boundary_amplitude=tail)
                # a doubled box must reach the current spacing within the grid budget
                if not (untrapped(M, tail) and 2 * N <= _MAX_GRID and k < _MAX_BOX_DOUBLINGS):
                    return best
            elif 2 * N <= _MAX_GRID:  # left after its first two rungs
                left = L, n_start, k, best
            elif left is None:
                raise _not_converged(tol, N, L, best)
            else:
                # the box entered early ran out of grid: settle the box it
                # left by running the loop again, over rungs already solved
                return boxes(*left, leave=False)
            L, n_start, k = 2.0 * L, min(2 * n_start, _MAX_GRID // 2), k + 1

    L = cfg.L if cfg.L is not None else _default_box(V, m)
    return boxes(L, cfg.N, 0, None, leave=True)


def ground_state_3d_swave(V: PotentialModel, cfg: SolverConfig) -> SpectrumResult:
    """Converged s-wave ground state of the 3D eigenproblem."""
    if cfg.dimension != 3:
        raise DomainError("config dimension must be 3 for the s-wave solver")
    return _ground_state(V, cfg)


def ground_state_1d(V: PotentialModel, cfg: SolverConfig) -> SpectrumResult:
    """Converged ground state of the 1D eigenproblem (V read as V(|x|))."""
    if cfg.dimension != 1:
        raise DomainError("config dimension must be 1 for the 1D solver")
    return _ground_state(V, cfg)


def critical_coupling_exact(
    v: PotentialModel,
    m: float | None = None,
    alpha: float | None = None,
    cfg: SolverConfig = SolverConfig(),
    g_tol_rel: float = 1e-6,
    grid_stability_rel: float | None = None,
) -> CriticalCouplingResult:
    """Coupling g at which the ground-state mass of g * v crosses zero.

    On the N-point grid, K + g v is nonnegative exactly when
    g lambda_max(A) <= 1 for the Birman-Schwinger operator
    A = K^(-1/2) W K^(-1/2), W = diag(-v), so the level's coupling is
    1 / lambda_max(A), from one cold Lanczos solve.  The grid doubles from
    ``cfg.N`` until two successive levels agree to ``grid_stability_rel``
    relative (default: equal to ``g_tol_rel``); potentials with a non-smooth
    core (the r^(-1/2) kind) converge only algebraically in the grid spacing
    and need a looser value to finish at desk scale.  A coupling not stable
    by ``_MAX_GRID`` raises ``ConvergenceError``, and a shape with no
    attractive part on the grid (A <= 0, so no coupling binds) raises
    ``DomainError``.

    ``m``/``alpha`` override the config values when given; ``v`` is used as
    the unit-coupling shape.
    """
    if m is not None or alpha is not None:
        cfg = replace(cfg, m=cfg.m if m is None else m,
                      alpha=cfg.alpha if alpha is None else alpha)
    stability = grid_stability_rel if grid_stability_rel is not None else g_tol_rel
    if not (0.0 < g_tol_rel < math.inf and 0.0 < stability < math.inf):
        raise DomainError("root and grid-stability tolerances must be positive and finite")
    shape = with_coupling(v, 1.0)
    L = cfg.L if cfg.L is not None else _default_box(shape, cfg.m)

    def coupling(N: int) -> float:
        grid, eps, apply = _discretization(L, N, cfg.dimension, cfg.m, cfg.alpha)
        w = -evaluate(shape, np.abs(grid))
        if not np.max(w) > 0.0:
            raise DomainError(
                f"potential has no attractive part on the N = {N} grid: no coupling binds")
        k = eps ** -0.5
        lam, _ = _extreme_eigenpair(lambda x: apply(w * apply(x, k), k), len(grid), "LA", N)
        return 1.0 / lam

    levels = [(cfg.N, coupling(cfg.N))]
    while len(levels) < 2 or abs(levels[-1][1] - levels[-2][1]) > stability * levels[-1][1]:
        N = 2 * levels[-1][0]
        if N > _MAX_GRID:
            raise ConvergenceError(
                f"critical coupling not stable under grid doubling at N = {N // 2}")
        levels.append((N, coupling(N)))
    N, gc = levels[-1]
    return CriticalCouplingResult(
        coupling=gc, converged=True, levels=levels, grid_count=N, box_size=L)
