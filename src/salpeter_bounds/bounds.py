"""Ground-state lower bounds for the semirelativistic eigenproblem.

For a potential whose attractive part V^- lies in L^(q/(q-1)), the master
inequality gives in three dimensions

    M >= alpha m - Cq^3 Ct_q m^(3-3/q) ||V^-||_{q/(q-1)},   1 <= q < 3/2,

and in one dimension

    M >= alpha m - Cq Cb_q m^(1-1/q) ||V^-||_{q/(q-1)},     1 <= q <= 2,

where Cq is the combined sharp-Young constant and Ct_q/Cb_q are the
Green's-function norm constants from :mod:`.specfun`.  The free exponent q is
optimized.  Setting the right-hand side to zero yields a lower limit on the
critical coupling at which the ground-state mass vanishes, and capping a
confining potential at a level C (then shifting by -C) extends the bound to
potentials whose attractive-part norm would otherwise not exist: the largest
C at which the capped problem's bound is still nonnegative is itself a lower
bound on M.

Bounds are reported raw; negative values are flagged vacuous rather than
clipped, so sweeps can plot full curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ConvergenceError,
    DivergentNormError,
    DomainError,
    PotentialClassError,
)
from .potentials import (
    PotentialModel,
    _tail_limit,
    evaluate,
    length_scale,
    min_value,
    negative_part_norm,
    sup_negative,
    truncated_negative_norm,
    with_coupling,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _check_mass_alpha,
    combined_constant,
    green_constant_1d,
    green_constant_3d,
    green_norm_1d,
    green_norm_3d,
)

__all__ = [
    "BoundReport",
    "TruncationResult",
    "mass_bound_3d",
    "optimize_mass_bound_3d",
    "binding_energy_bound_3d",
    "critical_coupling_bound_3d",
    "confining_bound",
    "cutoff_for_exponent",
    "mass_bound_1d",
    "optimize_mass_bound_1d",
]

# admissible q per dimension: (upper end, upper end included, interval text)
_Q_WINDOW = {3: (1.5, False, "[1, 3/2)"), 1: (2.0, True, "[1, 2]")}
_Q_POINTS = 64  # grid points over the admissible q window before refinement


@dataclass(frozen=True)
class BoundReport:
    """An optimized ground-state bound and its ingredients (GeV units)."""

    dimension: int
    alpha: float
    m: float
    q_opt: float
    norm_value: float
    green_norm: float
    mass_bound: float
    energy_bound: float
    trivial_limit_bound: float
    vacuous: bool


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of the confining-potential cutoff optimization.

    The bound is M >= C*; ``residual`` is |LHS - 1| of the cutoff equation at
    (q*, C*).  ``at_cap`` marks C* pinned at the largest admissible cutoff
    (decaying potentials cap at C = 0); ``vacuous`` marks the degenerate case
    where no admissible cutoff exists at any q.
    """

    q_star: float
    c_star: float
    mass_bound: float
    residual: float
    at_cap: bool = False
    vacuous: bool = False


def _conjugate(q: float) -> float:
    return math.inf if q == 1.0 else q / (q - 1.0)


def _check_q(q: float, dim: int) -> None:
    hi, closed, bracket = _Q_WINDOW[dim]
    if not (1.0 <= q < hi or closed and q == hi):
        raise DomainError(f"exponent q = {q!r} outside the admissible {bracket}")


def _norm_term(
    V: PotentialModel,
    C: float,
    m: float,
    q: float,
    dim: int,
    spec: QuadratureSpec,
) -> float:
    """The subtracted term of the mass bound at exponent q, for V capped at
    the level C: the norm taken is that of (C - V)^+, which is V^- at C = 0.
    """
    norm = truncated_negative_norm(V, C, _conjugate(q), dim, spec)
    if math.isinf(norm) and q == 1.0:
        raise DivergentNormError(
            f"negative-part sup norm is infinite; the q = {q:g} bound does not apply"
        )
    if norm == 0.0:
        return 0.0
    if q == 1.0:
        return norm  # all constants and the mass power reduce to 1
    green = green_constant_3d if dim == 3 else green_constant_1d
    return combined_constant(q) ** dim * green(q, spec) * m ** (dim - dim / q) * norm


def mass_bound_3d(
    V: PotentialModel,
    m: float,
    alpha: float,
    q: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Lower bound on the ground-state mass at fixed exponent q (3D).

    A negative return is a vacuous bound (the inequality constrains |M| and
    is informative only while nonnegative); callers see the raw value.
    """
    _check_mass_alpha(m, alpha)
    _check_q(q, 3)
    return alpha * m - _norm_term(V, 0.0, m, q, 3, spec)


def mass_bound_1d(
    V: PotentialModel,
    m: float,
    alpha: float,
    q: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Lower bound on the ground-state mass at fixed exponent q (1D)."""
    _check_mass_alpha(m, alpha)
    _check_q(q, 1)
    return alpha * m - _norm_term(V, 0.0, m, q, 1, spec)


def _minimize_term(term, dim: int) -> tuple[float, float]:
    """Minimize term(q) over the q grid of dimension dim, then refine by golden section.

    Points where the norm diverges are skipped; if every point diverges the
    potential is out of the bound's class.
    """
    def safe(q):
        try:
            return term(q)
        except (DivergentNormError, DomainError):
            return math.inf

    hi, endpoint, _ = _Q_WINDOW[dim]
    grid = np.linspace(1.0, hi, _Q_POINTS, endpoint=endpoint)
    values = np.asarray([safe(float(q)) for q in grid])
    if not np.any(np.isfinite(values)):
        raise PotentialClassError(
            "negative part is not in L^(q/(q-1)) for any admissible q; "
            "the bound does not apply to this potential"
        )
    i = int(np.argmin(values))
    q_best, t_best = float(grid[i]), float(values[i])

    a = float(grid[i - 1]) if i > 0 else float(grid[i])
    b = float(grid[i + 1]) if i + 1 < len(grid) else float(grid[i])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = safe(c), safe(d)
    for _ in range(80):
        if b - a < 1e-10:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = safe(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = safe(d)
    for q, t in ((c, fc), (d, fd)):
        if t < t_best:
            q_best, t_best = q, t
    return q_best, t_best


def _optimal_term(V, m, alpha, dim, spec) -> tuple[float, float]:
    """(q_opt, t_opt): the norm term of V minimized over the exponent window."""
    _check_mass_alpha(m, alpha)
    return _minimize_term(lambda q: _norm_term(V, 0.0, m, q, dim, spec), dim)


def _optimize(V, m, alpha, dim, spec) -> BoundReport:
    q_opt, t_opt = _optimal_term(V, m, alpha, dim, spec)
    mass_bound = alpha * m - t_opt
    trivial = alpha * m - sup_negative(V)  # -inf when V is unbounded below
    s = _conjugate(q_opt)
    norm = negative_part_norm(V, s, dim, spec)
    if q_opt == 1.0:
        green = 1.0 / (alpha * m)
    else:
        green = (green_norm_3d if dim == 3 else green_norm_1d)(q_opt, m, alpha, spec)
    return BoundReport(
        dimension=dim,
        alpha=float(alpha),
        m=float(m),
        q_opt=q_opt,
        norm_value=norm,
        green_norm=green,
        mass_bound=mass_bound,
        energy_bound=mass_bound - alpha * m,
        trivial_limit_bound=trivial,
        vacuous=mass_bound < 0.0,
    )


def optimize_mass_bound_3d(
    V: PotentialModel,
    m: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> BoundReport:
    """Best 3D mass bound over the admissible exponent window."""
    return _optimize(V, m, alpha, 3, spec)


def optimize_mass_bound_1d(
    V: PotentialModel,
    m: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> BoundReport:
    """Best 1D mass bound over the admissible exponent window."""
    return _optimize(V, m, alpha, 1, spec)


def binding_energy_bound_3d(
    V: PotentialModel,
    m: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Lower bound on the binding energy E = M - alpha m (3D, optimized q)."""
    return optimize_mass_bound_3d(V, m, alpha, spec).energy_bound


def critical_coupling_bound_3d(
    V: PotentialModel,
    m: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Lower limit on the critical coupling at which the ground-state mass
    vanishes, for the potential family g * (V / V.g).

    The norm term is linear in the coupling, so the optimized mass bound of
    g * v is alpha m - g t, t the optimized norm term of the unit-coupling
    shape v; it vanishes at g = alpha m / t.  Returns math.inf when the shape
    has no attractive part (t = 0).
    """
    _, t = _optimal_term(with_coupling(V, 1.0), m, alpha, 3, spec)
    return alpha * m / t if t > 0.0 else math.inf


def cutoff_for_exponent(
    V: PotentialModel,
    m: float,
    alpha: float,
    q: float,
    dim: int = 3,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float, bool]:
    """Largest cutoff C with lhs(C) = norm-term(capped V)/(alpha m) <= 1.

    Returns (C, |lhs-1| residual, at_cap).  lhs is strictly increasing in C,
    zero for C below min(V), so the root is unique when it exists.  C = -inf
    signals a vacuous result at this q.  At q = 1, lhs = (C - min V)/(alpha m)
    is linear; for V unbounded below it is infinite, and q = 1 raises
    DivergentNormError there, as mass_bound_3d does.
    """
    # brentq evaluates the bracket ends again and the residual reads the root
    # it returns, so each cutoff's norm is computed once
    lhs = cache(lambda C: _norm_term(V, C, m, q, dim, spec) / (alpha * m))

    # above lim V at large r, (C - V)^+ does not decay: a hard cap on C,
    # finite (0) for the decaying kinds
    cap = _tail_limit(V)
    vmin = min_value(V)

    scale = max(abs(vmin) if math.isfinite(vmin) else 0.0, alpha * m, 1.0)
    if math.isfinite(vmin):
        # lhs(min V) = 0, since (min V - V)^+ vanishes; brentq checks the sign
        c_lo = vmin
    else:
        # walk the cutoff down along the potential: C = V(r_j) keeps the
        # support of (C - V)^+ shrinking geometrically without ever probing
        # astronomically deep cutoffs
        r_scale = length_scale(V)
        for j in range(1, 49):
            c_lo = float(evaluate(V, r_scale * 4.0 ** (-j)))
            if c_lo < 0.0 and lhs(c_lo) < 1.0:
                break
        else:
            return -math.inf, math.inf, False

    if math.isfinite(cap):
        top = cap
        if lhs(top) <= 1.0:
            return top, abs(lhs(top) - 1.0), True
    else:
        top = max(scale, c_lo + scale)
        for _ in range(200):
            if lhs(top) > 1.0:
                break
            top *= 2.0
        else:
            raise ConvergenceError("could not bracket the cutoff equation from above")

    root = brentq(
        lambda C: lhs(C) - 1.0,
        c_lo,
        top,
        xtol=1e-13 * scale,
        rtol=8.9e-16,
        maxiter=200,
    )
    return float(root), abs(lhs(float(root)) - 1.0), False


def confining_bound(
    V: PotentialModel,
    m: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    dim: int = 3,
) -> TruncationResult:
    """Lower bound M >= C* for potentials handled through the cutoff-and-shift
    construction (the route required when the attractive-part norm of V itself
    does not exist, e.g. for confining potentials).

    For each q on the admissible grid the cutoff equation is solved for C by
    bracketed root finding, and (q*, C*) maximize C.  The one-dimensional
    variant follows the same construction with the 1D constants; it is an
    extension beyond the published three-dimensional procedure.
    """
    _check_mass_alpha(m, alpha)
    if dim not in (1, 3):
        raise DomainError(f"dimension must be 1 or 3, got {dim!r}")
    # (C, residual, at_cap) per q, so q* needs no second solve
    cutoff = cache(partial(cutoff_for_exponent, V, m, alpha, dim=dim, spec=spec))
    try:
        q_star, _ = _minimize_term(lambda q: -cutoff(q)[0], dim)
    except PotentialClassError:
        return TruncationResult(q_star=math.nan, c_star=-math.inf, mass_bound=-math.inf,
                                residual=math.inf, vacuous=True)
    c_star, residual, at_cap = cutoff(q_star)
    return TruncationResult(
        q_star=q_star,
        c_star=c_star,
        mass_bound=c_star,
        residual=residual,
        at_cap=at_cap,
    )
