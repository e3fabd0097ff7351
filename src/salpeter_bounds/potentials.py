"""Central potential models and the L^s norms of their attractive parts.

The parametric models, with finite coupling g > 0 and range R > 0:

    exp    V(r) = -(g/R) exp(-r/R)
    pexp   V(r) = -(g/R^2) r exp(-r/R)
    sing   V(r) = -g (r R)^(-1/2) exp(-r/R)
    log    V(r) =  (g/R) ln(r/R)

plus tabulated potentials, the monotone (PCHIP) cubic through (r, V) samples,
a power law below the first radius and 0 beyond the last.  One-dimensional
usage reads the same shapes as even functions of |x| with measure dx over the
whole line.  Units throughout are GeV-based natural units (hbar = c = 1):
r and R in GeV^-1, V and C in GeV, g dimensionless.

Each kind has one route for the norms of V^- = max(0, -V) and of the
cutoff-and-shift part (C - V)^+: Gamma closed forms for exp/pexp/sing at
C = 0 and for log at every C, singularity-aware quadrature for exp/pexp/sing
below C = 0 over the closed-form support of (C - V)^+ (a logarithm for exp,
Lambert-W values for sing and pexp), and piecewise quadrature for tables.
``_quadrature_norm`` also covers C = 0 and log, as the independent check of
the closed forms.
The quadrature integrands evaluate V through scalar kernels that repeat the
array path's floating-point operations on a float, so they give the bits
``evaluate`` gives at a fraction of its per-call cost: ``_profile`` for the
parametric kinds, and two closures with their constants hoisted, the
singular head ``_singular_head`` and ``_piece_integrand``, which integrates
one table piece with that piece's own polynomial.
Each table's interpolant, pieces, knot minimum and head power law are one
record, built once by ``_table``.  Table pieces on which (C - V)^+ vanishes
are not integrated (their quadrature is exactly 0), and the power-law head
below the first table radius is integrated over its closed-form support.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import lambertw

from .errors import ConvergenceError, DivergentNormError, DomainError
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, _log_tail_end, _quad, _tail

__all__ = [
    "PotentialKind",
    "PotentialModel",
    "exponential",
    "power_exponential",
    "singular",
    "logarithmic",
    "tabulated",
    "load_table",
    "with_coupling",
    "evaluate",
    "sup_negative",
    "min_value",
    "length_scale",
    "negative_part_norm",
    "truncated_negative_norm",
]


class PotentialKind(str, Enum):
    EXPONENTIAL = "exp"
    POWER_EXPONENTIAL = "pexp"
    SINGULAR = "sing"
    LOGARITHMIC = "log"
    TABULATED = "table"


@dataclass(frozen=True)
class PotentialModel:
    """A central potential V(r) = g * v(r); see the module docstring."""

    kind: PotentialKind
    g: float = 1.0
    R: float = 1.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.g < math.inf:
            raise DomainError(f"coupling g must be positive and finite, got {self.g!r}")
        if not 0.0 < self.R < math.inf:
            raise DomainError(f"range R must be positive and finite, got {self.R!r}")
        if self.kind is PotentialKind.TABULATED:
            if self.table is None or len(self.table) < 2:
                raise DomainError("tabulated potential needs at least two samples")
            radii = [r for r, _ in self.table]
            if radii[0] < 0.0 or any(b <= a for a, b in zip(radii, radii[1:])):
                raise DomainError("table radii must be strictly increasing and >= 0")
            _table(self)  # builds the interpolant once, and checks it
        elif self.table is not None:
            raise DomainError("only tabulated potentials carry a table")


def exponential(g: float, R: float) -> PotentialModel:
    return PotentialModel(PotentialKind.EXPONENTIAL, g, R)


def power_exponential(g: float, R: float) -> PotentialModel:
    return PotentialModel(PotentialKind.POWER_EXPONENTIAL, g, R)


def singular(g: float, R: float) -> PotentialModel:
    return PotentialModel(PotentialKind.SINGULAR, g, R)


def logarithmic(g: float, R: float) -> PotentialModel:
    return PotentialModel(PotentialKind.LOGARITHMIC, g, R)


def tabulated(radii, values, g: float = 1.0) -> PotentialModel:
    table = tuple((float(r), float(v)) for r, v in zip(radii, values, strict=True))
    return PotentialModel(PotentialKind.TABULATED, g, 1.0, table)


def load_table(path, g: float = 1.0) -> PotentialModel:
    """Read a two-column (r, V) text file; '#' starts a comment.

    Values are interpreted in GeV-based natural units: r in GeV^-1, V in GeV.
    """
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise DomainError("expected two columns (r, V)")
        table = tabulated(data[:, 0], data[:, 1])  # checked at unit coupling
    except (OSError, ValueError) as exc:  # DomainError is a ValueError
        raise DomainError(f"cannot read table {path}: {exc}") from None
    return with_coupling(table, g)


def with_coupling(V: PotentialModel, g: float) -> PotentialModel:
    """The same shape with coupling g."""
    return replace(V, g=g)


class _Table(NamedTuple):
    """The per-table data, built once per table by ``_table``."""

    pp: PchipInterpolator  # the interpolant, nan outside the knots
    knots: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]  # per piece, constant term first
    knot_min: float  # least interpolant value at the knots
    p: float  # head power law v0 (r/r0)^p below the first radius
    v0: float


@lru_cache(maxsize=256)
def _table(model: PotentialModel) -> _Table:
    pts = np.asarray(model.table, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        try:
            pp = PchipInterpolator(pts[:, 0], pts[:, 1], extrapolate=False)
            finite = np.isfinite(pp.c).all()  # close knots can overflow the cubic terms
        except ValueError:  # scipy's check of the samples and slopes
            finite = False
    if not finite:
        raise DomainError("table samples and their PCHIP interpolant must be finite")
    coeffs = tuple(tuple(column[::-1]) for column in pp.c.T.tolist())
    return _Table(pp, tuple(pp.x.tolist()), coeffs, min(pp(pp.x).tolist()),
                  *_table_head_power(model))


def _table_head_power(model: PotentialModel) -> tuple[float, float]:
    """Power-law extension V ~ v0 (r/r0)^p below the first table radius.

    Fitted from the first two samples when both are negative; a flat
    extension (p = 0) is used otherwise.  Yukawa-like tables (p near -1)
    are thereby integrable or not exactly as their small-r behavior demands.
    """
    (r0, v0), (r1, v1) = model.table[0], model.table[1]
    if r0 > 0.0 and v0 < 0.0 and v1 < 0.0:
        return math.log(v1 / v0) / math.log(r1 / r0), v0
    return 0.0, v0


def _eval_table(model: PotentialModel, r: np.ndarray) -> np.ndarray:
    # inside [r_first, r_last]: interpolant; beyond the table: 0; below it:
    # the fitted power-law head
    tab = _table(model)
    r0 = model.table[0][0]
    rN = model.table[-1][0]
    out = np.asarray(tab.pp(np.clip(r, r0, rN)), dtype=float)
    out = np.where(r > rN, 0.0, out)
    if np.any(r < r0):
        with np.errstate(divide="ignore", over="ignore"):
            head = tab.v0 * (np.maximum(r, 1e-320) / r0) ** tab.p
        out = np.where(r < r0, head, out)
    return out


def evaluate(V: PotentialModel, r):
    """V(r) for scalar or array r (r > 0 required for the singular kinds)."""
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0):
        raise DomainError("potentials are defined for r >= 0")
    if V.kind in (PotentialKind.SINGULAR, PotentialKind.LOGARITHMIC) and np.any(
        arr == 0.0
    ):
        raise DomainError(f"{V.kind.value} potential diverges at r = 0")
    out = _profile(V, arr)
    return float(out[0]) if scalar else out


def _profile(V: PotentialModel, r):
    """V(r) by its kind's formula, without evaluate's checks; r is an array or
    a float.  numpy's ufuncs give a float the bits they give an array element,
    so the quadrature integrands call this directly on QUADPACK's nodes."""
    if V.kind is PotentialKind.EXPONENTIAL:
        return -(V.g / V.R) * np.exp(-r / V.R)
    if V.kind is PotentialKind.POWER_EXPONENTIAL:
        return -(V.g / V.R**2) * r * np.exp(-r / V.R)
    if V.kind is PotentialKind.SINGULAR:
        return -V.g / np.sqrt(r * V.R) * np.exp(-r / V.R)
    if V.kind is PotentialKind.LOGARITHMIC:
        return (V.g / V.R) * np.log(r / V.R)
    return V.g * _eval_table(V, r)


def min_value(V: PotentialModel) -> float:
    """inf of V over r > 0 (-inf for the kinds unbounded below)."""
    if V.kind is PotentialKind.EXPONENTIAL:
        return -V.g / V.R
    if V.kind is PotentialKind.POWER_EXPONENTIAL:
        return -V.g / (math.e * V.R)
    if V.kind in (PotentialKind.SINGULAR, PotentialKind.LOGARITHMIC):
        return -math.inf
    tab = _table(V)
    if tab.p < 0.0 and tab.v0 < 0.0:
        return -math.inf
    # monotone interpolation attains its extrema at the knots; the interpolant
    # there, not the raw sample, is what evaluate returns (they can differ by
    # an ulp at the last knot)
    return V.g * min(0.0, tab.knot_min)


def sup_negative(V: PotentialModel) -> float:
    """Essential sup of V^- = max(0, -V): the s -> infinity norm limit."""
    return max(0.0, -min_value(V))


def length_scale(V: PotentialModel) -> float:
    """Characteristic radius used for default box sizes and split points."""
    if V.kind is PotentialKind.TABULATED:
        return max(V.table[-1][0] / 4.0, V.table[-1][0] - V.table[0][0]) or 1.0
    return V.R


def _check_norm_args(V: PotentialModel, s: float, dim: int) -> None:
    if dim not in (1, 3):
        raise DomainError(f"dimension must be 1 or 3, got {dim!r}")
    if math.isnan(s) or not s > 1.0:
        raise DomainError(f"norm exponent must satisfy s > 1, got {s!r}")
    # V^- and every (C - V)^+ of the singular kind behave like r^(-1/2) at 0
    limit = 6.0 if dim == 3 else 2.0
    if V.kind is PotentialKind.SINGULAR and s >= limit:
        raise DivergentNormError(
            f"singular potential: |V^-|^s ~ r^(-s/2) is not integrable in {dim}D "
            f"for s = {s:g} >= {limit:g}"
        )


# V^- = (g/R) (r/R)^a e^(-r/R) of the decaying parametric kinds
_POWER = {PotentialKind.EXPONENTIAL: 0.0, PotentialKind.POWER_EXPONENTIAL: 1.0,
          PotentialKind.SINGULAR: -0.5}


def _closed_form_norm(V: PotentialModel, s: float, dim: int) -> float:
    """log-space Gamma closed form of ||V^-||_s for exp, pexp and sing:
    ||V^-||_s^s = w (g/R)^s R^dim Gamma(a s + dim) / s^(a s + dim), with
    w = 4 pi in 3D and 2 in 1D the weight at r = 1."""
    n = _POWER[V.kind] * s + dim
    inner = math.log(_weight(dim, 1.0)) + math.lgamma(n) - n * math.log(s)
    return V.g * math.exp((dim / s - 1.0) * math.log(V.R) + inner / s)


def _log_norm(V: PotentialModel, C: float, s: float, dim: int) -> float:
    """Gamma closed form of ||(C - V)^+||_s for the logarithmic kind, any C:
    (C - V)(r) = (g/R) ln(b/r) on r < b = R e^(CR/g), with ln b = ln R + CR/g
    where b (2b in 1D) overflows, and inf for a norm beyond the double range."""
    g, R = V.g, V.R
    try:  # ldexp doubles b exactly, and raises where 2.0 * b would round to inf
        b = _shifted_support(V, C)[1]
        ln_support = 3.0 * math.log(b) if dim == 3 else math.log(math.ldexp(b, 1))
    except OverflowError:
        ln_b = math.log(R) + C * R / g
        ln_support = 3.0 * ln_b if dim == 3 else math.log(2.0) + ln_b
    if dim == 3:
        ln_power = (s * math.log(g / R) + ln_support + math.log(4.0 * math.pi)
                    + math.lgamma(s + 1.0) - (s + 1.0) * math.log(3.0))
    else:
        ln_power = s * math.log(g / R) + ln_support + math.lgamma(s + 1.0)
    try:
        return math.exp(ln_power / s)
    except OverflowError:
        return math.inf


def _weight(dim: int, r):
    return 4.0 * math.pi * r * r if dim == 3 else 2.0


def _log_head_norm(amp: float, scale: float, s: float, dim: int, spec) -> float:
    # ||amp * ln(scale/r)||_s over (0, scale) via r = scale e^-t:
    #   power = _weight(dim, 1) * amp^s * scale^dim * int_0^inf t^s e^(-dim t) dt,
    # assembled in log space.  The t-integral is evaluated in plain double
    # precision, which limits this independent-quadrature route to moderate s
    # (the closed form covers every s).
    if s > 100.0:
        raise ConvergenceError(
            "quadrature route for logarithmic norms supports s <= 100; "
            "the Gamma closed form covers larger exponents"
        )
    spec = _power_spec(spec, s)

    def f(t):
        return math.exp(s * math.log(t) - dim * t) if t > 0.0 else 0.0

    base = _quad(f, 0.0, _log_tail_end(s, dim, spec.abs_tol), spec, spec.abs_tol / 4.0)
    ln_power = (math.log(_weight(dim, 1.0)) + s * math.log(amp) + dim * math.log(scale)
                + math.log(base))
    return math.exp(ln_power / s)


def _scaled_power(value: float, k: float, s: float) -> float:
    # (value/k)^s assembled in log space; hard clamps keep deep adaptive
    # subdivisions of singular integrands inside the double range
    if value <= 0.0:
        return 0.0
    ln = s * (math.log(value) - math.log(k))
    if ln < -745.0:
        return 0.0
    if ln > 709.0:
        return math.inf
    return math.exp(ln)


def _singular_head(V: PotentialModel, C: float, k: float, s: float, dim: int):
    """The u = sqrt(r) substituted head integrand of the singular kind,
    2u w(u^2) ((C - V(u^2))^+ / k)^s, assembled in log space.

    For V ~ r^(-1/2) it behaves like u^(5-s) in 3D, singular for 5 < s < 6,
    and like u^(1-s) in 1D, singular for every s > 1; QUADPACK's extrapolation
    absorbs what the substitution leaves.  One closure with the constant logs
    hoisted, doing _profile's operations (np.exp keeps the array path's bits;
    sqrt is correctly rounded in math and numpy alike).
    """
    neg_g, R = -V.g, V.R
    ln_w, u_power = (math.log(8.0 * math.pi), 5.0) if dim == 3 else (math.log(4.0), 1.0)
    ln_k = math.log(k)

    def head(u: float) -> float:
        if u <= 0.0:
            return 0.0
        r = u * u
        base = C - neg_g / math.sqrt(r * R) * np.exp(-r / R)
        if not base > 0.0:
            return 0.0
        ln = ln_w + u_power * math.log(u) + s * (math.log(base) - ln_k)
        if ln < -745.0:
            return 0.0
        return math.exp(min(ln, 709.0))

    return head


def _power_spec(spec: QuadratureSpec, s: float) -> QuadratureSpec:
    # the 1/s root divides the power integral's relative error by s, so the
    # inner quadrature may run s times looser and still meet the norm contract
    slack = min(spec.rel_tol * max(s, 1.0), 1e-7)
    return replace(spec, rel_tol=slack)


def _piece_integrand(x0: float, poly: tuple, g: float, C: float, k: float, s: float, dim: int):
    """_weight(dim, r) * _scaled_power(max(0, C - g pp(r)), k, s) on the table
    piece with left knot x0 and the four coefficients poly of its cubic (PCHIP
    pieces are cubic), summed from the constant term up as scipy's
    evaluate_poly1 does: the bits PPoly gives in the piece."""
    ln_k, four_pi = math.log(k), 4.0 * math.pi
    c0, c1, c2, c3 = poly

    def f(r: float) -> float:
        t = r - x0
        tt = t * t
        base = C - g * (((c0 + c1 * t) + c2 * tt) + c3 * (tt * t))
        if not base > 0.0:
            return 0.0
        ln = s * (math.log(base) - ln_k)
        if ln < -745.0:
            return 0.0
        power = math.inf if ln > 709.0 else math.exp(ln)
        return four_pi * r * r * power if dim == 3 else 2.0 * power

    return f


def _table_head(V: PotentialModel, C: float, k: float, s: float, dim: int, spec) -> float:
    """The integral of w(r) ((C - V(r))^+ / k)^s below the first table radius
    r0 > 0, where V is the fitted power law v0 (r/r0)^p (0 when r0 = 0).

    (C - V)^+ > 0 exactly where v0 (r/r0)^p < C: for v0 < 0 that is r below
    r_c = r0 (C/v0)^(1/p) when p < 0, r above r_c when p > 0, and all of
    (0, r0) or none when p = 0.  The quadrature runs over that support only,
    so a support far shorter than r0 is not lost between QUADPACK's nodes.
    """
    r0 = V.table[0][0]
    if r0 == 0.0:
        return 0.0
    tab = _table(V)
    p, v0 = tab.p, V.g * tab.v0
    # fuzz absorbs roundoff in the fitted exponent at the critical s
    if v0 < 0.0 and p < 0.0 and p * s + dim <= 1e-9:
        raise DivergentNormError(
            f"tabulated potential behaves like r^({p:.3f}) near r = 0; "
            f"its negative part is not in L^{s:g} in {dim}D"
        )
    if not v0 < 0.0:
        return 0.0  # C <= 0 <= v0 (r/r0)^p
    ratio = C / v0  # >= 0; r_c < r0 exactly when ratio > 1 for p < 0, < 1 for p > 0
    if p >= 0.0 and ratio >= 1.0:
        return 0.0
    lo, hi = 0.0, r0
    if p < 0.0 and ratio > 1.0:
        hi = r0 * ratio ** (1.0 / p)
    elif p > 0.0:
        lo = r0 * ratio ** (1.0 / p)
    if not hi > lo:
        return 0.0

    def f(r):
        return _weight(dim, r) * _scaled_power(max(0.0, C - v0 * (r / r0) ** p), k, s)

    return _quad(f, lo, hi, spec, spec.abs_tol / 4.0)


def _table_norm(V: PotentialModel, s: float, dim: int, spec, C: float) -> float:
    """||(C - V)^+||_s of a tabulated potential (C = 0 gives ||V^-||_s),
    integrating piecewise between knots and sign changes.

    V - C/g keeps one sign between consecutive knots and crossings, so a
    piece where (C - V)^+ vanishes at the midpoint vanishes throughout; its
    quadrature would return exactly 0.0 and is skipped.
    """
    spec = _power_spec(spec, s)
    tab = _table(V)
    # monotone interpolation attains its extrema at the knots; C - g v falls
    # monotonically in v, in floating point too
    knot_sup = max(0.0, C - V.g * tab.knot_min)
    k = knot_sup if knot_sup > 0.0 else 1.0

    crossings = tab.pp.solve(C / V.g, extrapolate=False).tolist()
    points = sorted({*tab.knots, *crossings})
    mids = tab.pp([0.5 * (a + b) for a, b in zip(points, points[1:])]).tolist()
    total = 0.0
    n_pieces = max(1, len(points) - 1)
    for a, b, v in zip(points, points[1:], mids):
        # a nan midpoint, outside the knots, fails the test and is skipped
        if C - V.g * v > 0.0:
            i = bisect.bisect_right(tab.knots, a) - 1
            f = _piece_integrand(tab.knots[i], tab.coeffs[i], V.g, C, k, s, dim)
            total += _quad(f, a, b, spec, spec.abs_tol / (4.0 * n_pieces))
    total += _table_head(V, C, k, s, dim, spec)
    return k * total ** (1.0 / s)


def _tail_limit(V: PotentialModel) -> float:
    """lim V at large r: the largest cutoff C for which (C - V)^+ decays.
    Tables vanish beyond their last radius."""
    return math.inf if V.kind is PotentialKind.LOGARITHMIC else 0.0


def _shifted_support(V: PotentialModel, C: float) -> tuple[float, float]:
    """Support interval (a, b) of (C - V)^+ for the parametric kinds, at
    C <= _tail_limit(V), in closed form: a logarithm for exp and log,
    Lambert-W values for sing and pexp.  b is infinite at C = 0 for the
    decaying kinds, where (C - V)^+ = V^-.
    """
    g, R = V.g, V.R
    if V.kind is PotentialKind.LOGARITHMIC:
        return 0.0, R * math.exp(C * R / g)
    if C == 0.0:
        return 0.0, math.inf
    if C <= min_value(V):
        return 0.0, 0.0
    if V.kind is PotentialKind.EXPONENTIAL:
        x = -C * R
        if min(x, x / g) < sys.float_info.min:  # a subnormal keeps only a few digits
            return 0.0, -R * (math.log(-C) + math.log(R) - math.log(g))
        return 0.0, -R * math.log(x / g)
    if V.kind is PotentialKind.SINGULAR:
        # g/R (r/R)^(-1/2) e^(-r/R) = -C.  (g/(CR))^2 as float quotients and
        # products, which overflow to inf (b = inf, as at C = 0) where **
        # would raise, and underflow to 0 (b = 0)
        t = g / R / C
        return 0.0, 0.5 * R * float(lambertw(2.0 * t * t).real)
    # POWER_EXPONENTIAL: (r/R) e^(-r/R) = -x, x = CR/g, on both sides of r = R,
    # at r = -R W_0(x) and -R W_-1(x).  scipy's lambertw is nan at the float
    # nearest the branch point x = -1/e, which x can round to for C above the
    # minimum, and its W_-1 reads about -1 - 3d instead of -1 - sqrt(2d) for
    # d = 1 + e x below 5e-9; there the branches' series
    # W_0 + W_-1 = -2 - 4d/3 + O(d^2) is exact to rounding
    x = max(C * R / g, math.nextafter(-1.0 / math.e, 0.0))
    w0 = float(lambertw(x).real)
    d = 1.0 + math.e * x
    w1 = -2.0 - w0 - 4.0 * d / 3.0 if d < 1e-8 else float(lambertw(x, -1).real)
    return -R * w0, -R * w1


def _quadrature_norm(V: PotentialModel, C: float, s: float, dim: int, spec) -> float:
    """||(C - V)^+||_s by quadrature over its support, for the parametric kinds
    (C <= 0 unless logarithmic; C = 0 gives ||V^-||_s).

    The production route for exp/pexp/sing below the cap C = 0, and the
    reference the closed forms are tested against.  The integrand is scaled
    by C - min V (when finite) so that large exponents cannot overflow.
    """
    a, b = _shifted_support(V, C)
    if b <= a:
        return 0.0
    if V.kind is PotentialKind.LOGARITHMIC:
        # (C - V)(r) = (g/R) ln(b/r) on (0, b)
        return _log_head_norm(V.g / V.R, b, s, dim, spec)

    spec = _power_spec(spec, s)
    vmin = min_value(V)
    k = C - vmin if math.isfinite(vmin) else 1.0

    if V.kind is PotentialKind.POWER_EXPONENTIAL:
        # C - V as k + min V (1 - (1 + t) e^(-t)), t = r/R - 1: no cancellation at min V
        def f(r):
            t = r / V.R - 1.0
            excess = k + vmin * (-math.expm1(-t) - t * math.exp(-t))
            return _weight(dim, r) * _scaled_power(max(0.0, excess), k, s)
    else:
        def f(r):
            return _weight(dim, r) * _scaled_power(max(0.0, C - _profile(V, r)), k, s)

    if V.kind is PotentialKind.SINGULAR:
        split = min(b, V.R)
        # u = sqrt(r) weakens the r^(-s/2) endpoint singularity to u^(5-s)
        # in 3D and u^(1-s) in 1D; see _singular_head
        head = _singular_head(V, C, k, s, dim)
        total = _quad(head, 0.0, math.sqrt(split), spec, spec.abs_tol / 4.0)
        if b == math.inf:
            total += _tail(f, split, spec, spec.abs_tol)
        elif b > split:
            total += _quad(f, split, b, spec, spec.abs_tol / 4.0)
    elif b == math.inf:
        total = _quad(f, 0.0, V.R, spec, spec.abs_tol / 4.0)
        total += _tail(f, V.R, spec, spec.abs_tol)
    else:
        total = _quad(f, a, b, spec, spec.abs_tol / 2.0)
    return k * total ** (1.0 / s)


def negative_part_norm(
    V: PotentialModel, s: float, dim: int = 3, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """||V^-||_s with the radial measure 4 pi r^2 dr in 3D and dx over the
    line in 1D.  ``s = math.inf`` returns the sup norm.

    V^- = (0 - V)^+, so this is the truncated norm at C = 0: Gamma closed
    forms for the parametric kinds, piecewise quadrature for tables.
    """
    return truncated_negative_norm(V, 0.0, s, dim, spec)


def truncated_negative_norm(
    V: PotentialModel, C: float, s: float, dim: int = 3, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """||(min(V, C) - C)^-||_s = ||(C - V)^+||_s: the negative part of V capped
    at the level C and shifted back down, which the confining bound integrates.

    Strictly increasing and continuous in C wherever finite.  One route per
    kind: the logarithmic kind uses a closed form (support r < R e^(CR/g))
    for every C; exp/pexp/sing use the closed form of ||V^-||_s at C = 0 and
    quadrature over the support of (C - V)^+ below it; tables integrate
    piecewise.  ``s = math.inf`` gives C - min(V).
    """
    if s == math.inf:
        return max(0.0, C - min_value(V))
    _check_norm_args(V, s, dim)
    if C > _tail_limit(V):
        raise DivergentNormError(
            f"cutoff C = {C:g} > 0: (C - V)^+ tends to C at large r and its "
            "norm diverges for a decaying potential"
        )
    if V.kind is PotentialKind.LOGARITHMIC:
        return _log_norm(V, C, s, dim)
    if V.kind is PotentialKind.TABULATED:
        return _table_norm(V, s, dim, spec, C)
    if C == 0.0:
        # (0 - V)^+ = V^-
        return _closed_form_norm(V, s, dim)
    return _quadrature_norm(V, C, s, dim, spec)
