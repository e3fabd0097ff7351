"""Special functions for the semirelativistic kinetic-energy Green's functions.

Provides the modified Bessel functions K0 and K1, the sharp Young convolution
constants, the combined constant entering the ground-state bounds, and the
singularity-aware quadratures for the Green's-function norm integrals

    int_0^inf x^(2-q) K1(x)^q dx      (three dimensions, finite for 1 <= q < 3/2)
    int_0^inf K0(x)^q dx              (one dimension, finite for all q >= 1)

All functions are pure; the integral evaluators are memoized per
(q, QuadratureSpec), which is safe for concurrent callers.  The tail
integrands beyond x = 1 read K1 and K0 through the memos ``_k1_tail`` and
``_k0_tail``: the tail is integrated in the same chunks for every q, so its
quadrature nodes do not depend on q and a q sweep asks for the same few
hundred Bessel values again and again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.integrate import quad

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "bessel_k0",
    "bessel_k1",
    "young_constant",
    "combined_constant",
    "k1_power_integral",
    "k0_power_integral",
    "green_constant_3d",
    "green_constant_1d",
    "green_norm_3d",
    "green_norm_1d",
]

_EULER_GAMMA = 0.5772156649015328606065120900824024

# Value below which K0/K1 are reported as underflowed to zero.
_UNDERFLOW = 1e-300

# Chebyshev coefficients of sqrt(x) exp(x) K_nu(x) in the variable u = 8/x - 2,
# valid for x >= 2.  Generated by 40-digit Chebyshev interpolation; the
# resulting double-precision evaluation is accurate to ~2e-16 relative on
# [2, 700].  Convention: sum_k c_k T_k(u/2) with c_0 halved (Clenshaw below).
_K0_CHEB = (
    2.4403030820659555,
    -0.0314481013119645,
    0.0015698838857300533,
    -0.00012849549581627802,
    1.39498137188765e-05,
    -1.8317555227191195e-06,
    2.766813639445015e-07,
    -4.660489897687948e-08,
    8.574034017414225e-09,
    -1.6975345093890614e-09,
    3.5773972814003283e-10,
    -7.957489244477396e-11,
    1.8559491149549255e-11,
    -4.514597883374494e-12,
    1.1403405882072821e-12,
    -2.9800969231465997e-13,
    8.032890775027971e-14,
    -2.2275133266420368e-14,
    6.3400764735635515e-15,
    -1.8485933707991103e-15,
    5.512055810766276e-16,
    -1.6782306214037833e-16,
    5.210378161331105e-17,
    -1.6475434593683223e-17,
    5.2994103047116735e-18,
    -1.7303192664670213e-18,
    5.674721879471752e-19,
    -1.7097736336127542e-19,
)
_K1_CHEB = (
    2.7206261904844427,
    0.10392373657681724,
    -0.002857816859622779,
    0.00019521551847135162,
    -1.936197974166083e-05,
    2.406484947837217e-06,
    -3.5019606030878126e-07,
    5.7410841254500495e-08,
    -1.0345762465678097e-08,
    2.0150497551970347e-09,
    -4.1903547593419254e-10,
    9.218315187605313e-11,
    -2.12996783842779e-11,
    5.139639673482317e-12,
    -1.2891739609497572e-12,
    3.348419666050573e-13,
    -8.97670518196736e-14,
    2.4771544241090746e-14,
    -7.019837086335536e-15,
    2.0387031586733734e-15,
    -6.057047069987633e-16,
    1.8380930380913018e-16,
    -5.689448328282811e-17,
    1.794011391437408e-17,
    -5.7556499163478675e-18,
    1.8748104322268104e-18,
    -6.135400466721307e-19,
    1.8454550128095663e-19,
)


# QUADPACK subdivision limit per integral, and the tail policy: the range
# beyond a start point is integrated in chunks growing by _TAIL_GROWTH until
# one contributes less than abs_tol/8, failing if _TAIL_CAP is reached first
_MAX_SUBDIVISIONS = 200
_TAIL_GROWTH = 2.0
_TAIL_CAP = 4000.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Error control for the norm integrals: absolute and relative tolerance."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise DomainError("quadrature tolerances must be positive and finite")


DEFAULT_QUADRATURE = QuadratureSpec()


def _chbevl(u: float, coeffs) -> float:
    # Clenshaw recurrence for sum_k c_k T_k(u/2), first coefficient halved.
    b0 = 0.0
    b1 = 0.0
    b2 = 0.0
    for c in reversed(coeffs):
        b2 = b1
        b1 = b0
        b0 = u * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _k0_small(x: float) -> float:
    # Ascending series, x <= 2:
    # K0 = -(ln(x/2) + gamma) I0(x) + sum_{k>=1} H_k (x^2/4)^k / (k!)^2
    t = 0.25 * x * x
    i0 = 1.0
    term = 1.0
    s = 0.0
    hk = 0.0
    for k in range(1, 40):
        term *= t / (k * k)
        i0 += term
        hk += 1.0 / k
        s += term * hk
        if term < 1e-18 * i0:
            break
    return -(math.log(0.5 * x) + _EULER_GAMMA) * i0 + s


def _k1_series(x: float, floor: float) -> tuple[float, float]:
    # Ascending series of K1, x <= 2: returns I1(x) and
    #   S(x) = sum_{k>=0} [psi(k+1) + psi(k+2)] (x^2/4)^k / (k! (k+1)!),
    # summed until a term falls below 1e-18 max(|S|, floor)
    t = 0.25 * x * x
    i1 = 0.5 * x
    term_i = 0.5 * x
    term = 1.0
    hk = 0.0
    hk1 = 1.0
    s = (hk + hk1 - 2.0 * _EULER_GAMMA) * term
    for k in range(1, 40):
        term *= t / (k * (k + 1))
        term_i *= t / (k * (k + 1))
        i1 += term_i
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        ds = (hk + hk1 - 2.0 * _EULER_GAMMA) * term
        s += ds
        if abs(ds) < 1e-18 * max(abs(s), floor):
            break
    return i1, s


def _k1_small(x: float) -> float:
    # K1 = 1/x + ln(x/2) I1(x) - (x/4) S(x), x <= 2
    i1, s = _k1_series(x, 0.0)
    return 1.0 / x + math.log(0.5 * x) * i1 - 0.25 * x * s


def bessel_k0(x: float) -> float:
    """Modified Bessel function K0(x), x > 0.

    Relative error below 1e-12 over (0, 700]; values under 1e-300 are
    reported as an underflow to exactly 0.
    """
    if not x > 0.0:
        raise DomainError(f"K0 requires x > 0, got {x!r}")
    if x <= 2.0:
        return _k0_small(x)
    v = _chbevl(8.0 / x - 2.0, _K0_CHEB) * math.exp(-x) / math.sqrt(x)
    return v if v >= _UNDERFLOW else 0.0


def bessel_k1(x: float) -> float:
    """Modified Bessel function K1(x), x > 0.  Same accuracy contract as K0."""
    if not x > 0.0:
        raise DomainError(f"K1 requires x > 0, got {x!r}")
    if x <= 2.0:
        return _k1_small(x)
    v = _chbevl(8.0 / x - 2.0, _K1_CHEB) * math.exp(-x) / math.sqrt(x)
    return v if v >= _UNDERFLOW else 0.0


# the tail integrands' Bessel values, keyed by the quadrature node alone
_k1_tail = lru_cache(maxsize=4096)(bessel_k1)
_k0_tail = lru_cache(maxsize=4096)(bessel_k0)


def _xk1(x: float) -> float:
    # x * K1(x), 0 <= x <= 2, without cancellation down to x = 0 (limit 1):
    # x K1 = 1 + x ln(x/2) I1(x) - (x^2/4) S(x), the series of _k1_small;
    # below the smallest x/2 > 0 the sum rounds to its limit.
    if not 0.5 * x > 0.0:
        return 1.0
    i1, s = _k1_series(x, 1.0)
    return 1.0 + x * math.log(0.5 * x) * i1 - 0.25 * x * x * s


def _pow_self(t: float) -> float:
    # t**t with the continuous limit 0**0 = 1.
    if t == 0.0:
        return 1.0
    return math.exp(t * math.log(t))


def young_constant(p: float) -> float:
    """Best constant C_p of the sharp Young convolution inequality.

    (C_p)^2 = p^(1/p) / p'^(1/p') with 1/p' = 1 - 1/p; the limits p = 1 and
    p = infinity both give 1.
    """
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"Young constant requires p >= 1, got {p!r}")
    if p == 1.0 or math.isinf(p):
        return 1.0
    pp = p / (p - 1.0)
    c2 = math.exp(math.log(p) / p - math.log(pp) / pp)
    return math.sqrt(c2)


def combined_constant(q: float) -> float:
    """The constant C_q * C_{2q/(3q-2)} multiplying the norm term of the bounds.

    Defined for 1 <= q <= 2; the endpoint factors of the closed form are
    evaluated with the continuous limit 0^0 = 1, so the endpoints give
    exactly 1.
    """
    if math.isnan(q) or not (1.0 <= q <= 2.0):
        raise DomainError(f"combined constant requires 1 <= q <= 2, got {q!r}")
    a = math.exp(math.log(q) / q)
    b = _pow_self((q - 1.0) / q)
    x = 2.0 * q / (3.0 * q - 2.0)
    c = math.exp(math.log(x) / x)
    d = _pow_self((2.0 - q) / (2.0 * q))
    return math.sqrt(a * b * c * d)


def _quad(f, a: float, b: float, spec: QuadratureSpec, abs_tol: float) -> float:
    # full_output returns QUADPACK's advisory message instead of warning it;
    # the error estimate is checked explicitly below, the callers' contract
    val, err = quad(
        f,
        a,
        b,
        epsabs=abs_tol,
        epsrel=spec.rel_tol,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
    )[:2]
    # the guard flags integrations that genuinely failed; requested-tolerance
    # conformance is covered by the analytic anchor tests
    limit = max(abs_tol * 50.0, spec.rel_tol * abs(val) * 50.0, 1e-6 * abs(val))
    if not math.isfinite(val) or err > limit:
        raise ConvergenceError(
            f"quadrature on [{a}, {b}] reported error {err:.2e} for value {val:.6e}"
        )
    return val


def _tail(f, start: float, spec: QuadratureSpec, abs_tol: float) -> float:
    # Geometric chunking [start, g*start], [g*start, g^2*start], ... until a
    # chunk falls below abs_tol/8; the integrands here decay exponentially.
    total = 0.0
    a = start
    while a < _TAIL_CAP:
        b = min(a * _TAIL_GROWTH, _TAIL_CAP)
        chunk = _quad(f, a, b, spec, abs_tol / 8.0)
        total += chunk
        if abs(chunk) < abs_tol / 8.0:
            return total
        a = b
    raise ConvergenceError(
        f"tail integral still contributing above {abs_tol:.1e} at cutoff "
        f"{_TAIL_CAP:g}; loosen the tolerances"
    )


@lru_cache(maxsize=4096)
def _k1_power_integral_cached(q: float, spec: QuadratureSpec) -> float:
    # head: substitute x = u^kappa with kappa = 2/(3-2q), which maps the
    # x^(2-2q) endpoint singularity to an exactly linear factor:
    #   int_0^1 x^(2-q) K1(x)^q dx = int_0^1 kappa * u * (x K1(x))^q du
    kappa = 2.0 / (3.0 - 2.0 * q)

    def head(u: float) -> float:
        x = u**kappa
        return kappa * u * _xk1(x) ** q

    def body(x: float) -> float:
        return x ** (2.0 - q) * _k1_tail(x) ** q

    total = _quad(head, 0.0, 1.0, spec, spec.abs_tol / 4.0)
    total += _tail(body, 1.0, spec, spec.abs_tol)
    return total


def k1_power_integral(q: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """int_0^inf x^(2-q) K1(x)^q dx for 1 <= q < 3/2.

    Near x = 0 the integrand behaves like x^(2-2q), so the integral diverges
    for q >= 3/2 and such q are rejected.
    """
    if math.isnan(q) or not (1.0 <= q < 1.5):
        raise DomainError(f"K1 power integral requires 1 <= q < 3/2, got {q!r}")
    return _k1_power_integral_cached(float(q), spec)


def _log_tail_end(power: float, rate: float, abs_tol: float) -> float:
    # T with int_T^inf t^power e^(-rate t) dt negligible against abs_tol: 8
    # steps towards rate T = ln(256/abs_tol) + power ln(1 + T), capped at 700
    t_max = max(45.0, -math.log(abs_tol))
    for _ in range(8):
        t_max = (-math.log(abs_tol / 256.0) + power * math.log1p(t_max)) / rate
    return min(t_max, 700.0)


@lru_cache(maxsize=4096)
def _k0_power_integral_cached(q: float, spec: QuadratureSpec) -> float:
    # head: substitute x = exp(-t), absorbing the log^q endpoint singularity:
    #   int_0^1 K0(x)^q dx = int_0^inf K0(e^-t)^q e^-t dt
    # The transformed integrand decays like t^q e^-t; pick T so the remainder
    # is negligible, then integrate the smooth finite piece.
    t_max = _log_tail_end(q, 1.0, spec.abs_tol)

    def head(t: float) -> float:
        x = math.exp(-t)
        return bessel_k0(x) ** q * x

    def body(x: float) -> float:
        return _k0_tail(x) ** q

    total = _quad(head, 0.0, t_max, spec, spec.abs_tol / 4.0)
    total += _tail(body, 1.0, spec, spec.abs_tol)
    return total


def k0_power_integral(q: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """int_0^inf K0(x)^q dx, finite for every q >= 1."""
    if math.isnan(q) or not q >= 1.0:
        raise DomainError(f"K0 power integral requires q >= 1, got {q!r}")
    return _k0_power_integral_cached(float(q), spec)


def _check_mass_alpha(m: float, alpha: float) -> None:
    if not 0.0 < m < math.inf:
        raise DomainError(f"mass must be positive and finite, got {m!r}")
    if alpha not in (1, 2):
        raise DomainError(f"alpha must be 1 or 2, got {alpha!r}")
    if not alpha * m < math.inf:
        raise DomainError(f"alpha * m must be finite, got {alpha!r} * {m!r}")


def green_constant_3d(q: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mass- and alpha-independent factor of the 3D Green's-function q-norm:
    (4 pi)^(1/q) / (2 pi^2) * [int_0^inf x^(2-q) K1(x)^q dx]^(1/q).
    """
    integral = k1_power_integral(q, spec)
    return (4.0 * math.pi) ** (1.0 / q) / (2.0 * math.pi**2) * integral ** (1.0 / q)


def green_constant_1d(q: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mass- and alpha-independent factor of the 1D Green's-function q-norm:
    2^(1/q) / pi * [int_0^inf K0(x)^q dx]^(1/q).
    """
    integral = k0_power_integral(q, spec)
    return 2.0 ** (1.0 / q) / math.pi * integral ** (1.0 / q)


def green_norm_3d(
    q: float, m: float, alpha: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """L^q norm of the 3D kinetic-energy Green's function,
    m^(2-3/q) * green_constant_3d(q) / alpha.  Requires m > 0: the norms all
    diverge in the ultrarelativistic (massless) limit.
    """
    _check_mass_alpha(m, alpha)
    return m ** (2.0 - 3.0 / q) * green_constant_3d(q, spec) / alpha


def green_norm_1d(
    q: float, m: float, alpha: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """L^q norm of the 1D kinetic-energy Green's function,
    m^(-1/q) * green_constant_1d(q) / alpha.
    """
    _check_mass_alpha(m, alpha)
    return m ** (-1.0 / q) * green_constant_1d(q, spec) / alpha
