"""Special functions: Bessel K0/K1, Young constants, norm integrals."""

import math

import numpy as np
import pytest

from salpeter_bounds import specfun as sf
from salpeter_bounds.errors import ConvergenceError, DomainError

# Reference values computed with 30-digit arbitrary-precision arithmetic
# (mpmath.besselk), frozen here so the suite does not depend on mpmath.
K0_REF = {
    1e-08: 18.536612259610778388,
    0.0001: 9.326271913450274873,
    0.01: 4.7212447301610949443,
    0.1: 2.4270690247020165578,
    0.5: 0.92441907122766586178,
    1.0: 0.42102443824070833334,
    1.5: 0.21380556264752573672,
    1.999: 0.11403383058923290871,
    2.0: 0.11389387274953343565,
    2.001: 0.11375409873668462698,
    3.0: 0.034739504386279248072,
    5.0: 0.0036910983340425942747,
    10.0: 1.7780062316167651811e-05,
    25.0: 3.4641615622131143554e-12,
    50.0: 3.4101677497894955139e-23,
    100.0: 4.6566282291759020189e-45,
    300.0: 3.7236948548891432633e-132,
    500.0: 3.9923216091177928774e-219,
    650.0: 2.5125028846628391769e-284,
}
K1_REF = {
    1e-08: 99999999.999999902725,
    0.0001: 9999.999508686404478,
    0.01: 99.973894118296245561,
    0.1: 9.8538447808706055744,
    0.5: 1.6564411200033008937,
    1.0: 0.60190723019723457474,
    1.5: 0.27738780045684381609,
    1.999: 0.14004984207710966262,
    2.0: 0.13986588181652242728,
    2.001: 0.13968218830176755518,
    3.0: 0.040156431128194184377,
    5.0: 0.0040446134454521642084,
    10.0: 1.8648773453825584597e-05,
    25.0: 3.5327780731999337702e-12,
    50.0: 3.4441022267175556126e-23,
    100.0: 4.6798537356369092866e-45,
    300.0: 3.7298958583323726986e-132,
    500.0: 3.9963119385460033495e-219,
    650.0: 2.5144348369863201201e-284,
}

EULER_GAMMA = 0.5772156649015328606


@pytest.mark.parametrize("x,ref", sorted(K0_REF.items()))
def test_k0_reference_grid(x, ref):
    assert sf.bessel_k0(x) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x,ref", sorted(K1_REF.items()))
def test_k1_reference_grid(x, ref):
    assert sf.bessel_k1(x) == pytest.approx(ref, rel=1e-12)


def test_bessel_vs_scipy_cross_check():
    # independent runtime oracle on a dense log grid
    from scipy.special import k0 as sk0, k1 as sk1

    xs = np.logspace(-6, math.log10(600.0), 300)
    for x in xs:
        assert sf.bessel_k0(float(x)) == pytest.approx(float(sk0(x)), rel=5e-13)
        assert sf.bessel_k1(float(x)) == pytest.approx(float(sk1(x)), rel=5e-13)


def test_k0_small_x_log_divergence():
    # K0(x) -> -ln(x/2) - gamma as x -> 0
    for x in (1e-4, 1e-8, 1e-12):
        lead = -math.log(x / 2.0) - EULER_GAMMA
        assert sf.bessel_k0(x) == pytest.approx(lead, rel=1e-6)


def test_x_k1_limit_is_one():
    # x K1(x) -> 1 as x -> 0
    for x in (1e-4, 1e-8, 1e-12):
        assert x * sf.bessel_k1(x) == pytest.approx(1.0, abs=1e-7)


def test_bessel_underflow_to_zero():
    assert sf.bessel_k0(700.0) == 0.0
    assert sf.bessel_k1(700.0) == 0.0
    assert sf.bessel_k0(650.0) > 0.0
    assert sf.bessel_k0(1000.0) == 0.0


@pytest.mark.parametrize("x", [0.0, -1.0, -1e-300])
def test_bessel_domain_errors(x):
    with pytest.raises(DomainError):
        sf.bessel_k0(x)
    with pytest.raises(DomainError):
        sf.bessel_k1(x)


# ---------------------------------------------------------------------------
# sharp Young constants


def test_young_constant_endpoints():
    assert sf.young_constant(1.0) == 1.0
    assert sf.young_constant(2.0) == pytest.approx(1.0, abs=1e-15)
    assert sf.young_constant(math.inf) == 1.0


def test_young_constant_four_thirds():
    # ((4/3)^(3/4) * 4^(-1/4))^(1/2), evaluated in high precision
    assert sf.young_constant(4.0 / 3.0) == pytest.approx(0.93668707437524814, rel=1e-14)


def test_young_constant_interior_below_one():
    for p in np.linspace(1.0, 2.0, 41):
        c = sf.young_constant(float(p))
        assert 0.0 < c <= 1.0
        if 1.0 < p < 2.0:
            assert c < 1.0


def test_young_constant_domain():
    with pytest.raises(DomainError):
        sf.young_constant(0.99)


# ---------------------------------------------------------------------------
# combined constant


def test_combined_constant_endpoints():
    assert sf.combined_constant(1.0) == pytest.approx(1.0, abs=1e-14)
    assert sf.combined_constant(2.0) == pytest.approx(1.0, abs=1e-14)


def test_combined_constant_four_thirds():
    # closed form ((4/3)^(3/2) / 2)^(1/2)
    want = math.sqrt((4.0 / 3.0) ** 1.5 / 2.0)
    assert sf.combined_constant(4.0 / 3.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.87738267530166164, rel=1e-14)


def test_combined_constant_matches_young_product():
    for q in (1.1, 1.25, 4.0 / 3.0, 1.6, 1.9):
        want = sf.young_constant(q) * sf.young_constant(2.0 * q / (3.0 * q - 2.0))
        assert sf.combined_constant(q) == pytest.approx(want, rel=1e-13)


def test_combined_constant_continuity():
    h = 1e-6
    for q in np.arange(1.0, 2.0 - h, 0.01):
        d = abs(sf.combined_constant(float(q) + h) - sf.combined_constant(float(q)))
        assert d < 1e-5
    assert abs(sf.combined_constant(2.0) - sf.combined_constant(2.0 - h)) < 1e-5


@pytest.mark.parametrize("q", [0.999, 2.001, -1.0, math.nan])
def test_combined_constant_domain(q):
    with pytest.raises(DomainError):
        sf.combined_constant(q)


# ---------------------------------------------------------------------------
# norm integrals

# frozen oracle values: high-precision quadrature of the substituted
# integrand (the substitution removes the endpoint singularity exactly)
K1_INTEGRAL_REF = {
    1.2: 1.8715811678389165,
    1.3: 2.5697102646578402,
    1.4: 4.945339958954398,
    1.49: 49.833232115678975,
}
K0_INTEGRAL_REF = {
    1.25: 1.61366481831564822,
    1.5: 1.7730234328315864,
    1.75: 2.04962447462508921,
}


def test_k1_power_integral_mellin_anchor():
    # int_0^inf x K1(x) dx = Gamma(1/2) Gamma(3/2) = pi/2
    assert sf.k1_power_integral(1.0) == pytest.approx(math.pi / 2.0, abs=1e-10)


@pytest.mark.parametrize("q,ref", sorted(K1_INTEGRAL_REF.items()))
def test_k1_power_integral_values(q, ref):
    assert sf.k1_power_integral(q) == pytest.approx(ref, rel=1e-10)


def test_k1_power_integral_tolerance_halving():
    loose = sf.k1_power_integral(1.4, sf.QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8))
    tight = sf.k1_power_integral(1.4, sf.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    assert loose == pytest.approx(tight, abs=2e-8)


@pytest.mark.parametrize("q", [1.5, 1.6, 0.99, math.nan])
def test_k1_power_integral_domain(q):
    with pytest.raises(DomainError):
        sf.k1_power_integral(q)


def test_k1_power_integral_converges_near_upper_endpoint():
    assert math.isfinite(sf.k1_power_integral(1.4999))


def test_k0_power_integral_anchors():
    # int K0 = pi/2 (Mellin at s=1), int K0^2 = pi^2/4
    assert sf.k0_power_integral(1.0) == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert sf.k0_power_integral(2.0) == pytest.approx(math.pi**2 / 4.0, abs=1e-10)


@pytest.mark.parametrize("q,ref", sorted(K0_INTEGRAL_REF.items()))
def test_k0_power_integral_values(q, ref):
    assert sf.k0_power_integral(q) == pytest.approx(ref, rel=1e-10)


def test_k0_power_integral_large_q_finite():
    assert math.isfinite(sf.k0_power_integral(7.0))


def test_k0_power_integral_domain():
    with pytest.raises(DomainError):
        sf.k0_power_integral(0.5)


def test_tail_that_never_decays_raises(monkeypatch):
    monkeypatch.setattr(sf, "_TAIL_CAP", 2.0)
    with pytest.raises(ConvergenceError, match="still contributing"):
        sf._tail(lambda x: 1.0, 1.0, sf.DEFAULT_QUADRATURE, 1e-12)


# ---------------------------------------------------------------------------
# Green's-function norms


@pytest.mark.parametrize("m", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("alpha", [1, 2])
def test_green_norm_unity_anchors(m, alpha):
    assert sf.green_norm_3d(1.0, m, alpha) * alpha * m == pytest.approx(1.0, abs=1e-10)
    assert sf.green_norm_1d(1.0, m, alpha) * alpha * m == pytest.approx(1.0, abs=1e-10)


def test_green_norm_3d_mass_scaling_example():
    # q = 1, m = 2, alpha = 2 -> 1/(alpha m) = 1/4
    assert sf.green_norm_3d(1.0, 2.0, 2) == pytest.approx(0.25, rel=1e-12)
    assert sf.green_norm_1d(1.0, 3.0, 2) == pytest.approx(1.0 / 6.0, rel=1e-12)


@pytest.mark.parametrize("q", [1.05, 1.2, 1.45])
def test_green_norm_3d_scaling_law(q):
    base = sf.green_norm_3d(q, 1.0, 2)
    for m in (0.3, 2.0, 7.0):
        want = m ** (2.0 - 3.0 / q) * base
        assert sf.green_norm_3d(q, m, 2) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("q", [1.2, 1.7, 2.0])
def test_green_norm_1d_scaling_law(q):
    base = sf.green_norm_1d(q, 1.0, 2)
    for m in (0.3, 2.0, 7.0):
        want = m ** (-1.0 / q) * base
        assert sf.green_norm_1d(q, m, 2) == pytest.approx(want, rel=1e-10)


def test_green_norm_composition():
    q, m, alpha = 1.2, 1.7, 2
    want = (
        m ** (2.0 - 3.0 / q)
        * (4.0 * math.pi) ** (1.0 / q)
        / (2.0 * math.pi**2)
        * sf.k1_power_integral(q) ** (1.0 / q)
        / alpha
    )
    assert sf.green_norm_3d(q, m, alpha) == pytest.approx(want, rel=1e-13)
    want1 = (
        m ** (-1.0 / q) * 2.0 ** (1.0 / q) / math.pi * sf.k0_power_integral(q) ** (1.0 / q) / alpha
    )
    assert sf.green_norm_1d(q, m, alpha) == pytest.approx(want1, rel=1e-13)


def test_green_constants_at_one():
    assert sf.green_constant_3d(1.0) == pytest.approx(1.0, abs=1e-8)
    assert sf.green_constant_1d(1.0) == pytest.approx(1.0, abs=1e-8)


def test_green_norm_domain():
    with pytest.raises(DomainError):
        sf.green_norm_3d(1.2, 0.0, 2)
    with pytest.raises(DomainError):
        sf.green_norm_3d(1.2, -1.0, 2)
    with pytest.raises(DomainError):
        sf.green_norm_3d(1.2, 1.0, 3)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        sf.QuadratureSpec(abs_tol=0.0)


def test_integral_memoization_stable():
    a = sf.k1_power_integral(1.23)
    b = sf.k1_power_integral(1.23)
    assert a == b


# float.hex of K1 and x K1 recorded before the two ascending series of K1
# became one; they must never move without an intended change of values
@pytest.mark.parametrize("x, k1, xk1", [
    (1e-300, "0x1.7e43c8800759bp+996", "0x1.0000000000000p+0"),
    (1e-30, "0x1.93e5939a08ce9p+99", "0x1.0000000000000p+0"),
    (1e-08, "0x1.7d783fffffffap+26", "0x1.ffffffffffff7p-1"),
    (0.001, "0x1.f3ff84bb5db52p+9", "0x1.ffff81c601bfap-1"),
    (0.05, "0x1.3e8e06aa7ad1cp+4", "0x1.fdb00aaa5e1c7p-1"),
    (0.3, "0x1.872abf3844936p+1", "0x1.d5667f10524a8p-1"),
    (0.7, "0x1.0cdf61bbb23d1p+0", "0x1.786bef39f9889p-1"),
    (1.0, "0x1.342d2f39d89c2p-1", "0x1.342d2f39d89c2p-1"),
    (1.3, "0x1.7d7d1737c8af0p-2", "0x1.efef6afbb816cp-2"),
    (1.75, "0x1.90567bae3918cp-3", "0x1.5e4bac3871f5cp-2"),
    (1.999, "0x1.1ed2739c3fcc2p-3", "0x1.1eadbd0648782p-2"),
    (2.0, "0x1.1e7200e1d3482p-3", "0x1.1e7200e1d3482p-2"),
])
def test_k1_golden_values(x, k1, xk1):
    assert sf.bessel_k1(x).hex() == k1
    assert sf._xk1(x).hex() == xk1


# float.hex of the Green integrals and constants recorded before the tail
# integrands read K1/K0 through the node memos; the memos must not move a bit
K1_INTEGRAL_GOLDEN = {
    1.0: ("0x1.921fb54442d18p+0", "0x1.0000000000000p+0"),
    1.2: ("0x1.df1ff183ad796p+0", "0x1.68674b887762ep-1"),
    1.45: ("0x1.3c46ace839f0fp+3", "0x1.68b0e015d18eep+0"),
}
K0_INTEGRAL_GOLDEN = {
    1.0: ("0x1.921fb54442d08p+0", "0x1.fffffffffffecp-1"),
    1.5: ("0x1.c5e4dd1b0da51p+0", "0x1.7afae79f0a78ap-1"),
    2.0: ("0x1.3bd3cc9be45d7p+1", "0x1.6a09e667f3bc9p-1"),
}


def _green_hex(qs_k1, qs_k0):
    k1 = {q: (sf.k1_power_integral(q).hex(), sf.green_constant_3d(q).hex()) for q in qs_k1}
    k0 = {q: (sf.k0_power_integral(q).hex(), sf.green_constant_1d(q).hex()) for q in qs_k0}
    return k1, k0


def test_green_integral_golden_values():
    assert _green_hex(K1_INTEGRAL_GOLDEN, K0_INTEGRAL_GOLDEN) == (
        K1_INTEGRAL_GOLDEN, K0_INTEGRAL_GOLDEN)


def test_green_integrals_from_cold_memos_in_reverse_order():
    # a cold evaluation order must give the bits a warm memo gives
    for memo in (sf._k1_power_integral_cached, sf._k0_power_integral_cached,
                 sf._k1_tail, sf._k0_tail):
        memo.cache_clear()
    assert _green_hex(sorted(K1_INTEGRAL_GOLDEN, reverse=True),
                      sorted(K0_INTEGRAL_GOLDEN, reverse=True)) == (
        K1_INTEGRAL_GOLDEN, K0_INTEGRAL_GOLDEN)
