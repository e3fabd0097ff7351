"""Potential models, negative-part norms, and the cutoff-and-shift norms."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from salpeter_bounds import potentials as pot
from salpeter_bounds.errors import ConvergenceError, DivergentNormError, DomainError
from salpeter_bounds.potentials import PotentialKind
from salpeter_bounds.specfun import QuadratureSpec

ALL_KINDS = [
    pot.exponential,
    pot.power_exponential,
    pot.singular,
    pot.logarithmic,
]


def test_evaluate_examples():
    assert pot.evaluate(pot.exponential(1.0, 1.0), 0.0) == -1.0
    assert pot.evaluate(pot.logarithmic(1.0, 1.0), 1.0) == 0.0
    assert pot.evaluate(pot.singular(2.0, 1.0), 4.0) == pytest.approx(
        -math.exp(-4.0), rel=1e-15
    )
    # power-exponential at its minimum r = R
    assert pot.evaluate(pot.power_exponential(1.0, 2.0), 2.0) == pytest.approx(
        -1.0 / (math.e * 2.0), rel=1e-15
    )


def test_evaluate_array_matches_scalar():
    V = pot.power_exponential(1.3, 0.7)
    rs = np.array([0.1, 1.0, 3.0])
    arr = pot.evaluate(V, rs)
    for r, v in zip(rs, arr):
        assert v == pot.evaluate(V, float(r))


@pytest.mark.parametrize("make", ALL_KINDS)
def test_profile_kernel_matches_evaluate_bit_for_bit(make):
    # the norm integrands call _profile on QUADPACK's float nodes; it must
    # give the bits evaluate gives, for a scalar and for an array element
    V = make(1.7, 0.8)
    rng = np.random.default_rng(5)
    rs = V.R * np.exp(rng.uniform(math.log(1e-12), math.log(50.0), 2000))
    for r, v in zip(rs.tolist(), pot.evaluate(V, rs).tolist()):
        assert pot._profile(V, r) == v == pot.evaluate(V, r)


def test_evaluate_domain():
    with pytest.raises(DomainError):
        pot.evaluate(pot.exponential(1.0, 1.0), -0.5)
    for make in (pot.singular, pot.logarithmic):
        with pytest.raises(DomainError):
            pot.evaluate(make(1.0, 1.0), 0.0)
    # non-singular kinds are fine at the origin
    assert pot.evaluate(pot.power_exponential(1.0, 1.0), 0.0) == 0.0


def test_model_validation():
    with pytest.raises(DomainError):
        pot.exponential(0.0, 1.0)
    with pytest.raises(DomainError):
        pot.exponential(1.0, -2.0)
    with pytest.raises(DomainError):
        pot.tabulated([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        pot.tabulated([0.5], [1.0])


def test_only_tabulated_potentials_carry_a_table():
    with pytest.raises(DomainError, match="only tabulated potentials carry a table"):
        pot.PotentialModel(PotentialKind.EXPONENTIAL, 1.0, 1.0, table=((0.0, -1.0), (1.0, 0.0)))


def test_sup_negative():
    assert pot.sup_negative(pot.exponential(2.0, 4.0)) == pytest.approx(0.5)
    assert pot.sup_negative(pot.power_exponential(1.0, 1.0)) == pytest.approx(
        1.0 / math.e
    )
    assert pot.sup_negative(pot.singular(1.0, 1.0)) == math.inf
    assert pot.sup_negative(pot.logarithmic(1.0, 1.0)) == math.inf
    assert pot.negative_part_norm(pot.exponential(2.0, 4.0), math.inf) == pytest.approx(0.5)


def test_closed_form_norm_exponential_formula():
    # g R^(3/s - 1) (8 pi / s^3)^(1/s)
    g, R = 2.0, 0.5
    V = pot.exponential(g, R)
    for s in (1.5, 2.0, 2.5, 4.0):
        want = g * R ** (3.0 / s - 1.0) * (8.0 * math.pi / s**3) ** (1.0 / s)
        assert pot.negative_part_norm(V, s, 3) == pytest.approx(want, rel=1e-13)


def test_closed_form_norm_power_exponential_formula():
    # g R^(3/s - 1) (4 pi Gamma(s+3) / s^(s+3))^(1/s)
    g, R = 1.3, 0.9
    V = pot.power_exponential(g, R)
    for s in (1.5, 2.0, 3.0):
        want = g * R ** (3.0 / s - 1.0) * (
            4.0 * math.pi * math.gamma(s + 3.0) / s ** (s + 3.0)
        ) ** (1.0 / s)
        assert pot.negative_part_norm(V, s, 3) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("make", ALL_KINDS)
@pytest.mark.parametrize("dim", [3, 1])
@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
def test_quadrature_matches_closed_form(make, dim, s):
    if make is pot.singular and ((dim == 3 and s >= 6) or (dim == 1 and s >= 2)):
        pytest.skip("norm diverges there")
    V = make(1.3, 0.7)
    cf = pot.negative_part_norm(V, s, dim)
    qd = pot._quadrature_norm(V, 0.0, s, dim, QuadratureSpec())
    assert qd == pytest.approx(cf, rel=1e-10)


@pytest.mark.parametrize("make", ALL_KINDS)
@pytest.mark.parametrize("dim", [3, 1])
def test_coupling_linearity(make, dim):
    s = 1.8 if make is pot.singular else 2.5
    a = pot.negative_part_norm(make(1.0, 0.8), s, dim)
    b = pot.negative_part_norm(make(3.0, 0.8), s, dim)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_singular_norm_divergence():
    S = pot.singular(1.0, 1.0)
    for s in (6.0, 7.5):
        with pytest.raises(DivergentNormError):
            pot.negative_part_norm(S, s, 3)
    for s in (2.0, 3.0):
        with pytest.raises(DivergentNormError):
            pot.negative_part_norm(S, s, 1)
    assert pot.negative_part_norm(S, 5.9, 3) > 0.0


def test_logarithmic_norm_is_finite():
    # V^- of the log potential is supported on r < R, so every s-norm exists:
    # g R^(3/s-1) (4 pi Gamma(s+1) / 3^(s+1))^(1/s) in 3D
    g, R = 1.0, 2.0
    L = pot.logarithmic(g, R)
    for s in (1.5, 2.0, 5.0):
        want = g * R ** (3.0 / s - 1.0) * (
            4.0 * math.pi * math.gamma(s + 1.0) / 3.0 ** (s + 1.0)
        ) ** (1.0 / s)
        assert pot.negative_part_norm(L, s, 3) == pytest.approx(want, rel=1e-12)


def test_logarithmic_quadrature_rejects_large_exponent():
    # the double-precision quadrature route stops at s = 100; the closed form
    # covers larger exponents
    with pytest.raises(ConvergenceError):
        pot._quadrature_norm(pot.logarithmic(1.0, 1.0), 0.0, 150.0, 3, QuadratureSpec())
    assert pot.negative_part_norm(pot.logarithmic(1.0, 1.0), 150.0, 3) > 0.0


def test_norm_zero_iff_no_negative_part():
    T = pot.tabulated([0.0, 1.0, 2.0], [0.3, 0.1, 0.0])
    assert pot.negative_part_norm(T, 2.0, 3) == 0.0
    assert pot.sup_negative(T) == 0.0
    T2 = pot.tabulated([0.0, 1.0, 2.0], [0.3, -0.1, 0.0])
    assert pot.negative_part_norm(T2, 2.0, 3) > 0.0


def test_norm_domain_checks():
    V = pot.exponential(1.0, 1.0)
    with pytest.raises(DomainError):
        pot.negative_part_norm(V, 1.0, 3)
    with pytest.raises(DomainError):
        pot.negative_part_norm(V, 2.0, 2)


# ---------------------------------------------------------------------------
# tabulated potentials


def test_load_table_roundtrip(tmp_path):
    path = tmp_path / "well.dat"
    rs = np.linspace(0.0, 30.0, 2000)
    path.write_text(
        "# r (GeV^-1)   V (GeV)\n"
        + "\n".join(f"{r:.10f} {-math.exp(-r):.12g}" for r in rs)
        + "\n"
    )
    T = pot.load_table(path)
    assert T.kind is PotentialKind.TABULATED
    assert pot.evaluate(T, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-7)
    assert pot.evaluate(T, 100.0) == 0.0  # beyond the table


def test_load_table_bad_columns(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("1 2 3\n4 5 6\n")
    with pytest.raises(DomainError):
        pot.load_table(path)


def test_load_table_unreadable_file_names_it(tmp_path):
    missing = tmp_path / "missing.dat"
    with pytest.raises(DomainError, match=f"cannot read table {missing}"):
        pot.load_table(missing)
    garbled = tmp_path / "garbled.dat"
    garbled.write_text("0.5 -1\n1 abc\n")
    with pytest.raises(DomainError, match=f"cannot read table {garbled}"):
        pot.load_table(garbled)


def test_table_power_law_head_below_first_radius():
    # the first two samples fix p = log(-1/-2)/log(1/0.5) = -1, so below
    # r0 = 0.5 the table reads g v0 (r/r0)^p = 1.5 * -2 * 0.5/r
    T = pot.tabulated([0.5, 1.0, 2.0, 4.0], [-2.0, -1.0, -0.4, -0.1], g=1.5)
    want = [-12.0, -6.0]
    for r, v in zip((0.125, 0.25), want):
        assert pot.evaluate(T, r) == pytest.approx(v, rel=1e-14)
    np.testing.assert_allclose(pot.evaluate(T, np.array([0.125, 0.25])), want, rtol=1e-14)
    assert pot.min_value(T) == -math.inf


def test_table_norm_matches_analytic():
    rs = np.linspace(0.0, 40.0, 4000)
    T = pot.tabulated(rs, -np.exp(-rs))
    E = pot.exponential(1.0, 1.0)
    for s, dim in ((2.0, 3), (3.0, 3), (2.0, 1)):
        assert pot.negative_part_norm(T, s, dim) == pytest.approx(
            pot.negative_part_norm(E, s, dim), rel=1e-6
        )


def test_yukawa_table_divergence():
    rr = np.geomspace(0.01, 30.0, 500)
    Y = pot.tabulated(rr, -1.0 / rr)
    for s in (3.0, 3.5, 6.0):
        with pytest.raises(DivergentNormError):
            pot.negative_part_norm(Y, s, 3)
    # below the integrability threshold the norm exists
    assert pot.negative_part_norm(Y, 2.5, 3) > 0.0


def test_table_interp_rules():
    # one rule, the monotone (PCHIP) cubic through the samples; no knob
    rs = [0.0, 1.0, 2.0, 3.0]
    vs = [-1.0, -0.5, -0.25, 0.0]
    assert pot.evaluate(pot.tabulated(rs, vs), 1.0) == pytest.approx(-0.5)
    with pytest.raises(TypeError):
        pot.tabulated(rs, vs, interp="linear")


# ---------------------------------------------------------------------------
# truncated potentials


def test_truncated_log_closed_form_anchor():
    # g = R = 1, C = 0, s = 2, 3D: [4 pi * int_0^1 r^2 ln(r)^2 dr]^(1/2)
    # and int_0^1 r^2 ln(r)^2 dr = 2/27 by repeated integration by parts
    L = pot.logarithmic(1.0, 1.0)
    want = math.sqrt(4.0 * math.pi * 2.0 / 27.0)
    got = pot.truncated_negative_norm(L, 0.0, 2.0, 3)
    assert got == pytest.approx(want, rel=1e-13)
    quadrature = pot._quadrature_norm(L, 0.0, 2.0, 3, QuadratureSpec())
    assert quadrature == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("C", [-1.0, -0.3, 0.4, 2.0])
@pytest.mark.parametrize("s", [1.5, 2.0, 4.0])
def test_truncated_log_closed_vs_quadrature(C, s):
    L = pot.logarithmic(0.7, 2.5)
    cf = pot.truncated_negative_norm(L, C, s, 3)
    qd = pot._quadrature_norm(L, C, s, 3, QuadratureSpec())
    assert qd == pytest.approx(cf, rel=1e-10)
    cf1 = pot.truncated_negative_norm(L, C, s, 1)
    qd1 = pot._quadrature_norm(L, C, s, 1, QuadratureSpec())
    assert qd1 == pytest.approx(cf1, rel=1e-10)


def test_truncation_at_zero_cutoff_matches_plain_norm():
    # C = 0 never truncates a nonpositive potential: (C - V)^+ = V^-.  Just
    # below it the quadrature route takes over from the closed form; the
    # norm must not jump there, since the cutoff root probes both sides
    for make in (pot.exponential, pot.power_exponential, pot.singular):
        V = make(1.0, 1.0)
        for dim in (3, 1):
            for s in (1.5, 2.0, 4.0):
                if make is pot.singular and dim == 1 and s >= 2.0:
                    continue  # diverges
                b = pot.negative_part_norm(V, s, dim)
                a = pot.truncated_negative_norm(V, 0.0, s, dim)
                assert a == pytest.approx(b, rel=1e-10)
                below = -1e-9 * V.g / V.R
                assert pot.truncated_negative_norm(V, below, s, dim) == pytest.approx(
                    b, rel=1e-6
                )


def test_truncation_below_minimum_gives_zero():
    E = pot.exponential(1.0, 1.0)  # min V = -1
    assert pot.truncated_negative_norm(E, -1.0, 2.0, 3) == 0.0
    assert pot.truncated_negative_norm(E, -5.0, 2.0, 3) == 0.0


def test_truncated_norm_brute_force_cross_checks():
    E = pot.exponential(1.0, 1.0)
    for C in (-0.8, -0.35, -0.05):
        got = pot.truncated_negative_norm(E, C, 2.0, 3)
        rc = -math.log(-C)
        brute = quad(
            lambda r: 4.0 * math.pi * r * r * (C + math.exp(-r)) ** 2, 0.0, rc,
            epsabs=1e-14,
        )[0] ** 0.5
        assert got == pytest.approx(brute, rel=1e-10)
    P = pot.power_exponential(1.0, 1.0)
    for C in (-0.3, -0.1):
        got = pot.truncated_negative_norm(P, C, 2.0, 3)
        r1, r2 = pot._shifted_support(P, C)
        brute = quad(
            lambda r: 4.0 * math.pi * r * r * (C + r * math.exp(-r)) ** 2, r1, r2,
            epsabs=1e-14,
        )[0] ** 0.5
        assert got == pytest.approx(brute, rel=1e-10)


def test_truncated_norm_monotone_in_cutoff():
    # basis of the cutoff root-find: strictly increasing and continuous in C
    L = pot.logarithmic(0.5, 2.5)
    cs = np.linspace(-3.0, 3.0, 50)
    vals = [
        pot.truncated_negative_norm(L, float(c), 2.2, 3)
        for c in cs
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # continuity: the norm grows like exp(3CR/(sg)), so compare relatively
    eps = 1e-7
    for c in (-1.0, 0.0, 1.0):
        a = pot.truncated_negative_norm(L, c, 2.2, 3)
        b = pot.truncated_negative_norm(L, c + eps, 2.2, 3)
        assert abs(b - a) / a < 1e-5


def test_truncated_norm_divergence_above_tail():
    E = pot.exponential(1.0, 1.0)
    with pytest.raises(DivergentNormError):
        pot.truncated_negative_norm(E, 0.5, 2.0, 3)


def test_truncated_sup_norm():
    E = pot.exponential(2.0, 1.0)  # min V = -2
    assert pot.truncated_negative_norm(E, -0.5, math.inf) == (
        pytest.approx(1.5)
    )
    L = pot.logarithmic(1.0, 1.0)
    assert pot.truncated_negative_norm(L, 0.0, math.inf) == math.inf


def test_truncated_table_matches_parametric():
    rs = np.linspace(0.0, 40.0, 4000)
    T = pot.tabulated(rs, -np.exp(-rs))
    E = pot.exponential(1.0, 1.0)
    a = pot.truncated_negative_norm(T, -0.4, 2.0, 3)
    b = pot.truncated_negative_norm(E, -0.4, 2.0, 3)
    assert a == pytest.approx(b, rel=1e-6)
    with pytest.raises(DivergentNormError):
        pot.truncated_negative_norm(T, 0.5, 2.0, 3)


def test_truncated_singular():
    S = pot.singular(1.0, 1.0)
    spec = QuadratureSpec()
    got = pot.truncated_negative_norm(S, -1.0, 2.0, 3)
    rc = pot._shifted_support(S, -1.0)[1]
    brute = quad(
        lambda u: 8.0 * math.pi * u**5
        * max(0.0, -1.0 + math.exp(-u * u) / u) ** 2,
        0.0,
        math.sqrt(rc),
        epsabs=1e-14,
        limit=300,
    )[0] ** 0.5
    assert got == pytest.approx(brute, rel=1e-9)
    with pytest.raises(DivergentNormError):
        pot.truncated_negative_norm(S, -1.0, 6.5, 3)


def test_shifted_support_is_the_lambert_w_closed_form():
    # pexp: (r/R) e^(-r/R) = -CR/g at r = -R W_k(CR/g), k = 0 and -1;
    # sing: (R/r)^(1/2) e^(-r/R) = -CR/g at r = (R/2) W_0(2 (g/(CR))^2)
    mpmath = pytest.importorskip("mpmath")
    P, S = pot.power_exponential(1.0, 1.0), pot.singular(1.0, 1.0)
    for C in -np.logspace(-15.0, -1.0, 57):
        C = float(C)
        r1, r2 = pot._shifted_support(P, C)
        assert r1 == pytest.approx(float(-mpmath.lambertw(C, 0).real), rel=1e-14, abs=0.0)
        assert r2 == pytest.approx(float(-mpmath.lambertw(C, -1).real), rel=1e-14, abs=0.0)
        b = float(mpmath.lambertw(2 * mpmath.mpf(C) ** -2).real / 2)
        assert pot._shifted_support(S, C) == (0.0, pytest.approx(b, rel=1e-14, abs=0.0))


def test_pexp_support_near_the_minimum():
    # the two ends close on r = R like R (1 -+ sqrt(2d)) for C = min V (1 - d);
    # scipy's W_-1 alone puts the upper end at R (1 + 3d) for d below 5e-9
    mpmath = pytest.importorskip("mpmath")
    V = pot.power_exponential(1.0, 1.0)
    for d in np.logspace(-12.0, -3.0, 19).tolist():
        C = pot.min_value(V) * (1.0 - d)
        r1, r2 = pot._shifted_support(V, C)
        assert r1 == pytest.approx(float(-mpmath.lambertw(C, 0).real), rel=1e-10, abs=0.0)
        assert r2 == pytest.approx(float(-mpmath.lambertw(C, -1).real), rel=1e-10, abs=0.0)
    # CR/g can round to the float nearest -1/e, where scipy's lambertw is nan
    V = pot.power_exponential(3.7631437257094627, 7.373020049150688)
    C = math.nextafter(pot.min_value(V), 0.0)
    assert C * V.R / V.g == -1.0 / math.e
    r1, r2 = pot._shifted_support(V, C)
    assert r1 == pytest.approx(V.R, rel=1e-7) and r2 == pytest.approx(V.R, rel=1e-7)


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason=(
    "known defect: within about 1e-10 relative above min V the pexp integrand "
    "(C - V)^+ / (C - min V) is rounding noise of V, and QUADPACK's error "
    "estimate exceeds the value"))
def test_pexp_truncated_norm_just_above_the_minimum():
    V = pot.power_exponential(1.0, 1.0)
    C = pot.min_value(V) * (1.0 - 1e-12)
    assert pot.truncated_negative_norm(V, C, 2.0, 3) > 0.0


def test_extreme_cutoffs_give_a_value():
    # below min V the support is empty; sing has none, but its support
    # underflows to 0 for deep cutoffs
    S = pot.singular(1.0, 1.0)
    for C in (-1e200, -1e300, -sys.float_info.max):
        assert pot._shifted_support(S, C) == (0.0, 0.0)
        assert pot.truncated_negative_norm(S, C, 2.0, 3) == 0.0
    assert pot._shifted_support(pot.power_exponential(1.0, 1.0), -5e-324) == (5e-324, math.inf)
    # just below C = 0 the support reaches past the double range; the norm is
    # still ||V^-||_s
    for make in (pot.exponential, pot.power_exponential, pot.singular):
        V = make(1.0, 1.0)
        for s, dim in ((2.0, 3), (5.5, 3), (1.5, 1), (1.9, 1)):
            want = pot.negative_part_norm(V, s, dim)
            for C in (-5e-324, -1e-300, -1e-200, -1e-100, -1e-16):
                got = pot.truncated_negative_norm(V, C, s, dim)
                assert got == pytest.approx(want, rel=1e-12), (V.kind, C, s, dim)


@pytest.mark.parametrize("g, R", [(2.0, 1.0), (1.0, 0.5), (3.0, 0.7), (1.0, 1.0),
                                  (1e-12, 0.7)])
def test_exp_support_at_subnormal_cutoff_ratios(g, R):
    # -C R or -C R / g below the least normal float keeps few digits, or
    # rounds to 0; with g < 1 the product can be subnormal and the ratio not
    mpmath = pytest.importorskip("mpmath")
    V = pot.exponential(g, R)
    for C in (-5e-324, -1e-318, -1e-315, -1e-310, -1e-300):
        b = pot._shifted_support(V, C)[1]
        want = float(-R * mpmath.log(-mpmath.mpf(C) * R / g))
        assert b == pytest.approx(want, rel=1e-14, abs=0.0), C
        for s, dim in ((2.0, 3), (5.5, 3), (1.5, 1), (1.9, 1)):
            assert pot.truncated_negative_norm(V, C, s, dim) == pytest.approx(
                pot.negative_part_norm(V, s, dim), rel=1e-12), (C, s, dim)


def test_length_scale():
    assert pot.length_scale(pot.exponential(1.0, 3.0)) == 3.0
    T = pot.tabulated([0.0, 10.0], [0.0, 0.0])
    assert pot.length_scale(T) > 0.0


# --- the norm kernels change no bit --------------------------------------
#
# The table and singular-head integrands are single closures over hoisted
# constants; the references below are the generic compositions they replace.


def _benchmark_like_table(g=1.0):
    # a deep well with a shoulder, tabulated from r = 0 (flat head)
    radii = [0.0] + [0.02 * (12.0 / 0.02) ** (i / 58) for i in range(59)]
    values = [-9.0 * math.exp(-r / 0.8) - 1.8 * r * math.exp(-r / 1.5) for r in radii]
    return pot.tabulated(radii, values, g=g)


def _same_float(a, b):
    return a == b or math.isnan(a) and math.isnan(b)


def _reference_singular_head_integrand(u, base, k, s, dim):
    # 2u w(u^2) (base/k)^s in log space, as composed before the fusion
    if u <= 0.0 or base <= 0.0 or k <= 0.0:
        return 0.0
    if dim == 3:
        ln = math.log(8.0 * math.pi) + 5.0 * math.log(u)
    else:
        ln = math.log(4.0) + math.log(u)
    ln += s * (math.log(base) - math.log(k))
    if ln < -745.0:
        return 0.0
    return math.exp(min(ln, 709.0))


@pytest.mark.parametrize("dim", [3, 1])
def test_fused_table_integrand_matches_generic_composition(dim):
    # each piece's kernel against PPoly itself, at random nodes inside the
    # piece and at the floats next to both of its ends, pointing inward
    V = _benchmark_like_table(g=1.3)
    tab = pot._table(V)
    rng = np.random.default_rng(11 + dim)
    cases = [(-12.0, 3.0, 1.0), (-4.0, 7.5, 3.0), (-0.5, 140.0, 11.0), (-6.0, 300.0, 1e-3)]
    for C, s, k in cases:  # the last two reach the exp clamps at both ends
        for x0, x1, poly in zip(tab.knots, tab.knots[1:], tab.coeffs):
            f = pot._piece_integrand(x0, poly, V.g, C, k, s, dim)
            nodes = rng.uniform(x0, x1, 40).tolist()
            nodes += [math.nextafter(x0, x1), math.nextafter(x1, x0)]
            for r in nodes:
                generic = pot._weight(dim, r) * pot._scaled_power(
                    max(0.0, C - V.g * float(tab.pp(r))), k, s)
                # 0 * inf at r = 5e-324 (r * r = 0) is nan on both paths
                assert _same_float(f(r), generic), (C, s, k, r)


@pytest.mark.parametrize("dim", [3, 1])
def test_fused_singular_head_matches_generic_composition(dim):
    rng = np.random.default_rng(23 + dim)
    for g, R, C, k, s in [(5.0, 1.0, -3.0, 1.0, 3.5), (1.7, 0.8, -40.0, 1.0, 1.9),
                          (0.3, 2.0, -0.01, 0.02, 5.9), (2.0, 1.5, -1e3, 1e-4, 150.0)]:
        V = pot.singular(g, R)
        head = pot._singular_head(V, C, k, s, dim)
        nodes = [0.0] + np.exp(rng.uniform(math.log(1e-9), math.log(3.0), 2000)).tolist()
        for u in nodes:
            base = max(0.0, C - pot._profile(V, u * u)) if u > 0.0 else 0.0
            assert head(u) == _reference_singular_head_integrand(u, base, k, s, dim), (C, u)


def _reference_table_norm(V, s, dim, spec, C):
    # every piece between knots and crossings integrated, none skipped, with
    # the generic integrand and knot_sup taken over the knots one by one
    spec = pot._power_spec(spec, s)
    interp = pot._table(V).pp

    def base(r):
        return max(0.0, C - V.g * float(interp(r)))

    knot_sup = max((base(r) for r, _ in V.table), default=0.0)
    k = knot_sup if knot_sup > 0.0 else 1.0

    def f(r):
        return pot._weight(dim, r) * pot._scaled_power(base(r), k, s)

    crossings = [float(c) for c in np.ravel(interp.solve(C / V.g, extrapolate=False))
                 if np.isreal(c)]
    points = sorted(set(list(interp.x) + crossings))
    total = 0.0
    n_pieces = max(1, len(points) - 1)
    for a, b in zip(points, points[1:]):
        if b > a:
            total += pot._quad(f, a, b, spec, spec.abs_tol / (4.0 * n_pieces))
    total += pot._table_head(V, C, k, s, dim, spec)
    if total == 0.0:
        return 0.0
    return k * total ** (1.0 / s)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DivergentNormError, ConvergenceError) as exc:
        return type(exc).__name__


def test_skipping_vanishing_table_pieces_is_bit_for_bit():
    rng = np.random.default_rng(2024)
    spec = QuadratureSpec()
    finite = 0  # cases with a finite norm; divergent heads are compared too
    while finite < 200:
        n = int(rng.integers(4, 24))
        r_first = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.5))
        radii = np.sort(rng.uniform(r_first, 15.0, n - 1))
        radii = np.concatenate([[r_first], radii[radii > r_first]])
        if len(radii) < 3 or np.any(np.diff(radii) <= 1e-6):
            continue
        # attractive wells with a repulsive bump, so (C - V)^+ has several pieces
        a, b, c, d = rng.uniform(0.5, 8.0), rng.uniform(0.3, 2.0), rng.uniform(-3.0, 3.0), \
            rng.uniform(0.5, 4.0)
        values = -a * np.exp(-radii / b) + c * np.exp(-((radii - d) ** 2))
        V = pot.tabulated(radii, values, g=float(rng.uniform(0.5, 2.0)))
        vmin = V.g * float(np.min(values))
        for _ in range(4):
            C = 0.0 if rng.random() < 0.15 else float(rng.uniform(1.1 * min(vmin, -0.1), 0.0))
            s = float(rng.choice([1.5, 2.0, 3.0, 4.7])) if rng.random() < 0.5 \
                else float(np.exp(rng.uniform(math.log(1.2), math.log(80.0))))
            dim = int(rng.choice([3, 1]))
            got = _outcome(pot._table_norm, V, s, dim, spec, C)
            want = _outcome(_reference_table_norm, V, s, dim, spec, C)
            assert got == want, (radii.tolist(), values.tolist(), V.g, C, s, dim)
            finite += not isinstance(got, str)


# float.hex of norms recorded before the kernels were fused and vanishing
# pieces skipped (sing at C = -40 and -12: re-recorded when the support of
# (C - V)^+ became its Lambert-W closed form, a move of 7e-15 and 7e-14
# relative); they must never move without an intended change of values
@pytest.mark.parametrize("kind, C, s, dim, want", [
    ("table", 0.0, 3.0, 3, "0x1.446ed6c3c0aaep+3"),
    ("table", -4.0, 3.0, 3, "0x1.fe2fc4c931f89p+0"),
    ("table", -8.5, 12.0, 3, "0x1.4d08926bfdbafp-3"),
    ("table", -2.0, 2.5, 1, "0x1.6312979d2a05cp+2"),
    ("table", -0.3, 40.0, 1, "0x1.01cd15bac2f42p+3"),
    ("yukawa", 0.0, 2.5, 3, "0x1.f2dc8fb2e2f05p+1"),
    ("yukawa", 0.0, 2.0, 3, "0x1.a28b6b0f2be23p+1"),
    ("sing", -3.0, 3.5, 3, "0x1.0c254e957e725p+2"),
    ("sing", -40.0, 5.5, 3, "0x1.bf03532a9859dp+2"),
    ("sing", -0.5, 1.5, 1, "0x1.0acf64b27dc71p+4"),
    ("sing", -12.0, 1.9, 1, "0x1.ed22daef52289p+4"),
])
def test_norm_golden_values(kind, C, s, dim, want):
    if kind == "table":
        V = _benchmark_like_table()
    elif kind == "yukawa":
        rr = np.geomspace(0.05, 20.0, 30)
        V = pot.tabulated(rr, -np.exp(-rr) / rr, g=1.3)
    else:
        V = pot.singular(5.0, 1.0)
    assert pot.truncated_negative_norm(V, C, s, dim).hex() == want


def _head_tables():
    # r0 > 0 both: a sampled r^(-1/2) well (head power p < 0, unbounded
    # below) and a table whose head p > 0 rises to v0 at r0
    r = np.geomspace(0.3, 30.0, 40)
    rr = np.geomspace(0.2, 12.0, 25)
    return {"sing": pot.tabulated(r, pot.evaluate(pot.singular(5.0, 1.0), r)),
            "rising": pot.tabulated(rr, -2.0 * (1.0 - np.exp(-rr / 0.4)) * np.exp(-rr / 3.0),
                                    g=1.3)}


# float.hex of evaluate and min_value, recorded before each table's data
# became one record ("rising": before min_value read the interpolant at the
# knots); below r0 the head, inside the interpolant, beyond it 0
@pytest.mark.parametrize("name, vmin, want", [
    ("sing", "-inf", ["-0x1.91529f0905e5dp+17", "-0x1.b59ff82f5b942p+6",
                      "-0x1.7da16ae96ad75p+3", "-0x1.b0ee8bafacf71p+2",
                      "-0x1.b0d04f1d10b9cp+2", "-0x1.51b19ea79eeaap+1",
                      "-0x1.a04d1e6f67144p-4", "-0x1.38464c8ebca95p-17",
                      "-0x1.35381f82bf09ep-17", "-0x1.8b2a71b6b3452p-44",
                      "-0x1.80b60954e6b88p-44", "0x0.0p+0"]),
    ("rising", "-0x1.b87bdc055bb3dp+0", [
        "-0x1.f63f799d8c616p-13", "-0x1.000ac05acad3bp-3", "-0x1.93025acf0f5fbp-1",
        "-0x1.3db247dfaf910p+0", "-0x1.3dc1d69e20cc2p+0", "-0x1.b81f6687e3e6fp+0",
        "-0x1.bb099769d8f71p-1", "-0x1.8729a0f8c02ffp-5", "-0x1.861bc3c2b3323p-5",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
])
def test_table_golden_values(name, vmin, want):
    V = _head_tables()[name]
    assert pot.min_value(V).hex() == vmin
    rs = [1e-6, 0.01, 0.15, 0.2999, 0.3, 0.77, 3.3, 11.99, 12.0, 29.9, 30.0, 31.0]
    assert [v.hex() for v in pot.evaluate(V, np.array(rs)).tolist()] == want
    assert [pot.evaluate(V, r).hex() for r in rs] == want


def test_min_value_is_at_most_every_value_evaluate_returns_at_the_knots():
    # at the last knot the interpolant sums the previous piece's polynomial,
    # which can land an ulp below the raw sample
    rng = np.random.default_rng(20)
    for _ in range(4000):
        radii = np.r_[0.0, np.sort(rng.uniform(0.0, 10.0, 7))]
        V = pot.tabulated(radii, rng.uniform(-5.0, 1.0, 8))
        assert pot.min_value(V) <= min(pot.evaluate(V, radii).min(), 0.0), V.table


# --- the power-law head below the first table radius ----------------------


def _sampled_singular_table():
    r = np.geomspace(0.3, 30.0, 40)
    return pot.tabulated(r, pot.evaluate(pot.singular(5.0, 1.0), r))


def test_table_head_support_shorter_than_quadrature_nodes_is_kept():
    # the fitted head v0 (r/r0)^p (p < 0) is below C only for r < r_c; once
    # r_c < 0.0022 r0 no Gauss-Kronrod node over (0, r0) sees the support
    V = _sampled_singular_table()
    p, v0 = pot._table_head_power(V)
    assert p < 0.0
    r0 = V.table[0][0]
    cutoffs = np.linspace(-1000.0, -1100.0, 101)
    norms = [pot.truncated_negative_norm(V, float(C), 3.27, 3)
             for C in cutoffs]
    crossing = [float(C) for C in cutoffs
                if r0 * (float(C) / (V.g * v0)) ** (1.0 / p) < 0.0022 * r0]
    assert crossing and crossing[0] > cutoffs[-1]  # the scan crosses r_c = 0.0022 r0
    assert all(n > 0.0 for n in norms)
    # increasing in C and continuous: steps no larger than 1e-3 relative
    steps = np.diff(norms[::-1])
    assert np.all(steps > 0.0)
    assert np.max(steps / np.asarray(norms[:0:-1])) < 1e-3
    # and it is the integral over (0, r_c), checked by a brute-force quadrature
    C = -1050.0
    r_c = r0 * (C / (V.g * v0)) ** (1.0 / p)
    head, _ = quad(lambda r: 4.0 * math.pi * r * r * max(0.0, C - V.g * v0 * (r / r0) ** p)
                   ** 3.27, 0.0, r_c, epsabs=0.0, epsrel=1e-12, limit=200)
    k = max(0.0, C - V.g * min(v for _, v in V.table))
    assert k == 0.0  # the table itself lies above C: only the head contributes
    assert pot.truncated_negative_norm(V, C, 3.27, 3) == pytest.approx(
        head ** (1.0 / 3.27), rel=1e-8)


def test_table_head_support_that_underflows_is_empty():
    # p < 0, and the head support end r0 (C/v0)^(1/p) underflows to 0
    T = pot.tabulated([0.5, 1, 2, 4, 8], [-1.5, -1, 0.4, 0.1, 0])
    assert pot.truncated_negative_norm(T, -1e300, 2.0, 3) == 0.0


@pytest.mark.parametrize("values, C", [
    ([-1.0, -2.0, -1.5], -1.2),   # p > 0: support (r_c, r0)
    ([-1.0, -2.0, -1.5], -0.5),   # p > 0: all of (0, r0)
    ([-1.0, -2.0, -1.5], -1.0),   # p > 0: C = v0, empty
    ([-2.0, -1.0, -0.5], -3.0),   # p < 0: support (0, r_c)
    ([-2.0, -1.0, -0.5], -1.5),   # p < 0: all of (0, r0)
    ([-2.0, 1.0, -0.5], -1.5),    # p = 0: flat head below C
    ([-2.0, 1.0, -0.5], -2.5),    # p = 0: flat head above C, empty
    ([0.5, -1.0, -0.5], -0.2),    # v0 > 0: empty
])
def test_table_head_matches_brute_force(values, C):
    V = pot.tabulated([0.5, 1.0, 2.0], values)
    p, v0 = pot._table_head_power(V)
    s, dim, k = 2.5, 3, 1.0
    got = pot._table_head(V, C, k, s, dim, QuadratureSpec())
    want, _ = quad(lambda r: 4.0 * math.pi * r * r * max(0.0, C - v0 * (r / 0.5) ** p) ** s,
                   0.0, 0.5, epsabs=1e-14, epsrel=1e-12, limit=400, points=[1e-3, 1e-2, 0.1])
    assert got == pytest.approx(want, rel=1e-8, abs=1e-14)
