"""Bound formulas, their optimizers, and the confining-potential cutoff."""

import math
import random

import pytest

from salpeter_bounds import bounds as bd
from salpeter_bounds import potentials as pot
from salpeter_bounds import solver as sv
from salpeter_bounds import specfun as sf
from salpeter_bounds.errors import DivergentNormError, DomainError, PotentialClassError


def test_trivial_limit_q1_3d():
    # q -> 1 reduces every constant to 1: bound = alpha m - ||V^-||_inf
    E = pot.exponential(1.0, 1.0)
    assert bd.mass_bound_3d(E, 1.0, 2, 1.0) == 2.0 - 1.0
    P = pot.power_exponential(2.0, 1.0)
    assert bd.mass_bound_3d(P, 1.5, 1, 1.0) == pytest.approx(
        1.5 - 2.0 / math.e, rel=1e-15
    )


def test_trivial_limit_q1_1d():
    E = pot.exponential(1.0, 1.0)
    assert bd.mass_bound_1d(E, 1.0, 1, 1.0) == 0.0
    assert bd.mass_bound_1d(E, 2.0, 2, 1.0) == 4.0 - 1.0


def test_sup_norm_divergence_at_q1():
    S = pot.singular(1.0, 1.0)
    with pytest.raises(DivergentNormError):
        bd.mass_bound_3d(S, 1.0, 2, 1.0)


def test_mass_bound_composition():
    # bound(q) = alpha m - Cq^3 Ct_q m^(3-3/q) ||V^-||_{q/(q-1)}
    E = pot.exponential(1.0, 1.0)
    q = 1.2
    term = (
        sf.combined_constant(q) ** 3
        * sf.green_constant_3d(q)
        * 1.0 ** (3.0 - 3.0 / q)
        * pot.negative_part_norm(E, q / (q - 1.0), 3)
    )
    assert bd.mass_bound_3d(E, 1.0, 2, q) == pytest.approx(2.0 - term, rel=1e-13)


def test_mass_bound_zero_potential():
    Z = pot.tabulated([0.0, 1.0, 2.0], [0.4, 0.2, 0.0])
    rep = bd.optimize_mass_bound_3d(Z, 1.3, 2)
    assert rep.mass_bound == pytest.approx(2.6, abs=1e-14)
    assert rep.energy_bound == pytest.approx(0.0, abs=1e-14)
    rep1 = bd.optimize_mass_bound_1d(Z, 1.3, 2)
    assert rep1.mass_bound == pytest.approx(2.6, abs=1e-14)


def test_q_domain_validation():
    E = pot.exponential(1.0, 1.0)
    for q in (0.9, 1.5, 2.0, math.nan):
        with pytest.raises(DomainError):
            bd.mass_bound_3d(E, 1.0, 2, q)
    for q in (0.9, 2.0 + 1e-9):
        with pytest.raises(DomainError):
            bd.mass_bound_1d(E, 1.0, 2, q)
    with pytest.raises(DomainError):
        bd.mass_bound_3d(E, -1.0, 2, 1.2)
    with pytest.raises(DomainError):
        bd.mass_bound_3d(E, 1.0, 3, 1.2)


def test_optimizer_dominance_3d():
    E = pot.exponential(1.0, 1.0)
    rep = bd.optimize_mass_bound_3d(E, 1.0, 2)
    assert rep.mass_bound >= bd.mass_bound_3d(E, 1.0, 2, 1.0) - 1e-12
    rng = random.Random(7)
    for _ in range(20):
        q = 1.0 + 0.4999 * rng.random()
        assert rep.mass_bound >= bd.mass_bound_3d(E, 1.0, 2, q) - 1e-12


def test_optimizer_dominance_1d():
    E = pot.exponential(1.0, 1.0)
    rep = bd.optimize_mass_bound_1d(E, 1.0, 1)
    rng = random.Random(11)
    for _ in range(20):
        q = 1.0 + rng.random()
        assert rep.mass_bound >= bd.mass_bound_1d(E, 1.0, 1, q) - 1e-12


def test_report_consistency():
    E = pot.exponential(1.0, 1.0)
    rep = bd.optimize_mass_bound_3d(E, 1.0, 2)
    assert rep.energy_bound == rep.mass_bound - rep.alpha * rep.m
    assert rep.dimension == 3
    assert not rep.vacuous
    assert rep.trivial_limit_bound == pytest.approx(1.0)
    assert 1.0 <= rep.q_opt < 1.5
    # deep potential: bound below zero must be flagged vacuous, not clipped
    deep = bd.optimize_mass_bound_3d(pot.exponential(20.0, 1.0), 1.0, 2)
    assert deep.vacuous and deep.mass_bound < 0.0


def test_binding_energy_bound():
    E = pot.exponential(1.0, 1.0)
    rep = bd.optimize_mass_bound_3d(E, 1.0, 2)
    assert bd.binding_energy_bound_3d(E, 1.0, 2) == rep.energy_bound


def test_linearity_in_coupling_at_fixed_q():
    m, alpha, q = 1.0, 2, 1.25
    b1 = bd.mass_bound_3d(pot.exponential(1.0, 1.0), m, alpha, q)
    b2 = bd.mass_bound_3d(pot.exponential(2.0, 1.0), m, alpha, q)
    # the subtracted term is linear in g
    assert alpha * m - b2 == pytest.approx(2.0 * (alpha * m - b1), rel=1e-12)


def test_energy_bound_linearity_in_coupling():
    # |E-bound| grows linearly with the strength at fixed q; the optimized
    # bound therefore scales linearly too (the optimal q is g-independent)
    m, alpha = 1.0, 2
    e1 = bd.optimize_mass_bound_3d(pot.exponential(1.0, 1.0), m, alpha).energy_bound
    e2 = bd.optimize_mass_bound_3d(pot.exponential(2.0, 1.0), m, alpha).energy_bound
    assert e2 == pytest.approx(2.0 * e1, rel=1e-9)


def test_optimized_bound_nonincreasing_in_coupling():
    m, alpha = 1.0, 2
    gs = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [bd.optimize_mass_bound_3d(pot.exponential(g, 1.0), m, alpha).mass_bound for g in gs]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_singular_admissible_window():
    # ||V^-||_{q/(q-1)} finite needs q/(q-1) < 6, i.e. q > 6/5
    S = pot.singular(1.0, 1.0)
    with pytest.raises(DivergentNormError):
        bd.mass_bound_3d(S, 1.0, 2, 1.19)
    assert math.isfinite(bd.mass_bound_3d(S, 1.0, 2, 1.21))
    rep = bd.optimize_mass_bound_3d(S, 1.0, 2)
    assert rep.q_opt > 1.2
    assert not math.isfinite(rep.trivial_limit_bound)


def test_singular_1d_out_of_class():
    # 1D needs q/(q-1) < 2 but q <= 2 gives q/(q-1) >= 2: no admissible q
    S = pot.singular(1.0, 1.0)
    with pytest.raises(PotentialClassError):
        bd.optimize_mass_bound_1d(S, 1.0, 1)


def test_critical_coupling_bound_values():
    # frozen from the first converged run of this implementation; guards
    # against regressions of the whole constant/norm/optimizer pipeline
    E = pot.exponential(1.0, 1.0)
    assert bd.critical_coupling_bound_3d(E, 1.0, 2) == pytest.approx(
        5.858791, rel=1e-5
    )


def test_critical_coupling_scaling_invariance():
    # the bound depends on (m, R) only through beta = m R
    E = pot.exponential(1.0, 1.0)
    a = bd.critical_coupling_bound_3d(E, 1.0, 2)
    b = bd.critical_coupling_bound_3d(pot.exponential(1.0, 0.5), 2.0, 2)
    assert b == pytest.approx(a, rel=1e-10)


@pytest.mark.parametrize("beta", [1e8, 1e17])
def test_critical_coupling_keeps_its_digits_at_large_beta(beta):
    # alpha m is far above the norm term t here, so a t recovered as
    # (alpha m - t) - alpha m would lose its digits (at 1e17, all of them)
    a = bd.critical_coupling_bound_3d(pot.exponential(1.0, 1.0), beta, 2)
    b = bd.critical_coupling_bound_3d(pot.exponential(1.0, beta), 1.0, 2)
    assert math.isfinite(a)
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(2.0 * beta, rel=1e-4)  # t -> sup V^- = 1


def test_critical_coupling_no_attractive_part():
    Z = pot.tabulated([0.0, 1.0], [0.1, 0.0])
    assert bd.critical_coupling_bound_3d(Z, 1.0, 2) == math.inf


def test_critical_coupling_normalizes_shape():
    a = bd.critical_coupling_bound_3d(pot.exponential(1.0, 1.0), 1.0, 2)
    b = bd.critical_coupling_bound_3d(pot.exponential(3.0, 1.0), 1.0, 2)
    assert b == pytest.approx(a, rel=1e-12)


# ---------------------------------------------------------------------------
# confining bound


def test_cutoff_q1_closed_form():
    # q -> 1 limit of the cutoff equation: C* = alpha m + min V
    E5 = pot.exponential(5.0, 1.0)  # min V = -5
    c, residual, at_cap = bd.cutoff_for_exponent(E5, 1.0, 2, 1.0)
    assert c == pytest.approx(2.0 - 5.0, abs=1e-12)
    assert residual == 0.0 and not at_cap


def test_cutoff_q1_capped_when_above_tail():
    # alpha m + min V > 0 exceeds the C <= 0 window of a decaying potential
    E = pot.exponential(1.0, 1.0)
    c, _, at_cap = bd.cutoff_for_exponent(E, 1.0, 2, 1.0)
    assert c == 0.0 and at_cap


@pytest.mark.parametrize("V, want", [
    (pot.singular(1.0, 1.0),
     ("0x1.3400000000000p+0", "0x0.0p+0", "0x1.7208465026f7cp-2", True)),
    (pot.logarithmic(0.5, 2.5),
     ("0x1.087e9e6eb5d19p+0", "0x1.06f75dc0e9962p+1", "0x1.0000000000000p-52", False)),
])
def test_q1_cutoff_of_a_potential_unbounded_below_diverges(V, want):
    # the q = 1 norm is the sup norm C - min V, infinite here; the confining
    # bound skips that exponent
    with pytest.raises(DivergentNormError, match="sup norm is infinite"):
        bd.cutoff_for_exponent(V, 1.0, 2.0, 1.0)
    res = bd.confining_bound(V, 1.0, 2.0)
    assert (res.q_star.hex(), res.c_star.hex(), res.residual.hex(), res.at_cap) == want
    assert res.mass_bound == res.c_star and not res.vacuous


def test_cutoff_monotone_lhs_root():
    L = pot.logarithmic(0.5, 2.5)
    c, residual, at_cap = bd.cutoff_for_exponent(L, 1.0, 2, 1.2)
    assert not at_cap
    assert residual <= 1e-8


def test_confining_bound_logarithmic():
    L = pot.logarithmic(0.5, 2.5)
    res = bd.confining_bound(L, 1.0, 2)
    assert not res.vacuous
    assert res.mass_bound == res.c_star
    assert res.residual <= 1e-8
    assert 1.0 <= res.q_star < 1.5
    # the optimum dominates a few fixed exponents
    for q in (1.05, 1.2, 1.35):
        c, _, _ = bd.cutoff_for_exponent(L, 1.0, 2, q)
        assert res.c_star >= c - 1e-9


def test_confining_bound_q1_dominates_trivial():
    # for a bounded-below potential the scan includes q = 1, so
    # C* >= alpha m + min V always
    E5 = pot.exponential(5.0, 1.0)
    res = bd.confining_bound(E5, 1.0, 2)
    assert res.c_star >= 2.0 - 5.0 - 1e-12


def test_confining_never_exceeds_direct_bound():
    # cross-method consistency where both routes apply
    for make in (pot.exponential, pot.singular, pot.power_exponential):
        for g in (0.5, 5.0, 40.0):
            V = make(g, 1.0)
            direct = bd.optimize_mass_bound_3d(V, 1.0, 2).mass_bound
            res = bd.confining_bound(V, 1.0, 2)
            assert res.c_star <= direct + 1e-8


def test_confining_bound_1d_extension():
    L = pot.logarithmic(0.5, 2.5)
    res = bd.confining_bound(L, 1.0, 2, dim=1)
    assert not res.vacuous
    assert res.residual <= 1e-8
    assert 1.0 <= res.q_star <= 2.0


def test_confining_bound_without_admissible_cutoff_is_vacuous():
    # every 1D exponent has q/(q-1) >= 2, and the square of the r^(-1/2)
    # core is not integrable at the origin, so no exponent has a finite norm
    res = bd.confining_bound(pot.singular(1.0, 1.0), 1.0, 2, dim=1)
    assert res.vacuous and math.isnan(res.q_star)
    assert res.c_star == res.mass_bound == -math.inf
    assert res.residual == math.inf


def test_alpha_times_mass_must_be_finite():
    E = pot.exponential(1.0, 1.0)
    with pytest.raises(DomainError, match="alpha \\* m must be finite"):
        bd.optimize_mass_bound_3d(E, 1e308, 2)
    rep = bd.optimize_mass_bound_3d(E, 1e308, 1)
    assert math.isfinite(rep.mass_bound)


def test_confining_dimension_validation():
    with pytest.raises(DomainError):
        bd.confining_bound(pot.logarithmic(1.0, 1.0), 1.0, 2, dim=2)


def test_cutoff_walk_down_skips_repulsive_samples():
    # the head diverges (p < 0), so the cutoff walks down along V(r_j) from
    # r_j = 7.5/4, where the shoulder gives V > 0, a level that cannot cap V^-
    T = pot.tabulated([0.5, 1, 2, 4, 8], [-1.5, -1, 0.4, 0.1, 0])
    assert pot._table_head_power(T)[0] < 0.0
    assert pot.evaluate(T, pot.length_scale(T) / 4.0) > 0.0
    res = bd.confining_bound(T, 1.0, 2)
    assert not res.vacuous and res.at_cap
    oracle = sv.ground_state_3d_swave(T, sv.SolverConfig(m=1.0, alpha=2)).mass
    assert res.mass_bound <= oracle


def _benchmark_like_table():
    # a deep well with a shoulder, tabulated from r = 0 (flat head)
    radii = [0.0] + [0.02 * (12.0 / 0.02) ** (i / 58) for i in range(59)]
    values = [-9.0 * math.exp(-r / 0.8) - 1.8 * r * math.exp(-r / 1.5) for r in radii]
    return pot.tabulated(radii, values)


@pytest.mark.parametrize("V, q", [
    (pot.singular(5.0, 1.0), 1.3),        # interior root below the C = 0 cap
    (pot.exponential(0.5, 1.0), 1.3),     # pinned at the cap
    (pot.exponential(1.0, 1.0), 1.0),     # q = 1 closed form, capped
    (_benchmark_like_table(), 1.2),       # finite min V starts the bracket
    (pot.logarithmic(0.5, 2.5), 1.2),     # no cap: the bracket grows upward
])
def test_cutoff_never_evaluates_one_norm_twice(monkeypatch, V, q):
    cutoffs = []
    norm = bd.truncated_negative_norm

    def spy(V, C, *args):
        cutoffs.append(C)
        return norm(V, C, *args)

    monkeypatch.setattr(bd, "truncated_negative_norm", spy)
    c, residual, at_cap = bd.cutoff_for_exponent(V, 1.0, 2.0, q)
    assert cutoffs and len(cutoffs) == len(set(cutoffs))
    # the residual is the one of the returned cutoff's own norm
    monkeypatch.setattr(bd, "truncated_negative_norm", norm)
    lhs = bd._norm_term(V, c, 1.0, q, 3, sf.DEFAULT_QUADRATURE) / 2.0
    assert residual == abs(lhs - 1.0)


# float.hex of (q*, C*, residual) recorded before the norm kernels were fused,
# vanishing table pieces skipped and the cutoff norms memoized
@pytest.mark.parametrize("V, want", [
    (pot.singular(5.0, 1.0),
     ("0x1.5e81220ce8141p+0", "-0x1.80df6a8ddf81dp+2", "0x1.0000000000000p-52")),
    (_benchmark_like_table(),
     ("0x1.3da3275e44d87p+0", "-0x1.f23a6d8c374f1p+0", "0x1.0000000000000p-51")),
])
def test_confining_bound_golden_values(V, want):
    res = bd.confining_bound(V, 1.0, 2.0)
    assert (res.q_star.hex(), res.c_star.hex(), res.residual.hex()) == want
    assert not res.at_cap and not res.vacuous


def test_confining_bound_table_with_short_head_support():
    # a table sampled from r0 = 0.3 on: at the optimal cutoff the support of
    # (C - V)^+ is a sliver of the power-law head, far below r0; the cutoff
    # root must still solve its equation
    r = [0.3 * 100.0 ** (i / 39) for i in range(40)]
    V = pot.tabulated(r, [float(v) for v in pot.evaluate(pot.singular(5.0, 1.0), r)])
    res = bd.confining_bound(V, 1.0, 2.0)
    assert not res.vacuous and not res.at_cap
    assert res.residual <= 1e-8
    p, v0 = pot._table_head_power(V)
    assert 0.3 * (res.c_star / v0) ** (1.0 / p) < 0.0022 * 0.3


def test_green_constant_finite_next_to_q_three_halves():
    # near q = 3/2 the K1 head samples x so small that x/2 underflows to 0,
    # where ln(x/2) is undefined; x K1(x) must still take its limit 1 there
    E = pot.exponential(1.0, 1.0)
    for q in [1.4941752912354382] + [1.494 + 5e-5 * i for i in range(111)]:
        values = (sf.k1_power_integral(q), sf.green_constant_3d(q),
                  bd.mass_bound_3d(E, 1.0, 2.0, q))
        assert all(map(math.isfinite, values)), (q, values)
