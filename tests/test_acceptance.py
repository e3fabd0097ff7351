"""Acceptance suite: one test per criterion, one PASS line per criterion.

The heavyweight sweeps (the critical-coupling comparison across the three
short-range potentials and the confining-potential mass comparison) run once
as module-scoped fixtures and are shared by the assertions that need them.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg

from salpeter_bounds import bounds as bd
from salpeter_bounds import cli
from salpeter_bounds import potentials as pot
from salpeter_bounds import solver as sv
from salpeter_bounds import specfun as sf

ALPHA = 2.0
BETA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
J01 = 2.404825557695773  # first zero of J0


def _report(n, text):
    print(f"[acceptance] criterion {n} PASS: {text}")


# ---------------------------------------------------------------------------
# criterion 1: analytic norm anchors


def test_criterion_1_analytic_norm_anchors():
    assert sf.k1_power_integral(1.0) == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert sf.k0_power_integral(1.0) == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert sf.k0_power_integral(2.0) == pytest.approx(math.pi**2 / 4.0, abs=1e-10)
    for m in (0.1, 1.0, 10.0):
        for alpha in (1, 2):
            assert sf.green_norm_3d(1.0, m, alpha) * alpha * m == pytest.approx(
                1.0, abs=1e-10
            )
            assert sf.green_norm_1d(1.0, m, alpha) * alpha * m == pytest.approx(
                1.0, abs=1e-10
            )
    _report(1, "K1/K0 integral anchors pi/2, pi^2/4 and unit Green norms to 1e-10")


# ---------------------------------------------------------------------------
# criterion 2: constant anchors


def test_criterion_2_constant_anchors():
    assert sf.combined_constant(1.0) == pytest.approx(1.0, abs=1e-8)
    assert sf.combined_constant(2.0) == pytest.approx(1.0, abs=1e-8)
    assert sf.green_constant_3d(1.0) == pytest.approx(1.0, abs=1e-8)
    assert sf.green_constant_1d(1.0) == pytest.approx(1.0, abs=1e-8)
    _report(2, "combined constant and Green constants equal 1 at q = 1 (and q = 2)")


# ---------------------------------------------------------------------------
# criterion 3: trivial-limit theorem checks


def test_criterion_3_trivial_limits():
    E = pot.exponential(1.0, 1.0)
    assert bd.mass_bound_3d(E, 1.0, 2, 1.0) == pytest.approx(2.0 - 1.0, abs=1e-8)
    assert bd.mass_bound_1d(E, 1.0, 2, 1.0) == pytest.approx(2.0 - 1.0, abs=1e-8)
    # confining q -> 1 limit: C* = alpha m + min V (bounded-below potential)
    E5 = pot.exponential(5.0, 1.0)
    c, residual, at_cap = bd.cutoff_for_exponent(E5, 1.0, 2, 1.0)
    assert not at_cap
    assert c == pytest.approx(2.0 + (-5.0), abs=1e-8)
    _report(3, "q->1 limits: alpha m - sup|V^-| (3D and 1D) and alpha m + min V")


# ---------------------------------------------------------------------------
# criterion 4: keystone validity sweep (critical couplings)


@pytest.fixture(scope="module")
def keystone_sweep():
    rows = []
    for kind, make in (
        ("exp", pot.exponential),
        ("pexp", pot.power_exponential),
        ("sing", pot.singular),
    ):
        shape = make(1.0, 1.0)
        for beta in BETA_GRID:
            gc_bound = bd.critical_coupling_bound_3d(shape, beta, ALPHA)
            cfg = sv.SolverConfig(m=beta, alpha=ALPHA, dimension=3, N=128)
            stability = 1e-3 if kind == "sing" else None
            res = sv.critical_coupling_exact(
                shape, cfg=cfg, g_tol_rel=1e-6, grid_stability_rel=stability
            )
            rows.append((kind, beta, res.coupling, gc_bound, stability or 1e-6))
    return rows


def test_criterion_4_keystone_validity(keystone_sweep):
    for kind, beta, gc_exact, gc_bound, oracle_tol in keystone_sweep:
        assert gc_bound <= gc_exact * (1.0 + 2.0 * oracle_tol), (kind, beta)
    # cogency floor on the smooth kinds.  The first full sweep of this
    # implementation gave minimum ratios 0.553 (exp) and 0.643 (pexp), so the
    # floor is pinned at 0.5, tightened from the provisional 0.3.
    ratios = {
        kind: min(b / e for k, _, e, b, _ in keystone_sweep if k == kind)
        for kind in ("exp", "pexp")
        for k in [kind]
    }
    assert ratios["exp"] > 0.5
    assert ratios["pexp"] > 0.5
    _report(
        4,
        "critical-coupling lower bound <= oracle value at every (potential, beta); "
        f"min bound/exact ratios exp={ratios['exp']:.3f} pexp={ratios['pexp']:.3f} > 0.5",
    )


# ---------------------------------------------------------------------------
# criterion 5: confining sweep (logarithmic potential)


@pytest.fixture(scope="module")
def confining_sweep():
    R = 2.5
    rows = []
    for g in (0.1, 0.5, 2.0):
        for m in (0.4, 1.0, 2.0, 4.0):
            V = pot.logarithmic(g, R)
            res = bd.confining_bound(V, m, ALPHA)
            cfg = sv.SolverConfig(m=m, alpha=ALPHA, dimension=3, N=128)
            exact = sv.ground_state_3d_swave(V, cfg)
            rows.append((g, m, exact.mass, res.c_star, exact.refinement_delta_rel))
    return rows


def test_criterion_5_confining_validity_and_gap_ordering(confining_sweep):
    for g, m, exact, cstar, oracle_tol in confining_sweep:
        assert cstar <= exact * (1.0 + 2.0 * max(oracle_tol, 1e-6)), (g, m)
    gaps = {
        g: np.mean([e - c for gg, _, e, c, _ in confining_sweep if gg == g])
        for g in (0.1, 2.0)
    }
    assert gaps[0.1] < gaps[2.0]
    _report(
        5,
        "C* <= oracle mass on the full (g, m) grid; mean gap at g=0.1 "
        f"({gaps[0.1]:.4f} GeV) < mean gap at g=2 ({gaps[2.0]:.4f} GeV)",
    )


# ---------------------------------------------------------------------------
# criterion 6: oracle self-validation


def test_criterion_6a_free_spectrum_exact():
    Z = pot.tabulated([0.0, 50.0], [0.0, 0.0])
    cfg = sv.SolverConfig(m=1.0, alpha=2, dimension=3, L=20.0, N=64)
    res = sv.ground_state_3d_swave(Z, cfg)
    exact = 2.0 * math.sqrt((math.pi / 20.0) ** 2 + 1.0)
    assert res.mass == pytest.approx(exact, rel=1e-12)
    cfg1 = sv.SolverConfig(m=1.0, alpha=2, dimension=1, L=20.0, N=64)
    assert sv.ground_state_1d(Z, cfg1).mass == pytest.approx(2.0, rel=1e-12)
    _report(6, "(a) free-spectrum eigenvalues exact to 1e-12")


def test_criterion_6b_grid_drift_smooth_potentials():
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    for V in (
        pot.exponential(3.0, 1.0),
        pot.power_exponential(4.0, 1.0),
        pot.logarithmic(0.5, 2.5),
    ):
        res = sv.ground_state_3d_swave(V, cfg)
        assert res.refinement_delta_rel < 1e-6
    _report(6, "(b) N vs 2N ground-state drift < 1e-6 on all smooth test potentials")


def test_criterion_6c_nonrelativistic_binding_onset():
    # beta = mR = 50: the binding-onset coupling of the exponential well must
    # match the Schrodinger threshold g_c = j01^2 alpha / (8 m R) within 2%.
    # The box shifts the onset by O(R/L); two box sizes plus Richardson
    # extrapolation in 1/L remove the leading error.
    m, R, alpha = 50.0, 1.0, 2.0
    gc_theory = J01**2 * alpha / (8.0 * m * R)
    shape = pot.exponential(1.0, R)

    def onset(L, N):
        # K - alpha m + g v binds exactly when g lambda_max(A) > 1 for the
        # Birman-Schwinger operator A = (K - alpha m)^(-1/2) W (K - alpha m)^(-1/2),
        # W = diag(-v): the oracle's critical coupling with eps - alpha m for eps
        r, eps, apply = sv._discretization(L, N, 3, m, alpha)
        k = (eps - alpha * m) ** -0.5
        w = -pot.evaluate(shape, r)
        op = scipy.sparse.linalg.LinearOperator(
            (N - 1, N - 1), matvec=lambda x: apply(w * apply(x, k), k), dtype=float)
        return 1.0 / scipy.sparse.linalg.eigsh(op, k=1, which="LA",
                                               return_eigenvectors=False)[0]

    g50 = onset(50.0, 1024)
    g100 = onset(100.0, 2048)
    # cold ground-state solves on either side of the L = 50 onset bind on
    # either side of the threshold alpha m
    below, above = (
        sv.solve_once_3d(pot.exponential(g50 * f, R), m, alpha, 50.0, 1024)[0] - alpha * m
        for f in (1.0 - 1e-6, 1.0 + 1e-6)
    )
    assert below > 0.0 > above
    g_extrapolated = 2.0 * g100 - g50
    deviation = abs(g_extrapolated - gc_theory) / gc_theory
    assert deviation < 0.02
    _report(
        6,
        f"(c) binding-onset coupling at mR=50 within {deviation:.2%} of the "
        "J0-zero threshold (< 2%)",
    )


# ---------------------------------------------------------------------------
# criterion 7: headless property suites


def test_criterion_7a_coupling_linearity():
    for make in (pot.exponential, pot.power_exponential, pot.singular, pot.logarithmic):
        s = 1.8 if make is pot.singular else 2.5
        one = pot.negative_part_norm(make(1.0, 0.8), s, 3)
        three = pot.negative_part_norm(make(3.0, 0.8), s, 3)
        assert three == pytest.approx(3.0 * one, rel=1e-12)
    _report(7, "(a) coupling linearity of negative-part norms to 1e-12")


def test_criterion_7b_monotonicity_in_coupling():
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    exact = [
        sv.ground_state_3d_swave(pot.exponential(g, 1.0), cfg).mass
        for g in (2.0, 4.0, 6.0)
    ]
    assert exact[0] > exact[1] > exact[2]
    bound = [
        bd.optimize_mass_bound_3d(pot.exponential(g, 1.0), 1.0, 2).mass_bound
        for g in (2.0, 4.0, 6.0)
    ]
    assert bound[0] >= bound[1] >= bound[2]
    _report(7, "(b) oracle mass and optimized bound both decrease with coupling")


def test_criterion_7c_coupling_levels_straddle_the_crossing():
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    res = sv.critical_coupling_exact(pot.exponential(1.0, 1.0), cfg=cfg)
    assert res.converged
    for N, g in res.levels:
        below, above = (
            sv.solve_once_3d(pot.exponential(g * f, 1.0), 1.0, 2.0, res.box_size, N)[0]
            for f in (1.0 - 1e-9, 1.0 + 1e-9)
        )
        assert below > 0.0 > above, (N, g)
    _report(7, "(c) cold M(g_c (1 - 1e-9)) > 0 > M(g_c (1 + 1e-9)) at every grid level")


def test_criterion_7d_csv_determinism(tmp_path):
    args = ["fig1", "--beta-grid", "1:2:2", "--potentials", "exp", "--N", "128",
            "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + [str(a)]) == 0
    assert cli.main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(7, "(d) identical configuration reruns produce byte-identical CSV")
