"""Pseudospectral oracle: spectra, convergence, and the coupling root."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from salpeter_bounds import potentials as pot
from salpeter_bounds import solver as sv
from salpeter_bounds.errors import ConvergenceError, DomainError

ZERO = pot.tabulated([0.0, 50.0], [0.0, 0.0])


def assert_levels_straddle_the_crossing(shape, cfg, res, levels=None):
    """Cold solves at g (1 -/+ 1e-9) of each level's coupling g bind on
    opposite sides of M = 0 at that level's grid count."""
    solve = sv.solve_once_3d if cfg.dimension == 3 else sv.solve_once_1d
    for N, g in res.levels if levels is None else levels:
        below, above = (
            solve(pot.with_coupling(shape, g * f), cfg.m, cfg.alpha, res.box_size, N)[0]
            for f in (1.0 - 1e-9, 1.0 + 1e-9)
        )
        assert below > 0.0 > above, (N, g, below, above)


def dense_hamiltonian_3d(V, m, alpha, L, N):
    """Reference s-wave Hamiltonian on r_j = j L / N as a dense matrix
    S diag(eps) S + diag(V) in the orthonormal DST-I basis."""
    j = np.arange(1, N)
    p = j * (math.pi / L)
    eps = alpha * np.sqrt(p * p + m * m)
    S = math.sqrt(2.0 / N) * np.sin((math.pi / N) * np.outer(j, j))
    H = (S * eps) @ S
    H[np.diag_indices_from(H)] += pot.evaluate(V, j * (L / N))
    return 0.5 * (H + H.T)


def dense_hamiltonian_1d(V, m, alpha, L, N):
    """Reference periodic Hamiltonian on x_j = -L/2 + (j + 1/2) L / N as a
    dense circulant kinetic matrix plus diag(V(|x|))."""
    x = -0.5 * L + (np.arange(N) + 0.5) * (L / N)
    # momenta 2 pi k / L in FFT order: k = 0, 1, ..., then the negative k
    p = (2.0 * math.pi / L) * np.r_[0:(N + 1) // 2, -(N // 2):0]
    eps = alpha * np.sqrt(p * p + m * m)
    c = np.fft.ifft(eps).real
    H = c[(np.arange(N)[:, None] - np.arange(N)[None, :]) % N]
    H[np.diag_indices_from(H)] += pot.evaluate(V, np.abs(x))
    return 0.5 * (H + H.T)


def test_free_spectrum_3d():
    cfg = sv.SolverConfig(m=1.0, alpha=2, dimension=3, L=20.0, N=64)
    res = sv.ground_state_3d_swave(ZERO, cfg)
    exact = 2.0 * math.sqrt((math.pi / 20.0) ** 2 + 1.0)
    assert res.mass == pytest.approx(exact, rel=1e-12)
    assert res.binding_energy == res.mass - 2.0


def test_free_spectrum_1d():
    cfg = sv.SolverConfig(m=0.7, alpha=2, dimension=1, L=20.0, N=64)
    res = sv.ground_state_1d(ZERO, cfg)
    assert res.mass == pytest.approx(1.4, rel=1e-12)


def test_kinetic_operator_on_sine_modes():
    L, N, m, alpha = 17.0, 128, 0.7, 2.0
    j = np.arange(1, N)
    for k in (1, 5, 31):
        mode = np.sin(math.pi * k * j / N)
        out = sv.apply_kinetic_3d(mode, L, m, alpha)
        eps = alpha * math.sqrt((k * math.pi / L) ** 2 + m * m)
        assert np.max(np.abs(out - eps * mode)) < 1e-12 * eps


def test_wavefunction_normalization():
    E = pot.exponential(2.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    res = sv.ground_state_3d_swave(E, cfg)
    dr = res.box_size / res.grid_count
    assert np.sum(res.wavefunction**2) * dr == pytest.approx(1.0, abs=1e-10)


def test_rayleigh_quotient_upper_bounds_ground_state():
    E = pot.exponential(2.0, 1.0)
    m, alpha, L, N = 1.0, 2.0, 20.0, 128
    H = dense_hamiltonian_3d(E, m, alpha, L, N)
    M, _, _ = sv.solve_once_3d(E, m, alpha, L, N)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(N - 1)
        v /= np.linalg.norm(v)
        assert M <= v @ H @ v + 1e-10


def test_1d_even_ground_state():
    E = pot.exponential(1.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=2, dimension=1, L=24.0, N=256)
    res = sv.ground_state_1d(E, cfg)
    u = res.wavefunction
    asym = np.max(np.abs(u - u[::-1])) / np.max(np.abs(u))
    assert asym < 1e-8


def test_mass_monotone_in_coupling():
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    masses = [
        sv.ground_state_3d_swave(pot.exponential(g, 1.0), cfg).mass
        for g in (2.0, 4.0, 6.0)
    ]
    assert masses[0] > masses[1] > masses[2]
    # deep 1D states converge only quadratically in the spacing (the |x| kink
    # of the potential); 1e-5 is ample for an O(1) monotonicity check
    cfg1 = sv.SolverConfig(m=1.0, alpha=2, dimension=1, L=24.0, N=256, eigen_tol=1e-5)
    m1 = [
        sv.ground_state_1d(pot.exponential(g, 1.0), cfg1).mass for g in (2.0, 5.0)
    ]
    assert m1[0] > m1[1]


@pytest.mark.parametrize(
    "V",
    [
        pot.exponential(3.0, 1.0),
        pot.power_exponential(4.0, 1.0),
        pot.logarithmic(0.5, 2.5),
    ],
    ids=["exp", "pexp", "log"],
)
def test_self_convergence_smooth_potentials(V):
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    res = sv.ground_state_3d_swave(V, cfg)
    assert res.converged
    assert res.refinement_delta_rel < 1e-6


def test_grid_drift_decreases_with_refinement():
    V = pot.exponential(6.0, 1.0)
    masses = [sv.solve_once_3d(V, 1.0, 2.0, 20.0, N)[0] for N in (128, 256, 512, 1024)]
    drifts = [abs(a - b) for a, b in zip(masses, masses[1:])]
    assert drifts[0] > drifts[1] > drifts[2]


def test_singular_potential_solvable():
    # grid never contains r = 0, so the r^(-1/2) core is evaluable;
    # convergence is slower than for smooth kinds but still achieved
    S = pot.singular(3.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    res = sv.ground_state_3d_swave(S, cfg)
    assert res.converged
    assert res.mass < 2.0  # g = 3 binds at beta = 1


def test_weakly_bound_state_box_doubling():
    # alpha = 1 exponential well binds weakly; the relativistic tail floor
    # exp(-m L / 2) forces at least one box doubling
    E = pot.exponential(1.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=1, dimension=1, N=128)
    res = sv.ground_state_1d(E, cfg)
    assert res.converged
    assert res.box_size > 20.0
    assert res.mass == pytest.approx(0.5625, abs=2e-3)


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(sv, "_MAX_GRID", 256)
    E = pot.exponential(2.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=64, eigen_tol=1e-14)
    with pytest.raises(ConvergenceError):
        sv.ground_state_3d_swave(E, cfg)


def test_doubled_box_failure_raises(monkeypatch):
    # converged at L = 20 with a flat state, whose tail forces a box doubling;
    # the doubled box never converges, and the L = 20 result must not be
    # returned in its place
    def fake_solve(V, m, alpha, L, N):
        grid = np.arange(1, N) * (L / N)
        return (1.0 if L == 20.0 else float(N)), grid, np.ones(N - 1)

    monkeypatch.setattr(sv, "solve_once_3d", fake_solve)
    monkeypatch.setattr(sv, "_MAX_GRID", 1024)
    cfg = sv.SolverConfig(m=1.0, alpha=2, L=20.0, N=64)
    with pytest.raises(ConvergenceError, match=r"L = 40.*L = 20.*amplitude 1\b"):
        sv.ground_state_3d_swave(ZERO, cfg)


def test_grid_count_must_be_an_integer():
    # a fractional count spaced the points L / 128.5 on a 128-point grid
    for N in (128.5, 128.0):
        with pytest.raises(DomainError, match="integer"):
            sv.SolverConfig(N=N)
    E = pot.exponential(3.0, 1.0)
    want = sv.ground_state_3d_swave(E, sv.SolverConfig(N=128))
    got = sv.ground_state_3d_swave(E, sv.SolverConfig(N=np.int64(128)))
    assert got.mass.hex() == want.mass.hex()
    assert type(got.grid_count) is int and got.grid_count == want.grid_count


def test_config_validation():
    with pytest.raises(DomainError):
        sv.SolverConfig(m=-1.0)
    with pytest.raises(DomainError):
        sv.SolverConfig(alpha=3)
    with pytest.raises(DomainError):
        sv.SolverConfig(dimension=2)
    with pytest.raises(DomainError):
        sv.SolverConfig(N=4)
    with pytest.raises(DomainError):
        sv.ground_state_1d(ZERO, sv.SolverConfig(dimension=3))
    with pytest.raises(DomainError):
        sv.ground_state_3d_swave(ZERO, sv.SolverConfig(dimension=1))


@pytest.mark.parametrize("dim, N", [(3, 64), (3, 512), (1, 64), (1, 512)])
def test_iterative_path_matches_dense(dim, N):
    E = pot.exponential(6.0, 1.0)
    solve, build = {
        3: (sv.solve_once_3d, dense_hamiltonian_3d),
        1: (sv.solve_once_1d, dense_hamiltonian_1d),
    }[dim]
    iterative, _, _ = solve(E, 1.0, 2.0, 20.0, N)
    dense = scipy.linalg.eigh(
        build(E, 1.0, 2.0, 20.0, N), eigvals_only=True, subset_by_index=(0, 0)
    )[0]
    assert iterative == pytest.approx(dense, rel=1e-9)


def test_critical_coupling_levels_straddle_the_crossing():
    E = pot.exponential(1.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=128)
    res = sv.critical_coupling_exact(E, cfg=cfg, g_tol_rel=1e-6)
    assert res.converged
    # frozen from the first converged run (stable under grid doubling)
    assert res.coupling == pytest.approx(7.82803, rel=2e-5)
    assert (res.grid_count, res.coupling) == res.levels[-1]
    assert_levels_straddle_the_crossing(E, cfg, res)


def test_critical_coupling_1d_levels_straddle_the_crossing():
    shape = pot.exponential(1.0, 1.0)
    cfg = sv.SolverConfig(m=1.0, alpha=2, dimension=1, N=128)
    # the |x| kink of V(|x|) converges only quadratically in the spacing
    res = sv.critical_coupling_exact(
        shape, cfg=cfg, g_tol_rel=1e-6, grid_stability_rel=1e-5
    )
    assert res.converged
    assert len(res.levels) > 1
    assert_levels_straddle_the_crossing(shape, cfg, res)


_RADII = np.linspace(0.0, 12.0, 80)
# attractive core, repulsive shoulder around r = 2.5
_SHOULDER = pot.tabulated(
    _RADII, -np.exp(-_RADII) + 0.3 * np.exp(-(((_RADII - 2.5) / 0.7) ** 2)))


@pytest.mark.parametrize("shape, L, gc", [
    (pot.exponential(1.0, 1.0), 40.0, 7.828024525846),
    (_SHOULDER, 30.0, 7.992757204104),
], ids=["exp", "shoulder"])
def test_critical_coupling_survives_a_far_coarse_level(shape, L, gc):
    # the N = 16 level's coupling is 3.7 (exp) or 17 (shoulder) times the
    # converged one, and the N = 32 level's lies below half of it
    cfg = sv.SolverConfig(m=1.0, alpha=2, N=16, L=L)
    res = sv.critical_coupling_exact(shape, cfg=cfg)
    assert res.levels[0][1] > 3.0 * gc
    assert res.grid_count <= 2048
    assert res.coupling == pytest.approx(gc, rel=1e-11)
    assert_levels_straddle_the_crossing(shape, cfg, res, res.levels[-1:])


def test_critical_coupling_rejects_zero_alpha():
    # alpha = 0 is checked like any other value, not replaced by the config's
    with pytest.raises(DomainError):
        sv.critical_coupling_exact(pot.exponential(1.0, 1.0), 1.0, 0.0, sv.SolverConfig(N=64))


@pytest.mark.parametrize("tols", [(math.nan, None), (math.inf, None), (0.0, None),
                                  (1e-6, -1e-3), (1e-6, math.nan)])
def test_critical_coupling_rejects_bad_tolerances(tols):
    # a nan tolerance once let the first grid level's root pass as converged
    with pytest.raises(DomainError, match="tolerances must be positive and finite"):
        sv.critical_coupling_exact(pot.exponential(1.0, 1.0), cfg=sv.SolverConfig(N=64),
                                   g_tol_rel=tols[0], grid_stability_rel=tols[1])


def test_critical_coupling_not_stable_within_the_grid_limit_raises(monkeypatch):
    monkeypatch.setattr(sv, "_MAX_GRID", 256)
    cfg = sv.SolverConfig(m=1.0, alpha=2, L=40.0, N=64)
    with pytest.raises(ConvergenceError, match="grid doubling at N = 256"):
        sv.critical_coupling_exact(pot.exponential(1.0, 1.0), cfg=cfg)


@pytest.mark.parametrize("shape", [ZERO, pot.tabulated([0.0, 50.0], [1.0, 0.5])],
                         ids=["zero", "repulsive"])
def test_critical_coupling_without_attractive_part_raises(shape):
    # -v is nowhere positive, so lambda_max <= 0 and no coupling binds
    cfg = sv.SolverConfig(m=1.0, alpha=2, L=20.0, N=32)
    with pytest.raises(DomainError, match="no attractive part"):
        sv.critical_coupling_exact(shape, cfg=cfg)


def test_critical_coupling_beta_invariance():
    a = sv.critical_coupling_exact(pot.exponential(1.0, 1.0), cfg=sv.SolverConfig(m=1.0, N=128))
    b = sv.critical_coupling_exact(pot.exponential(1.0, 0.5), cfg=sv.SolverConfig(m=2.0, N=128))
    # (m, R) -> (2m, R/2) leaves beta = mR fixed; the discretized problem is
    # identical up to overall scale
    assert b.coupling == pytest.approx(a.coupling, rel=1e-10)


def test_critical_coupling_solve_count(monkeypatch):
    # one eigsh call per grid level, and the levels double from cfg.N
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    for dim in (3, 1):
        calls.clear()
        cfg = sv.SolverConfig(m=1.0, alpha=2, dimension=dim, N=128)
        res = sv.critical_coupling_exact(pot.exponential(1.0, 1.0), cfg=cfg,
                                         grid_stability_rel=1e-5)
        grids = [N for N, _ in res.levels]
        assert len(grids) > 1
        assert grids == [128 * 2**i for i in range(len(grids))]
        # one unknown per grid point in 1D; u(0) = u(L) = 0 removes one in 3D
        assert calls == [N - 1 if dim == 3 else N for N in grids]


def test_grid_count_must_leave_room_to_double(monkeypatch):
    # N > _MAX_GRID // 2 could never refine, so it fails before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("no eigensolve expected")

    monkeypatch.setattr(sv, "solve_once_3d", no_solve)
    monkeypatch.setattr(sv, "solve_once_1d", no_solve)
    for N in (sv._MAX_GRID // 2 + 1, sv._MAX_GRID):
        with pytest.raises(DomainError, match="at most 8192"):
            sv.ground_state_3d_swave(ZERO, sv.SolverConfig(N=N))
    assert sv.SolverConfig(N=sv._MAX_GRID // 2).N == 8192
