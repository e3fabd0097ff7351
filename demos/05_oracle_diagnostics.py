"""Inside the pseudospectral oracle: exactness and convergence diagnostics.

The solver discretizes alpha*sqrt(p^2 + m^2) + V on a uniform grid with the
kinetic operator applied spectrally (sine basis in 3D s-wave, plane waves in
1D).  Three sanity properties are demonstrated: the free spectrum is exact to
rounding, eigenvalues converge under grid doubling, and the wavefunction is
trapped well inside the box.
"""

import math

import numpy as np
from scipy.fft import dst

from salpeter_bounds import potentials, solver

# free particle in a box: the lowest sine mode is an exact eigenstate
zero = potentials.tabulated([0.0, 50.0], [0.0, 0.0])
cfg = solver.SolverConfig(m=1.0, alpha=2, dimension=3, L=20.0, N=64)
res = solver.ground_state_3d_swave(zero, cfg)
exact = 2.0 * math.sqrt((math.pi / 20.0) ** 2 + 1.0)
print("free particle, 3D s-wave:")
print(f"  M(numerical) = {res.mass:.16f}")
print(f"  M(analytic)  = {exact:.16f}")
print(f"  relative difference: {abs(res.mass - exact) / exact:.2e}")
print()

# grid-doubling convergence for a bound state
V = potentials.exponential(6.0, 1.0)
print("exponential well, g = 6 (bound): eigenvalue vs grid count")
prev = None
for N in (128, 256, 512, 1024, 2048):
    M, r, u = solver.solve_once_3d(V, 1.0, 2.0, 20.0, N)
    drift = "" if prev is None else f"   drift {abs(M - prev):.2e}"
    print(f"  N = {N:5d}:  M = {M:.12f}{drift}")
    prev = M
print()

# the converged result carries its own diagnostics
res = solver.ground_state_3d_swave(V, solver.SolverConfig(m=1.0, alpha=2, N=128))
dr = res.box_size / res.grid_count
print("converged solve diagnostics:")
print(f"  grid count / box     : N = {res.grid_count}, L = {res.box_size} GeV^-1")
print(f"  N->2N drift          : {res.refinement_delta_rel:.2e} relative")
print(f"  boundary amplitude   : {res.boundary_amplitude:.2e} of the peak")
print(f"  norm on the grid     : {np.sum(res.wavefunction**2) * dr:.12f}")
print()

# variational check: the ground state lies below every Rayleigh quotient of
# H = K + diag(V), with the kinetic product K = S diag(eps) S written out:
# S is the orthonormal type-I sine transform, and
# eps_k = alpha sqrt(p_k^2 + m^2) at the momenta p_k = k pi / L
M0, r, _ = solver.solve_once_3d(V, 1.0, 2.0, 20.0, 128)
eps = 2.0 * np.sqrt((np.arange(1, 128) * (math.pi / 20.0)) ** 2 + 1.0)
rng = np.random.default_rng(0)
quotients = []
for _ in range(5):
    v = rng.standard_normal(127)
    v /= np.linalg.norm(v)
    Kv = dst(eps * dst(v, type=1, norm="ortho"), type=1, norm="ortho")
    Hv = Kv + potentials.evaluate(V, r) * v
    quotients.append(float(v @ Hv))
print(f"ground state {M0:.6f} below all 5 random Rayleigh quotients: "
      f"min quotient = {min(quotients):.6f}")
