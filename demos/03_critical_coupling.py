"""Critical coupling: analytic lower limit vs the pseudospectral oracle.

As the coupling g grows, the ground-state mass M(g) decreases and crosses
zero at the critical value; beyond it the mass would be unphysically
negative.  Setting the mass bound to zero gives an analytic lower limit on
that critical coupling which depends only on beta = m R.  The oracle finds
the true crossing on each grid as 1 / lambda_max of the Birman-Schwinger
operator K^(-1/2) (-v) K^(-1/2), doubling the grid until the value is stable.

Runtime: about a second (1.2 s on a 2-core Intel Xeon machine).
"""

import time

from salpeter_bounds import bounds, potentials, solver

alpha = 2.0
shape = potentials.exponential(1.0, 1.0)  # unit-coupling shape, R = 1

print(f"{'beta':>6} {'g_c oracle':>12} {'g_c bound':>12} {'ratio':>8}")
for beta in (0.5, 1.0, 2.0):
    t0 = time.time()
    gb = bounds.critical_coupling_bound_3d(shape, beta, alpha)
    cfg = solver.SolverConfig(m=beta, alpha=alpha, dimension=3, N=128)
    res = solver.critical_coupling_exact(shape, cfg=cfg)
    print(
        f"{beta:6.2f} {res.coupling:12.6f} {gb:12.6f} {gb / res.coupling:8.4f}"
        f"   ({time.time() - t0:.1f}s, {len(res.levels)} levels, N={res.grid_count})"
    )

print()
print("The bound sits below the oracle value at every beta (validity) and")
print("tracks it more closely as beta grows.  The same comparison over the")
print("full beta grid and all three potentials is the fig1 CSV sweep:")
print("  salpeter-bounds fig1 --beta-grid 0.2:5:9 --out fig1.csv")
