"""Rigorous lower bounds for the semirelativistic (spinless Salpeter)
ground state, with a pseudospectral oracle to verify them.

The package computes, in GeV-based natural units:

* optimized lower bounds on the ground-state mass and binding energy in one
  and three dimensions, for potentials whose attractive part lies in the
  required L^p class;
* lower limits on the critical coupling at which the ground-state mass
  vanishes;
* the cutoff-and-shift extension of the bound to confining potentials;
* "exact" reference values from a sine-basis / plane-wave pseudospectral
  eigensolver with self-convergence diagnostics.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set; set either
before the import to choose another thread count.  The default has no effect
if numpy or scipy loaded its BLAS before ``salpeter_bounds`` was first
imported.
"""

import os

# The package's BLAS work is ARPACK's level-1/2 operations on at most
# 20 vectors of at most ``solver._MAX_GRID`` (16384) entries.  A second
# OpenBLAS thread does no useful work there; it only spins between calls and
# nearly doubles an eigensolve's CPU time.  This must run before the first
# submodule loads numpy or scipy.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .bounds import (
    BoundReport,
    TruncationResult,
    binding_energy_bound_3d,
    confining_bound,
    critical_coupling_bound_3d,
    mass_bound_1d,
    mass_bound_3d,
    optimize_mass_bound_1d,
    optimize_mass_bound_3d,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DivergentNormError,
    DomainError,
    PotentialClassError,
    SalpeterBoundsError,
)
from .potentials import (
    PotentialKind,
    PotentialModel,
    TruncatedPotential,
    evaluate,
    evaluate_shifted,
    evaluate_truncated,
    exponential,
    load_table,
    logarithmic,
    negative_part_norm,
    power_exponential,
    singular,
    sup_negative,
    tabulated,
    truncated_negative_norm,
    with_coupling,
)
from .solver import (
    CriticalCouplingResult,
    SolverConfig,
    SpectrumResult,
    critical_coupling_exact,
    ground_state_1d,
    ground_state_3d_swave,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    YoungExponents,
    bessel_k0,
    bessel_k1,
    combined_constant,
    green_norm_1d,
    green_norm_3d,
    k0_power_integral,
    k1_power_integral,
    young_constant,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "TruncationResult",
    "binding_energy_bound_3d",
    "confining_bound",
    "critical_coupling_bound_3d",
    "mass_bound_1d",
    "mass_bound_3d",
    "optimize_mass_bound_1d",
    "optimize_mass_bound_3d",
    "BracketError",
    "ConvergenceError",
    "DivergentNormError",
    "DomainError",
    "PotentialClassError",
    "SalpeterBoundsError",
    "PotentialKind",
    "PotentialModel",
    "TruncatedPotential",
    "evaluate",
    "evaluate_shifted",
    "evaluate_truncated",
    "exponential",
    "load_table",
    "logarithmic",
    "negative_part_norm",
    "power_exponential",
    "singular",
    "sup_negative",
    "tabulated",
    "truncated_negative_norm",
    "with_coupling",
    "CriticalCouplingResult",
    "SolverConfig",
    "SpectrumResult",
    "critical_coupling_exact",
    "ground_state_1d",
    "ground_state_3d_swave",
    "DEFAULT_QUADRATURE",
    "QuadratureSpec",
    "YoungExponents",
    "bessel_k0",
    "bessel_k1",
    "combined_constant",
    "green_norm_1d",
    "green_norm_3d",
    "k0_power_integral",
    "k1_power_integral",
    "young_constant",
]
