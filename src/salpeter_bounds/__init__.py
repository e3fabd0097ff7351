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

# The package's BLAS work is the eigensolver's small dense operations:
# ARPACK's restarted Lanczos on at most 20 vectors of at most
# ``solver._MAX_GRID`` (16384) entries.
# A second OpenBLAS thread does no useful work there; it only spins between
# calls and nearly doubles an eigensolve's CPU time.  This must run before
# the first submodule loads numpy or scipy.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import bounds, errors, potentials, solver, specfun
from .bounds import *
from .errors import *
from .potentials import *
from .solver import *
from .specfun import *

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *errors.__all__, *potentials.__all__, *solver.__all__,
           *specfun.__all__]
