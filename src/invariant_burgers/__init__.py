"""Symmetry-preserving finite-difference schemes for the 1-D viscous
Burgers equation on a periodic domain: five explicit schemes (fixed-grid
FTCS, Lagrangian, equidistributed-adaptive, constant-frame and
evolution-projection), a discrete symmetry-group certifier, and a
heat-kernel reference solution for error and convergence studies. Pure
Python on numpy.

All value types are immutable, and no result of a run aliases the buffers
it stepped through, so independent runs may execute concurrently. The API
takes and returns validated values only; the functions on a run's buffers
are the inside of ``run``, which validates once, and are not exported.
"""

from .errors import (NoConvergenceError, NodeCrossingError,
                     NonFiniteSolutionError, SimulationError)
from .exact import Reference, coefficients, evaluate
from .grid import TAU, DiscreteField, GridSlice, mean_spacing, uniform_slice
from .harness import (ErrorReport, convergence_study, frame_comparison,
                      grid_spacing_profile, linf_error)
from .interpolate import InterpKind
from .schemes import (DEFAULT_DT_FACTORS, SchemeConfig, SchemeKind,
                      Trajectory, run)
from .symmetry import (Generator, GroupElement, StencilParams, apply_field,
                       apply_point, max_defect, satisfy_constant,
                       satisfy_ftcs, satisfy_scheme, satisfy_stationary)

__version__ = "0.1.0"
