"""Symmetry-preserving finite-difference schemes for the 1-D viscous Burgers
equation on a periodic domain, with a moving-mesh engine, a discrete
symmetry-group toolbox, and a heat-kernel reference solution for quantitative
error and convergence studies. Pure Python on numpy; the adaptive mesh is
placed by a closed-form O(N) equidistribution. One moving-mesh stencil
serves the solver and the invariance certifier; each moving scheme pairs it
with a grid equation, FTCS steps it on the lattice at rest, and the
evolution-projection adds a remap. The frame velocity c is the Galilean
boost of the initial data on every scheme; constant-frame computes on the
lattice at rest in the frame moving with c and reports at (xi + c t, v + c).
The solver takes the stencil's grid velocity from the grid equation (none or
u; the difference quotient only on the equidistributed grid), and the
certifier from the difference quotient, equal to it in exact arithmetic.

All value types are immutable. Each run owns its layers and its stencil and
remap rows, the mutable buffers it steps through; the step functions write
into those the caller passes, and the results a run returns are copies that
never alias them. So independent runs may execute concurrently without
coordination. The public API takes and returns validated values only; the
functions on those buffers (grid equations, stencil, remap) are
the inside of ``run``, which validates once, and are not exported.
"""

from .errors import (NoConvergenceError, NodeCrossingError,
                     NonFiniteSolutionError, SimulationError)
from .exact import Reference, coefficients, evaluate
from .grid import (TAU, DiscreteField, GridSlice, equidistribute_initial,
                   mean_spacing, uniform_slice)
from .harness import (ErrorReport, convergence_study, frame_comparison,
                      grid_spacing_profile, linf_error)
from .interpolate import InterpKind
from .schemes import (DEFAULT_DT_FACTORS, SchemeConfig, SchemeKind,
                      Trajectory, run)
from .symmetry import (Generator, GroupElement, Stencil, StencilParams,
                       apply_field, apply_point, invariance_defect,
                       max_defect, relation_defect, sample_stencil,
                       satisfy_constant, satisfy_ftcs, satisfy_scheme,
                       satisfy_stationary, stencil_scale, transform_monitor,
                       transform_params, transform_stencil)

__version__ = "0.1.0"
