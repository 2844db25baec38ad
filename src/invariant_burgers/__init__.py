"""Symmetry-preserving finite-difference schemes for the 1-D viscous
Burgers equation on a periodic domain, with a moving-mesh engine, a
discrete symmetry-group toolbox, and a series reference solution for
quantitative error and convergence studies. Pure Python on numpy; the
adaptive mesh is placed by a closed-form O(N) equidistribution. One
moving-mesh stencil serves the solver and the invariance certifier; each
scheme pairs it with a grid equation, and FTCS is the stationary one.

All value types are immutable and every operation is a pure function, so
independent runs may execute concurrently without coordination.
"""

from .errors import (DomainViolationError, NoConvergenceError, NoDecayError,
                     NodeCrossingError, NonFiniteSolutionError,
                     SimulationError)
from .exact import FourierCoeffs, coefficients, evaluate
from .grid import (TAU, DiscreteField, GridSlice, MonitorParams,
                   advance_constant, advance_equidistributed,
                   advance_lagrangian, advance_stationary,
                   equidistribute_initial, ghosted, mean_spacing, monitor,
                   require_ordered, uniform_slice)
from .harness import (ConvergenceRow, ErrorReport, convergence_study,
                      frame_comparison, grid_spacing_profile, linf_error)
from .interpolate import InterpKind
from .schemes import (DEFAULT_DT_FACTORS, SchemeConfig, SchemeKind,
                      Trajectory, evolution_projection_step, invariant_step,
                      moving_mesh_terms, run)
from .symmetry import (Generator, GroupElement, Stencil, StencilParams,
                       apply_field, apply_point,
                       constant_grid_residual, ftcs_residual,
                       invariance_defect, max_defect, sample_stencil,
                       satisfy_constant, satisfy_ftcs, satisfy_scheme,
                       satisfy_stationary, scheme_residual,
                       stationary_grid_residual, stencil_scale,
                       transform_monitor, transform_params, transform_stencil)

__version__ = "0.1.0"
