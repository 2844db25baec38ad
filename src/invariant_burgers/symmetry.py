"""Discrete actions of the one-parameter symmetry groups and a numerical
certifier for the invariance of finite-difference relations.

The five generators act on (t, x, u) points, whole discrete fields, and
two-layer stencils. Equivalence extensions optionally carry constitutive
constants along: the frame velocity of the constant-motion grid equation
under boosts, and the monitor weight under scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DomainViolationError
from .grid import TAU, DiscreteField, GridSlice, MonitorParams
from .schemes import moving_mesh_terms


class Generator(Enum):
    TIME_TRANSLATION = "time-translation"
    SPACE_TRANSLATION = "space-translation"
    GALILEAN_BOOST = "galilean-boost"
    SCALING = "scaling"
    TIME_INVERSION = "time-inversion"


@dataclass(frozen=True)
class GroupElement:
    """One generator with its real parameter and optional extensions."""

    generator: Generator
    epsilon: float
    extend_alpha: bool = False
    extend_c: bool = False

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")

    def inverse(self) -> GroupElement:
        return replace(self, epsilon=-self.epsilon)


@dataclass(frozen=True)
class SpaceTimePoint:
    t: float
    x: float
    u: float


def _map_txu(g: GroupElement, t, x, u):
    """The closed-form group action on (t, x, u); works on scalars/arrays."""
    eps = g.epsilon
    gen = g.generator
    if gen is Generator.TIME_TRANSLATION:
        return t + eps, x, u
    if gen is Generator.SPACE_TRANSLATION:
        return t, x + eps, u
    if gen is Generator.GALILEAN_BOOST:
        return t, x + eps * t, u + eps
    if gen is Generator.SCALING:
        return (math.exp(2.0 * eps) * t, math.exp(eps) * x,
                math.exp(-eps) * u)
    # time inversion, defined only while 1 - eps*t stays positive
    f = 1.0 - eps * np.asarray(t)
    if np.any(f <= 0.0):
        raise DomainViolationError(
            f"time inversion with epsilon={eps} undefined at t={t}")
    f = f if np.ndim(t) else float(f)
    return t / f, x / f, u * f + eps * x


def apply_point(g: GroupElement, p: SpaceTimePoint) -> SpaceTimePoint:
    t, x, u = _map_txu(g, p.t, p.x, p.u)
    return SpaceTimePoint(t=float(t), x=float(x), u=float(u))


def apply_field(g: GroupElement, fld: DiscreteField) -> DiscreteField:
    """Transform every node (t, x_i, u_i) of one time layer simultaneously."""
    grid = fld.grid
    t, x, u = _map_txu(g, grid.t, grid.x, fld.u)
    start, length = grid.domain_start, grid.domain_length
    if g.generator is Generator.SPACE_TRANSLATION:
        start = start + g.epsilon
    elif g.generator is Generator.GALILEAN_BOOST:
        start = start + g.epsilon * grid.t
    elif g.generator is Generator.SCALING:
        scale = math.exp(g.epsilon)
        start, length = scale * start, scale * length
    elif g.generator is Generator.TIME_INVERSION:
        f = 1.0 - g.epsilon * grid.t
        start, length = start / f, length / f
    new_grid = GridSlice(t=float(t), x=x, domain_start=start,
                         domain_length=length)
    return DiscreteField(grid=new_grid, u=u)


def transform_monitor(g: GroupElement, params: MonitorParams) -> MonitorParams:
    """Equivalence extension of the monitor weight under scalings.

    The centered slope picks up a factor e^(-2 eps), so keeping the
    radicand 1 + alpha*slope^2 unchanged requires alpha -> e^(4 eps) * alpha.
    """
    if g.extend_alpha and g.generator is Generator.SCALING:
        return replace(params, alpha=math.exp(4.0 * g.epsilon) * params.alpha)
    return params


# ---------------------------------------------------------------------------
# stencil-level invariance certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stencil:
    """Two-layer sample of a discrete relation around one node.

    Layer n carries three nodes (west, center, east) at time ``t``; layer
    n+1 carries the same nodes at ``t + dt``. Next-layer positions and the
    time increment are first-class members so that scalings act on them
    consistently.
    """

    t: float
    dt: float
    x: np.ndarray
    u: np.ndarray
    x_next: np.ndarray
    u_next: np.ndarray


@dataclass(frozen=True)
class StencilParams:
    """Constitutive constants a discrete relation may reference."""

    nu: float = 0.1
    c: float = 0.0


def transform_stencil(g: GroupElement, s: Stencil) -> Stencil:
    t0, x0, u0 = _map_txu(g, s.t, s.x, s.u)
    t1, x1, u1 = _map_txu(g, s.t + s.dt, s.x_next, s.u_next)
    return Stencil(t=float(t0), dt=float(t1 - t0), x=x0, u=u0,
                   x_next=x1, u_next=u1)


def transform_params(g: GroupElement, p: StencilParams) -> StencilParams:
    """Extensions on constants; the viscosity is invariant under the
    whole periodic-compatible subgroup."""
    if g.extend_c and g.generator is Generator.GALILEAN_BOOST:
        return replace(p, c=p.c + g.epsilon)
    return p


def scheme_residual(s: Stencil, p: StencilParams) -> float:
    """Defining relation of the moving-mesh discretization.

    The grid velocity (x_next - x)/dt in the advection factor is what lets
    boosts cancel; with a stationary next layer it degenerates to the
    classical fixed-grid relation.
    """
    return _residual(s, p, _grid_velocity(s))


def ftcs_residual(s: Stencil, p: StencilParams) -> float:
    """Classical fixed-grid relation: the moving-mesh stencil with no
    grid-velocity term, i.e. on a stationary layer."""
    return _residual(s, p, 0.0)


def _grid_velocity(s: Stencil) -> float:
    return (s.x_next[1] - s.x[1]) / s.dt


def _residual(s: Stencil, p: StencilParams, xdot: float) -> float:
    advection, diffusion = moving_mesh_terms(*s.x, *s.u, xdot, p.nu)
    return (s.u_next[1] - s.u[1]) / s.dt + advection - diffusion


def stationary_grid_residual(s: Stencil, p: StencilParams) -> float:
    """Defining relation of the non-moving grid: x stays put."""
    return s.x_next[1] - s.x[1]


def constant_grid_residual(s: Stencil, p: StencilParams) -> float:
    """Defining relation of the rigidly drifting grid: x advances by c*dt."""
    return s.x_next[1] - s.x[1] - p.c * s.dt


def satisfy_scheme(s: Stencil, p: StencilParams) -> Stencil:
    """Solve the scheme relation for the next-layer center value."""
    return _satisfy(s, p, _grid_velocity(s))


def satisfy_ftcs(s: Stencil, p: StencilParams) -> Stencil:
    """Solve the fixed-grid relation (the stencil at xdot = 0) for the
    next-layer center value."""
    return _satisfy(s, p, 0.0)


def _satisfy(s: Stencil, p: StencilParams, xdot: float) -> Stencil:
    advection, diffusion = moving_mesh_terms(*s.x, *s.u, xdot, p.nu)
    u_next = s.u_next.copy()
    u_next[1] = s.u[1] - s.dt * (advection - diffusion)
    return replace(s, u_next=u_next)


def satisfy_stationary(s: Stencil, p: StencilParams) -> Stencil:
    x_next = s.x_next.copy()
    x_next[1] = s.x[1]
    return replace(s, x_next=x_next)


def satisfy_constant(s: Stencil, p: StencilParams) -> Stencil:
    x_next = s.x_next.copy()
    x_next[1] = s.x[1] + p.c * s.dt
    return replace(s, x_next=x_next)


def stencil_scale(s: Stencil, p: StencilParams) -> float:
    """Magnitude of the individual relation terms, for defect normalization."""
    advection, diffusion = moving_mesh_terms(*s.x, *s.u, _grid_velocity(s),
                                             p.nu)
    return max(abs((s.u_next[1] - s.u[1]) / s.dt), abs(advection),
               abs(diffusion), 1.0)


def invariance_defect(residual, g: GroupElement, s: Stencil,
                      p: StencilParams = StencilParams()) -> float:
    """|residual(g . stencil) - residual(stencil)|, extensions included.

    Zero (up to roundoff) certifies invariance of the relation for this
    sample; a stencil that satisfies the relation exposes the defect of the
    transformed relation directly.
    """
    return abs(residual(transform_stencil(g, s), transform_params(g, p))
               - residual(s, p))


def sample_stencil(rng: np.random.Generator) -> Stencil:
    """One random two-layer stencil; gaps bounded away from zero."""
    t = rng.uniform(0.0, 1.0)
    dt = rng.uniform(1e-5, 1e-2)
    xc = rng.uniform(0.0, TAU)
    gap_w = rng.uniform(1e-3, 1.0)
    gap_e = rng.uniform(1e-3, 1.0)
    x = np.array([xc - gap_w, xc, xc + gap_e])
    return Stencil(
        t=t, dt=dt, x=x,
        u=rng.uniform(-2.0, 2.0, 3),
        x_next=x + rng.uniform(-0.5, 0.5, 3),
        u_next=rng.uniform(-2.0, 2.0, 3),
    )


def max_defect(residual, g: GroupElement, n_samples: int = 1000,
               seed: int = 0, p: StencilParams = StencilParams(),
               satisfy=None) -> float:
    """Max invariance defect over seeded random stencils.

    ``satisfy`` optionally closes each sample on the relation's own solution
    manifold (needed for scalings, where the relation is equivariant rather
    than term-by-term invariant). The defect is measured relative to the
    size of the relation's terms.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        s = sample_stencil(rng)
        if satisfy is not None:
            s = satisfy(s, p)
        worst = max(worst, invariance_defect(residual, g, s, p)
                    / stencil_scale(s, p))
    return worst
