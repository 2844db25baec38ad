"""Discrete actions of the one-parameter symmetry groups and a numerical
certifier for the invariance of finite-difference relations.

The four generators act on (t, x, u) points, whole discrete fields, and
two-layer stencils, and always carry the constants along: a boost shifts
the drift velocity c of the constant-motion grid equation, and a scaling
rescales c and the monitor weight. The Burgers equation on the line also
admits the projective map t -> t/(1 - eps t), x -> x/(1 - eps t),
u -> u (1 - eps t) + eps x, but the periodic problem does not, because
that map rescales the period with time. Each stencil relation is one
function, its solve for the next layer's center unknown (``satisfy_*``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .grid import TAU, DiscreteField, GridSlice, Layer
from .schemes import StencilRows, bind_stencil


class Generator(Enum):
    """The one-parameter symmetry groups of the periodic problem."""

    TIME_TRANSLATION = "time-translation"
    SPACE_TRANSLATION = "space-translation"
    GALILEAN_BOOST = "galilean-boost"
    SCALING = "scaling"


@dataclass(frozen=True)
class GroupElement:
    """One generator, given as a ``Generator`` or its value and stored as
    the member, with its real parameter. A scaling's actions raise
    ``ValueError`` where a factor e^(k eps) overflows or underflows to 0."""

    generator: Generator
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "generator", Generator(self.generator))
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")

    def inverse(self) -> GroupElement:
        return replace(self, epsilon=-self.epsilon)


def _factor(g: GroupElement, power: float) -> float:
    """The scaling factor e^(power * eps) of ``g``; ``ValueError`` naming
    the generator and eps where it overflows or underflows to 0."""
    try:
        factor = math.exp(power * g.epsilon)
    except OverflowError:
        factor = 0.0
    if not factor > 0.0:
        raise ValueError(f"{g.generator.value} by eps={g.epsilon!r}: its "
                         f"factor e^({power:g} eps) overflows or is 0")
    return factor


def apply_point(g: GroupElement, t, x, u):
    """The closed-form action of ``g`` on (t, x, u), returned as a new
    (t, x, u); each argument may be a scalar or an array."""
    eps = g.epsilon
    gen = g.generator
    if gen is Generator.TIME_TRANSLATION:
        return t + eps, x, u
    if gen is Generator.SPACE_TRANSLATION:
        return t, x + eps, u
    if gen is Generator.GALILEAN_BOOST:
        return t, x + eps * t, u + eps
    # the scaling
    return _factor(g, 2.0) * t, _factor(g, 1.0) * x, _factor(g, -1.0) * u


def apply_field(g: GroupElement, fld: DiscreteField) -> DiscreteField:
    """Transform every node (t, x_i, u_i) of one time layer simultaneously
    with ``apply_point``; the domain start is one more point of the layer,
    and the domain length scales with x under scalings."""
    grid = fld.grid
    t, x, u = apply_point(g, grid.t, grid.x, fld.u)
    _, start, _ = apply_point(g, grid.t, grid.domain_start, 0.0)
    length = grid.domain_length
    if g.generator is Generator.SCALING:
        length = _factor(g, 1.0) * length
    new_grid = GridSlice(t=float(t), x=x, domain_start=start,
                         domain_length=length)
    return DiscreteField(grid=new_grid, u=u)


def transform_monitor(g: GroupElement, alpha: float) -> float:
    """The monitor weight under ``g``: a scaling multiplies the centered
    slope by e^(-2 eps), so keeping the radicand 1 + alpha*slope^2
    unchanged takes alpha -> e^(4 eps) * alpha; the other generators keep
    it."""
    if g.generator is Generator.SCALING:
        return _factor(g, 4.0) * alpha
    return alpha


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
    t0, x0, u0 = apply_point(g, s.t, s.x, s.u)
    t1, x1, u1 = apply_point(g, s.t + s.dt, s.x_next, s.u_next)
    return Stencil(t=float(t0), dt=float(t1 - t0), x=x0, u=u0,
                   x_next=x1, u_next=u1)


def transform_params(g: GroupElement, p: StencilParams) -> StencilParams:
    """The constants under ``g``: a boost shifts the drift velocity,
    c -> c + eps, and a scaling rescales it like a velocity,
    c -> e^(-eps) c. The viscosity is invariant under the whole
    periodic-compatible subgroup."""
    if g.generator is Generator.GALILEAN_BOOST:
        return replace(p, c=p.c + g.epsilon)
    if g.generator is Generator.SCALING:
        return replace(p, c=_factor(g, -1.0) * p.c)
    return p


def _grid_velocity(s: Stencil) -> float:
    return (s.x_next[1] - s.x[1]) / s.dt


def satisfy_scheme(s: Stencil, p: StencilParams) -> Stencil:
    """Solve the moving-mesh relation for the next-layer center value.

    The grid velocity (x_next - x)/dt in the advection factor is what lets
    boosts cancel; with a stationary next layer it degenerates to the
    classical fixed-grid relation.
    """
    return _with_center(s, "u_next", _terms(s, _grid_velocity(s), p.nu)[2])


def satisfy_ftcs(s: Stencil, p: StencilParams) -> Stencil:
    """Solve the fixed-grid relation (the stencil at xdot = 0) for the
    next-layer center value."""
    return _with_center(s, "u_next", _terms(s, 0.0, p.nu)[2])


def _terms(s: Stencil, xdot: float, nu: float
           ) -> tuple[float, float, float]:
    """The advection and diffusion terms of the moving-mesh stencil at the
    center of ``s`` and the center value it steps to: the solver's stencil,
    bound to the step-start layers of the three nodes, runs once, and node
    1 is read. Their period 2 (x_e - x_w) reaches only the ghosts, which
    node 1 does not read; placing the positions raises
    ``NodeCrossingError`` unless x_w < x_c < x_e."""
    xl = Layer.of_positions(s.x, 2.0 * (s.x[2] - s.x[0]))
    ul, out, rows = Layer.of_values(s.u), Layer(3), StencilRows(3, nu)
    bind_stencil(xl, ul, xdot, s.dt, rows, out)()
    return rows.advection[1], rows.diffusion[1], out.nodes[1]


def _with_center(s: Stencil, row: str, value: float) -> Stencil:
    new = getattr(s, row).copy()
    new[1] = value
    return replace(s, **{row: new})


def satisfy_stationary(s: Stencil, p: StencilParams) -> Stencil:
    """Solve the non-moving grid relation: x stays put."""
    return _with_center(s, "x_next", s.x[1])


def satisfy_constant(s: Stencil, p: StencilParams) -> Stencil:
    """Solve the rigidly drifting grid relation: x advances by c*dt."""
    return _with_center(s, "x_next", s.x[1] + p.c * s.dt)


def stencil_scale(s: Stencil, p: StencilParams) -> float:
    """Magnitude of the individual relation terms, for defect normalization."""
    advection, diffusion, _ = _terms(s, _grid_velocity(s), p.nu)
    return max(abs((s.u_next[1] - s.u[1]) / s.dt), abs(advection),
               abs(diffusion), 1.0)


def relation_defect(satisfy, s: Stencil, p: StencilParams) -> float:
    """How far ``s`` is from the relation that ``satisfy`` solves: the
    change the solve makes to the next layer's center unknown, |du|/dt for
    a value relation and |dx| for a grid relation."""
    on = satisfy(s, p)
    return (abs(on.u_next[1] - s.u_next[1]) / s.dt
            + abs(on.x_next[1] - s.x_next[1]))


def invariance_defect(satisfy, g: GroupElement, s: Stencil,
                      p: StencilParams = StencilParams()) -> float:
    """The ``relation_defect`` of the image under ``g`` of a solution.

    ``s`` is first put on the relation; its image and the transformed
    constants are then measured against the same relation. Zero (up to
    roundoff) certifies invariance of the relation for this sample.
    """
    image = transform_stencil(g, satisfy(s, p))
    return relation_defect(satisfy, image, transform_params(g, p))


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


def max_defect(satisfy, g: GroupElement, n_samples: int = 1000,
               seed: int = 0, p: StencilParams = StencilParams()) -> float:
    """Max invariance defect over seeded random stencils, each put on the
    relation first and measured relative to the size of the relation's
    terms there."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        s = satisfy(sample_stencil(rng), p)
        worst = max(worst, invariance_defect(satisfy, g, s, p)
                    / stencil_scale(s, p))
    return worst
