"""Time stepping: the moving-mesh discretization, the evolution-projection
composite, and the ``run`` driver that pairs a grid equation with the
moving-mesh update into a trajectory.

Every scheme is one moving-mesh stencil (``moving_mesh_terms``) on a layer
placed by its grid equation; classical FTCS is that stencil on the
stationary layer. Everything is explicit (forward Euler in time) with the
time step tied to the mean spacing through dt = dt_factor * h^2.

The step functions work on raw arrays: a layer is the checked ghost array
``xg`` of its positions (``grid.require_ordered``) and the nodal values
``u``. ``run`` carries (t, xg, u) from step to step, so each new layer is
ghosted and order-checked once, an unchanged one not at all, and ``u`` is
checked for finiteness once per step; it builds ``GridSlice`` and
``DiscreteField`` only for the snapshots it stores.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import SimulationError
from .grid import (TAU, DiscreteField, GridSlice, MonitorParams,
                   advance_constant, advance_equidistributed,
                   advance_lagrangian, advance_stationary,
                   equidistribute_initial, ghosted, require_finite,
                   require_ordered, uniform_slice)
from .interpolate import InterpKind, _evaluate


class SchemeKind(str, Enum):
    CLASSICAL_FTCS = "ftcs"
    LAGRANGIAN = "lagrangian"
    EULERIAN_ADAPTIVE = "eulerian-adaptive"
    CONSTANT_FRAME = "constant-frame"
    EVOLUTION_PROJECTION = "evolution-projection"


# Default time-step constants C in dt = C h^2. Each is fitted, not derived:
# a per-scheme bisection on C for the L-inf error at t=0.5 (N=64, nu=0.1,
# u0 = sin x) to equal that scheme's value in the published reference
# table, rounded to three digits. Constant-frame has no table entry and
# shares the FTCS constant. Admissible range: explicit diffusion stays
# positive while nu dt / gap^2 <= 1/2 on the lattice the stencil runs on.
# FTCS, constant-frame and projection (whose stencil runs on the uniform
# step-start lattice) have gap = h, so C <= 1/(2 nu) = 5 at nu = 0.1. On the
# Lagrangian and adaptive meshes the smallest gap sets the limit,
# C <= (min_gap/h)^2 / (2 nu), which the fitted Lagrangian constant exceeds
# near the front (nu dt / min_gap^2 = 0.57 at N=64). CHANGES.md records the
# fit and these diffusive numbers for each scheme.
DEFAULT_DT_FACTORS = {
    SchemeKind.CLASSICAL_FTCS: 1.076,
    SchemeKind.LAGRANGIAN: 1.567,
    SchemeKind.EULERIAN_ADAPTIVE: 1.994,
    SchemeKind.CONSTANT_FRAME: 1.076,
    SchemeKind.EVOLUTION_PROJECTION: 2.829,
}

# Most steps a run may take, about 3,000 times the longest run in the tests
# and benchmark workloads (N=512 to t=0.5): a huge t_final or a tiny
# dt_factor fails before the first step instead of stepping for hours.
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a run needs besides the initial data.

    ``scheme_kind`` and ``interp_kind`` may be given as enum members or
    their string values; construction stores the enum member.
    ``dt_factor`` defaults to the scheme's calibrated constant from
    ``DEFAULT_DT_FACTORS``.
    """

    scheme_kind: SchemeKind
    nu: float = 0.1
    n_points: int = 64
    t_final: float = 0.5
    dt_factor: float | None = None
    alpha: float = 1.0
    frame_velocity: float = 0.0
    interp_kind: InterpKind = InterpKind.QUADRATIC
    domain_start: float = 0.0
    domain_length: float = TAU

    def __post_init__(self):
        # an unknown value raises "... is not a valid SchemeKind/InterpKind"
        object.__setattr__(self, "scheme_kind", SchemeKind(self.scheme_kind))
        object.__setattr__(self, "interp_kind", InterpKind(self.interp_kind))
        if self.dt_factor is None:
            object.__setattr__(self, "dt_factor",
                               DEFAULT_DT_FACTORS[self.scheme_kind])
        for name in ("nu", "t_final", "dt_factor", "frame_velocity",
                     "domain_start", "domain_length"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if not self.dt_factor > 0.0:
            raise ValueError("dt_factor must be positive")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got "
                             f"{self.n_points!r}")
        if self.n_points < 4:
            raise ValueError("n_points must be >= 4")

    @property
    def boost(self) -> float:
        """The Galilean boost applied to the initial data: the frame
        velocity, except on the constant-frame scheme, where it is the
        grid's drift velocity instead and the data is not boosted."""
        if self.scheme_kind is SchemeKind.CONSTANT_FRAME:
            return 0.0
        return self.frame_velocity

    def monitor_params(self) -> MonitorParams:
        return MonitorParams(alpha=self.alpha)


@dataclass(frozen=True)
class Trajectory:
    """Ordered snapshots of one run; always contains first and last."""

    snapshots: tuple[DiscreteField, ...]
    config: SchemeConfig

    def __post_init__(self):
        times = [f.grid.t for f in self.snapshots]
        if len(times) < 2 or np.any(np.diff(times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def final(self) -> DiscreteField:
        return self.snapshots[-1]

    @property
    def initial(self) -> DiscreteField:
        return self.snapshots[0]


def moving_mesh_terms(xw, xc, xe, uw, uc, ue, xdot, nu):
    """Advection and diffusion terms of the moving-mesh relation
    (u_next - u_c)/dt + advection - diffusion = 0 at a node, for scalars or
    arrays. The centred slope is weighted by the velocity relative to the
    grid motion, u_c - xdot; with xdot = 0 this is the FTCS relation.
    """
    slope = (ue - uw) / (xe - xw)
    diffusion = (2.0 * nu / (xe - xw)) * ((ue - uc) / (xe - xc)
                                          - (uc - uw) / (xc - xw))
    return (uc - xdot) * slope, diffusion


def invariant_step(xg: np.ndarray, u: np.ndarray, xg_next: np.ndarray,
                   dt: float, nu: float) -> np.ndarray:
    """Explicit update on a moving mesh: the moving-mesh stencil on every
    node of the layer ``xg`` (ghost array, neighbours unwrapped across the
    seam), with the grid velocity xdot taken from the next layer
    ``xg_next``. On a stationary next layer (xdot = 0) this is the
    classical FTCS update. Returns the new nodal values, unchecked.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if len(xg_next) != len(xg) or len(u) != len(xg) - 3:
        raise ValueError("layers and values differ in size")
    ug = ghosted(u)
    x = xg[1:-2]
    xdot = (xg_next[1:-2] - x) / dt
    advection, diffusion = moving_mesh_terms(xg[:-3], x, xg[2:-1],
                                             ug[:-3], u, ug[2:-1], xdot, nu)
    return u - dt * (advection - diffusion)


def evolution_projection_step(xg: np.ndarray, u: np.ndarray, dt: float,
                              nu: float, interp_kind: InterpKind,
                              domain_length: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """One mesh-following step, re-mapped to a uniformly spaced layer;
    returns the checked ghost array of that layer and the values on it.

    Nodes move Lagrangianly, the moving-mesh update runs on the moved
    layer, and the result is interpolated back onto the step-start lattice
    advanced by the bulk (mean) velocity. Advancing the re-mapping targets
    with the bulk velocity keeps the whole composite boost-equivariant: a
    lattice held fixed in one frame is a moving lattice in every other.
    For zero-mean data the targets stay on the original lattice to
    roundoff, so the grid remains the familiar stationary uniform one.
    The interpolant reads the moved layer as its order check left it.
    """
    moved = advance_lagrangian(xg, u, dt, domain_length)
    evolved = invariant_step(xg, u, moved, dt, nu)
    targets = require_ordered(xg[1:-2] + dt * float(np.mean(u)),
                              domain_length)
    u1 = _evaluate(moved, ghosted(evolved), targets[1:-2],
                   InterpKind(interp_kind), domain_length)
    return targets, u1


def run(config: SchemeConfig, initial: Callable[[np.ndarray], np.ndarray],
        snapshot_every: int = 0) -> Trajectory:
    """Integrate the configured scheme from t = 0 to t_final.

    ``initial`` maps node positions to velocities. A nonzero
    ``config.boost`` realizes a run in a uniformly moving reference frame:
    the initial data is boosted before stepping (positions are untouched at
    t = 0) and outputs are left in the moving frame. ``snapshot_every``
    stores every k-th step in addition to the first and last; 0 keeps only
    those two. A run of more than ``_MAX_STEPS`` steps is rejected with a
    ``ValueError`` before the first one.
    """
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")
    kind = config.scheme_kind
    length = config.domain_length
    # the mean spacing L / N, taken before a grid of N nodes is built
    h = length / config.n_points
    dt0 = config.dt_factor * h * h
    # compared, not divided: dt0 may underflow to 0
    if config.t_final > _MAX_STEPS * dt0:
        raise ValueError(
            f"t_final={config.t_final!r} needs more than {_MAX_STEPS} steps "
            f"of dt = dt_factor * h^2 = {dt0!r} (dt_factor="
            f"{config.dt_factor!r}); lower t_final or raise dt_factor")
    grid = uniform_slice(config.n_points, 0.0, config.domain_start, length)

    def sample_initial(x: np.ndarray) -> np.ndarray:
        return np.asarray(initial(x), dtype=float) + config.boost

    mon = config.monitor_params()
    if kind is SchemeKind.EULERIAN_ADAPTIVE:
        grid = equidistribute_initial(sample_initial, grid, mon)
    fld = DiscreteField(grid=grid, u=sample_initial(grid.x))

    # the grid equation of each moving-mesh scheme (evolution-projection,
    # a composite, has none); each looks its advance up when called, so a
    # rebinding of the module attribute reaches the step loop
    advance = {
        SchemeKind.CLASSICAL_FTCS:
            lambda xg, u, dt: advance_stationary(xg, dt),
        SchemeKind.LAGRANGIAN:
            lambda xg, u, dt: advance_lagrangian(xg, u, dt, length),
        SchemeKind.EULERIAN_ADAPTIVE:
            lambda xg, u, dt: advance_equidistributed(xg, u, mon, dt, length),
        SchemeKind.CONSTANT_FRAME:
            lambda xg, u, dt: advance_constant(xg, config.frame_velocity, dt,
                                               length),
    }.get(kind)

    snapshots = [fld]
    # the initial layer was checked when its GridSlice was built
    t, xg, u = 0.0, ghosted(grid.x, length), fld.u
    t_end = config.t_final - 1e-12 * config.t_final
    step = 0
    # a blow-up surfaces as NonFiniteSolutionError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end:
            dt = min(dt0, config.t_final - t)
            try:
                if advance is None:
                    xg, u = evolution_projection_step(
                        xg, u, dt, config.nu, config.interp_kind, length)
                else:
                    xg_next = advance(xg, u, dt)
                    u = invariant_step(xg, u, xg_next, dt, config.nu)
                    xg = xg_next
                require_finite(u)
            except SimulationError as exc:
                exc.step = step
                exc.args = (f"step {step} (t={t:.6g}): {exc.args[0]}",)
                raise
            step += 1
            t = t + dt
            is_last = t >= t_end
            if is_last or (snapshot_every > 0 and step % snapshot_every == 0):
                # the last step was cut to land exactly on t_final
                layer = GridSlice(t=config.t_final if is_last else t,
                                  x=xg[1:-2], domain_start=config.domain_start,
                                  domain_length=length)
                snapshots.append(DiscreteField(grid=layer, u=u))
    return Trajectory(snapshots=tuple(snapshots), config=config)
