"""Time stepping: the moving-mesh discretization, the evolution-projection
composite, and the ``run`` driver that pairs a grid equation with the
moving-mesh update into a trajectory.

Every scheme is one moving-mesh stencil (``moving_mesh_terms``) on a layer
placed by its grid equation; classical FTCS is that stencil on the
stationary layer. Everything is explicit (forward Euler in time) with the
time step tied to the mean spacing through dt = dt_factor * h^2.

The stencil's grid velocity xdot is the one each grid equation defines,
not a quotient re-derived from positions: none on the stationary grid;
xdot = u on the Lagrangian grid (and the projection's evolution sub-step),
where u - xdot is zero and no advection term is formed, so the step is
u + dt * diffusion; the drift c on the constant grid; and the difference
quotient (x_next - x)/dt only on the equidistributed grid, which has no
closed-form velocity. In exact arithmetic each equals the quotient that the
certifier's relation (``symmetry.satisfy_scheme``) uses.

At N = 512 a numpy call costs about a microsecond whatever it computes, so
the step makes few: one stencil pass over a slot row, no grid velocity on
a stationary layer and no advection term on a Lagrangian one.

``run`` is the step layer's one boundary. It and ``SchemeConfig``
validate once; it then allocates its ``grid.Layer``s once, each of N + 3
slots and each position layer with the period L, and steps with a finite
dt in (0, dt_factor * h^2], so the step functions, which work in place on
those layers, check none of it again and are not exported. Each step
writes the new positions and values into spare layers passed as
destinations, through the views and scratch rows formed at allocation; it
forms no view and allocates no layer, and no array of values apart from
the adaptive mesh solve's partial sums and the projection's remap (the
finiteness check still makes its boolean mask). The adaptive step writes
its monitor into the destination layer, which the new positions then
replace; the remap reads the moved and evolved layers (the cubic spline
copies its gaps, gap slopes and moments into value layers of its own).
Each new position layer is placed and order-checked once, an unchanged
one not at all, and each new value layer is filled and checked for
finiteness once. ``GridSlice`` and ``DiscreteField`` are built only for
the snapshots ``run`` stores, from copies, so no result aliases a layer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import SimulationError
from .grid import (TAU, DiscreteField, GridSlice, Layer, advance_constant,
                   advance_equidistributed, advance_lagrangian,
                   advance_stationary, equidistribute_initial,
                   require_finite, uniform_slice)
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
# positive while nu dt / (h_w h_e) <= 1/2 at every node, h_w and h_e its
# gaps on the step-start layer; on uniform gaps h that is C <= 1/(2 nu),
# 5 at nu = 0.1. The largest number over a run to t = 0.5 from u0 = sin x,
# at N = 64 and N = 512:
#   FTCS and constant-frame  0.108 and 0.108  (uniform gaps h)
#   evolution-projection     0.283 and 0.283  (uniform gaps h)
#   eulerian-adaptive        0.484 and 0.522
#   lagrangian               0.544 and 0.574
# so the fitted Lagrangian constant crosses 1/2 at both sizes and the
# adaptive one at N = 512, both near the front, where the smallest gaps
# are. CHANGES.md records the fit.
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
        for name in ("nu", "t_final", "dt_factor", "alpha", "frame_velocity",
                     "domain_start", "domain_length"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if not self.dt_factor > 0.0:
            raise ValueError("dt_factor must be positive")
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be >= 0")
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


def moving_mesh_terms(xl: Layer, ul: Layer, xdot, nu: float, out: Layer
                      ) -> tuple[np.ndarray | None, np.ndarray]:
    """Advection and diffusion terms of the moving-mesh relation
    (u_next - u_k)/dt + advection - diffusion = 0 at the nodes of the
    position layer ``xl`` and value layer ``ul``, read over their slot
    rows: the row gaps and row wide gaps of ``xl`` and the row views of
    ``ul``. The centred slope is weighted by the velocity relative to the
    grid motion, u_k - xdot, where xdot is the grid velocity its grid
    equation defines: None on a stationary layer, which skips the
    subtraction (u - 0.0 is u bit for bit, -0.0 included) and gives the
    FTCS relation; the value layer ``ul`` itself on a Lagrangian layer,
    where u_k - xdot is zero, so no advection term is formed and None
    stands in for it; a scalar (the drift c) or one value per node (the
    difference quotient) otherwise. Each gap's slope is formed once for
    its two nodes. The terms are written into the scratch rows of ``out``
    and returned as views of them.
    """
    slopes, advection, diffusion = out.slopes, out.advection, out.diffusion
    np.subtract(ul.row_east, ul.row_west, slopes)
    np.divide(slopes, xl.row_gaps, slopes)
    np.subtract(out.slopes_east, out.slopes_west, diffusion)
    np.multiply(np.divide(2.0 * nu, xl.row_wide, out.work), diffusion,
                diffusion)
    if xdot is ul:
        return None, diffusion
    np.subtract(ul.east, ul.west, advection)
    np.divide(advection, xl.row_wide, advection)
    relative = (ul.nodes if xdot is None
                else np.subtract(ul.nodes, xdot, out.work))
    np.multiply(relative, advection, advection)
    return advection, diffusion


def invariant_step(xl: Layer, ul: Layer, xdot, dt: float, nu: float,
                   out: Layer) -> Layer:
    """Explicit update on a moving mesh, written into the value layer
    ``out`` and filled there: the moving-mesh stencil over the slot row of
    the layer ``xl`` (neighbours unwrapped across the seam), with the grid
    velocity ``xdot`` that the grid equation defines (see
    ``moving_mesh_terms``). None, on the stationary layer, gives the
    classical FTCS update; ``ul`` itself, on the Lagrangian layer, gives
    u + dt * diffusion. The new values are unchecked.
    """
    advection, diffusion = moving_mesh_terms(xl, ul, xdot, nu, out)
    if advection is None:
        np.multiply(dt, diffusion, diffusion)
        np.add(ul.nodes, diffusion, out.nodes)
    else:
        np.subtract(advection, diffusion, advection)
        np.multiply(dt, advection, advection)
        np.subtract(ul.nodes, advection, out.nodes)
    return out.fill()


def evolution_projection_step(xl: Layer, ul: Layer, dt: float, nu: float,
                              interp_kind: InterpKind, moved: Layer,
                              evolved: Layer, targets: Layer, out: Layer
                              ) -> tuple[Layer, Layer]:
    """One mesh-following step, re-mapped to a uniformly spaced layer:
    the positions of that layer are placed in ``targets`` and the values
    on it filled in ``out``, which are returned; ``moved`` and ``evolved``
    take the moved layer and the values on it.

    Nodes move Lagrangianly, the moving-mesh update runs onto the moved
    layer with its grid velocity xdot = u (so with no advection term), and
    the result is interpolated back onto the step-start lattice
    advanced by the bulk (mean) velocity. Advancing the re-mapping targets
    with the bulk velocity keeps the whole composite boost-equivariant: a
    lattice held fixed in one frame is a moving lattice in every other.
    For zero-mean data the targets stay on the original lattice to
    roundoff, so the grid remains the familiar stationary uniform one.
    The interpolant reads the moved and evolved layers as their placement
    and fill left them, gaps and wide gaps included. Each target is its
    node moved by dt (mean(u) - u_i), a fraction of a gap once N is past a
    few dozen, so it normally lies between the midpoints beside its moved
    node and the quadratic reads that node's parabola without a search.
    """
    advance_lagrangian(xl, ul, dt, moved)
    invariant_step(xl, ul, ul, dt, nu, evolved)
    # the mean as np.mean forms it (pairwise sum over n), without its
    # dispatch
    u = ul.nodes
    np.add(xl.nodes, dt * float(u.sum() / len(u)), targets.nodes)
    targets.place()
    out.nodes[...] = _evaluate(moved, evolved, targets.nodes, interp_kind)
    return targets, out.fill()


# a blow-up, in the set-up or in a step, surfaces as a typed error (a
# NonFiniteSolutionError or a NodeCrossingError), not as numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run(config: SchemeConfig, initial: Callable[[np.ndarray], np.ndarray],
        snapshot_every: int = 0) -> Trajectory:
    """Integrate the configured scheme from t = 0 to t_final.

    ``initial`` maps node positions to velocities. A nonzero
    ``config.boost`` realizes a run in a uniformly moving reference frame:
    the initial data is boosted before stepping (positions are untouched at
    t = 0) and outputs are left in the moving frame. ``snapshot_every``
    stores every k-th step in addition to the first and last; 0 keeps only
    those two; it must be an integer. A run of more than ``_MAX_STEPS``
    steps is rejected with a ``ValueError`` before the first one. The
    step functions it calls check nothing of this again.
    """
    if not isinstance(snapshot_every, numbers.Integral):
        raise ValueError(f"snapshot_every must be an integer, got "
                         f"{snapshot_every!r}")
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

    if kind is SchemeKind.EULERIAN_ADAPTIVE:
        grid = equidistribute_initial(sample_initial, grid, config.alpha)
    fld = DiscreteField(grid=grid, u=sample_initial(grid.x))

    c = config.frame_velocity

    def equidistributed(xl, ul, dt, out):
        x_next = advance_equidistributed(xl, ul, config.alpha, dt, out)
        # the one grid with no closed-form velocity: its difference quotient
        return x_next, (x_next.nodes - xl.nodes) / dt

    # the grid equation of each moving-mesh scheme (evolution-projection,
    # a composite, has none) with the grid velocity it defines; each looks
    # its advance up when called, so a rebinding of the module attribute
    # reaches the step loop
    advance = {
        SchemeKind.CLASSICAL_FTCS:
            lambda xl, ul, dt, out: (advance_stationary(xl, dt), None),
        SchemeKind.LAGRANGIAN:
            lambda xl, ul, dt, out: (advance_lagrangian(xl, ul, dt, out), ul),
        SchemeKind.EULERIAN_ADAPTIVE: equidistributed,
        SchemeKind.CONSTANT_FRAME:
            lambda xl, ul, dt, out: (advance_constant(xl, c, dt, out), c),
    }.get(kind)

    snapshots = [fld]
    # the run's layers, allocated once with one size, the position layers
    # with the period L: the step-start positions and values, the spares
    # each step writes, and the projection's moved layer and the values
    # evolved on it
    n = config.n_points
    xl, ul = Layer.of_positions(grid.x, length), Layer.of_values(fld.u)
    x_spare, moved = Layer(n, length), Layer(n, length)
    u_spare, evolved = Layer(n), Layer(n)
    t = 0.0
    t_end = config.t_final - 1e-12 * config.t_final
    step = 0
    while t < t_end:
        # finite and in (0, dt0]: dt0 > 0 and t < t_end <= t_final
        dt = min(dt0, config.t_final - t)
        try:
            if advance is None:
                x_next, u_next = evolution_projection_step(
                    xl, ul, dt, config.nu, config.interp_kind, moved,
                    evolved, x_spare, u_spare)
            else:
                x_next, xdot = advance(xl, ul, dt, x_spare)
                u_next = invariant_step(xl, ul, xdot, dt, config.nu, u_spare)
            require_finite(u_next.nodes)
        except SimulationError as exc:
            exc.step = step
            exc.args = (f"step {step} (t={t:.6g}): {exc.args[0]}",)
            raise
        # the stationary grid equation returns the step-start layer
        if x_next is not xl:
            xl, x_spare = x_next, xl
        ul, u_spare = u_next, ul
        step += 1
        t = t + dt
        is_last = t >= t_end
        if is_last or (snapshot_every > 0 and step % snapshot_every == 0):
            # the last step was cut to land exactly on t_final; a snapshot
            # owns its arrays, the layers are written again
            layer = GridSlice(t=config.t_final if is_last else t,
                              x=xl.nodes.copy(),
                              domain_start=config.domain_start,
                              domain_length=length)
            snapshots.append(DiscreteField(grid=layer, u=ul.nodes.copy()))
    return Trajectory(snapshots=tuple(snapshots), config=config)
