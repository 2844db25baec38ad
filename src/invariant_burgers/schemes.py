"""Time stepping: the moving-mesh discretization and the ``run`` driver.

Each step has three stages. The scheme's grid equation gives the next
positions and their grid velocity, the one moving-mesh stencil
(``bind_stencil``) steps the values onto them, and the evolution-projection
alone remaps them (``bind_projection``). Lagrangian and the projection move
the nodes with u, the adaptive scheme equidistributes a monitor, and FTCS
and constant-frame step on the lattice at rest, which needs no equation.
The frame velocity c is the Galilean boost of the initial data on every
scheme. Constant-frame computes in the frame moving with c, xi = x - c t,
where the data is unboosted and the lattice at rest, and reports each
snapshot at (xi + c t, v + c). Everything is explicit (forward Euler in
time) with dt = dt_factor * h^2.

The stencil's grid velocity xdot is the one each grid equation defines:
none on the lattice at rest; u on the Lagrangian grid, where no advection
term is formed; and the difference quotient (x_next - x)/dt only on the
equidistributed grid, which has no closed-form velocity. In exact
arithmetic each equals the quotient of the certifier's relation
(``symmetry.satisfy_scheme``).

``run`` is the step layer's one boundary: it and ``SchemeConfig`` validate
once, and the stages, each bound once before the loop as a closure over
the run's layers, rows and one 0-d dt, check none of it again and are not
exported. The layers are the mesh and the solution, which the stencil
steps in place; the projection adds the moved positions and the evolved
values that its remap reads back into the first two. The stencil reads
only the mesh's gap rows, so the grid equation writes the next positions
ahead into the mesh (the projection's into the moved layer) and the loop
places that layer after the stencil: at the top of every step the mesh
holds the step-start gaps. No step allocates a row but the linear and
spline remaps' intermediates. The adaptive grid equation leaves its
monitor's centred slope and its grid velocity in the stencil rows'
``advection`` and ``xdot``, where the stencil reads them. Each new
position layer is placed and order-checked once, each new value layer
filled and checked for finiteness once. The loop enters the stencil and
the grid equations through ``invariant_step``, ``grid.advance_lagrangian`` and
``grid.advance_equidistributed``, looked up when ``run`` starts, so that a
rebinding of those module attributes reaches it. Snapshots are copies.

A step's scalars are Python floats: the ghost slots, the order test's
gap, the adaptive anchor and scale and the projection's shift are read and
written through ``memoryview``s bound with their layers and stages, and the
loop keeps its clock, its cut test and its next snapshot step in locals.
Each is the same IEEE double operation as the numpy scalar it replaces, so
every bit of a trajectory is the same.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NodeCrossingError, SimulationError
from .grid import (TAU, DiscreteField, Layer, advance_equidistributed,
                   advance_lagrangian, bind_equidistributed, bind_lagrangian,
                   equidistribute_initial, require_finite, uniform_slice)
from .interpolate import InterpKind, _evaluate


class SchemeKind(str, Enum):
    """The five schemes, by their command-line names."""

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


def _require_integer(name: str, value):
    """Raise ``ValueError`` if ``value`` is not an integer, ``TypeError`` if
    it is a bool (a ``numbers.Integral``: True would count as 1)."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a run needs besides the initial data.

    ``scheme_kind`` and ``interp_kind`` may be given as enum members or
    their string values; construction stores the enum member.
    ``dt_factor`` defaults to the scheme's calibrated constant from
    ``DEFAULT_DT_FACTORS``. ``frame_velocity`` is the Galilean boost of the
    initial data, the flow's bulk velocity, on every scheme.
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        for name in ("nu", "t_final", "dt_factor", "domain_length"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be >= 0")
        _require_integer("n_points", self.n_points)
        if self.n_points < 4:
            raise ValueError("n_points must be >= 4")


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


class StencilRows:
    """The moving-mesh stencil's rows at N nodes: the diffusion ``weight``
    and its numerator ``two_nu`` (2 nu, 0-d), the N + 1 gap ``slopes``
    (east and west views), ``advection`` (on the adaptive mesh, the
    centred slope its grid equation writes), ``diffusion``, ``work`` and
    the adaptive grid velocity ``xdot``."""

    def __init__(self, n: int, nu: float):
        self.two_nu = np.array(2.0 * nu)
        self.weight, self.slopes = np.empty(n), np.empty(n + 1)
        self.slopes_east, self.slopes_west = self.slopes[1:], self.slopes[:-1]
        self.advection, self.diffusion, self.work, self.xdot = (
            np.empty(n), np.empty(n), np.empty(n), np.empty(n))


def bind_stencil(xl: Layer, ul: Layer, xdot, dt, rows: StencilRows,
                 out: Layer) -> Callable[[], None]:
    """The moving-mesh stencil bound to its layers: a closure that writes
    the explicit update u_next = u_k - dt * (advection - diffusion) into
    the value layer ``out`` and fills it there. It reads the slot rows of
    the position layer ``xl`` and value layer ``ul`` (neighbours unwrapped
    across the seam) and forms the diffusion weight
    2 nu / (x_{i+1} - x_{i-1}) of ``xl`` in ``rows.weight``. The centred
    slope is weighted by u_k - xdot, and ``xdot`` fixes the form of the
    update here, once. None, on a stationary layer, gives the classical
    FTCS update with no subtraction (u - 0.0 is
    u bit for bit, -0.0 included). The value layer ``ul`` itself, on a
    Lagrangian layer, forms no advection term: u + dt * diffusion. The row
    ``rows.xdot``, which only the adaptive grid equation writes, takes the
    slope that equation left in ``rows.advection`` and forms the term in
    ``rows.work``, leaving that row as it found it. A scalar, which only
    the certifier passes, is subtracted and the slope formed. The weight is
    formed here, once, on a stationary layer, and at the start of every
    call on the others. Of ``xl`` it reads the gap rows, never the nodes.

    The diffusion term stays in ``rows.diffusion`` and, where the slope is
    formed, the advection term in ``rows.advection``. The update is formed
    in ``rows.work`` before the one write into ``out.nodes``, so ``out``
    may be ``ul``. ``dt`` is read when the closure runs. The new values are
    unchecked.
    """
    row_east, row_west, east, west = (ul.row_east, ul.row_west, ul.east,
                                      ul.west)
    u, u_next, fill = ul.nodes, out.nodes, out.fill
    gaps, wide = xl.row_gaps, xl.row_wide
    slopes, slopes_east, slopes_west = (rows.slopes, rows.slopes_east,
                                        rows.slopes_west)
    two_nu, weight, advection, diffusion, work = (
        rows.two_nu, rows.weight, rows.advection, rows.diffusion, rows.work)
    add, subtract, multiply, divide = (np.add, np.subtract, np.multiply,
                                       np.divide)
    lagrangian, still, sloped = xdot is ul, xdot is None, xdot is rows.xdot
    term = work if sloped else advection
    if still:
        divide(two_nu, wide, weight)

    def stencil():
        if not still:
            divide(two_nu, wide, weight)
        subtract(row_east, row_west, slopes)
        divide(slopes, gaps, slopes)
        subtract(slopes_east, slopes_west, diffusion)
        multiply(weight, diffusion, diffusion)
        if lagrangian:
            multiply(dt, diffusion, work)
            add(u, work, u_next)
        else:
            if not sloped:
                subtract(east, west, advection)
                divide(advection, wide, advection)
            multiply(u if still else subtract(u, xdot, work), advection,
                     term)
            subtract(term, diffusion, work)
            multiply(dt, work, work)
            subtract(u, work, u_next)
        fill()

    return stencil


def invariant_step(stencil: Callable[[], None]):
    """One step of a stencil that ``bind_stencil`` bound: the entry through
    which ``run`` takes it, once a step."""
    stencil()


def bind_projection(xl: Layer, ul: Layer, dt, moved: Layer, evolved: Layer,
                    interp_kind: InterpKind) -> Callable[[], None]:
    """The projection's remap bound to its layers: a closure that remaps,
    back into the step-start layers, the values ``evolved`` on the layer
    ``moved``, which the Lagrangian step and the stencil wrote from ``xl``
    and ``ul`` and the step loop placed, interpolated onto the lattice
    ``xl`` advanced by the bulk
    (mean) velocity of ``ul``. The shift is read from ``ul`` before
    anything writes it; the targets are shifted into ``xl`` and placed
    there, and the values remapped into ``ul`` and filled. ``dt`` is read
    when the closure runs.

    Advancing the targets with the bulk velocity keeps the composite
    boost-equivariant: a lattice held fixed in one frame is a moving
    lattice in every other. For zero-mean data they stay on the original
    lattice to roundoff. Each target is its moved node shifted by
    dt (mean(u) - u_i), a fraction of a gap once N is past a few dozen.
    The shift dt * (sum(u) / N) is formed in a 0-d array, its scalar
    operations on Python floats read through views of it and of ``dt`` (a
    0-d array, or a float made one): the same IEEE operations as numpy's
    scalars.
    """
    x, u, place, fill = xl.nodes, ul.nodes, xl.place, ul.fill
    n, total, add, shift = len(u), np.add.reduce, np.add, np.empty(())
    shift_v, dt_v = memoryview(shift), memoryview(np.asarray(dt))
    remap = _evaluate(moved, evolved, x, interp_kind, u)

    def projection():
        # the mean as np.mean forms it (pairwise sum over n), without its
        # dispatch; the sum, then the shift, in the one 0-d array
        total(u, out=shift)
        shift_v[()] = dt_v[()] * (shift_v[()] / n)
        add(x, shift, x)
        place()
        remap()
        fill()

    return projection


# a blow-up, in the set-up or in a step, surfaces as a typed error (a
# NonFiniteSolutionError or a NodeCrossingError), not as numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run(config: SchemeConfig, initial: Callable[[np.ndarray], np.ndarray],
        snapshot_every: int = 0) -> Trajectory:
    """Integrate the configured scheme from t = 0 to t_final.

    ``initial`` maps node positions to velocities. ``config.frame_velocity``
    c is the Galilean boost of that data (positions are untouched at t = 0),
    and every snapshot is reported in the frame of the boosted data. The
    constant-frame scheme computes in the frame moving with c, on the
    unboosted data and a lattice at rest there, and reports each snapshot
    at (xi + c t, v + c); the others step the boosted data.
    ``snapshot_every`` stores every k-th step in addition to the first and
    last; 0 keeps only those two; it must be an integer. A run of more
    than ``_MAX_STEPS`` steps is rejected with a ``ValueError`` before the
    first one.
    """
    _require_integer("snapshot_every", snapshot_every)
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
    # the velocity of the frame the scheme computes in: c for
    # constant-frame, whose data there is unboosted, and 0 for the others
    drift = config.frame_velocity if kind is SchemeKind.CONSTANT_FRAME else 0.0
    boost = config.frame_velocity - drift

    def sample_initial(x: np.ndarray) -> np.ndarray:
        return np.asarray(initial(x), dtype=float) + boost

    if kind is SchemeKind.EULERIAN_ADAPTIVE:
        grid = equidistribute_initial(sample_initial, grid, config.alpha)
    u0 = sample_initial(grid.x)

    # each snapshot is reported in the frame of the boosted data, at
    # (xi + c t, v + c); at t = 0 the lattice is where that frame sees it
    snapshots = [DiscreteField(grid=grid, u=u0 + drift)]
    # the run's layers and rows, allocated once, and one 0-d dt, which the
    # cut last step rewrites in place
    n = config.n_points
    xl, ul = Layer.of_positions(grid.x, length), Layer.of_values(u0)
    rows = StencilRows(n, config.nu)
    dt, alpha = np.array(dt0), np.array(config.alpha)
    # the stages, each bound once; the lattice at rest has no grid equation
    # and no grid velocity. The entries of the stencil and of the grid
    # equation are looked up here, so that a rebinding of the module
    # attributes reaches the loop
    projecting = kind is SchemeKind.EVOLUTION_PROJECTION
    moved, evolved = ((Layer(n, length), Layer(n)) if projecting
                      else (xl, ul))
    stencil_step, equation, xdot = invariant_step, None, None
    if kind is SchemeKind.EULERIAN_ADAPTIVE:
        advance, xdot = advance_equidistributed, rows.xdot
        equation = bind_equidistributed(xl, ul, alpha, xl, rows.advection,
                                        dt, xdot)
    elif kind in (SchemeKind.LAGRANGIAN, SchemeKind.EVOLUTION_PROJECTION):
        advance, xdot = advance_lagrangian, ul
        equation = bind_lagrangian(xl, ul, dt, moved)
    stencil = bind_stencil(xl, ul, xdot, dt, rows, evolved)
    remap = (bind_projection(xl, ul, dt, moved, evolved, config.interp_kind)
             if projecting else None)
    place = moved.place
    # the solution row's own product, the BLAS sum of squares that
    # require_finite forms first, without np.vdot's dispatch; this
    # function's errstate silences its overflow warning
    u, isfinite = ul.nodes, math.isfinite
    square_sum = u.dot
    step, t, t_final = 0, 0.0, config.t_final
    t_end = t_final - 1e-12 * t_final
    # the next step (from 0) that snapshot_every stores; -1 stores none
    due = snapshot_every - 1
    while t < t_end:
        # in (0, dt0]: dt0 > 0, t < t_end <= t_final; cut only on the last
        # step, the one step that rewrites dt
        span = t_final - t
        if span < dt0:
            dt[()] = span
        else:
            span = dt0
        t_next = t + span
        try:
            if equation is not None:
                advance(equation)
            stencil_step(stencil)
            if equation is not None:
                place()  # once the stencil has read the step-start gaps
            if remap is not None:
                remap()
            # the sum of squares clears nearly every step; require_finite
            # decides the rest
            if not isfinite(square_sum(u)):
                require_finite(u)
            is_last = t_next >= t_end
            if is_last or step == due:
                due += snapshot_every
                # the last step was cut to land exactly on t_final; a
                # snapshot owns its arrays and checks its reported positions
                t_snap = t_final if is_last else t_next
                try:
                    snapshots.append(DiscreteField(
                        grid=replace(grid, t=t_snap,
                                     x=xl.nodes + drift * t_snap),
                        u=ul.nodes + drift))
                except NodeCrossingError as exc:
                    # the layer passed the same check, so only the shift by
                    # c t can have rounded its gaps away
                    raise NodeCrossingError(
                        f"the reported positions xi + c t are too coarse "
                        f"for the lattice gaps: at c t = "
                        f"{drift * t_snap:.6g} they round gaps of {h:.6g} "
                        f"away; the lattice itself is intact") from exc
        except SimulationError as exc:
            exc.step = step
            exc.args = (f"step {step} (t={t:.6g}): {exc.args[0]}",)
            raise
        step, t = step + 1, t_next
    return Trajectory(snapshots=tuple(snapshots), config=config)
