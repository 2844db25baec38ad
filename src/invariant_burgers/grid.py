"""Periodic grids on one time layer and the grid equations of the moving
meshes: Lagrangian, and equidistribution of a monitor function, solved
exactly in O(N). The lattice at rest needs none.

Node positions are stored unwrapped (they may drift outside the fundamental
interval); the array order realizes the computational coordinate, and the
periodic closure gap ``x[0] + L - x[-1]`` must stay positive. Wrapping into
the fundamental interval happens only on output.

The grid equations work on ``Layer``s and are bound once per run to the
layers they read and write (``bind_lagrangian``, ``bind_equidistributed``).
A bound equation writes the next positions into the nodes of its
destination layer, which may be its source, and leaves their placement,
the one order check (``Layer.place``), to its caller. These functions are
the inside of ``schemes.run``, which validates once (N, the period, a
finite dt > 0): they check none of it again and are not exported.
``GridSlice`` and ``DiscreteField`` are the validated containers for a
layer handed across the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (NoConvergenceError, NodeCrossingError,
                     NonFiniteSolutionError)

TAU = 2.0 * np.pi
_ONE, _HALF = np.array(1.0), np.array(0.5)  # 0-d: read faster than scalars


def _as_float_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class GridSlice:
    """One time layer: a time value plus ordered node positions.

    Construction checks node order, a non-finite node included, by placing
    a transient layer of the nodes (``Layer.place``), the check every grid
    equation applies to the layer it returns. The slice keeps no layer.
    """

    t: float
    x: np.ndarray
    domain_start: float = 0.0
    domain_length: float = TAU

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_array(self.x))
        n = len(self.x)
        if n < 4:
            raise ValueError(f"need at least 4 nodes, got {n}")
        if not np.isfinite(self.t):
            raise ValueError("non-finite layer time")
        if not 0.0 < self.domain_length < np.inf:
            raise ValueError("domain_length must be positive and finite")
        self.gaps()  # places a layer of the nodes, which checks them

    @property
    def n(self) -> int:
        return len(self.x)

    def gaps(self) -> np.ndarray:
        """Periodic gaps x_{i+1} - x_i, closing with x_0 + L - x_{N-1}: the
        node gaps of a layer placed at the positions, which checks them."""
        # equal infinite nodes make a NaN gap, which fails the check
        with np.errstate(over="ignore", invalid="ignore"):
            return Layer.of_positions(self.x, self.domain_length).gaps[1:-1]

    def wrapped_x(self) -> np.ndarray:
        """Positions reduced into [domain_start, domain_start + L)."""
        start, end = self.domain_start, self.domain_start + self.domain_length
        x = start + np.mod(self.x - start, self.domain_length)
        # a position a hair below the start rounds up to the end
        x[x >= end] = start
        return x


def _require_positive(gaps: np.ndarray):
    """Raise ``NodeCrossingError`` naming the first of the periodic node
    gaps that is not positive, if any is. The check reads the gap at
    ``argmin``: the first NaN, which is not positive, if there is one, and
    the smallest gap otherwise, at less cost than a minimum reduction.
    ``Layer.place`` makes the same test itself, reading that gap as a
    Python float through a view, and calls this only to raise, so the
    message is this one."""
    if not gaps[gaps.argmin()] > 0.0:
        i = int(np.argmin(gaps > 0.0))
        east = "x[0] + L" if i == len(gaps) - 1 else f"x[{i + 1}]"
        raise NodeCrossingError(
            f"mesh interval x[{i}] -> {east} has gap {gaps[i]:.6g}; nodes "
            f"must be strictly increasing with a positive periodic closure "
            f"gap")


def require_finite(u: np.ndarray) -> np.ndarray:
    """``u`` if every value is finite; raise ``NonFiniteSolutionError``
    otherwise.

    The sum of squares, one BLAS call with no mask, decides nearly every
    case: a NaN or an infinity anywhere makes it NaN or inf, so a finite
    sum proves every value finite. Finite values whose squares overflow
    make it inf too; they fall through to the exact test. ``np.vdot``
    raises no overflow warning there, where ``np.dot`` and ``@`` do.
    """
    if not (math.isfinite(np.vdot(u, u)) or np.isfinite(u).all()):
        raise NonFiniteSolutionError("non-finite solution values")
    return u


class Layer:
    """One time layer of N >= 2 entries a held in place: N positions that
    ``place()`` lays out, or N values that ``fill()`` lays out, never both,
    and nothing reads a new layer before one of them has run. ``g`` is one
    buffer of the N + 3 periodic ghost slots
    [a_{N-1} - L, a_0 .. a_{N-1}, a_0 + L, a_1 + L] (slot j holds entry
    j - 1), L the layer's ``period``, given at allocation: the domain length
    for a layer of positions and 0 for a layer of values, whose ghosts are
    copies (a -0.0 keeps its sign). A layer owns three buffers, ``g``,
    ``gaps`` and ``wide``, NaN until the first ``place()`` or ``fill()``,
    so that a read of a layer neither laid out fails; its other members
    are views of them and its ``place`` and ``fill`` closures over those
    views, all formed at allocation, so writing a layer forms no view and
    allocates no array. The closures read and write the ghost slots, and
    ``place`` the node gap its order test reads, as Python floats through
    ``memoryview``s bound at allocation: the same IEEE double operations
    on the same operands as numpy's float64 scalars, so the same bits, at
    about half their cost and with no scalar warning.

    - ``nodes`` is slots 1 .. N. The stencil and the monitor read the slot
      row g[:-1] through ``row_east`` g[1:-1] and ``row_west`` g[:-2]
      (each slot and the one before it) and ``east`` g[2:-1] and ``west``
      g[:-3] (the neighbours of each node).
    - ``gaps`` g[1:] - g[:-1] (N + 2) and ``wide`` g[2:] - g[:-2]
      (N + 1), with their slot-row parts ``row_gaps`` and ``row_wide``,
      hold the gaps and wide gaps of a position layer.

    Write the nodes, then ``place()`` positions (period L > 0) or
    ``fill()`` values. Nodes may be written ahead of ``place()``: until it
    runs, the ghost slots and gap rows keep the positions placed last.
    ``place`` writes the ghost slots over the period,
    forms the gaps and wide gaps and checks the node gaps, raising
    ``NodeCrossingError`` naming the first interval whose gap is not
    positive; ``fill`` copies the ghost slots without arithmetic. The
    interpolants bracket a query by slots j, j + 1 with 1 <= j <= N and
    read at most one slot beyond.
    """

    def __init__(self, n: int, period: float = 0.0):
        self.period = period = float(period)
        g, gaps, wide = self.g, self.gaps, self.wide = (
            np.empty(n + 3), np.empty(n + 2), np.empty(n + 1))
        for row in g, gaps, wide:
            row.fill(np.nan)  # until placed or filled: a read fails
        self.nodes = g[1:-2]
        self.row_east, self.row_west = g[1:-1], g[:-2]
        self.east, self.west = g[2:-1], g[:-3]
        self.row_gaps, self.row_wide = gaps[:-1], wide[:-1]
        node_gaps = gaps[1:-1]
        ahead, behind, ahead2, behind2 = g[1:], g[:-1], g[2:], g[:-2]
        subtract, least = np.subtract, node_gaps.argmin
        g_v, node_gaps_v = memoryview(g), memoryview(node_gaps)

        def place():
            g_v[0] = g_v[-3] - period
            g_v[-2] = g_v[1] + period
            g_v[-1] = g_v[2] + period
            subtract(ahead, behind, gaps)
            subtract(ahead2, behind2, wide)
            if not node_gaps_v[least()] > 0.0:
                _require_positive(node_gaps)

        def fill():
            g_v[0] = g_v[-3]
            g_v[-2] = g_v[1]
            g_v[-1] = g_v[2]

        self.place, self.fill = place, fill

    @classmethod
    def of_positions(cls, x: np.ndarray, domain_length: float) -> Layer:
        """A new layer holding the positions ``x``, placed."""
        layer = cls(len(x), domain_length)
        layer.nodes[...] = x
        layer.place()
        return layer

    @classmethod
    def of_values(cls, u: np.ndarray) -> Layer:
        """A new layer holding the values ``u``, filled."""
        layer = cls(len(u))
        layer.nodes[...] = u
        layer.fill()
        return layer


def uniform_slice(n: int, t: float = 0.0, domain_start: float = 0.0,
                  domain_length: float = TAU) -> GridSlice:
    """N equally spaced nodes from ``domain_start``, at time ``t``."""
    x = domain_start + np.arange(n) * (domain_length / n)
    return GridSlice(t=t, x=x, domain_start=domain_start,
                     domain_length=domain_length)


@dataclass(frozen=True)
class DiscreteField:
    """Nodal solution values attached to a grid slice."""

    grid: GridSlice
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _as_float_array(self.u))
        if len(self.u) != self.grid.n:
            raise ValueError(f"u has {len(self.u)} values for "
                             f"{self.grid.n} nodes")
        require_finite(self.u)


def mean_spacing(grid: GridSlice) -> float:
    """Mean grid spacing L / N; independent of node distribution."""
    return grid.domain_length / grid.n


def bind_lagrangian(xl: Layer, ul: Layer, dt: np.ndarray, out: Layer
                    ) -> Callable[[], None]:
    """The Lagrangian grid equation bound to its layers: a closure that
    writes x_i + dt * u_i, every node moved with its local velocity, into
    the nodes of ``out``, which may be ``xl``, through a row of its own.
    The placement of ``out`` rejects a step too large for the velocity
    gradient with ``NodeCrossingError``. ``dt`` is read when it runs."""
    x, u, x_next = xl.nodes, ul.nodes, out.nodes
    step = np.empty_like(u)

    def equation():
        np.multiply(dt, u, step)
        np.add(x, step, x_next)

    return equation


def advance_lagrangian(equation: Callable[[], None]):
    """One step of a Lagrangian grid equation that ``bind_lagrangian``
    bound: the entry through which ``schemes.run`` takes it, once a step."""
    equation()


def bind_equidistributed(xl: Layer, ul: Layer, alpha, out: Layer,
                         slope: np.ndarray, dt: np.ndarray | None = None,
                         xdot: np.ndarray | None = None
                         ) -> Callable[[], None]:
    """The equidistributing grid equation bound to its layers: a closure
    that writes into the nodes of ``out``, which may be ``xl``, the exact
    solution of the cyclic equidistribution system of the monitor of
    (``xl``, ``ul``). Given a 0-d ``dt`` and a row ``xdot``, node 0 moves
    Lagrangianly to x_0 + dt * u_0, which keeps the equation equivariant
    under boosts where a fixed anchor would not, and the grid velocity
    (x_next - x)/dt, the one grid velocity with no closed form, goes into
    ``xdot``; without them node 0 stays at x_0, as in the initial mesh's
    rounds. ``dt`` is read when the closure runs.

    The monitor is sqrt(1 + alpha * s^2) of the centred slope
    s = (u_{i+1} - u_{i-1})/(x_{i+1} - x_{i-1}) over the wide gaps of
    ``xl``, which stays in the row ``slope``, where the stencil reads it;
    ``SchemeConfig`` checks that the weight ``alpha`` is finite and >= 0.
    The new positions satisfy
    (rho_{i+1}+rho_i)(x_{i+1}-x_i) = (rho_i+rho_{i-1})(x_i-x_{i-1})
    cyclically, with the monitor lagged on the given layer, and the anchor
    closes the singular system. So every gap carries one flux
    C = L / sum_i 1/(rho_i + rho_{i+1}), and the positions are the partial
    sums of 1/(rho_i + rho_{i+1}) scaled by L over their own last sum, so
    the closing gap does not absorb the rounding of N - 1 additions.

    The solve owns the monitor's value layer and two rows, the reciprocal
    sums and their partial sums, all allocated when it is bound; it forms
    the positions over the period L of ``out``, and their grid velocity,
    in the first, before one copy into ``out.nodes``. A sum not in
    (0, inf) raises ``NonFiniteSolutionError``. Its scalars, the last
    partial sum, the scale and shift, the anchor and dt, are Python floats
    read and written through views bound with it (``dt`` through a 0-d
    array: the run's own, or one made of a float), the same IEEE
    operations as numpy's scalars.
    """
    x, u, east, west, wide = xl.nodes, ul.nodes, ul.east, ul.west, xl.row_wide
    monitor, inverse, sums = Layer(len(x)), np.empty_like(x), np.empty_like(x)
    rho, rho_east, fill = monitor.nodes, monitor.east, monitor.fill
    x_next, period = out.nodes, out.period
    head, rest = sums[:-1], inverse[1:]
    scale, shift = np.empty(()), np.empty(())
    add, subtract, multiply, divide, square, sqrt = (
        np.add, np.subtract, np.multiply, np.divide, np.square, np.sqrt)
    moving = dt is not None
    # the scalars, read and written as Python floats through views
    x_v, u_v, inverse_v, sums_v, scale_v, shift_v, dt_v = (
        memoryview(a) for a in (x, u, inverse, sums, scale, shift,
                                np.asarray(dt if moving else 0.0)))

    def solve():
        subtract(east, west, slope)
        divide(slope, wide, slope)
        square(slope, rho)
        multiply(alpha, rho, rho)
        add(_ONE, rho, rho)
        sqrt(rho, rho)
        fill()
        divide(_ONE, add(rho, rho_east, inverse), inverse)
        # the ufunc's own accumulation, without the dispatch of np.cumsum
        add.accumulate(inverse, out=sums)
        total = sums_v[-1]
        if not 0.0 < total < math.inf:
            raise NonFiniteSolutionError(
                f"equidistribution monitor is not finite: its sum is "
                f"{np.float64(total)!r}")
        scale_v[()] = period / total
        # the positions, in the reciprocals' row, summed
        inverse_v[0] = shift_v[()] = (x_v[0] + dt_v[()] * u_v[0] if moving
                                     else x_v[0])
        multiply(head, scale, rest)
        add(shift, rest, rest)
        if moving:
            subtract(inverse, x, xdot)
            divide(xdot, dt, xdot)
        x_next[...] = inverse

    return solve


def advance_equidistributed(equation: Callable[[], None]):
    """One step of an equidistributing grid equation that
    ``bind_equidistributed`` bound: the entry through which
    ``schemes.run`` takes it, once a step."""
    equation()


# largest node displacement between rounds, relative to L, at which the
# initial equidistribution counts as settled, the plain rounds allowed for
# it and as many accelerated rounds after them, and the depth of the
# acceleration
_SETTLE_RTOL = 1e-12
_MAX_ROUNDS = 100
_DEPTH = 5


def equidistribute_initial(initial, grid: GridSlice, alpha: float
                           ) -> GridSlice:
    """Fixed-point equidistribution of the initial data at t = 0.

    Starting an adaptive run from a uniform mesh would shove the nodes to
    their equidistributed positions within the first step, injecting a
    remap error that does not vanish with resolution. Iterating
    mesh -> resample ``initial`` -> mesh before stepping removes it. Each
    round is the step's grid equation (``bind_equidistributed``) at the
    fixed anchor x_0: no time has elapsed, so the Lagrangian anchor
    degenerates to it.

    Steep data on a coarse mesh can keep the plain rounds oscillating. If
    they have not settled in ``_MAX_ROUNDS`` rounds, as many more restart
    from the last mesh with Anderson acceleration of depth ``_DEPTH`` on
    the residual F(x) - x of a round F, taking the plain round F(x) where
    a candidate's nodes cross, and return the first x that F moves by no
    more than the tolerance. ``NoConvergenceError`` names the last
    residual.
    """
    n, length = grid.n, grid.domain_length
    tol = _SETTLE_RTOL * length
    xl, ul, out = Layer(n, length), Layer(n), Layer(n, length)
    solve = bind_equidistributed(xl, ul, alpha, out, np.empty(n))

    def round_from(x):
        """F(x) and its largest node move; ``NodeCrossingError`` if the
        nodes x cross."""
        xl.nodes[...] = x
        xl.place()
        ul.nodes[...] = require_finite(
            _as_float_array(initial(xl.nodes.copy())))
        ul.fill()
        solve()
        out.place()
        f = out.nodes.copy()
        return f, float(np.max(np.abs(f - x)))

    x = grid.x
    for _ in range(_MAX_ROUNDS):
        x, change = round_from(x)
        if change <= tol:
            return replace(grid, x=x)
    plain, history = x, []
    for _ in range(_MAX_ROUNDS):
        try:
            f, change = round_from(x)
        except NodeCrossingError:
            x = plain
            f, change = round_from(x)
        if change <= tol:
            return replace(grid, x=x)
        plain, history = f, history[-_DEPTH:] + [(x, f - x)]
        x = _anderson(history) if len(history) > 1 else f
    raise NoConvergenceError(
        f"initial equidistribution did not settle in {2 * _MAX_ROUNDS} "
        f"rounds: the last moved a node by {change:.3g}, more than "
        f"{tol:.3g}")


def _anderson(history) -> np.ndarray:
    """The Anderson candidate x + g - (dX + dG) gamma of the rounds
    ``history``, pairs of a mesh x and its residual g = F(x) - x, oldest
    first: gamma, over the differences dX and dG of successive pairs, is
    the least-squares fit of dG gamma to the last residual."""
    xs, gs = (np.array(rows) for rows in zip(*history))
    dx, dg = np.diff(xs, axis=0).T, np.diff(gs, axis=0).T
    gamma = np.linalg.lstsq(dg, gs[-1], rcond=None)[0]
    return xs[-1] + gs[-1] - (dx + dg) @ gamma
