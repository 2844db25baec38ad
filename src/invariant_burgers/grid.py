"""Periodic grids on one time layer and the four grid-evolution equations:
stationary, Lagrangian, rigid translation, and equidistribution of a
monitor function, whose discrete relation is solved exactly in O(N).

Node positions are stored unwrapped (they may drift outside the fundamental
interval); the array order realizes the computational coordinate, and the
periodic closure gap ``x[0] + L - x[-1]`` must stay positive. Wrapping into
the fundamental interval happens only on output.

The grid equations and the monitor work on ``Layer``s: one buffer per
layer holding the N + 3 periodic ghost slots, with the views a step reads.
A position layer carries its period from allocation on, so no grid
equation takes the domain length. A run allocates its layers once; a grid
equation writes the next layer's positions into a destination layer that
the caller passes and places it there (ghost slots, gaps, wide gaps, order
check), so placing a layer forms no view and allocates no array. ``Layer``
is the one ghost builder and its placement the one order check:
``GridSlice``, the interpolants and the mesh solve place or fill a layer
too. The layer functions are the inside of ``schemes.run``, which
validates once (N, the period, a finite dt > 0): they check none of it
again and are not exported. ``GridSlice`` and ``DiscreteField`` are the
validated containers for a layer handed across the API (snapshots,
transformations, error measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (NoConvergenceError, NodeCrossingError,
                     NonFiniteSolutionError)

TAU = 2.0 * np.pi


def _as_float_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class GridSlice:
    """One time layer: a time value plus ordered node positions.

    Construction checks node order by placing a transient layer of the
    nodes (``Layer.place``), the same check every grid equation applies to
    the layer it returns; a non-finite node fails it too (some gap is NaN
    or not positive). The slice keeps no layer.
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
        return self.domain_start + np.mod(self.x - self.domain_start,
                                          self.domain_length)


def _require_positive(gaps: np.ndarray):
    """Raise ``NodeCrossingError`` naming the first of the periodic node
    gaps that is not positive, if any is (a NaN gap makes the minimum
    NaN, which is not positive)."""
    if not gaps.min() > 0.0:
        i = int(np.argmin(gaps > 0.0))
        east = "x[0] + L" if i == len(gaps) - 1 else f"x[{i + 1}]"
        raise NodeCrossingError(
            f"mesh interval x[{i}] -> {east} has gap {gaps[i]:.6g}; nodes "
            f"must be strictly increasing with a positive periodic closure "
            f"gap")


def require_finite(u: np.ndarray) -> np.ndarray:
    """``u`` if every value is finite; raise ``NonFiniteSolutionError``
    otherwise."""
    if not np.isfinite(u).all():
        raise NonFiniteSolutionError("non-finite solution values")
    return u


class Layer:
    """One time layer held in place: ``g`` is one buffer of the N + 3
    periodic ghost slots [a_{N-1} - L, a_0 .. a_{N-1}, a_0 + L, a_1 + L]
    of N entries a (slot j holds entry j - 1; with one node the last slot
    is a_0 + 2L). L is the layer's ``period``, given at allocation: the
    domain length for a layer of positions and 0 for a layer of values,
    whose ghosts are copies (a -0.0 keeps its sign). ``fill`` ignores the
    period, so one layer may hold values and then positions, as the
    adaptive step's destination holds its monitor and then the mesh. Every
    other member is a view of ``g`` or a buffer of its own, all formed when
    the layer is allocated, so writing a layer forms no view and allocates
    no array.

    - ``nodes`` is slots 1 .. N. The stencil and the monitor read the slot
      row g[:-1] through ``row_east`` g[1:-1] and ``row_west`` g[:-2]
      (each slot and the one before it) and ``east`` g[2:-1] and ``west``
      g[:-3] (the neighbours of each node).
    - ``gaps`` g[1:] - g[:-1] (N + 2) and ``wide`` g[2:] - g[:-2]
      (N + 1), with their slot-row parts ``row_gaps`` and ``row_wide``,
      hold the gaps and wide gaps of a position layer.
    - ``slopes`` (with ``slopes_east`` and ``slopes_west``),
      ``advection``, ``diffusion`` and ``work`` are the scratch rows of the
      stencil that writes the layer as values.

    Write the nodes, then ``place`` positions (period L > 0) or ``fill``
    values; both take N >= 1. The interpolants bracket a query by slots j,
    j + 1 with 1 <= j <= N and read at most one slot beyond.
    """

    def __init__(self, n: int, period: float = 0.0):
        self.period = period
        g = self.g = np.empty(n + 3)
        self.nodes = g[1:-2]
        self.row_east, self.row_west = g[1:-1], g[:-2]
        self.east, self.west = g[2:-1], g[:-3]
        self.gaps, self.wide = np.empty(n + 2), np.empty(n + 1)
        self.row_gaps, self.row_wide = self.gaps[:-1], self.wide[:-1]
        self._node_gaps = self.gaps[1:-1]
        self._slots = (g[1:], g[:-1], g[2:], g[:-2])
        self.slopes = np.empty(n + 1)
        self.slopes_east, self.slopes_west = self.slopes[1:], self.slopes[:-1]
        self.advection, self.diffusion, self.work = (
            np.empty(n), np.empty(n), np.empty(n))

    @classmethod
    def of_positions(cls, x: np.ndarray, domain_length: float) -> Layer:
        """A new layer holding the positions ``x``, placed."""
        layer = cls(len(x), domain_length)
        layer.nodes[...] = x
        return layer.place()

    @classmethod
    def of_values(cls, u: np.ndarray) -> Layer:
        """A new layer holding the values ``u``, filled."""
        layer = cls(len(u))
        layer.nodes[...] = u
        return layer.fill()

    def place(self) -> Layer:
        """Complete a layer of node positions over its period: its ghost
        slots, its gaps and wide gaps, and the order check on the node
        gaps, which raises ``NodeCrossingError`` naming the first interval
        whose gap is not positive."""
        g, period = self.g, self.period
        g[0] = g[-3] - period
        g[-2] = g[1] + period
        # with one node, slot 2 is the ghost a_0 + L just written, and the
        # last slot is a_0 + 2L in one addition
        g[-1] = g[2] + period if len(g) > 4 else g[1] + 2.0 * period
        self.measure()
        _require_positive(self._node_gaps)
        return self

    def fill(self) -> Layer:
        """Complete a layer of nodal values: its ghost slots copied,
        without arithmetic."""
        g = self.g
        # in order: with one node, slot 2 is the ghost slot written second
        g[0] = g[-3]
        g[-2] = g[1]
        g[-1] = g[2]
        return self

    def measure(self) -> Layer:
        """Form the gaps and wide gaps of the slots as they stand."""
        east, west, east2, west2 = self._slots
        np.subtract(east, west, self.gaps)
        np.subtract(east2, west2, self.wide)
        return self


def uniform_slice(n: int, t: float = 0.0, domain_start: float = 0.0,
                  domain_length: float = TAU) -> GridSlice:
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


def advance_stationary(xl: Layer, dt: float) -> Layer:
    """Keep every node in place: the layer ``xl`` is the next layer too,
    written, placed and checked no further."""
    return xl


def advance_lagrangian(xl: Layer, ul: Layer, dt: float, out: Layer
                       ) -> Layer:
    """Move every node with its local velocity, x_i += dt * u_i, into the
    layer ``out``, and place it there. A step too large for the velocity
    gradient inverts an interval, which the placement rejects with
    ``NodeCrossingError``."""
    np.multiply(dt, ul.nodes, out.nodes)
    np.add(xl.nodes, out.nodes, out.nodes)
    return out.place()


def advance_constant(xl: Layer, c: float, dt: float, out: Layer) -> Layer:
    """Translate the whole grid rigidly, x_i += c * dt, into the layer
    ``out``, and place it there."""
    np.add(xl.nodes, c * dt, out.nodes)
    return out.place()


def monitor(xl: Layer, ul: Layer, alpha: float, out: Layer) -> Layer:
    """Nodal monitor values sqrt(1 + alpha * slope^2), where the slope is
    the periodic centered difference quotient of the values ``ul`` over
    the wide gaps of the positions ``xl``, written into the value layer
    ``out`` and filled there. ``SchemeConfig`` checks that the weight
    ``alpha`` is finite and >= 0."""
    rho = out.nodes
    np.subtract(ul.east, ul.west, rho)
    np.divide(rho, xl.row_wide, rho)
    np.square(rho, rho)
    np.multiply(alpha, rho, rho)
    np.add(1.0, rho, rho)
    np.sqrt(rho, rho)
    return out.fill()


def advance_equidistributed(xl: Layer, ul: Layer, alpha: float, dt: float,
                            out: Layer) -> Layer:
    """Place the next grid layer, in ``out``, by equidistributing the
    monitor.

    The new positions satisfy
    (rho_{i+1}+rho_i)(x_{i+1}-x_i) = (rho_i+rho_{i-1})(x_i-x_{i-1})
    cyclically, with the monitor lagged on the current layer. The singular
    cyclic system is closed by moving node 0 Lagrangianly
    (x_0 += dt*u_0), which keeps the grid equation equivariant under
    boosts; a fixed anchor would not be. The monitor is written into
    ``out`` as a value layer first, and the positions then replace it.
    """
    anchor = xl.nodes[0] + dt * ul.nodes[0]
    _solve_equidistribution(monitor(xl, ul, alpha, out), anchor, out.nodes)
    return out.place()


# largest node displacement between rounds, relative to L, at which the
# initial equidistribution counts as settled, and the rounds allowed for it
_SETTLE_RTOL = 1e-12
_MAX_ROUNDS = 100


def equidistribute_initial(initial, grid: GridSlice, alpha: float
                           ) -> GridSlice:
    """Fixed-point equidistribution of the initial data at t = 0.

    Starting an adaptive run from a uniform mesh would shove the nodes to
    their equidistributed positions within the first step, injecting a
    remap error that does not vanish with resolution. Iterating
    mesh -> resample ``initial`` -> mesh before stepping removes it. Node 0
    stays at its current position (no time has elapsed, so the Lagrangian
    anchor degenerates to a fixed one).
    """
    x, length = grid.x, grid.domain_length
    tol = _SETTLE_RTOL * length
    # the monitor's layer carries the period that the mesh solve reads
    xl, ul, rho = Layer(grid.n, length), Layer(grid.n), Layer(grid.n, length)
    for _ in range(_MAX_ROUNDS):
        ul.nodes[...] = require_finite(_as_float_array(initial(x)))
        xl.nodes[...] = x
        x_new = _solve_equidistribution(
            monitor(xl.place(), ul.fill(), alpha, rho), x[0],
            np.empty(grid.n))
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change <= tol:
            break
    else:
        raise NoConvergenceError(
            f"initial equidistribution did not settle in {_MAX_ROUNDS} rounds")
    return replace(grid, x=x)


def _solve_equidistribution(rho: Layer, anchor: float, x: np.ndarray
                            ) -> np.ndarray:
    """Exact solution of the anchored cyclic equidistribution system.

    Each relation equates the flux (rho_i + rho_{i+1}) * gap_i of two
    adjacent cells, so every gap carries one flux C, and the N gaps summing
    to L fix C = L / sum_i 1/(rho_i + rho_{i+1}). The positions are the
    partial sums of 1/(rho_i + rho_{i+1}) scaled by L over their own last
    sum, so the closing gap does not absorb the rounding of N - 1 additions.
    The monitor is read from the filled value layer ``rho``, each node's
    east neighbour from its ``east`` view, and L from its period, that of
    the positions the solve places. The positions are written into ``x``,
    which is returned; ``x`` may be the nodes of ``rho``, which are read
    first.
    """
    c = np.cumsum(1.0 / (rho.nodes + rho.east))
    x[0] = anchor
    x[1:] = anchor + c[:-1] * (rho.period / c[-1])
    return x
