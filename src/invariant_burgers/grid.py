"""Periodic grids on one time layer and the four grid-evolution equations:
stationary, Lagrangian, rigid translation, and equidistribution of a
monitor function, whose discrete relation is solved exactly in O(N).

Node positions are stored unwrapped (they may drift outside the fundamental
interval); the array order realizes the computational coordinate, and the
periodic closure gap ``x[0] + L - x[-1]`` must stay positive. Wrapping into
the fundamental interval happens only on output.

The grid equations and the monitor work on raw arrays: a layer is the ghost
array ``xg = ghosted(x, L)`` of its positions, as ``require_ordered``
returns it after checking them, and each grid equation returns the checked
ghost array of the next layer. ``GridSlice`` and ``DiscreteField`` are the
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

    Construction checks node order with ``require_ordered``, the same check
    every grid equation applies to the layer it returns; a non-finite node
    fails it too (some gap is NaN or not positive).
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
        require_ordered(self.x, self.domain_length)

    @property
    def n(self) -> int:
        return len(self.x)

    def gaps(self) -> np.ndarray:
        """Periodic gaps x_{i+1} - x_i, closing with x_0 + L - x_{N-1}."""
        xg = ghosted(self.x, self.domain_length)
        return xg[2:-1] - xg[1:-2]

    def wrapped_x(self) -> np.ndarray:
        """Positions reduced into [domain_start, domain_start + L)."""
        return self.domain_start + np.mod(self.x - self.domain_start,
                                          self.domain_length)


def ghosted(a: np.ndarray, jump: float = 0.0) -> np.ndarray:
    """The N + 3 slots [a_{N-1} - jump, a_0 .. a_{N-1}, a_0 + jump,
    a_1 + jump] of a periodic array: slot j holds entry j - 1 (one entry:
    the last slot is a_0 + 2 jump). ``jump`` = L unwraps node positions
    across the seam; ``jump`` = 0 copies values without arithmetic (a -0.0
    keeps its sign). The stencil reads the slot row g[:-1], every entry
    between its west and east neighbour; interpolants bracket a query by
    slots j, j + 1 with 1 <= j <= N and read at most one slot beyond."""
    n = len(a)
    g = np.empty(n + 3)
    g[1:-2] = a
    if jump:
        g[0] = a[-1] - jump
        g[-2] = a[0] + jump
        g[-1] = a[1] + jump if n > 1 else a[0] + 2.0 * jump
    else:
        g[0], g[-2], g[-1] = a[-1], a[0], a[1 % n]
    return g


def require_ordered(x: np.ndarray, domain_length: float) -> np.ndarray:
    """The ghost array ``ghosted(x, L)`` of node positions whose periodic
    gaps are all positive, which the smallest gap decides (a NaN gap makes
    it NaN, which is not positive); raise ``NodeCrossingError`` otherwise,
    naming the first interval that is not."""
    xg = ghosted(x, domain_length)
    gaps = xg[2:-1] - xg[1:-2]
    if not gaps.min() > 0.0:
        i = int(np.argmin(gaps > 0.0))
        east = "x[0] + L" if i == len(x) - 1 else f"x[{i + 1}]"
        raise NodeCrossingError(
            f"mesh interval x[{i}] -> {east} has gap {gaps[i]:.6g}; nodes "
            f"must be strictly increasing with a positive periodic closure "
            f"gap")
    return xg


def require_finite(u: np.ndarray) -> np.ndarray:
    """``u`` if every value is finite; raise ``NonFiniteSolutionError``
    otherwise."""
    if not np.isfinite(u).all():
        raise NonFiniteSolutionError("non-finite solution values")
    return u


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


def advance_stationary(xg: np.ndarray, dt: float) -> np.ndarray:
    """Keep every node in place: the layer ``xg`` is the next layer too,
    neither ghosted nor checked again."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return xg


def advance_lagrangian(xg: np.ndarray, u: np.ndarray, dt: float,
                       domain_length: float) -> np.ndarray:
    """Move every node with its local velocity: x_i += dt * u_i. A step too
    large for the velocity gradient inverts an interval, which the order
    check of the new layer rejects with ``NodeCrossingError``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if len(u) != len(xg) - 3:
        raise ValueError("u length does not match the grid")
    return require_ordered(xg[1:-2] + dt * u, domain_length)


def advance_constant(xg: np.ndarray, c: float, dt: float,
                     domain_length: float) -> np.ndarray:
    """Translate the whole grid rigidly: x_i += c * dt."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return require_ordered(xg[1:-2] + c * dt, domain_length)


def monitor(xg: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """Nodal monitor values sqrt(1 + alpha * slope^2), where the slope is
    the periodic centered difference quotient of ``u`` on the layer ``xg``.
    ``SchemeConfig`` checks that the weight ``alpha`` is finite and >= 0."""
    ug = ghosted(u)
    slope = (ug[2:-1] - ug[:-3]) / (xg[2:-1] - xg[:-3])
    return np.sqrt(1.0 + alpha * slope ** 2)


def advance_equidistributed(xg: np.ndarray, u: np.ndarray, alpha: float,
                            dt: float, domain_length: float) -> np.ndarray:
    """Place the next grid layer by equidistributing the monitor.

    The new positions satisfy
    (rho_{i+1}+rho_i)(x_{i+1}-x_i) = (rho_i+rho_{i-1})(x_i-x_{i-1})
    cyclically, with the monitor lagged on the current layer. The singular
    cyclic system is closed by moving node 0 Lagrangianly
    (x_0 += dt*u_0), which keeps the grid equation equivariant under
    boosts; a fixed anchor would not be.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    x1 = _solve_equidistribution(monitor(xg, u, alpha), xg[1] + dt * u[0],
                                 domain_length)
    return require_ordered(x1, domain_length)


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
    for _ in range(_MAX_ROUNDS):
        u = require_finite(_as_float_array(initial(x)))
        x_new = _solve_equidistribution(
            monitor(require_ordered(x, length), u, alpha), x[0], length)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change <= tol:
            break
    else:
        raise NoConvergenceError(
            f"initial equidistribution did not settle in {_MAX_ROUNDS} rounds")
    return replace(grid, x=x)


def equidistribution_residual(x: np.ndarray, rho: np.ndarray,
                              domain_length: float) -> np.ndarray:
    """Residual of the discrete equidistribution relation, per node."""
    xg, rg = ghosted(x, domain_length), ghosted(rho)
    return (rg[2:-1] + rho) * (xg[2:-1] - x) - (rho + rg[:-3]) * (x - xg[:-3])


def _solve_equidistribution(rho: np.ndarray, anchor: float,
                            domain_length: float) -> np.ndarray:
    """Exact solution of the anchored cyclic equidistribution system.

    Each relation equates the flux (rho_i + rho_{i+1}) * gap_i of two
    adjacent cells, so every gap carries one flux C, and the N gaps summing
    to L fix C = L / sum_i 1/(rho_i + rho_{i+1}). The positions are the
    partial sums of 1/(rho_i + rho_{i+1}) scaled by L over their own last
    sum, so the closing gap does not absorb the rounding of N - 1 additions.
    """
    c = np.cumsum(1.0 / (rho + ghosted(rho)[2:-1]))
    x = np.empty(len(rho))
    x[0] = anchor
    x[1:] = anchor + c[:-1] * (domain_length / c[-1])
    return x
