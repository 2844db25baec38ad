"""Periodic grids on one time layer and the four grid-evolution equations:
stationary, Lagrangian, rigid translation, and equidistribution of a
monitor function, whose discrete relation is solved exactly in O(N).

Node positions are stored unwrapped (they may drift outside the fundamental
interval); the array order realizes the computational coordinate, and the
periodic closure gap ``x[0] + L - x[-1]`` must stay positive. Wrapping into
the fundamental interval happens only on output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergenceError, NodeCrossingError

TAU = 2.0 * np.pi


def _as_float_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class GridSlice:
    """One time layer: a time value plus ordered node positions."""

    t: float
    x: np.ndarray
    domain_start: float = 0.0
    domain_length: float = TAU

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_array(self.x))
        n = len(self.x)
        if n < 4:
            raise ValueError(f"need at least 4 nodes, got {n}")
        if not np.isfinite(self.x).all() or not np.isfinite(self.t):
            raise ValueError("non-finite grid data")
        if self.domain_length <= 0.0:
            raise ValueError("domain_length must be positive")
        gaps = self.gaps()
        if np.any(gaps <= 0.0):
            raise ValueError("node positions must be strictly increasing "
                             "with a positive periodic closure gap")
        # structural identity; guards against corrupted closure bookkeeping
        if abs(gaps.sum() - self.domain_length) > 1e-12 * self.domain_length:
            raise ValueError("periodic gaps do not sum to the domain length")

    @property
    def n(self) -> int:
        return len(self.x)

    def gaps(self) -> np.ndarray:
        """Periodic gaps x_{i+1} - x_i, closing with x_0 + L - x_{N-1}."""
        return periodic_gaps(self.x, self.domain_length)

    def wrapped_x(self) -> np.ndarray:
        """Positions reduced into [domain_start, domain_start + L)."""
        return self.domain_start + np.mod(self.x - self.domain_start,
                                          self.domain_length)

    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Unwrapped left/right neighbour positions (periodic +-L jumps)."""
        return periodic_neighbors(self.x, self.domain_length)


def periodic_neighbors(a: np.ndarray, jump: float = 0.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """West and east periodic neighbours (a_{i-1}, a_{i+1}) of every entry.

    Values are shifted exactly; ``jump`` = L unwraps positions across the
    seam (x_{N-1} - L west of node 0, x_0 + L east of node N-1).
    """
    first, last = a[:1], a[-1:]
    if jump:
        first, last = first + jump, last - jump
    return np.concatenate((last, a[:-1])), np.concatenate((a[1:], first))


def periodic_gaps(x: np.ndarray, domain_length: float) -> np.ndarray:
    """Gaps x_{i+1} - x_i of ordered periodic nodes, closing with
    x_0 + L - x_{N-1}."""
    return np.diff(x, append=x[0] + domain_length)


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
        if not np.isfinite(self.u).all():
            raise ValueError("non-finite solution values")


@dataclass(frozen=True)
class MonitorParams:
    """Weight function parameters: rho = sqrt(1 + alpha * slope^2).

    ``unsquared_slope`` switches to the raw (signed) difference quotient
    inside the radicand; that form can go negative for steep descending
    data and exists only for comparison runs.
    """

    alpha: float = 1.0
    unsquared_slope: bool = False

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be finite and >= 0")


def mean_spacing(grid: GridSlice) -> float:
    """Mean grid spacing L / N; independent of node distribution."""
    return grid.domain_length / grid.n


def advance_stationary(grid: GridSlice, dt: float) -> GridSlice:
    """Keep every node in place; only the layer time advances."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return replace(grid, t=grid.t + dt)


def advance_lagrangian(grid: GridSlice, u: np.ndarray, dt: float) -> GridSlice:
    """Move every node with its local velocity: x_i += dt * u_i."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    u = _as_float_array(u)
    if len(u) != grid.n:
        raise ValueError("u length does not match the grid")
    x1 = grid.x + dt * u
    _require_ordered(x1, grid.domain_length,
                     "Lagrangian move inverted a mesh interval "
                     "(dt too large for the velocity gradient)")
    return replace(grid, t=grid.t + dt, x=x1)


def advance_constant(grid: GridSlice, c: float, dt: float) -> GridSlice:
    """Translate the whole grid rigidly: x_i += c * dt."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return replace(grid, t=grid.t + dt, x=grid.x + c * dt)


def monitor(fld: DiscreteField, params: MonitorParams) -> np.ndarray:
    """Nodal monitor values from the periodic centered difference quotient."""
    xm, xp = fld.grid.neighbors()
    um, up = periodic_neighbors(fld.u)
    slope = (up - um) / (xp - xm)
    radicand = 1.0 + params.alpha * (slope if params.unsquared_slope
                                     else slope ** 2)
    if np.any(radicand < 0.0):
        raise ValueError("unsquared-slope monitor produced a negative "
                         "radicand; use the squared form")
    return np.sqrt(radicand)


def advance_equidistributed(fld: DiscreteField, params: MonitorParams,
                            dt: float) -> GridSlice:
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
    rho = monitor(fld, params)
    grid = fld.grid
    x1 = _solve_equidistribution(rho, grid.x[0] + dt * fld.u[0],
                                 grid.domain_length)
    _require_ordered(x1, grid.domain_length,
                     "equidistributed mesh violates node ordering")
    return replace(grid, t=grid.t + dt, x=x1)


# largest node displacement between rounds, relative to L, at which the
# initial equidistribution counts as settled
_SETTLE_RTOL = 1e-12


def equidistribute_initial(initial, grid: GridSlice, params: MonitorParams,
                           max_rounds: int = 100) -> GridSlice:
    """Fixed-point equidistribution of the initial data at t = 0.

    Starting an adaptive run from a uniform mesh would shove the nodes to
    their equidistributed positions within the first step, injecting a
    remap error that does not vanish with resolution. Iterating
    mesh -> resample ``initial`` -> mesh before stepping removes it. Node 0
    stays at its current position (no time has elapsed, so the Lagrangian
    anchor degenerates to a fixed one).
    """
    x = grid.x
    tol = _SETTLE_RTOL * grid.domain_length
    for _ in range(max_rounds):
        fld = DiscreteField(grid=replace(grid, x=x), u=initial(x))
        x_new = _solve_equidistribution(monitor(fld, params), x[0],
                                        grid.domain_length)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change <= tol:
            break
    else:
        raise NoConvergenceError(
            f"initial equidistribution did not settle in {max_rounds} rounds")
    _require_ordered(x, grid.domain_length,
                     "initial equidistribution violates node ordering")
    return replace(grid, x=x)


def equidistribution_residual(x: np.ndarray, rho: np.ndarray,
                              domain_length: float) -> np.ndarray:
    """Residual of the discrete equidistribution relation, per node."""
    xm, xp = periodic_neighbors(x, domain_length)
    rm, rp = periodic_neighbors(rho)
    return (rp + rho) * (xp - x) - (rho + rm) * (x - xm)


def _solve_equidistribution(rho: np.ndarray, anchor: float,
                            domain_length: float) -> np.ndarray:
    """Exact solution of the anchored cyclic equidistribution system.

    Each relation equates the flux (rho_i + rho_{i+1}) * gap_i of two
    adjacent cells, so every gap carries one flux C, and the N gaps summing
    to L fix C = L / sum_i 1/(rho_i + rho_{i+1}).
    """
    inv = 1.0 / (rho + periodic_neighbors(rho)[1])
    gaps = inv * (domain_length / inv.sum())
    x = np.empty(len(rho))
    x[0] = anchor
    x[1:] = anchor + np.cumsum(gaps[:-1])
    return x


def _require_ordered(x: np.ndarray, domain_length: float, message: str):
    if np.any(periodic_gaps(x, domain_length) <= 0.0):
        raise NodeCrossingError(message)
