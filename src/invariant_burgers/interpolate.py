"""Periodic interpolation operators: linear, quadratic, cubic spline.

All three reproduce affine data exactly and commute with translations of
nodes and queries and with constant value offsets, which is what makes them
safe projection operators for the symmetry-preserving schemes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .grid import (TAU, DiscreteField, periodic_gaps, periodic_neighbors,
                   require_ordered)


class InterpKind(str, Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC_SPLINE = "cubic-spline"


def _reduce_queries(nodes_x: np.ndarray, query_x: np.ndarray,
                    domain_length: float) -> np.ndarray:
    """Shift queries by multiples of L into [x_0, x_0 + L)."""
    return nodes_x[0] + np.mod(query_x - nodes_x[0], domain_length)


def _node_pos(nodes_x: np.ndarray, idx: np.ndarray,
              domain_length: float) -> np.ndarray:
    """Unwrapped position of (possibly out-of-range) node index."""
    n = len(nodes_x)
    return nodes_x[idx % n] + domain_length * (idx // n)


def interpolate(nodes_x, nodes_u, query_x, kind: InterpKind,
                domain_length: float = TAU) -> np.ndarray:
    """Evaluate the periodic interpolant of (nodes_x, nodes_u) at query_x."""
    nodes_x = np.asarray(nodes_x, dtype=float)
    nodes_u = np.asarray(nodes_u, dtype=float)
    query_x = np.atleast_1d(np.asarray(query_x, dtype=float))
    require_ordered(nodes_x, domain_length)
    kind = InterpKind(kind)
    if kind is InterpKind.CUBIC_SPLINE:
        return PeriodicCubicSpline(nodes_x, nodes_u, domain_length)(query_x)

    n = len(nodes_x)
    q = _reduce_queries(nodes_x, query_x, domain_length)
    k = np.searchsorted(nodes_x, q, side="right") - 1  # bracket [x_k, x_k+1)

    if kind is InterpKind.LINEAR:
        xk = nodes_x[k]
        xk1 = _node_pos(nodes_x, k + 1, domain_length)
        w = (q - xk) / (xk1 - xk)
        return nodes_u[k] * (1.0 - w) + nodes_u[(k + 1) % n] * w

    # quadratic: centered three-point stencil, switching at the bracket
    # midpoint so the choice depends only on relative positions; midpoint
    # ties keep the left stencil
    xk = nodes_x[k]
    xk1 = _node_pos(nodes_x, k + 1, domain_length)
    base = np.where(q <= 0.5 * (xk + xk1), k - 1, k)
    x0 = _node_pos(nodes_x, base, domain_length)
    x1 = _node_pos(nodes_x, base + 1, domain_length)
    x2 = _node_pos(nodes_x, base + 2, domain_length)
    u0 = nodes_u[base % n]
    u1 = nodes_u[(base + 1) % n]
    u2 = nodes_u[(base + 2) % n]
    l0 = (q - x1) * (q - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (q - x0) * (q - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (q - x0) * (q - x1) / ((x2 - x0) * (x2 - x1))
    return u0 * l0 + u1 * l1 + u2 * l2


class PeriodicCubicSpline:
    """C^2 periodic cubic spline; the coefficient table is immutable."""

    def __init__(self, nodes_x, nodes_u, domain_length: float = TAU):
        nodes_x = np.asarray(nodes_x, dtype=float)
        nodes_u = np.asarray(nodes_u, dtype=float)
        require_ordered(nodes_x, domain_length)
        h = periodic_gaps(nodes_x, domain_length)
        hm = periodic_neighbors(h)[0]  # h_{i-1}
        du = (periodic_neighbors(nodes_u)[1] - nodes_u) / h
        rhs = du - periodic_neighbors(du)[0]
        self._m = _solve_cyclic_tridiagonal(hm / 6.0, (hm + h) / 3.0,
                                            h / 6.0, rhs)
        self._x = nodes_x
        self._u = nodes_u
        self._h = h
        self._length = domain_length

    def __call__(self, query_x) -> np.ndarray:
        q = np.atleast_1d(np.asarray(query_x, dtype=float))
        q = _reduce_queries(self._x, q, self._length)
        n = len(self._x)
        k = np.searchsorted(self._x, q, side="right") - 1
        k1 = (k + 1) % n
        hk = self._h[k]
        s = (q - self._x[k]) / hk
        r = 1.0 - s
        return (self._u[k] * r + self._u[k1] * s
                + hk ** 2 / 6.0 * ((r ** 3 - r) * self._m[k]
                                   + (s ** 3 - s) * self._m[k1]))


def project_periodic(source: DiscreteField, target_x, kind: InterpKind
                     ) -> np.ndarray:
    """Source field values at target positions, periodic in both arguments."""
    return interpolate(source.grid.x, source.u, target_x, kind,
                       source.grid.domain_length)


def _solve_cyclic_tridiagonal(west, diag, east, rhs) -> np.ndarray:
    """Solve the cyclic system where row i couples (i-1, i, i+1) mod n.

    ``west[i]`` multiplies x_{i-1} (row 0 wraps to x_{n-1}), ``east[i]``
    multiplies x_{i+1} (row n-1 wraps to x_0). Sherman-Morrison reduction
    to two strictly tridiagonal solves.
    """
    n = len(diag)
    gamma = -diag[0]
    d = diag.astype(float).copy()
    d[0] -= gamma
    d[-1] -= west[0] * east[-1] / gamma
    y = _thomas(west[1:], d, east[:-1], rhs)
    uvec = np.zeros(n)
    uvec[0] = gamma
    uvec[-1] = east[-1]
    z = _thomas(west[1:], d, east[:-1], uvec)
    factor = (y[0] + west[0] * y[-1] / gamma) / (
        1.0 + z[0] + west[0] * z[-1] / gamma)
    return y - factor * z


def _thomas(sub, diag, sup, rhs) -> np.ndarray:
    n = len(diag)
    c = np.empty(n)
    d = np.empty(n)
    c[0] = sup[0] / diag[0] if n > 1 else 0.0
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - sub[i - 1] * c[i - 1]
        c[i] = sup[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x
