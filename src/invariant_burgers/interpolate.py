"""Periodic interpolation operators: linear, quadratic, cubic spline.

All three reproduce affine data exactly and commute with translations of
nodes and queries and with constant value offsets, which is what makes them
safe projection operators for the symmetry-preserving schemes.

``interpolate`` checks its nodes and ghosts them once (``grid.ghosted``)
and hands the ghost arrays to ``_evaluate``, which the evolution-projection
step calls directly on a layer it has already checked. A query is reduced
into [x_0, x_0 + L) and bracketed by ghost slots j, j + 1, so every stencil
(linear j, j + 1; quadratic j - 1 .. j + 1 or j .. j + 2; spline j, j + 1)
indexes the ghost arrays directly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .grid import (TAU, DiscreteField, _as_float_array, ghosted,
                   require_ordered)


class InterpKind(str, Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC_SPLINE = "cubic-spline"


def _checked_ghosts(nodes_x, nodes_u, domain_length: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Ghost arrays of nodes and values of one nonzero length, the nodes
    checked for periodic order."""
    x, u = _as_float_array(nodes_x), _as_float_array(nodes_u)
    if not 0 < len(x) == len(u):
        raise ValueError(f"need one value per node and at least one node, "
                         f"got {len(u)} values for {len(x)} nodes")
    return require_ordered(x, domain_length), ghosted(u)


def _bracket(xg: np.ndarray, query_x, domain_length: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """Queries shifted by multiples of L into [x_0, x_0 + L), and the ghost
    slot j of the node at or left of each."""
    q = np.atleast_1d(np.asarray(query_x, dtype=float))
    q = xg[1] + np.mod(q - xg[1], domain_length)
    return q, np.searchsorted(xg[1:-2], q, side="right")


def interpolate(nodes_x, nodes_u, query_x, kind: InterpKind,
                domain_length: float = TAU) -> np.ndarray:
    """Evaluate the periodic interpolant of (nodes_x, nodes_u) at query_x."""
    kind = InterpKind(kind)
    xg, ug = _checked_ghosts(nodes_x, nodes_u, domain_length)
    return _evaluate(xg, ug, query_x, kind, domain_length)


def _evaluate(xg: np.ndarray, ug: np.ndarray, query_x, kind: InterpKind,
              domain_length: float) -> np.ndarray:
    """The interpolant of kind ``kind`` through the ghosted, checked nodes
    ``xg`` and values ``ug``, at query_x."""
    q, j = _bracket(xg, query_x, domain_length)

    if kind is InterpKind.LINEAR:
        w = (q - xg[j]) / (xg[j + 1] - xg[j])
        return ug[j] * (1.0 - w) + ug[j + 1] * w

    if kind is InterpKind.CUBIC_SPLINE:
        return _spline_values(xg, ug, _spline_moments(xg, ug), q, j)

    # quadratic: centered three-point stencil, switching at the bracket
    # midpoint so the choice depends only on relative positions; midpoint
    # ties keep the left stencil
    base = np.where(q <= 0.5 * (xg[j] + xg[j + 1]), j - 1, j)
    x0, x1, x2 = xg[base], xg[base + 1], xg[base + 2]
    l0 = (q - x1) * (q - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (q - x0) * (q - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (q - x0) * (q - x1) / ((x2 - x0) * (x2 - x1))
    return ug[base] * l0 + ug[base + 1] * l1 + ug[base + 2] * l2


def _spline_moments(xg: np.ndarray, ug: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Ghost arrays of the spline's second derivatives at the nodes and of
    the gap east of each node."""
    # rows read their west gap from the ghosts of the one gap array, so
    # rows 0 and N-1 share one closing gap
    h = xg[2:-1] - xg[1:-2]
    du = (ug[2:-1] - ug[1:-2]) / h
    hg = ghosted(h)
    m = _solve_cyclic_tridiagonal(hg[:-3] / 6.0, (hg[:-3] + h) / 3.0,
                                  h / 6.0, du - ghosted(du)[:-3])
    return ghosted(m), hg


def _spline_values(xg, ug, moments, q, j) -> np.ndarray:
    """The spline with ``moments`` at queries q bracketed by slots j."""
    mg, hg = moments
    hj = hg[j]
    s = (q - xg[j]) / hj
    r = 1.0 - s
    return (ug[j] * r + ug[j + 1] * s
            + hj ** 2 / 6.0 * ((r ** 3 - r) * mg[j] + (s ** 3 - s) * mg[j + 1]))


class PeriodicCubicSpline:
    """C^2 periodic cubic spline; the coefficient table is immutable."""

    def __init__(self, nodes_x, nodes_u, domain_length: float = TAU):
        self._xg, self._ug = _checked_ghosts(nodes_x, nodes_u, domain_length)
        self._moments = _spline_moments(self._xg, self._ug)
        self._length = domain_length

    def __call__(self, query_x) -> np.ndarray:
        q, j = _bracket(self._xg, query_x, self._length)
        return _spline_values(self._xg, self._ug, self._moments, q, j)


def project_periodic(source: DiscreteField, target_x, kind: InterpKind
                     ) -> np.ndarray:
    """Source field values at target positions, periodic in both arguments."""
    return interpolate(source.grid.x, source.u, target_x, kind,
                       source.grid.domain_length)


def _solve_cyclic_tridiagonal(west, diag, east, rhs) -> np.ndarray:
    """Solve the spline's cyclic system, row i coupling (i-1, i, i+1) mod n.

    ``west[i]`` multiplies x_{i-1} (row 0 wraps to x_{n-1}), ``east[i]``
    multiplies x_{i+1} (row n-1 wraps to x_0). Periodic parallel cyclic
    reduction (Hockney, J. ACM 12 (1965) 95; Stone, J. ACM 20 (1973) 27):
    each round adds multiples of rows i -+ s to row i so that it couples
    x_{i-2s}, x_i, x_{i+2s} instead, with indices wrapped, then doubles s.

    The round count is fixed by the spline matrix: h_{i-1}/6 + h_i/6 is
    half of (h_{i-1} + h_i)/3 on every grid, so the coupling ratio
    r = max_i (|west_i| + |east_i|) / |diag_i| starts at 1/2, and a round
    takes it to at most r^2 / (1 - r^2): 1/3, 1/8, 1/63, 2.5e-4, 6.4e-8,
    4.0e-15, 1.6e-29. After seven rounds the remaining couplings are far
    below rounding and x_i = rhs_i / diag_i.
    """
    a, b, c, d = west, diag, east, rhs
    i = np.arange(len(b))
    for s in (1, 2, 4, 8, 16, 32, 64):
        lo, hi = i.take(i - s, mode="wrap"), i.take(i + s, mode="wrap")
        alpha, gamma = -a / b[lo], -c / b[hi]
        a, b, c, d = (alpha * a[lo],
                      b + alpha * c[lo] + gamma * a[hi],
                      gamma * c[hi],
                      d + alpha * d[lo] + gamma * d[hi])
    return d / b
