"""Periodic interpolation operators: linear, quadratic, cubic spline.

All three reproduce affine data exactly and commute with translations of
nodes and queries and with constant value offsets, which is what makes them
safe projection operators for the symmetry-preserving schemes.

``interpolate`` is the one entry point: it checks its nodes, ghosts them
once (``grid.ghosted``) and hands the ghost arrays to ``_evaluate``, which
the evolution-projection step calls directly on a layer it has already
checked. A query is reduced into [x_0, x_0 + L) and bracketed by ghost
slots j, j + 1, so every stencil (linear j, j + 1; quadratic j - 1 .. j + 1
or j .. j + 2; spline j, j + 1) indexes the ghost arrays directly. The
spline solves for its moments on every call.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .grid import TAU, _as_float_array, ghosted, require_ordered


class InterpKind(str, Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC_SPLINE = "cubic-spline"


def interpolate(nodes_x, nodes_u, query_x, kind: InterpKind,
                domain_length: float = TAU) -> np.ndarray:
    """Evaluate the periodic interpolant of (nodes_x, nodes_u) at query_x.

    The nodes must be strictly increasing with a positive periodic closure
    gap (``NodeCrossingError`` otherwise); queries may lie anywhere and are
    read modulo ``domain_length``.
    """
    kind = InterpKind(kind)
    x, u = _as_float_array(nodes_x), _as_float_array(nodes_u)
    if not 0 < len(x) == len(u):
        raise ValueError(f"need one value per node and at least one node, "
                         f"got {len(u)} values for {len(x)} nodes")
    return _evaluate(require_ordered(x, domain_length), ghosted(u), query_x,
                     kind, domain_length)


def _evaluate(xg: np.ndarray, ug: np.ndarray, query_x, kind: InterpKind,
              domain_length: float) -> np.ndarray:
    """The interpolant of kind ``kind`` through the ghosted, checked nodes
    ``xg`` and values ``ug``, at query_x."""
    # each query shifted by a multiple of L into [x_0, x_0 + L), and the
    # ghost slot j of the node at or left of it
    q = np.atleast_1d(np.asarray(query_x, dtype=float))
    q = xg[1] + np.mod(q - xg[1], domain_length)
    j = np.searchsorted(xg[1:-2], q, side="right")

    if kind is InterpKind.LINEAR:
        w = (q - xg[j]) / (xg[j + 1] - xg[j])
        return ug[j] * (1.0 - w) + ug[j + 1] * w

    if kind is InterpKind.CUBIC_SPLINE:
        # second derivatives m at the nodes; rows read their west gap from
        # the ghosts of the one gap array, so rows 0 and N-1 share one
        # closing gap
        h = xg[2:-1] - xg[1:-2]
        du = (ug[2:-1] - ug[1:-2]) / h
        hg = ghosted(h)
        mg = ghosted(_solve_cyclic_tridiagonal(
            hg[:-3] / 6.0, (hg[:-3] + h) / 3.0, h / 6.0,
            du - ghosted(du)[:-3]))
        hj = hg[j]
        s = (q - xg[j]) / hj
        r = 1.0 - s
        return (ug[j] * r + ug[j + 1] * s
                + hj ** 2 / 6.0 * ((r ** 3 - r) * mg[j]
                                   + (s ** 3 - s) * mg[j + 1]))

    # quadratic: centered three-point stencil, switching at the bracket
    # midpoint so the choice depends only on relative positions; midpoint
    # ties keep the left stencil
    base = np.where(q <= 0.5 * (xg[j] + xg[j + 1]), j - 1, j)
    x0, x1, x2 = xg[base], xg[base + 1], xg[base + 2]
    l0 = (q - x1) * (q - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (q - x0) * (q - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (q - x0) * (q - x1) / ((x2 - x0) * (x2 - x1))
    return ug[base] * l0 + ug[base + 1] * l1 + ug[base + 2] * l2


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
