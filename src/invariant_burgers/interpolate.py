"""Periodic interpolation operators: linear, quadratic, cubic spline.

All three reproduce affine data exactly and commute with translations of
nodes and queries and with constant value offsets, which is what makes them
safe projection operators for the symmetry-preserving schemes.

``interpolate`` is the one entry point that validates: its queries, the
order of its nodes, placed in a ``grid.Layer``, and that no sum of two node
positions or squared gap overflows. ``_evaluate`` binds the interpolant to
a placed position layer and a filled value layer as a closure, which
``interpolate`` runs once and the evolution-projection once a step. Linear
and spline bracket each query, reduced into [x_0, x_0 + L), by the ghost
slots j, j + 1 of the node at or left of it and the next one. Quadratic
reads the three slots centred on the node nearest the query, midpoint ties
going left; where each of one query per node lies between the midpoints
beside its node, as the projection's targets normally do, that node is
taken without a search, and either way the slots are the same. The
quadratic and linear interpolants allocate their rows once, when they are
bound, the linear one allocating only its search's index row on each call;
the spline allocates its intermediates, and solves for its moments, on
every call.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .grid import _HALF, _ONE, TAU, Layer, _as_float_array


class InterpKind(str, Enum):
    """The three interpolants, by their command-line names."""

    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC_SPLINE = "cubic-spline"


def interpolate(nodes_x, nodes_u, query_x, kind: InterpKind,
                domain_length: float = TAU) -> np.ndarray:
    """Evaluate the periodic interpolant of (nodes_x, nodes_u) at query_x.

    It takes at least two nodes and one value per node (``ValueError``
    naming both counts otherwise). The nodes must be strictly increasing
    with a positive periodic closure gap (``NodeCrossingError``
    otherwise). ``domain_length`` must be positive, finite and small enough
    that the nodes beside the seam keep apart from their images one period
    away (``ValueError`` naming it otherwise). Nodes or a length at which a
    sum of two positions or a squared gap overflows are refused
    (``ValueError`` naming the one at fault). The queries must be finite
    (``ValueError`` naming the first one that is not); they may lie
    anywhere and are read modulo it.
    """
    kind = InterpKind(kind)
    x, u = _as_float_array(nodes_x), _as_float_array(nodes_u)
    if not 1 < len(x) == len(u):
        raise ValueError(f"need one value per node and at least two nodes, "
                         f"got {len(u)} values for {len(x)} nodes")
    if not 0.0 < domain_length < np.inf:
        raise ValueError(f"domain_length must be positive and finite, got "
                         f"{domain_length!r}")
    q = np.atleast_1d(np.asarray(query_x, dtype=float))
    finite = np.isfinite(q)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"query {i} is {float(q.flat[i])!r}; queries must "
                         f"be finite")
    # the interpolants add two slot positions and square a gap; equal
    # infinite nodes make a NaN gap, which fails the order check
    with np.errstate(over="ignore", invalid="ignore"):
        xl = Layer.of_positions(x, domain_length)
        xg = xl.g
        if _reach(xg) == np.inf:
            name = ("nodes_x" if _reach(x) == np.inf
                    else f"domain_length={domain_length!r}")
            raise ValueError(f"{name} is too large: a sum of two positions "
                             f"or a squared gap overflows")
    if not (xg[0] < xg[1] and xg[-2] < xg[-1]):
        raise ValueError(f"domain_length={domain_length!r} swamps the node "
                         f"gaps: a node and its neighbour across the seam "
                         f"round to one position one period away")
    return _evaluate(xl, Layer.of_values(u), q, kind, np.empty(q.shape))()


def _reach(x: np.ndarray) -> float:
    """The largest of twice the extreme positions and the squared gaps of
    the ordered positions ``x``; inf where either overflows."""
    gap = (x[1:] - x[:-1]).max(initial=0.0)
    return max(-2.0 * x[0], 2.0 * x[-1], gap ** 2)


def _evaluate(xl: Layer, ul: Layer, q: np.ndarray, kind: InterpKind,
              out: np.ndarray) -> Callable[[], np.ndarray]:
    """The interpolant of kind ``kind`` through the placed position layer
    ``xl`` and filled value layer ``ul``, at the finite queries ``q`` read
    modulo the period of ``xl``, bound: a closure that evaluates it at the
    layers and queries as they stand when it runs. Each reads the gaps of
    ``xl``'s slots, and the quadratic its wide gaps too. The quadratic
    and linear work in rows sized for ``xl`` and ``q``, allocated here,
    the linear allocating only the index row of ``np.searchsorted``, which
    takes no ``out``, on each call; the spline closure allocates its
    intermediates, and solves for its moments, on every call. The last
    operation of each interpolant writes its values into ``out``, of the
    queries' shape and aliasing none of the other inputs, and the closure
    returns ``out``."""
    xg, ug, period, gaps = xl.g, ul.g, xl.period, xl.gaps
    if kind is InterpKind.QUADRATIC:
        n = len(xg) - 3
        # the slot midpoints and slopes, the second differences, and a
        # test and a work row of the queries' shape
        mid, s, c = np.empty(n + 2), np.empty(n + 2), np.empty(n + 1)
        test, w = np.empty(q.shape, bool), np.empty(q.shape)
        test_v = memoryview(test)
        x_west, x_east, u_west, u_east = xg[:-1], xg[1:], ug[:-1], ug[1:]
        wide, s_east, s_west = xl.wide, s[1:], s[:-1]
        mid_west, mid_east = mid[:-2], mid[1:-1]
        # slot b + 1 holds the node nearest q, ties going left: node i for
        # query i when there is one query per node and each lies between
        # the midpoints beside its node; else the count of inner midpoints
        # left of q (0 .. N for any q), the queries reduced first if one
        # lies outside (mid[0], mid[-1]]
        partner = q.shape == (n,)
        beside = ul.west, xl.west, xl.nodes, s[:n], c[:n]
        add, subtract, multiply, divide = (np.add, np.subtract, np.multiply,
                                           np.divide)

        def quadratic():
            multiply(_HALF, add(x_west, x_east, mid), mid)
            # the slot slopes s_k and second differences c_k of the Newton
            # form
            divide(subtract(u_east, u_west, s), gaps, s)
            divide(subtract(s_east, s_west, c), wide, c)
            at = q
            # each test's least entry, read through a view as a Python bool
            if (partner and test_v[np.less(mid_west, q, test).argmin()]
                    and test_v[np.less_equal(q, mid_east, test).argmin()]):
                u0, x0, x1, s0, c0 = beside
            else:
                if not (mid[0] < q.min(initial=np.inf)
                        and q.max(initial=-np.inf) <= mid[-1]):
                    at = xg[1] + np.mod(q - xg[1], period)
                b = np.searchsorted(mid_east, at, side="left")
                u0, x0, x1, s0, c0 = ug[b], xg[b], x_east[b], s[b], c[b]
            # u_b + (q - x_b) (s_b + (q - x_{b+1}) c_b), over slots b .. b + 2
            add(s0, multiply(subtract(at, x1, w), c0, w), w)
            multiply(subtract(at, x0, out), w, out)
            return add(u0, out, out)

        return quadratic

    # slot 1 (a 0-d view), the nodes and the east slots; a row of the
    # reduced queries and, for the linear, one of weights and one that
    # takes slot values
    first, nodes, ug_east = xg[1, ...], xg[1:-2], ug[1:]
    at, w, taken = (np.empty(q.shape) for _ in range(3))
    add, subtract, multiply, divide, mod = (np.add, np.subtract, np.multiply,
                                            np.divide, np.mod)
    # the node gaps h_i = x_{i+1} - x_i, the last closing the period, and
    # each node's west neighbour
    h, west = gaps[1:-1], np.arange(-1, len(xg) - 4)

    def piecewise():
        # each query shifted by a multiple of L into [x_0, x_0 + L)
        add(first, mod(subtract(q, first, at), period, at), at)
        # the ghost slot j of the node at or left of each query
        j = np.searchsorted(nodes, at, side="right")
        if kind is InterpKind.LINEAR:
            # w = (q - x_j) / h_j; u_j (1 - w) + u_{j+1} w, the first term
            # formed in out
            subtract(at, xg.take(j, out=taken, mode="clip"), w)
            divide(w, gaps.take(j, out=taken, mode="clip"), w)
            subtract(_ONE, w, out)
            multiply(ug.take(j, out=taken, mode="clip"), out, out)
            multiply(ug_east.take(j, out=taken, mode="clip"), w, w)
            return add(out, w, out)

        # cubic spline: second derivatives m at the nodes, from the node
        # gaps h and gap slopes du and each one's west neighbour, taken
        # round the seam (the ghost gap before node 0 may differ from the
        # closing gap in its last bit); the moments' value layer closes the
        # period
        du = (ul.east - ul.nodes) / h
        hw = h.take(west)
        mg = Layer.of_values(_solve_cyclic_tridiagonal(
            hw / 6.0, (hw + h) / 3.0, h / 6.0, du - du.take(west))).g
        hj = gaps[j]
        s = (at - xg[j]) / hj
        r = 1.0 - s
        return np.add(ug[j] * r + ug[j + 1] * s,
                      hj ** 2 / 6.0 * ((r ** 3 - r) * mg[j]
                                       + (s ** 3 - s) * mg[j + 1]), out)

    return piecewise


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
