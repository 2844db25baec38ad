"""Periodic interpolation operators: linear, quadratic, cubic spline.

All three reproduce affine data exactly and commute with translations of
nodes and queries and with constant value offsets, which is what makes them
safe projection operators for the symmetry-preserving schemes.

``interpolate`` is the one entry point: it checks its queries, places its
nodes in a ``grid.Layer`` (which checks their order), checks that no sum of
two node positions or squared gap overflows, fills its values in another
and hands both layers to ``_evaluate``, which reads the period from the
position layer. The evolution-projection step calls ``_evaluate`` directly
on the layers it has placed and filled, with targets it has placed. Every
stencil indexes the ghost slots ``g`` of the layers directly:

- linear and spline reduce each query into [x_0, x_0 + L) and bracket it
  by ghost slots j, j + 1 (the node at or left of it and the next one);
- quadratic reads the three slots b .. b + 2 centred on the node nearest
  the query, midpoint ties going left. When there is one query per node
  and each lies between the midpoints beside its node, as the
  projection's targets normally do, b = i for query i: two comparisons
  over the midpoints check that, with no search. Otherwise one search
  over the midpoints gives b, after reducing the queries into the period
  if one lies outside the window the stencils reach, between the
  midpoints of the first and of the last two ghost slots. Both ways give
  the same b. The value is the Newton form of the parabola through the
  three nodes (slot slopes, then second differences).

The spline solves for its moments on every call.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .grid import TAU, Layer, _as_float_array


class InterpKind(str, Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC_SPLINE = "cubic-spline"


def interpolate(nodes_x, nodes_u, query_x, kind: InterpKind,
                domain_length: float = TAU) -> np.ndarray:
    """Evaluate the periodic interpolant of (nodes_x, nodes_u) at query_x.

    The nodes must be strictly increasing with a positive periodic closure
    gap (``NodeCrossingError`` otherwise). ``domain_length`` must be
    positive, finite and small enough that the nodes beside the seam keep
    apart from their images one period away (``ValueError`` naming it
    otherwise). Nodes or a length at which a sum of two positions or a
    squared gap overflows are refused (``ValueError`` naming the one at
    fault). The queries must be finite (``ValueError`` naming the first
    one that is not); they may lie anywhere and are read modulo it.
    """
    kind = InterpKind(kind)
    x, u = _as_float_array(nodes_x), _as_float_array(nodes_u)
    if not 0 < len(x) == len(u):
        raise ValueError(f"need one value per node and at least one node, "
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
    return _evaluate(xl, Layer.of_values(u), q, kind)


def _reach(x: np.ndarray) -> float:
    """The largest of twice the extreme positions and the squared gaps of
    the ordered positions ``x``; inf where either overflows."""
    gap = (x[1:] - x[:-1]).max(initial=0.0)
    return max(-2.0 * x[0], 2.0 * x[-1], gap ** 2)


def _evaluate(xl: Layer, ul: Layer, q: np.ndarray, kind: InterpKind
              ) -> np.ndarray:
    """The interpolant of kind ``kind`` through the placed position layer
    ``xl`` and filled value layer ``ul``, at the finite queries ``q`` read
    modulo the period of ``xl``; the quadratic reads the gaps and wide
    gaps of ``xl``'s slots."""
    xg, ug, period = xl.g, ul.g, xl.period
    if kind is InterpKind.QUADRATIC:
        # slot b + 1 holds the node nearest q, ties going left: node i for
        # query i when each lies between the midpoints beside its node;
        # else the count of inner midpoints left of q (0 .. N for any q),
        # the queries reduced first if one lies outside (mid[0], mid[-1]]
        mid = 0.5 * (xg[:-1] + xg[1:])
        n = len(xg) - 3
        if q.shape == (n,) and (mid[:-2] < q).all() and (q <= mid[1:-1]).all():
            b = slice(0, n)
        else:
            if not (mid[0] < q.min(initial=np.inf)
                    and q.max(initial=-np.inf) <= mid[-1]):
                q = xg[1] + np.mod(q - xg[1], period)
            b = np.searchsorted(mid[1:-1], q, side="left")
        # the Newton form over slots b .. b + 2, from the slot slopes s_k
        # and second differences c_k
        s = (ug[1:] - ug[:-1]) / xl.gaps
        c = (s[1:] - s[:-1]) / xl.wide
        return ug[b] + (q - xg[b]) * (s[b] + (q - xg[1:][b]) * c[b])

    # each query shifted by a multiple of L into [x_0, x_0 + L)
    q = xg[1] + np.mod(q - xg[1], period)
    # the ghost slot j of the node at or left of each query
    j = np.searchsorted(xg[1:-2], q, side="right")

    if kind is InterpKind.LINEAR:
        w = (q - xg[j]) / (xg[j + 1] - xg[j])
        return ug[j] * (1.0 - w) + ug[j + 1] * w

    # cubic spline: second derivatives m at the nodes. The node gaps h,
    # the gap slopes du and the moments are copied into value layers, so
    # each row reads its west neighbour from a ghost copy and rows 0 and
    # N-1 share one closing gap
    hl = Layer.of_values(xl.gaps[1:-1])
    h, hw = hl.nodes, hl.west
    dl = Layer.of_values((ul.east - ul.nodes) / h)
    mg = Layer.of_values(_solve_cyclic_tridiagonal(
        hw / 6.0, (hw + h) / 3.0, h / 6.0, dl.nodes - dl.west)).g
    hj = hl.g[j]
    s = (q - xg[j]) / hj
    r = 1.0 - s
    return (ug[j] * r + ug[j + 1] * s
            + hj ** 2 / 6.0 * ((r ** 3 - r) * mg[j]
                               + (s ** 3 - s) * mg[j + 1]))


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
