"""Independent reference computations the tests check the library against.

Everything here is deliberately written along a different path from the
package: dense linear algebra instead of closed forms, scalar loops instead
of vectorized stencils, a multiprecision Bessel series instead of a
trapezoid sum.
"""

import bisect
import math

import numpy as np

TAU = 2.0 * math.pi


def dense_equidistribution_solve(rho, anchor, length):
    """Direct solve of the cyclic equidistribution system, row 0 anchored."""
    n = len(rho)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i in range(n):
        ce = rho[(i + 1) % n] + rho[i]
        cw = rho[i] + rho[(i - 1) % n]
        A[i, (i + 1) % n] += ce
        A[i, i] -= ce + cw
        A[i, (i - 1) % n] += cw
        if i == n - 1:  # x_{i+1} lives one period up
            b[i] -= ce * length
        if i == 0:  # x_{i-1} lives one period down
            b[i] += cw * length
    A[0, :] = 0.0
    A[0, 0] = 1.0
    b[0] = anchor
    return np.linalg.solve(A, b)


def equidistribute_initial_rounds(initial, grid, alpha, settle_rtol,
                                  max_rounds):
    """The initial equidistribution as its own loop: each round resamples
    ``initial``, forms the monitor over the concatenated ghost layout,
    takes the reciprocal sums and their partial sums, and writes the
    positions anchored at x_0 into a fresh array, until no node moves by
    more than ``settle_rtol`` * L. The slice at the settled positions, or
    the error of the first check that fails."""
    from dataclasses import replace

    from invariant_burgers.errors import (NoConvergenceError,
                                          NonFiniteSolutionError)
    from invariant_burgers.grid import Layer, require_finite

    x, length = grid.x, grid.domain_length
    n = len(x)
    xl = Layer(n, length)
    for _ in range(max_rounds):
        u = require_finite(np.asarray(initial(x), dtype=float))
        # the order check of the layer each round starts from
        xl.nodes[...] = x
        xl.place()
        xg, ug = (ghosted_by_concatenation(x, length),
                  ghosted_by_concatenation(u, 0.0))
        slope = (ug[2:-1] - ug[:-3]) / (xg[2:-1] - xg[:-3])
        r = np.sqrt(1.0 + alpha * np.square(slope))
        sums = np.cumsum(1.0 / (r + np.roll(r, -1)))
        if not 0.0 < sums[-1] < np.inf:
            raise NonFiniteSolutionError(
                f"equidistribution monitor is not finite: its sum is "
                f"{sums[-1]!r}")
        x_new = np.empty(n)
        x_new[0] = x[0]
        x_new[1:] = x[0] + sums[:-1] * (length / sums[-1])
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change <= settle_rtol * length:
            return replace(grid, x=x)
    raise NoConvergenceError(
        f"initial equidistribution did not settle in {max_rounds} rounds")


def ftcs_update_loop(u, dt, nu, h):
    """Scalar-loop evaluation of the fixed-grid update formula."""
    n = len(u)
    out = [0.0] * n
    for i in range(n):
        up = u[(i + 1) % n]
        um = u[(i - 1) % n]
        out[i] = (u[i] - dt * u[i] * (up - um) / (2.0 * h)
                  + dt * nu * (up - 2.0 * u[i] + um) / h ** 2)
    return np.array(out)


def moving_mesh_update_loop(x0, u, xdot, dt, nu, length):
    """Scalar-loop evaluation of the moving-mesh update formula, with the
    grid velocity ``xdot`` given as one scalar or one value per node."""
    n = len(u)
    out = [0.0] * n
    for i in range(n):
        ip, im = (i + 1) % n, (i - 1) % n
        xe = x0[ip] + (length if i == n - 1 else 0.0)
        xw = x0[im] - (length if i == 0 else 0.0)
        v = xdot[i] if np.ndim(xdot) else xdot
        slope = (u[ip] - u[im]) / (xe - xw)
        diff = (2.0 * nu / (xe - xw)) * ((u[ip] - u[i]) / (xe - x0[i])
                                         - (u[i] - u[im]) / (x0[i] - xw))
        out[i] = u[i] + dt * (-(u[i] - v) * slope + diff)
    return np.array(out)


def ghosted_by_concatenation(a, jump):
    """The N + 3 ghost slots of ``grid.Layer`` (N >= 2), laid out by
    concatenating [a_{N-1}], a, [a_0], [a_1] and then adding the jump to the
    three ghosts only when it is nonzero."""
    n = len(a)
    g = np.concatenate((a[-1:], a, a[:2]))
    if jump:
        g[0] -= jump
        g[n + 1] += jump
        g[n + 2] += jump
    return g


def order_verdict(x, length):
    """The message of the order check on the positions ``x`` of period
    ``length``, or None: the verdict on their periodic gaps, the closing
    one (x_0 + L) - x_{N-1}."""
    n = len(x)
    return order_gap_verdict(
        [float((x[i + 1] if i < n - 1 else x[0] + length) - x[i])
         for i in range(n)])


def order_gap_verdict(gaps):
    """The message of the order check on the periodic node ``gaps``, or
    None: a scalar loop that stops at the first gap that is not positive
    (a NaN gap is not)."""
    n = len(gaps)
    for i, gap in enumerate(gaps):
        if not gap > 0.0:
            name = "x[0] + L" if i == n - 1 else f"x[{i + 1}]"
            return (f"mesh interval x[{i}] -> {name} has gap {gap:.6g}; "
                    f"nodes must be strictly increasing with a positive "
                    f"periodic closure gap")
    return None


def equidistribution_residual(x, rho, length):
    """Residual of the discrete equidistribution relation, per node, over
    the concatenated ghost layout."""
    xg = ghosted_by_concatenation(x, length)
    rg = ghosted_by_concatenation(rho, 0.0)
    return (rg[2:-1] + rho) * (xg[2:-1] - x) - (rho + rg[:-3]) * (x - xg[:-3])


def monitor_loop(x, u, alpha, length):
    """Scalar-loop centered difference monitor."""
    n = len(u)
    out = [0.0] * n
    for i in range(n):
        ip, im = (i + 1) % n, (i - 1) % n
        xe = x[ip] + (length if i == n - 1 else 0.0)
        xw = x[im] - (length if i == 0 else 0.0)
        slope = (u[ip] - u[im]) / (xe - xw)
        out[i] = math.sqrt(1.0 + alpha * slope * slope)
    return np.array(out)


def burgers_bessel_mp(nu, t, x, digits=None, modes=None):
    """The sine-data solution u(t, x) in mpmath at ``digits`` digits, from
    the Bessel generating function of its Cole-Hopf potential:
    phi = I_0(z) + 2 sum_j I_j(z) exp(-nu t j^2) cos(j x), z = 1/(2 nu),
    with u = -2 nu phi_x / phi and the sum cut after ``modes`` terms.
    ``nu``, ``t`` and each x enter as their exact doubles; the values are
    returned rounded to doubles.

    The defaults scale with 1/nu, since phi at the front is about e^(-1/nu)
    times its peak: 40 digits beyond the 1/(nu ln 10) that cancel there,
    and sqrt((2/nu)(2/nu + 40)) + 20 modes, where the last I_j is below
    e^(-1/nu - 40) I_0 (e^-351 at nu = 0.01). Fixed at 40 digits and 60
    modes, the value at nu = 0.01 was off by 1.9."""
    import mpmath

    if digits is None:
        digits = max(40, math.ceil(1 / (nu * math.log(10)) + 40))
    if modes is None:
        modes = max(60, math.ceil(math.sqrt((2 / nu) * (2 / nu + 40)) + 20))

    with mpmath.workdps(digits):
        nu, t = mpmath.mpf(float(nu)), mpmath.mpf(float(t))
        z = 1 / (2 * nu)
        terms = [mpmath.besseli(j, z) * mpmath.exp(-nu * t * j * j)
                 for j in range(modes + 1)]
        out = []
        for xi in np.atleast_1d(x):
            xi = mpmath.mpf(float(xi))
            phi = terms[0] + 2 * mpmath.fsum(
                terms[j] * mpmath.cos(j * xi) for j in range(1, modes + 1))
            phi_x = -2 * mpmath.fsum(
                j * terms[j] * mpmath.sin(j * xi) for j in range(1, modes + 1))
            out.append(float(-2 * nu * phi_x / phi))
    return np.array(out)


def periodic_spline_scipy(x, u, length, queries):
    """Periodic cubic spline through scipy, for cross-checking ours."""
    from scipy.interpolate import CubicSpline

    xs = np.append(x, x[0] + length)
    us = np.append(u, u[0])
    spline = CubicSpline(xs, us, bc_type="periodic")
    q = x[0] + np.mod(queries - x[0], length)
    return spline(q)


def periodic_quadratic_loop(x, u, length, queries):
    """Scalar loop of the periodic quadratic interpolant, in Lagrange form.

    Ghost slots as ``grid.Layer`` lays them out. Per query: the slot j
    (0 .. N + 1) of the node at or left of it, then the stencil of slots
    j - 1 .. j + 1 if the query lies at or left of the midpoint of slots j
    and j + 1 (ties keep the left stencil), else j .. j + 2. Queries are
    shifted by multiples of L into [x_0, x_0 + L) with Python's ``%``
    (numpy's ``mod`` rounds the same) when any of them lies outside
    (mid(slots 0, 1), mid(slots N + 1, N + 2)], the window these stencils
    reach. The shift rounds, and at an exact midpoint that rounding can
    move a query across the switch, so the oracle shifts exactly when the
    package does.
    """
    n = len(x)
    x = [float(v) for v in x]
    u = [float(v) for v in u]
    xs = ([x[-1] - length] + x
          + [x[0] + length, x[1] + length if n > 1 else x[0] + 2.0 * length])
    us = [u[-1]] + u + [u[0], u[1 % n]]
    qs = [float(q) for q in queries]
    lo, hi = 0.5 * (xs[0] + xs[1]), 0.5 * (xs[-2] + xs[-1])
    if not all(lo < q <= hi for q in qs):
        qs = [x[0] + (q - x[0]) % length for q in qs]
    out = []
    for q in qs:
        j = bisect.bisect_right(xs, q, 0, n + 2) - 1
        b = j - 1 if q <= 0.5 * (xs[j] + xs[j + 1]) else j
        x0, x1, x2 = xs[b:b + 3]
        l0 = (q - x1) * (q - x2) / ((x0 - x1) * (x0 - x2))
        l1 = (q - x0) * (q - x2) / ((x1 - x0) * (x1 - x2))
        l2 = (q - x0) * (q - x1) / ((x2 - x0) * (x2 - x1))
        out.append(us[b] * l0 + us[b + 1] * l1 + us[b + 2] * l2)
    return np.array(out)


def quadratic_by_search(x, u, length, queries):
    """The periodic quadratic interpolant with every query bracketed by a
    search. Ghost slots laid out by ``ghosted_by_concatenation``. The
    queries are shifted into [x_0, x_0 + L) when one lies outside
    (mid(slots 0, 1), mid(slots N + 1, N + 2)]; the base slot b of each
    stencil is the number of midpoints of slots 1 .. N + 1 left of the
    query (``searchsorted``, ties going left), and the Newton form over
    slots b .. b + 2 is gathered by ``take``. This is the package's
    arithmetic, so the two agree byte for byte."""
    xg = ghosted_by_concatenation(np.asarray(x, dtype=float), length)
    ug = ghosted_by_concatenation(np.asarray(u, dtype=float), 0.0)
    q = np.asarray(queries, dtype=float)
    if not (0.5 * (xg[0] + xg[1]) < q.min(initial=np.inf)
            and q.max(initial=-np.inf) <= 0.5 * (xg[-2] + xg[-1])):
        q = xg[1] + np.mod(q - xg[1], length)
    b = np.searchsorted(0.5 * (xg[1:-2] + xg[2:-1]), q, side="left")
    s = (ug[1:] - ug[:-1]) / (xg[1:] - xg[:-1])
    c = (s[1:] - s[:-1]) / (xg[2:] - xg[:-2])
    return ug.take(b) + (q - xg.take(b)) * (
        s.take(b) + (q - xg[1:].take(b)) * c.take(b))


def random_smooth_profile(rng, n_modes=3, amplitude=1.0):
    """A low-mode random periodic profile, as a function of the positions:
    the sum over k of amplitude * (a_k sin kx + b_k cos kx) / k with
    standard normal a_k, b_k, drawn in that order."""
    modes = [(rng.normal(), rng.normal()) for _ in range(n_modes)]

    def profile(x):
        u = np.zeros(len(x))
        for k, (a, b) in enumerate(modes, 1):
            u += amplitude * (a * np.sin(k * x) + b * np.cos(k * x)) / k
        return u

    return profile


def random_smooth_field(rng, n, n_modes=3, amplitude=1.0):
    """Strictly ordered periodic grid plus a low-mode random profile."""
    gaps = rng.uniform(0.4, 1.6, n)
    gaps *= TAU / gaps.sum()
    x = rng.uniform(0.0, TAU) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return x, random_smooth_profile(rng, n_modes, amplitude)(x)


def dense_spline_matrix(x, length):
    """Dense cyclic matrix of the periodic spline's moment equations."""
    n = len(x)
    h = [x[(i + 1) % n] + length * ((i + 1) // n) - x[i] for i in range(n)]
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i - 1) % n] += h[i - 1] / 6.0
        A[i, i] += (h[i - 1] + h[i]) / 3.0
        A[i, (i + 1) % n] += h[i] / 6.0
    return A


def csv_bytes(header, rows):
    """CSV text formatted one value at a time, one row at a time:
    ``repr(float(v))`` for a float (``np.float64`` included), ``str`` for
    anything else, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()
