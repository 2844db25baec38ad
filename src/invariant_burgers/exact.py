"""Reference solution for the sine initial condition, by the Cole-Hopf
heat-kernel integral. With Phi0 = 1 - cos y the potential of u0 = sin y,

    u(t, x) = int u0(x - z) w dz / int w dz,
    w = exp(-[z^2 / (2 t) + Phi0(x - z)] / (2 nu)),

which is -2 nu phi_x / phi of the Cole-Hopf potential phi integrated by
parts in z = x - y; averaging u0 rather than z / t divides by no t. Its
trapezoid rule in z converges geometrically on the window
|z| <= t max|u0| + 12 sqrt(2 nu t), which holds the characteristics and
the kernel's tails, at a step that divides 2 pi and is at most 2 pi / 16
and a third of the narrowest width sqrt(2 nu t / (1 + t max u0')). A
window wider than the period is folded onto it, with the Gaussian summed
over its periodic images, so a query takes at most 2 pi / step points and
the step never aliases the period. Each query's exponent is shifted by
its own maximum, so the denominator is at least 1 and cannot cancel or
overflow; its sums are reductions over its own row, so a value does not
depend on the other queries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# max|u0| and max u0' of the data u0 = sin x
_U0_MAX = 1.0
_U0_SLOPE_MAX = 1.0
# quadrature points a query may take, and matrix entries (64 KB) one
# block of query rows holds
_POINT_CAP = 2 ** 16
_BLOCK_ENTRIES = 2 ** 13


@dataclass(frozen=True)
class Reference:
    """The reference solution of u0 = sin x at viscosity ``nu``."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu < np.inf:
            raise ValueError(f"nu must be positive and finite, got "
                             f"{self.nu!r}")


def coefficients(nu: float) -> Reference:
    """``Reference(nu)``, under the name that the benchmark's setup probe
    and workloads call, its only callers; ROADMAP item 1b renames it with
    the benchmark."""
    return Reference(nu)


def _window(nu: float, t: float) -> tuple[float, float]:
    """The trapezoid step in z, which divides 2 pi, and the half-width of
    its window; a step that underflows to 0 stays 0."""
    spread = 2.0 * nu * t
    step = min(math.sqrt(spread / (1.0 + t * _U0_SLOPE_MAX)) / 3.0,
               math.tau / 16.0)
    if step > 0.0:
        step = math.tau / math.ceil(math.tau / step)
    return step, t * _U0_MAX + 12.0 * math.sqrt(spread)


@functools.lru_cache(maxsize=4)
def _quadrature(nu: float, t: float, step: float, half: float
                ) -> tuple[np.ndarray, ...]:
    """The rows of the trapezoid rule at spacing ``step`` over
    |z| <= ``half``, or over one period if that is shorter, that no query
    enters: the kernel's exponent, cos z, sin z and both over 2 nu, read
    only and kept for the last few (nu, t); ``ValueError`` where that
    spans ``_POINT_CAP`` steps."""
    # compared before dividing, so a step that underflows to 0 is refused
    if not min(half, math.pi) < _POINT_CAP * step / 2.0:
        raise ValueError(f"the reference at nu={nu!r}, t={t!r} needs more "
                         f"than {_POINT_CAP} quadrature points per query")
    n = round(math.tau / step)
    # folded where 2 ceil(half / step) + 1 >= n, so an infinite window too
    folded = half / step > (n - 2) // 2
    k = n // 2 if folded else math.ceil(half / step)
    z = step * np.arange(-k, n - k if folded else k + 1)
    # the exponent is (cos x cos z + sin x sin z) / (2 nu) - kernel
    kernel = (z * z / (2.0 * t) + 1.0) / (2.0 * nu)
    spread = 2.0 * nu * t
    if folded and spread > 81.0:
        # the periodic Gaussian is flat to 2 e^(-spread / 2) < 5e-18
        kernel[:] = 1.0 / (2.0 * nu)
    elif folded:
        # the Gaussian at each image z + 2 pi m, at most 1 relative to z,
        # and below e^-72 past those within pi + 12 sqrt(spread) of 0
        reach = 1 + int(6.0 * math.sqrt(spread) / math.pi)
        m = math.tau * np.arange(-reach, reach + 1)[:, None]
        kernel -= np.log(np.add.reduce(
            np.exp(-m * (2.0 * z + m) / (2.0 * spread)), axis=0))
    cz, sz = np.cos(z), np.sin(z)
    rows = kernel, cz, sz, cz / (2.0 * nu), sz / (2.0 * nu)
    for row in rows:
        row.flags.writeable = False
    return rows


def _cole_hopf(nu: float, t: float, x: np.ndarray, step: float,
               half: float) -> np.ndarray:
    """The trapezoid rule of ``_quadrature`` for each of the 1-D queries
    ``x`` at t > 0, in blocks of at most ``_BLOCK_ENTRIES`` matrix
    entries."""
    kernel, cz, sz, a, b = _quadrature(nu, t, step, half)
    cx, sx = np.cos(x)[:, None], np.sin(x)[:, None]
    out = np.empty(x.shape)
    rows = max(1, _BLOCK_ENTRIES // len(cz))
    for lo in range(0, len(x), rows):
        c, s = cx[lo:lo + rows], sx[lo:lo + rows]
        w = c * a
        w += s * b
        w -= kernel
        w -= np.maximum.reduce(w, axis=1, keepdims=True)
        # weights below e^-600 vanish beside a sum of at least 1; raised to
        # it, exp and the products stay out of the slow subnormal range
        np.maximum(w, -600.0, out=w)
        np.exp(w, out=w)
        # u0(x - z) = sin x cos z - cos x sin z, one reduction per sum
        den = np.add.reduce(w, axis=1)
        on_cos = np.add.reduce(w * cz, axis=1)
        on_sin = np.add.reduce(w * sz, axis=1)
        out[lo:lo + rows] = (s[:, 0] * on_cos - c[:, 0] * on_sin) / den
    return out


def evaluate(ref: Reference, t: float, x) -> np.ndarray:
    """Reference solution at time t and position(s) x, with the shape of
    x; sin x at t = 0. A non-finite query is refused (``ValueError``), and
    so is a (nu, t) whose quadrature needs ``_POINT_CAP`` points a query.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t!r}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"x[{i}] is {float(x.flat[i])!r}; x must be finite")
    out = np.sin(x) if t == 0.0 else _cole_hopf(
        ref.nu, t, x.reshape(-1), *_window(ref.nu, t)).reshape(x.shape)
    return float(out) if x.ndim == 0 else out
