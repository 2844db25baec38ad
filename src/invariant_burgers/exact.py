"""Closed-form series reference solution for the sine initial condition.

The solution is the log-derivative of a heat-kernel-smoothed positive
potential, expressed through Fourier cosine coefficients of
exp(-(1 - cos x)/(2 nu)). Coefficients are integrated with the composite
trapezoid rule, which is spectrally accurate for smooth periodic
integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDecayError, NonFiniteSolutionError

TAU = 2.0 * np.pi

_M_START = 256
# the series tail bound at t = 0, relative to a_0, below which it is cut,
# and the highest mode it may keep
_TOL = 1e-12
_J_CAP = 200


@dataclass(frozen=True)
class FourierCoeffs:
    """Immutable coefficient table a_0..a_J for one viscosity."""

    nu: float
    a: np.ndarray
    quad_points: int

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.a[0] <= 0.0:
            raise ValueError("a_0 must be positive")
        # eventual monotone decay, judged above the quadrature noise floor
        tail = np.abs(self.a[len(self.a) // 2:])
        significant = tail[tail > 1e-13 * self.a[0]]
        if np.any(np.diff(significant) > 0.0):
            raise ValueError("stored coefficient tail is not decaying")

    @property
    def truncation_index(self) -> int:
        return len(self.a) - 1


def coefficients(nu: float) -> FourierCoeffs:
    """Compute coefficients until the evaluation tail bound drops below
    ``_TOL``.

    The truncation index J is the smallest j with |a_j| * j < _TOL * a_0,
    the tail bound at t = 0; the damping exp(-nu t j^2) only shrinks it
    for t > 0, so one table serves every t >= 0. The m quadrature points
    double until a_0 is stable to _TOL relative and the retained modes,
    at most m / 4, are safely below the aliasing range. At m = 1024 the
    modes reach the cap and the doubling stops: the m-point a_0 is off by
    a_m + a_2m + ..., far below any mode up to the cap that is below the
    bound, so the table ends at the first such mode, or ``NoDecayError``
    is raised. So the modes are formed only where the doubling can stop,
    one trapezoid row each, in order up to the first below the bound.
    """
    if not 0.0 < nu < np.inf:
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    m = _M_START
    a0_prev = None
    while True:
        x = np.arange(m) * (TAU / m)
        f = np.exp(-(1.0 - np.cos(x)) / (2.0 * nu))
        a0 = float(f.mean())
        j_hi = min(_J_CAP, m // 4)
        a0_stable = a0_prev is not None and abs(a0 - a0_prev) <= _TOL * a0
        if a0_stable or j_hi == _J_CAP:
            a = [a0]
            for j in range(1, j_hi + 1):
                a.append(2.0 * (f * np.cos(j * x)).mean())
                if abs(a[-1]) * j < _TOL * a0:
                    return FourierCoeffs(nu=nu, a=np.array(a), quad_points=m)
            if j_hi == _J_CAP:
                raise NoDecayError(
                    f"coefficients did not decay below tol={_TOL:g} "
                    f"within j <= {_J_CAP} (nu={nu:g})")
        a0_prev = a0
        m *= 2


def evaluate(coeffs: FourierCoeffs, t: float, x) -> np.ndarray:
    """Reference solution at time t and position(s) x.

    The result has the shape of x. The denominator, the smoothed
    potential, is strictly positive in exact arithmetic only: at small nu
    its float cosine sum cancels. Queries are reduced into the fundamental
    period first so the series arguments stay small; a non-finite one is
    refused (``ValueError``). Where the cancellation leaves a value that
    is not finite ``NonFiniteSolutionError`` is raised.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t!r}")
    a = coeffs.a
    J = coeffs.truncation_index
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"x[{i}] is {float(x.flat[i])!r}; x must be finite")
    scalar = x.ndim == 0
    # symmetric reduction keeps series arguments small and makes the odd
    # symmetry of the solution exact (negation is exact in floating point)
    xr = np.atleast_1d(x)
    xr = xr - TAU * np.round(xr / TAU)
    j = np.arange(J + 1, dtype=float)
    with np.errstate(all="ignore"):
        damped = a * np.exp(-coeffs.nu * t * j ** 2)
        phase = np.outer(xr, j)
        num = 2.0 * coeffs.nu * np.sin(phase[:, 1:]) @ (damped[1:] * j[1:])
        den = np.cos(phase) @ damped
        out = num / den
    if not np.isfinite(out).all():
        raise NonFiniteSolutionError(
            f"reference solution is not finite at t={float(t)!r} "
            f"(nu={coeffs.nu!r}): the cosine series cancels")
    return float(out[0]) if scalar else out.reshape(x.shape)
