"""Exception types raised by the solvers and the exact-solution module."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for numerical failures (as opposed to bad arguments).

    A ``step`` attribute is attached when the failure happens inside a
    time-stepping loop.
    """

    step: int | None = None


class NodeCrossingError(SimulationError):
    """A grid update would invert a mesh interval (time step too large)."""


class NoConvergenceError(SimulationError):
    """The initial mesh equidistribution did not settle within its rounds."""


class NonFiniteSolutionError(SimulationError):
    """A time step produced non-finite solution values (the run blew up)."""


class NonMonotoneNodesError(SimulationError):
    """Interpolation nodes are not strictly increasing."""


class DomainViolationError(SimulationError):
    """A group transformation was applied outside its domain of definition."""


class TruncationUnsafeError(SimulationError):
    """Series truncation is not accurate enough at the requested time."""


class NoDecayError(SimulationError):
    """Fourier coefficients did not decay below tolerance within the cap."""
