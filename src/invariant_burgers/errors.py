"""Exception types raised by the solvers and the error measurement."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for numerical failures (as opposed to bad arguments).

    A ``step`` attribute is attached when the failure happens inside a
    time-stepping loop.
    """

    step: int | None = None


class NodeCrossingError(SimulationError, ValueError):
    """Node positions are not strictly increasing with a positive periodic
    closure gap.

    Raised by the placement of a layer of positions (``grid.Layer.place``):
    of each new mesh, placed by the step loop after the stencil or by the
    projection's remap, of the nodes of a ``GridSlice`` and of the
    interpolants, and of the certifier's sample (``symmetry._terms``).
    Inside a run it means a grid update inverted a mesh interval (time step
    too large), or, on the constant-frame scheme, that its reported
    positions xi + c t are too coarse for the lattice gaps (a frame
    velocity too large); after a run, that the inverse boost x - c t of the
    error measurement rounds the final gaps away. It is also a
    ``ValueError``, because building a grid from unordered nodes is a bad
    argument.
    """


class NoConvergenceError(SimulationError):
    """The initial mesh equidistribution did not settle within its rounds."""


class NonFiniteSolutionError(SimulationError, ValueError):
    """Solution values are not finite.

    Raised by ``grid.require_finite``: on ``DiscreteField`` construction and
    on the values of every step of a run, where it means the step blew up;
    it is also a ``ValueError``, because building a field from non-finite
    values is a bad argument. ``harness.linf_error`` raises it for an error
    against the reference that is not finite.
    """
