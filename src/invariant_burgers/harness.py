"""Experiment layer: error norms against the reference solution, frame
comparisons, convergence studies, grid-spacing profiles, and the CSV
artifacts they produce.

CSV output is locale-independent (``.`` decimal, LF endings) and floats are
written with shortest round-trip repr, so identical configurations produce
bitwise-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import SimulationError
from .exact import FourierCoeffs, evaluate
from .grid import DiscreteField, mean_spacing, uniform_slice
from .interpolate import InterpKind, interpolate
from .schemes import SchemeConfig, SchemeKind, Trajectory, run
from .symmetry import Generator, GroupElement, apply_field


@dataclass(frozen=True)
class ErrorReport:
    scheme_kind: SchemeKind
    n: int
    h: float
    linf_error: float
    rms_error: float

    def __post_init__(self):
        if self.linf_error < 0.0:
            raise ValueError("linf_error must be nonnegative")


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    linf_error: float
    rms_error: float
    observed_order: float | None  # absent for the first row


def _measured_field(traj: Trajectory) -> DiscreteField:
    """Final field, mapped back to the rest frame for moving-frame runs."""
    fld = traj.final
    eps3 = traj.config.boost
    if eps3 != 0.0:
        fld = apply_field(GroupElement(Generator.GALILEAN_BOOST, -eps3), fld)
    return fld


def linf_error(traj: Trajectory, coeffs: FourierCoeffs) -> ErrorReport:
    """Max nodal deviation from the reference solution at the final time.

    The reference is evaluated at the final node positions themselves, so
    moving-mesh runs are compared without any re-mapping error.
    """
    fld = _measured_field(traj)
    u_ref = evaluate(coeffs, fld.grid.t, fld.grid.x)
    diff = fld.u - u_ref
    return ErrorReport(
        scheme_kind=traj.config.scheme_kind,
        n=traj.config.n_points,
        h=mean_spacing(fld.grid),
        linf_error=float(np.max(np.abs(diff))),
        rms_error=float(np.sqrt(np.mean(diff ** 2))),
    )


def convergence_study(config: SchemeConfig, ns: Sequence[int],
                      coeffs: FourierCoeffs) -> list[ConvergenceRow]:
    """One run per resolution from u0 = sin x, the initial data ``coeffs``
    describe, with dt recomputed from the mean spacing."""
    ns = list(ns)
    if any(b != 2 * a for a, b in zip(ns, ns[1:])) or not ns:
        raise ValueError("resolutions must be consecutive powers of two")
    rows: list[ConvergenceRow] = []
    for n in ns:
        cfg = replace(config, n_points=n)
        try:
            report = linf_error(run(cfg, np.sin), coeffs)
        except (SimulationError, ValueError) as exc:
            # the same object, so a typed failure keeps its step
            exc.args = (f"N={n}: {exc}",)
            raise
        order = None
        if rows:
            order = float(np.log2(rows[-1].linf_error / report.linf_error))
        rows.append(ConvergenceRow(n=n, h=report.h,
                                   linf_error=report.linf_error,
                                   rms_error=report.rms_error,
                                   observed_order=order))
    return rows


def frame_comparison(config: SchemeConfig, eps3: float) -> float:
    """Discrepancy between a rest-frame run and a boosted run from
    u0 = sin x.

    The boosted run starts from boosted initial data, its final field is
    mapped back with the inverse boost, and both fields are read on a
    common uniform grid through cubic splines; the max-norm difference is
    returned. Symmetry-preserving schemes leave this at roundoff level,
    the fixed-grid scheme does not.
    """
    rest = run(replace(config, frame_velocity=0.0), np.sin)
    boosted = run(replace(config, frame_velocity=eps3), np.sin)
    f_rest = rest.final
    f_back = _measured_field(boosted)
    comp = uniform_slice(config.n_points, config.t_final,
                         config.domain_start, config.domain_length)
    v_rest = interpolate(f_rest.grid.x, f_rest.u, comp.x,
                         InterpKind.CUBIC_SPLINE, config.domain_length)
    v_back = interpolate(f_back.grid.x, f_back.u, comp.x,
                         InterpKind.CUBIC_SPLINE, config.domain_length)
    return float(np.max(np.abs(v_rest - v_back)))


def grid_spacing_profile(traj: Trajectory) -> np.ndarray:
    """Rows of (x_i, dx_i): periodic gaps keyed by wrapped left-node position."""
    grid = traj.final.grid
    return np.column_stack([grid.wrapped_x(), grid.gaps()])


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy scalars
        return repr(float(value))
    return str(value)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_trajectory_csv(path, traj: Trajectory):
    """One row per node per snapshot: t,x,u (positions wrapped)."""
    def rows():
        for fld in traj.snapshots:
            xw = fld.grid.wrapped_x()
            for xi, ui in zip(xw, fld.u):
                yield (fld.grid.t, float(xi), float(ui))
    _write_csv(path, ["t", "x", "u"], rows())


def write_errors_csv(path, reports: Sequence[ErrorReport]):
    _write_csv(
        path, ["scheme", "N", "h", "linf", "rms"],
        ((r.scheme_kind.value, r.n, r.h, r.linf_error, r.rms_error)
         for r in reports),
    )


def write_convergence_csv(path, scheme_kind: SchemeKind,
                          rows: Sequence[ConvergenceRow]):
    _write_csv(
        path, ["scheme", "N", "h", "linf", "order", "rms"],
        ((scheme_kind.value, r.n, r.h, r.linf_error,
          "" if r.observed_order is None else repr(r.observed_order),
          r.rms_error) for r in rows),
    )


def write_spacing_csv(path, traj: Trajectory):
    _write_csv(path, ["x", "dx"],
               ((float(x), float(dx)) for x, dx in grid_spacing_profile(traj)))


def write_exact_csv(path, t: float, x, u):
    _write_csv(path, ["t", "x", "u"],
               ((float(t), float(xi), float(ui)) for xi, ui in zip(x, u)))


def write_frames_csv(path, scheme_kind: SchemeKind, n: int, eps3: float,
                     discrepancy: float):
    _write_csv(path, ["scheme", "N", "eps3", "discrepancy"],
               [(scheme_kind.value, n, eps3, discrepancy)])
