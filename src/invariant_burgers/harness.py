"""Experiments on one ``SchemeConfig`` each, its frame velocity c included:
error norms (``ErrorReport``, a convergence row too), frame comparisons,
convergence studies, grid-spacing profiles, and their CSV artifacts.

Two jobs use both CPUs through ``_forked``, the one fork path: the CSV
writer formats later runs of a large file's blocks in forked children, and
``frame_comparison`` runs its boosted half in a child beside the rest run
once that run has more than ``_MIN_FORKED_STEPS`` steps. A failed child
makes the writer raise ``OSError``; the frame comparison runs the boosted
half again itself, so it meets the typed error that one CPU does. No
result depends on the CPU count.

Every CSV goes through ``_write_csv``: a header line, then one block per
snapshot or per report row, whose scalar columns (t, scheme, N) repeat on
each of its rows and whose array columns (x, u, gaps) give one value per
row. Identical configurations produce bitwise-identical files: floats are
written with the shortest repr that round-trips, ``repr(v)``, the decimal
point is ``.`` whatever the locale, and lines end in LF alone. A write
that fails leaves no regular file at its path.
"""

from __future__ import annotations

import os
import shutil
import stat
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (NodeCrossingError, NonFiniteSolutionError,
                     SimulationError)
from .exact import Reference, evaluate
from .grid import DiscreteField, mean_spacing, uniform_slice
from .interpolate import InterpKind, interpolate
from .schemes import SchemeConfig, SchemeKind, Trajectory, run
from .symmetry import Generator, GroupElement, apply_field


@dataclass(frozen=True)
class ErrorReport:
    """A run's final deviation from the reference; ``convergence_study``
    sets ``observed_order`` on each row but the first, log2(e_prev / e)."""

    scheme_kind: SchemeKind
    n: int
    h: float
    linf_error: float
    rms_error: float
    observed_order: float | None = None

    def __post_init__(self):
        for name in ("linf_error", "rms_error"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


def _measured_field(traj: Trajectory) -> DiscreteField:
    """Final field, mapped back by the inverse of the run's boost."""
    fld = traj.final
    c = traj.config.frame_velocity
    if c != 0.0:
        g = GroupElement(Generator.GALILEAN_BOOST, -c)
        try:
            fld = apply_field(g, fld)
        except NodeCrossingError as exc:
            # the final layer passed the same check: only the shift failed
            raise NodeCrossingError(
                f"the inverse boost x - c t at c t = {c * fld.grid.t:.6g} "
                f"rounds the gaps of the final positions away; the run "
                f"itself finished") from exc
    return fld


def linf_error(traj: Trajectory, ref: Reference) -> ErrorReport:
    """Max nodal deviation from the reference solution at the final time.

    The reference is evaluated at the final node positions themselves, so
    moving-mesh runs are compared without any re-mapping error. The rms is
    formed from the squared deviations where they neither underflow nor
    overflow and from the deviations scaled by the L-inf error where they
    do, so linf / sqrt(N) <= rms <= linf whenever linf is finite. A
    reference for another nu raises ``ValueError``, an error that is not
    finite ``NonFiniteSolutionError``.
    """
    if ref.nu != traj.config.nu:
        raise ValueError(f"reference for nu={ref.nu!r}, run at "
                         f"nu={traj.config.nu!r}")
    fld = _measured_field(traj)
    u_ref = evaluate(ref, fld.grid.t, fld.grid.x)
    with np.errstate(all="ignore"):
        diff = fld.u - u_ref
        linf = float(np.max(np.abs(diff)))
        rms = float(np.sqrt(np.mean(diff ** 2)))
        if 0.0 < linf < np.inf and not 0.0 < rms < np.inf:
            # the squares underflowed to 0 or overflowed: the same mean
            # over deviations scaled by linf, which keeps them in range
            rms = linf * float(np.sqrt(np.mean((diff / linf) ** 2)))
    if not np.isfinite([linf, rms]).all():
        raise NonFiniteSolutionError(
            f"error against the reference is not finite at "
            f"t={float(fld.grid.t)!r}: linf={linf!r} rms={rms!r}")
    return ErrorReport(
        scheme_kind=traj.config.scheme_kind,
        n=traj.config.n_points,
        h=mean_spacing(fld.grid),
        linf_error=linf,
        rms_error=rms,
    )


def convergence_study(config: SchemeConfig, ns: Sequence[int],
                      ref: Reference) -> list[ErrorReport]:
    """One run per N in ``ns``, each twice the one before as the order
    log2(e_k / e_{k+1}) needs, from u0 = sin x, the initial data of
    ``ref``, with dt recomputed from the mean spacing."""
    ns = list(ns)
    if any(b != 2 * a for a, b in zip(ns, ns[1:])) or not ns:
        raise ValueError(f"each N must be twice the one before, got {ns}")
    rows: list[ErrorReport] = []
    for n in ns:
        cfg = replace(config, n_points=n)
        try:
            report = linf_error(run(cfg, np.sin), ref)
        except (SimulationError, ValueError) as exc:
            # the same object, so a typed failure keeps its step
            exc.args = (f"N={n}: {exc}",)
            raise
        if rows:
            report = replace(report, observed_order=float(
                np.log2(rows[-1].linf_error / report.linf_error)))
        rows.append(report)
    return rows


def frame_comparison(config: SchemeConfig) -> float:
    """Discrepancy between ``config``'s run from u0 = sin x, boosted by its
    frame velocity c, and the same run at rest: 0 at c = 0, run once.

    The boosted run starts from boosted initial data, its final field is
    mapped back with the inverse boost, and both fields are read on a
    common uniform grid through cubic splines; the max-norm difference is
    returned. Symmetry-preserving schemes leave this at roundoff level, and
    so does the constant-frame scheme, which computes in the frame of the
    boost; the fixed-grid scheme does not.

    With two usable CPUs and more than ``_MIN_FORKED_STEPS`` steps, the
    boosted half (run, inverse boost, spline read) runs in a forked child
    beside the rest run and sends back its N values. A child that fails
    is not trusted: the parent runs the boosted half itself, so a failure
    is the typed error, message and step that one CPU gives, and raised in
    the same order.
    """
    rest_config = replace(config, frame_velocity=0.0)
    if config.frame_velocity == 0.0:
        run(rest_config, np.sin)
        return 0.0

    def read(fld: DiscreteField) -> np.ndarray:
        # the comparison lattice, formed after the runs, which refuse a
        # config before they form the same positions
        comp = uniform_slice(config.n_points, config.t_final,
                             config.domain_start, config.domain_length)
        return interpolate(fld.grid.x, fld.u, comp.x,
                           InterpKind.CUBIC_SPLINE, config.domain_length)

    def boosted_half() -> np.ndarray:
        return read(_measured_field(run(config, np.sin)))

    h = config.domain_length / config.n_points
    # the step count ceil(t_final / dt0) against the threshold, compared,
    # not divided: dt0 may underflow to 0
    forks = (_usable_cpus() > 1 and
             config.t_final > _MIN_FORKED_STEPS * config.dt_factor * h * h)
    (rest, sent), statuses = _forked(
        [boosted_half] if forks else [],
        lambda pipes: (run(rest_config, np.sin),
                       [pipe.read() for pipe in pipes]))
    if forks and not any(statuses):
        v_rest, v_back = read(rest.final), np.frombuffer(sent[0])
    else:
        # one CPU's order: the boosted run and its inverse boost, then the
        # two spline reads, so that the first failure is the same one
        f_back = _measured_field(run(config, np.sin))
        v_rest, v_back = read(rest.final), read(f_back)
    return float(np.max(np.abs(v_rest - v_back)))


def grid_spacing_profile(traj: Trajectory) -> np.ndarray:
    """Rows of (x_i, dx_i): periodic gaps keyed by wrapped left-node position."""
    grid = traj.final.grid
    return np.column_stack([grid.wrapped_x(), grid.gaps()])


# ---------------------------------------------------------------------------
# Forked children: the boosted half of a frame comparison, CSV formatting
# ---------------------------------------------------------------------------

# steps a boosted run takes before it forks: the fork costs about 5 ms,
# and it broke even at about 1,000 steps of the cheapest step (FTCS, N = 64)
_MIN_FORKED_STEPS = 1_000


def _usable_cpus() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _forked(jobs: Sequence[Callable[[], object]],
            own: Callable[[list], object]) -> tuple[object, list[int]]:
    """Runs each of ``jobs`` in a forked child while the parent calls
    ``own`` on the read ends of their pipes (binary, in job order); returns
    what ``own`` returned and the children's wait statuses. A child writes
    the bytes its job returns to its pipe and exits 0, or 1 if anything
    raised; what a failed child means is the caller's to decide. Each pipe
    is recorded before its fork and each pid straight after it, and every
    child is reaped, whatever ``own`` raises."""
    pids, pipes = [], []
    try:
        for job in jobs:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                # Python 3.12+ warns on fork while threads run, BLAS's
                # too; ignored, so that under -W error it is reaped too
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:  # a child exits here, never unwinding
                    try:
                        for pipe in pipes:
                            pipe.close()
                        out.write(job())
                        out.close()
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
                pids.append(pid)
        result = own(pipes)
    finally:
        # closed first, so that a child blocked on a full pipe gets EPIPE
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return result, statuses


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

# values a formatting process takes at least: ~40 ms, 10x a fork's 3.5 ms
_MIN_SHARE = 40_000


def _block_text(block) -> str:
    """A block's rows: each array value ``repr(float(v))`` by one %-format
    in C, a scalar column on every row (repr of a float, else str)."""
    cells, arrays = [], []
    for col in block:
        if np.ndim(col):
            arrays.append(np.asarray(col, dtype=float))
            cells.append("%r")
        else:
            text = repr(float(col)) if isinstance(col, float) else str(col)
            cells.append(text.replace("%", "%%"))
    line = ",".join(cells) + "\n"
    if not arrays:
        return line % ()
    values = np.column_stack(arrays).ravel().tolist()
    return (line * len(arrays[0])) % tuple(values)


def _write_csv(path, header: Sequence[str], blocks: Iterable[Sequence]):
    """The one CSV writer. It cuts the blocks into ``parts`` contiguous
    runs, one per usable CPU, block and ``_MIN_SHARE`` values at most, and
    writes the first while forked children format the rest; their pipes are
    copied in order, so no byte depends on ``parts``. A failed child raises
    ``OSError``. A write that fails leaves no file at ``path``: the regular
    file written, the target where ``path`` is a link, is removed; the link
    itself and a device such as /dev/null are not."""
    blocks = list(blocks)
    values = sum(np.size(col) for block in blocks for col in block)
    parts = max(1, min(_usable_cpus(), len(blocks), values // _MIN_SHARE))
    cuts = [len(blocks) * k // parts for k in range(parts + 1)]
    with open(path, "w", newline="\n") as fh:
        try:
            fh.write(",".join(header) + "\n")

            def own(pipes):
                fh.writelines(map(_block_text, blocks[:cuts[1]]))
                fh.flush()
                for pipe in pipes:
                    shutil.copyfileobj(pipe, fh.buffer)

            def formatted(part):
                return lambda: "".join(map(_block_text, part)).encode(
                    fh.encoding)

            _, statuses = _forked([formatted(blocks[lo:hi]) for lo, hi
                                   in zip(cuts[1:], cuts[2:])], own)
            if any(statuses):
                raise OSError(f"CSV formatters ended with wait statuses "
                              f"{statuses}")
            # inside the try, so that a write failing on its last bytes
            # leaves no file either
            fh.flush()
        except BaseException:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and os.path.samestat(
                    st, os.stat(path)):
                os.unlink(os.path.realpath(path))
            raise


def write_trajectory_csv(path, traj: Trajectory):
    """One row per node per snapshot: t,x,u (positions wrapped)."""
    _write_csv(path, ["t", "x", "u"],
               ((fld.grid.t, fld.grid.wrapped_x(), fld.u)
                for fld in traj.snapshots))


def write_errors_csv(path, reports: Sequence[ErrorReport]):
    _write_csv(
        path, ["scheme", "N", "h", "linf", "rms"],
        ((r.scheme_kind.value, r.n, r.h, r.linf_error, r.rms_error)
         for r in reports),
    )


def write_convergence_csv(path, rows: Sequence[ErrorReport]):
    _write_csv(
        path, ["scheme", "N", "h", "linf", "order", "rms"],
        ((r.scheme_kind.value, r.n, r.h, r.linf_error,
          "" if r.observed_order is None else repr(r.observed_order),
          r.rms_error) for r in rows),
    )


def write_spacing_csv(path, traj: Trajectory):
    _write_csv(path, ["x", "dx"], [grid_spacing_profile(traj).T])


def write_exact_csv(path, t: float, x, u):
    _write_csv(path, ["t", "x", "u"], [(float(t), x, u)])


def write_frames_csv(path, config: SchemeConfig, discrepancy: float):
    _write_csv(path, ["scheme", "N", "eps3", "discrepancy"],
               [(config.scheme_kind.value, config.n_points,
                 config.frame_velocity, discrepancy)])
