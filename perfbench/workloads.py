"""The benchmark's workloads: seeded inputs, one timed pass, and the checks
applied afterwards to what the pass produced.

The seed only draws inputs (a lattice offset or a frame velocity), one per
pass; the program sees nothing but those inputs. A pass is the unit that is
timed. Checks run outside the timed region and feed ``Checks``, whose
failed share is the benchmark's ``failed_frac``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import random
from pathlib import Path

import numpy as np

import invariant_burgers as ib
from invariant_burgers import cli

TAU = 2.0 * math.pi
NU = 0.1
T_FINAL = 0.5
FTCS = ib.SchemeKind.CLASSICAL_FTCS
LAGRANGIAN = ib.SchemeKind.LAGRANGIAN
ADAPTIVE = ib.SchemeKind.EULERIAN_ADAPTIVE
CONSTANT = ib.SchemeKind.CONSTANT_FRAME
PROJECTION = ib.SchemeKind.EVOLUTION_PROJECTION
ACCEPTANCE_KINDS = (FTCS, LAGRANGIAN, ADAPTIVE, PROJECTION)

# L-infinity errors at N=64, nu=0.1, t=0.5 from the paper's comparison
# table; constant-frame at zero frame velocity is the FTCS update.
REFERENCE_LINF_N64 = {FTCS: 2.53e-3, LAGRANGIAN: 1.69e-3, ADAPTIVE: 2.50e-3,
                      CONSTANT: 2.53e-3, PROJECTION: 2.63e-3}
# Allowed multiple of the reference, scaled to N at second order. The
# adaptive scheme's error depends on the lattice offset: at N=256 it spans
# 1.5e-4 (offset 0) to 6.5e-4, 4.1 times the scaled reference, so its
# factor is twice that worst case. The other schemes move by < 0.1%.
LINF_FACTOR = {ADAPTIVE: 8.0}
ORDER_TOLERANCE = 0.2
# criterion 3: symmetry-preserving schemes are frame-independent to roundoff
FRAME_BOUND = 1e-10
# Failures the program is known to have at this input size. They are still
# counted in failed_frac; they only leave ``correct`` true.
KNOWN_DEFECTS = {
    "frames lagrangian N=512":
        "nu*dt/min_gap^2 reaches 0.575 > 0.5 at N=512, so rest and boosted "
        "runs part by 7e-9..1.5e-7 (1e-14 at N <= 256)",
}


# golden-ratio stride between the inputs of successive passes
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def seeded_inputs(seed: int, lo: float, hi: float):
    """Inputs for successive passes, spread evenly over [lo, hi) from a
    seeded start, so that a run's median over passes depends little on the
    seed even where the input changes the cost (the adaptive scheme's
    cost has period pi in the lattice offset)."""
    start = random.Random(seed).random()
    for k in itertools.count():
        yield lo + (hi - lo) * ((start + k * GOLDEN) % 1.0)


def linf_bound(kind: ib.SchemeKind, n: int) -> float:
    factor = LINF_FACTOR.get(kind, 2.0)
    return factor * REFERENCE_LINF_N64[kind] * (64.0 / n) ** 2


def time_steps(kind: ib.SchemeKind, n: int) -> int:
    """Steps ``run`` takes: dt = dt_factor h^2, the last cut to hit t_final."""
    h = TAU / n
    dt0 = ib.SchemeConfig(scheme_kind=kind, n_points=n).dt_factor * h * h
    t, steps = 0.0, 0
    while t < T_FINAL - 1e-12 * T_FINAL:
        t += min(dt0, T_FINAL - t)
        steps += 1
    return steps


class Checks:
    """Tally of output checks; an exception counts as one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}  # check name -> [times failed, last detail]

    def record(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            entry = self.failures.setdefault(name, [0, ""])
            entry[0] += 1
            entry[1] = detail

    def attempt(self, name: str, fn, *args):
        """Call ``fn``; on an exception record a failed check, return None."""
        try:
            return fn(*args)
        except Exception as exc:  # any failure of the program is a result
            self.record(f"{name} raised", False,
                        f"{type(exc).__name__}: {exc}")
            return None

    @property
    def failed(self) -> int:
        return sum(count for count, _ in self.failures.values())

    def unexpected(self) -> list[str]:
        return [name for name in self.failures if name not in KNOWN_DEFECTS]

    def bound(self, name: str, value: float, limit: float):
        self.record(name, value <= limit, f"{value:.3e} > {limit:.3e}")


class SteppingN512:
    """run() for four schemes at N=512; first and last snapshots only."""

    name = "stepping-n512"
    n = 512
    kinds = (FTCS, LAGRANGIAN, CONSTANT, PROJECTION)

    def __init__(self, seed: int, workdir: Path):
        self.offsets = seeded_inputs(seed, 0.0, TAU)
        self.coeffs = ib.coefficients(NU)
        self.steps = sum(time_steps(k, self.n) for k in self.kinds)

    def run_pass(self, checks: Checks):
        offset = next(self.offsets)
        return {kind: checks.attempt(f"run {kind.value}", ib.run,
                                     ib.SchemeConfig(
                                         scheme_kind=kind, nu=NU,
                                         n_points=self.n, t_final=T_FINAL,
                                         domain_start=offset),
                                     np.sin)
                for kind in self.kinds}

    def check(self, trajectories, checks: Checks):
        for kind, traj in trajectories.items():
            if traj is None:
                continue
            report = checks.attempt(f"linf {kind.value}", ib.linf_error,
                                    traj, self.coeffs)
            if report is not None:
                checks.bound(f"linf {kind.value} N={self.n}",
                             report.linf_error, linf_bound(kind, self.n))


class Convergence:
    """convergence_study for the acceptance schemes, N = 32..256."""

    name = "convergence"
    ns = (32, 64, 128, 256)

    def __init__(self, seed: int, workdir: Path):
        self.offsets = seeded_inputs(seed, 0.0, TAU)
        self.steps = sum(time_steps(k, n)
                         for k in ACCEPTANCE_KINDS for n in self.ns)

    def run_pass(self, checks: Checks):
        offset = next(self.offsets)
        coeffs = checks.attempt("coefficients", ib.coefficients, NU)
        if coeffs is None:
            return {}
        return {kind: checks.attempt(f"convergence {kind.value}",
                                     ib.convergence_study,
                                     ib.SchemeConfig(
                                         scheme_kind=kind, nu=NU,
                                         t_final=T_FINAL,
                                         domain_start=offset),
                                     self.ns, coeffs)
                for kind in ACCEPTANCE_KINDS}

    def check(self, studies, checks: Checks):
        for kind, rows in studies.items():
            if rows is None:
                continue
            last = rows[-1]
            order = last.observed_order
            checks.record(f"order {kind.value} N={last.n}",
                          abs(order - 2.0) <= ORDER_TOLERANCE,
                          f"observed order {order:.3f}")
            checks.bound(f"linf {kind.value} N={last.n}", last.linf_error,
                         linf_bound(kind, last.n))


class CliOutput:
    """cli.main: run with snapshots and error report, then frames, for the
    Lagrangian and evolution-projection schemes at N=512 in a seeded frame."""

    name = "cli-output"
    n = 512
    kinds = (LAGRANGIAN, PROJECTION)
    snapshot_every = 10

    def __init__(self, seed: int, workdir: Path):
        self.frame_velocities = seeded_inputs(seed, 0.25, 2.0)
        self.workdir = workdir
        steps = {k: time_steps(k, self.n) for k in self.kinds}
        # initial layer, every k-th step, and the last step
        self.snapshots = {k: 1 + s // self.snapshot_every
                          + (s % self.snapshot_every != 0)
                          for k, s in steps.items()}
        # run, plus the rest and boosted runs of frames
        self.steps = 3 * sum(steps.values())

    def _paths(self, kind):
        stem = self.workdir / kind.value
        return (stem.with_suffix(".trajectory.csv"),
                stem.with_suffix(".errors.csv"),
                stem.with_suffix(".frames.csv"))

    def _common(self, kind, eps3):
        return ["--scheme", kind.value, "--n", str(self.n),
                "--nu", repr(NU), "--t-final", repr(T_FINAL),
                "--eps3", repr(eps3)]

    @staticmethod
    def _main(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {sink.getvalue().strip()}")
        return True

    def run_pass(self, checks: Checks):
        eps3 = next(self.frame_velocities)
        done = {}
        for kind in self.kinds:
            traj, errors, _ = self._paths(kind)
            done[("run", kind)] = checks.attempt(
                f"cli run {kind.value}", self._main,
                ["run", *self._common(kind, eps3),
                 "--snapshot-every", str(self.snapshot_every),
                 "--out", str(traj), "--errors-out", str(errors)]) is True
        for kind in self.kinds:
            frames = self._paths(kind)[2]
            done[("frames", kind)] = checks.attempt(
                f"cli frames {kind.value}", self._main,
                ["frames", *self._common(kind, eps3),
                 "--out", str(frames)]) is True
        return done

    def check(self, done, checks: Checks):
        for kind in self.kinds:
            traj, errors, frames = self._paths(kind)
            if done[("run", kind)]:
                checks.attempt(f"csv {kind.value}", self._check_trajectory,
                               checks, kind, traj)
                rows = checks.attempt(f"errors csv {kind.value}", _read_csv,
                                      errors)
                if rows is not None:
                    checks.bound(f"linf {kind.value} N={self.n}",
                                 float(rows[0]["linf"]),
                                 linf_bound(kind, self.n))
            if done[("frames", kind)]:
                rows = checks.attempt(f"frames csv {kind.value}", _read_csv,
                                      frames)
                if rows is not None:
                    checks.bound(f"frames {kind.value} N={self.n}",
                                 float(rows[0]["discrepancy"]), FRAME_BOUND)
        for path in self.workdir.iterdir():
            path.unlink()

    def _check_trajectory(self, checks: Checks, kind, path: Path):
        rows = _read_csv(path)
        values = np.array([[float(r["t"]), float(r["x"]), float(r["u"])]
                           for r in rows])
        expected = self.n * self.snapshots[kind]
        snapshots = len(np.unique(values[:, 0])) if len(rows) else 0
        checks.record(f"csv rows {kind.value}",
                      len(rows) == expected
                      and snapshots == self.snapshots[kind]
                      and bool(np.isfinite(values).all()),
                      f"{len(rows)} rows over {snapshots} times, expected "
                      f"{self.n} x {self.snapshots[kind]}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (SteppingN512, Convergence, CliOutput)}
