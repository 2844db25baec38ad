"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts a fresh worker per workload, so ``ru_maxrss`` is this
workload's own high-water mark. Passes repeat until ``--seconds`` have gone;
with ``--trace 1`` the first half of that time runs untraced and the second
half traced, which gives both the per-layer numbers and the tracing cost.

On a shared host the same pass can take twice as long from one minute to
the next. A fixed calibration kernel therefore samples the machine's speed
during each pass, and pass times are also reported rescaled to a nominal
machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_COVERAGE = 0.9
CALIB_ITERS = 3000
# Times are rescaled to a machine that runs the calibration kernel's 3000
# iterations in 0.1 s; a 2-vCPU 2.1 GHz x86-64 VM takes 0.10 to 0.17 s.
CALIB_NOMINAL_S = 0.1
# During a pass the kernel runs briefly on a timer signal (about 3% of the
# time) to follow the machine's speed, which on a shared host changes
# within seconds.
SAMPLE_EVERY_S = 0.05
SAMPLE_ITERS = 40


def calibrate(iters: int = CALIB_ITERS) -> float:
    """Seconds for a fixed kernel with the package's operation mix: numpy
    steps on 512 nodes, a finiteness check and float formatting."""
    start = time.perf_counter()
    u = np.sin(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    for i in range(iters):
        up = np.roll(u, -1)
        um = np.roll(u, 1)
        u = u + 1e-4 * (up - 2.0 * u + um) - 1e-4 * u * (up - um)
        if not np.isfinite(u).all():
            raise ArithmeticError("calibration kernel diverged")
        ",".join(repr(float(v)) for v in u[i % 504:i % 504 + 8])
    return time.perf_counter() - start


def nominal_factor(iters: int, seconds: float) -> float:
    """Nominal over measured machine speed, from one kernel run."""
    return iters * (CALIB_NOMINAL_S / CALIB_ITERS) / seconds


class PassClock:
    """Times one pass while sampling the machine's speed.

    Every ``SAMPLE_EVERY_S`` a timer signal runs the kernel for
    ``SAMPLE_ITERS`` iterations. The pass splits into the stretches between
    samples; each stretch is rescaled by the speed sampled at its end. The
    sampling itself is left out of ``wall`` and ``nominal`` but not out of
    ``gross``, the span a tracer sees.
    """

    def __enter__(self):
        self.stretches = []  # (seconds of pass, nominal factor at its end)
        self.start = self._mark = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        factor = nominal_factor(SAMPLE_ITERS, calibrate(SAMPLE_ITERS))
        self.stretches.append((start - self._mark, factor))
        self._mark = time.perf_counter()

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        if not self.stretches:  # a pass shorter than one sampling period
            self._sample(None, None)
            self.stretches[-1] = (end - self.start, self.stretches[-1][1])
        else:
            self.stretches.append((end - self._mark, self.stretches[-1][1]))
        self.gross = end - self.start
        self.wall = sum(t for t, _ in self.stretches)
        self.nominal = sum(t * f for t, f in self.stretches)
        return False


def measure(workload, checks, seconds: float, tracer=None):
    """Time passes until ``seconds`` have gone; checks run untimed.

    Returns the PassClock of each pass.
    """
    clocks = []
    deadline = time.perf_counter() + seconds
    while not clocks or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.enabled = True
        with PassClock() as clock:
            out = workload.run_pass(checks)
        if tracer is not None:
            tracer.enabled = False
        clocks.append(clock)
        workload.check(out, checks)
    return clocks


def rescale(times: list[float], calibs: list[float]) -> list[float]:
    """Times at nominal speed; ``calibs`` are full kernel runs bracketing
    them: one before each and one after the last."""
    return [t * nominal_factor(CALIB_ITERS, (before + after) / 2)
            for t, before, after in zip(times, calibs, calibs[1:])]


def layer_metrics(tracer, untraced, traced) -> dict:
    """Per-pass layer values from the PassClocks of both halves of a run."""
    from layers import PER_LAYER

    passes = len(traced)
    values = {}
    for name, _, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.self_s.get(span, 0.0) / passes
        elif kind == "calls":
            values[name] = tracer.calls.get(span, 0) / passes
        else:
            values[name] = tracer.counts.get(name, 0.0) / passes
    values["trace.coverage_frac"] = (tracer.covered_s
                                     / sum(c.gross for c in traced))
    values["trace.overhead_frac"] = (
        statistics.median(c.nominal for c in traced)
        / statistics.median(c.nominal for c in untraced) - 1.0)
    return values


def environment(ib) -> dict:
    commit = "unknown"  # benchmark checkouts carry no git metadata
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    backend = getattr(ib, "backend_name", None)
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "backend": backend() if backend else "none"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import invariant_burgers as ib
    if ROOT / "src" not in Path(ib.__file__).resolve().parents:
        print(f"invariant_burgers imported from {ib.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checks = workloads.Checks()
        result = {"workload": args.workload, "seed": args.seed,
                  "steps": workload.steps, "env": environment(ib)}
        if args.trace:
            untraced = measure(workload, checks, args.seconds / 2)
            tracer = spans.Tracer()
            restore = spans.instrument(tracer)
            try:
                clocks = measure(workload, checks, args.seconds / 2, tracer)
            finally:
                restore()
            result["layers"] = layer_metrics(tracer, untraced, clocks)
            coverage = result["layers"]["trace.coverage_frac"]
            checks.record("trace coverage", coverage >= MIN_COVERAGE,
                          f"named spans cover {coverage:.3f} of traced time")
        else:
            clocks = measure(workload, checks, args.seconds)
        result.update(walls=[c.wall for c in clocks],
                      nominal_walls=[c.nominal for c in clocks])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker still uses it
            pass
    result["peak_rss_kib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    result["attempted"] = checks.attempted
    result["failed"] = checks.failed
    result["failures"] = checks.failures
    result["unexpected"] = checks.unexpected()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
