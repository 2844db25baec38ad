"""Benchmark of the invariant_burgers package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 30

Workloads: stepping-n512, convergence, cli-output (see workloads.py).
With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics (setup_s, wall_s, step_us, peak_rss_mb, pass_frac); with
``--trace 1`` it holds the per-layer metrics of layers.py instead. The
lines before it give the environment, the raw times, each failed check and
failed_frac. End-to-end times are rescaled to a nominal machine speed by a
calibration kernel that runs between passes (see worker.py).

This launcher starts every measured process fresh: the set-up probes and
the workload's worker. It pins BLAS and OpenMP to one thread, so the load
is one single-threaded process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the worker must end early enough for the closing set-up probes
WORKER_DEADLINE_S = 150.0
# set-up probes run before and after the worker, so that their median
# spans the run rather than one moment of a shared machine
SETUP_PROBES = 4
SETUP_CODE = "import invariant_burgers; invariant_burgers.coefficients(0.1)"
WORKLOAD_NAMES = ("stepping-n512", "convergence", "cli-output")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("INVARIANT_BURGERS_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def setup_seconds(env: dict, probes: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the package and build the
    reference coefficients: at nominal speed, by the calibration runs around
    each probe, and raw."""
    from worker import calibrate, rescale

    times, calibs = [], [calibrate()]
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=5)
        times.append(time.perf_counter() - start)
        calibs.append(calibrate())
    return rescale(times, calibs), times


def run_worker(args, env: dict, budget_s: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=budget_s)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float]) -> dict:
    """Times at the nominal machine speed of worker.CALIB_NOMINAL_S."""
    wall_s = statistics.median(result["nominal_walls"])
    passed = result["attempted"] - result["failed"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "step_us": {"value": wall_s / result["steps"] * 1e6, "unit": "us"},
        "peak_rss_mb": {"value": result["peak_rss_kib"] * 1024 / 1e6,
                        "unit": "MB"},
        "pass_frac": {"value": passed / result["attempted"], "unit": "frac"},
    }


def per_layer(result: dict) -> dict:
    from layers import PER_LAYER

    return {name: {"value": result["layers"][name], "unit": unit}
            for name, unit, _, _ in PER_LAYER}


def report(result: dict, metrics: dict, raw_setup: list[float]):
    env = result["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    walls = result["walls"]
    print(f"workload={result['workload']} seed={result['seed']} "
          f"passes={len(walls)} steps_per_pass={result['steps']}")
    setup = f" setup_s={statistics.median(raw_setup):.6g}" if raw_setup else ""
    print(f"raw wall_s={statistics.median(walls):.6g}{setup} (not rescaled)")
    for name, (count, detail) in sorted(result["failures"].items()):
        known = "" if name in result["unexpected"] else " [known defect]"
        print(f"check FAIL {name}: {detail} ({count}x){known}")
    print(f"checks attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4f}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "invariant_burgers" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup, raw_setup = [], []
        if not args.trace:
            setup_seconds(env, 1)  # compiles bytecode; not counted
            setup, raw_setup = setup_seconds(env, SETUP_PROBES)
        budget = WORKER_DEADLINE_S - (time.perf_counter() - started)
        result = run_worker(args, env, budget)
        if not args.trace:
            after, raw_after = setup_seconds(env, SETUP_PROBES)
            setup += after
            raw_setup += raw_after
    except (subprocess.SubprocessError, RuntimeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    report(result, metrics, raw_setup)
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
