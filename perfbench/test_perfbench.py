"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import invariant_burgers as ib  # noqa: E402
from invariant_burgers import cli, grid, harness, schemes  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("inner")
    clock.now = 3.0
    tracer.enter("leaf")
    clock.now = 3.5
    assert tracer.exit() == "inner"
    clock.now = 4.0
    assert tracer.exit() == "outer"
    tracer.enter("inner")
    clock.now = 6.0
    tracer.exit()
    clock.now = 10.0
    assert tracer.exit() is None
    assert tracer.self_s["leaf"] == pytest.approx(0.5)
    assert tracer.self_s["inner"] == pytest.approx(2.5 + 2.0)
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 5.0)
    assert tracer.calls["inner"] == 2
    assert tracer.covered_s == pytest.approx(10.0)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.covered_s)


def test_instrument_rebinds_every_module_and_restores():
    originals = (harness.run, cli.frame_comparison, schemes.invariant_step,
                 grid.GridSlice.__post_init__)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert harness.run is schemes.run is ib.run is cli.run
        assert harness.run is not originals[0]
        assert cli.frame_comparison is harness.frame_comparison
        assert cli.frame_comparison is not originals[1]
        assert schemes.invariant_step is not originals[2]
        tracer.enabled = True
        ib.run(ib.SchemeConfig(scheme_kind=ib.SchemeKind.LAGRANGIAN,
                               n_points=16), np.sin)
        steps = workloads.time_steps(ib.SchemeKind.LAGRANGIAN, 16)
        assert tracer.counts["schemes.steps"] == steps
        assert tracer.calls["grid.advance_lagrangian"] == steps
        assert tracer.calls["grid.containers"] > steps
    finally:
        restore()
    assert (harness.run, cli.frame_comparison, schemes.invariant_step,
            grid.GridSlice.__post_init__) == originals


def test_sweep_counter_reads_zero_without_backend(monkeypatch):
    monkeypatch.setitem(sys.modules, "invariant_burgers._backend", None)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        tracer.enabled = True
        ib.run(ib.SchemeConfig(scheme_kind=ib.SchemeKind.EULERIAN_ADAPTIVE,
                               n_points=16, t_final=0.01), np.sin)
    finally:
        restore()
    assert tracer.counts["grid.sor_sweeps"] == 0


@pytest.mark.parametrize("kind", list(ib.SchemeKind))
def test_time_steps_match_run(kind):
    traj = ib.run(ib.SchemeConfig(scheme_kind=kind, n_points=16), np.sin,
                  snapshot_every=1)
    assert workloads.time_steps(kind, 16) == len(traj.snapshots) - 1


def test_wrong_output_counts_as_failed(tmp_path):
    wl = workloads.SteppingN512(seed=5, workdir=tmp_path)
    config = ib.SchemeConfig(scheme_kind=ib.SchemeKind.CLASSICAL_FTCS,
                             n_points=512, t_final=0.5)
    good = ib.run(config, np.sin)
    final = good.final
    wrong = ib.Trajectory(snapshots=(good.initial, ib.DiscreteField(
        grid=final.grid, u=final.u + 1e-3)), config=config)
    checks = workloads.Checks()
    wl.check({ib.SchemeKind.CLASSICAL_FTCS: good,
              ib.SchemeKind.LAGRANGIAN: wrong}, checks)
    assert checks.attempted == 2
    assert list(checks.failures) == ["linf lagrangian N=512"]
    assert checks.unexpected() == ["linf lagrangian N=512"]


def test_exception_counts_as_failed():
    checks = workloads.Checks()
    assert checks.attempt("boom", lambda: 1 / 0) is None
    assert checks.attempt("fine", lambda: 7) == 7
    assert checks.attempted == 1 and checks.failed == 1


def test_truncated_csv_counts_as_failed(tmp_path):
    wl = workloads.CliOutput(seed=2, workdir=tmp_path)
    kind = ib.SchemeKind.LAGRANGIAN
    path = tmp_path / "short.csv"
    path.write_text("t,x,u\n0.0,0.0,0.0\n")
    checks = workloads.Checks()
    wl._check_trajectory(checks, kind, path)
    assert checks.failed == 1


def test_known_defect_leaves_correct_but_counts():
    checks = workloads.Checks()
    checks.bound("frames lagrangian N=512", 2e-8, workloads.FRAME_BOUND)
    assert checks.failed == 1 and checks.unexpected() == []


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in PER_LAYER]
    import run

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_rescale_uses_the_calibrations_around_each_time():
    import worker

    full = worker.CALIB_NOMINAL_S
    assert worker.rescale([1.0, 2.0], [full, 3.0 * full, full]) \
        == pytest.approx([0.5, 1.0])


@pytest.mark.parametrize("busy_s", [0.0, 0.2])
def test_pass_clock_rescales_by_the_sampled_speed(monkeypatch, busy_s):
    import worker

    nominal = worker.SAMPLE_ITERS * worker.CALIB_NOMINAL_S / worker.CALIB_ITERS
    # a machine at half the nominal speed
    monkeypatch.setattr(worker, "calibrate", lambda iters: 2.0 * nominal)
    with worker.PassClock() as clock:
        deadline = time.perf_counter() + busy_s
        while time.perf_counter() < deadline:
            pass
    assert len(clock.stretches) >= 1 + int(busy_s / worker.SAMPLE_EVERY_S) // 2
    assert clock.nominal == pytest.approx(clock.wall / 2.0)
    assert clock.gross >= clock.wall
