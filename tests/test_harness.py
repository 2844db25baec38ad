import math
import os
import re
import time

import numpy as np
import pytest

from invariant_burgers import (
    DiscreteField, NodeCrossingError, NonFiniteSolutionError, SchemeConfig,
    SchemeKind, TAU, Trajectory,
    convergence_study, evaluate, frame_comparison, grid_spacing_profile,
    linf_error, mean_spacing, run, uniform_slice,
)
from invariant_burgers import cli, harness
from invariant_burgers.harness import (write_convergence_csv,
                                       write_errors_csv, write_exact_csv,
                                       write_frames_csv, write_spacing_csv,
                                       write_trajectory_csv)

from oracles import csv_bytes


def config_for(kind, **kw):
    return SchemeConfig(scheme_kind=kind, **kw)


def test_linf_error_zero_on_self_comparison(coeffs_nu01):
    config = config_for(SchemeKind.CLASSICAL_FTCS, t_final=0.5)
    grid0 = uniform_slice(64)
    grid1 = uniform_slice(64, t=0.5)
    synthetic = Trajectory(
        snapshots=(
            DiscreteField(grid=grid0, u=evaluate(coeffs_nu01, 0.0, grid0.x)),
            DiscreteField(grid=grid1, u=evaluate(coeffs_nu01, 0.5, grid1.x)),
        ),
        config=config,
    )
    report = linf_error(synthetic, coeffs_nu01)
    assert report.linf_error == 0.0
    assert report.rms_error == 0.0


def test_linf_error_reports_geometry(coeffs_nu01):
    traj = run(config_for(SchemeKind.LAGRANGIAN), np.sin)
    report = linf_error(traj, coeffs_nu01)
    assert report.n == 64
    assert report.h == pytest.approx(TAU / 64)
    fld = traj.final
    diff = fld.u - evaluate(coeffs_nu01, fld.grid.t, fld.grid.x)
    assert report.linf_error == pytest.approx(np.max(np.abs(diff)))
    assert report.rms_error <= report.linf_error


def test_frame_comparison_zero_boost_is_exact():
    config = config_for(SchemeKind.CLASSICAL_FTCS, n_points=32, t_final=0.1)
    assert frame_comparison(config) == 0.0


@pytest.mark.parametrize("c, runs", [(0.0, 1), (-0.0, 1), (0.5, 2)])
def test_frame_comparison_runs_the_rest_run_once_at_zero_boost(
        tmp_path, monkeypatch, forks, c, runs):
    # at c = 0 the rest run and the boosted run are the same run. The
    # boosted half is forced into a child, so each call appends a line to
    # a file, which counts the calls of both processes
    calls = tmp_path / "calls"

    def counted(config, initial, *args, **kwargs):
        with open(calls, "a") as fh:
            fh.write(f"{config.frame_velocity!r}\n")
        return run(config, initial, *args, **kwargs)

    monkeypatch.setattr(harness, "run", counted)
    monkeypatch.setattr(harness, "_MIN_FORKED_STEPS", 0)
    config = config_for(SchemeKind.LAGRANGIAN, n_points=16, t_final=0.05,
                        frame_velocity=c)
    discrepancy = frame_comparison(config)
    assert len(calls.read_text().splitlines()) == runs
    assert len(forks) == runs - 1
    if runs == 1:
        assert discrepancy == 0.0


def test_constant_frame_kind_given_as_a_string_measures_alike(coeffs_nu01):
    by_enum = config_for(SchemeKind.CONSTANT_FRAME, n_points=32,
                         frame_velocity=0.5)
    by_string = config_for("constant-frame", n_points=32, frame_velocity=0.5)
    assert (linf_error(run(by_string, np.sin), coeffs_nu01)
            == linf_error(run(by_enum, np.sin), coeffs_nu01))
    assert frame_comparison(by_string) == frame_comparison(by_enum)


def bulk_velocity_error(kind, c, coeffs):
    """L-inf error at N = 64 of a run whose data moves with bulk velocity c."""
    config = config_for(kind, frame_velocity=c)
    return linf_error(run(config, np.sin), coeffs).linf_error


# the paper's comparison at N = 64, where both schemes read 2.530034e-3 at
# c = 0: computed in the frame of the flow's bulk velocity, the error is the
# rest error; on the fixed grid it grows with c
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_constant_frame_error_does_not_depend_on_the_bulk_velocity(
        coeffs_nu01, c):
    rest = bulk_velocity_error(SchemeKind.CONSTANT_FRAME, 0.0, coeffs_nu01)
    moving = bulk_velocity_error(SchemeKind.CONSTANT_FRAME, c, coeffs_nu01)
    assert abs(moving - rest) <= 1e-12


def test_fixed_grid_error_grows_with_the_bulk_velocity(coeffs_nu01):
    kind = SchemeKind.CLASSICAL_FTCS
    assert (bulk_velocity_error(kind, 1.0, coeffs_nu01)
            >= 2.0 * bulk_velocity_error(kind, 0.0, coeffs_nu01))


def test_errors_comparable_across_schemes(coeffs_nu01):
    errors = []
    for kind in (SchemeKind.CLASSICAL_FTCS, SchemeKind.LAGRANGIAN,
                 SchemeKind.EULERIAN_ADAPTIVE, SchemeKind.EVOLUTION_PROJECTION):
        traj = run(config_for(kind), np.sin)
        errors.append(linf_error(traj, coeffs_nu01).linf_error)
    assert max(errors) / min(errors) <= 2.0


def test_convergence_study_rows(coeffs_nu01):
    rows = convergence_study(config_for(SchemeKind.CLASSICAL_FTCS),
                             [16, 32, 64], coeffs_nu01)
    assert [r.n for r in rows] == [16, 32, 64]
    assert rows[0].observed_order is None
    # second-order scheme: error ratio near 4 between doublings
    for row in rows[1:]:
        assert row.observed_order == pytest.approx(2.0, abs=0.3)


def test_convergence_study_rejects_bad_resolutions(coeffs_nu01):
    config = config_for(SchemeKind.CLASSICAL_FTCS)
    with pytest.raises(ValueError, match=r"twice the one before, got \[16, 48"):
        convergence_study(config, [16, 48], coeffs_nu01)
    with pytest.raises(ValueError, match=r"twice the one before, got \[\]"):
        convergence_study(config, [], coeffs_nu01)


def test_convergence_study_needs_doubling_not_powers_of_two(coeffs_nu01):
    rows = convergence_study(config_for(SchemeKind.CLASSICAL_FTCS),
                             [24, 48, 96], coeffs_nu01)
    assert [r.n for r in rows] == [24, 48, 96]
    assert [r.scheme_kind for r in rows] == [SchemeKind.CLASSICAL_FTCS] * 3
    assert rows[0].observed_order is None
    for row in rows[1:]:
        assert row.observed_order == pytest.approx(2.0, abs=0.3)


def test_a_reference_for_another_viscosity_is_refused(coeffs_nu01):
    # measured against the nu = 0.1 table, FTCS at nu = 0.05 read
    # L-inf 3.74e-2 (its own table gives 2.92e-3), and the study at
    # nu = 0.2 an order of -0.09
    traj = run(config_for(SchemeKind.CLASSICAL_FTCS, nu=0.05), np.sin)
    with pytest.raises(ValueError, match="nu=0.1, run at nu=0.05"):
        linf_error(traj, coeffs_nu01)
    config = config_for(SchemeKind.CLASSICAL_FTCS, nu=0.2)
    with pytest.raises(ValueError, match="^N=16: .*nu=0.1, run at nu=0.2"):
        convergence_study(config, [16, 32], coeffs_nu01)


def test_convergence_study_failure_keeps_its_step(coeffs_nu01):
    config = config_for(SchemeKind.LAGRANGIAN, t_final=4.0,
                        dt_factor=60.0)  # dt*|u_x| > 1: crossing
    with pytest.raises(NodeCrossingError) as excinfo:
        convergence_study(config, [32, 64], coeffs_nu01)
    assert excinfo.value.step == 0
    assert str(excinfo.value).startswith("N=32: step 0 (t=0): ")


def test_spacing_profile_uniform_for_fixed_grid():
    traj = run(config_for(SchemeKind.CLASSICAL_FTCS, n_points=32,
                          t_final=0.05), np.sin)
    profile = grid_spacing_profile(traj)
    h = mean_spacing(traj.final.grid)
    np.testing.assert_allclose(profile[:, 1], h, rtol=0, atol=1e-12)
    assert np.all((profile[:, 0] >= 0.0) & (profile[:, 0] < TAU))


def test_spacing_profile_concentrates_at_front():
    traj = run(config_for(SchemeKind.EULERIAN_ADAPTIVE), np.sin)
    profile = grid_spacing_profile(traj)
    x_min_gap = profile[np.argmin(profile[:, 1]), 0]
    assert abs(x_min_gap - math.pi) <= 0.5


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def test_trajectory_csv_schema_and_reproducibility(tmp_path, coeffs_nu01):
    config = config_for(SchemeKind.LAGRANGIAN, n_points=16, t_final=0.05)
    paths = []
    for name in ("a.csv", "b.csv"):
        traj = run(config, np.sin, snapshot_every=3)
        path = tmp_path / name
        write_trajectory_csv(path, traj)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    text = paths[0].decode()
    lines = text.split("\n")
    assert lines[0] == "t,x,u"
    assert "\r" not in text
    # one row per node per snapshot plus header and trailing newline
    traj = run(config, np.sin, snapshot_every=3)
    assert len(lines) == 1 + 16 * len(traj.snapshots) + 1


def test_errors_csv_schema(tmp_path, coeffs_nu01):
    traj = run(config_for(SchemeKind.CLASSICAL_FTCS, n_points=16,
                          t_final=0.05), np.sin)
    path = tmp_path / "errors.csv"
    write_errors_csv(path, [linf_error(traj, coeffs_nu01)])
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,N,h,linf,rms"
    fields = lines[1].split(",")
    assert fields[0] == "ftcs"
    assert int(fields[1]) == 16
    assert float(fields[3]) > 0.0


def test_convergence_csv_schema(tmp_path, coeffs_nu01):
    rows = convergence_study(config_for(SchemeKind.CLASSICAL_FTCS),
                             [16, 32], coeffs_nu01)
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,N,h,linf,order,rms"
    assert lines[1].split(",")[4] == ""  # first row carries no order
    assert float(lines[2].split(",")[4]) == pytest.approx(2.0, abs=0.3)


def test_spacing_csv_schema(tmp_path):
    traj = run(config_for(SchemeKind.CLASSICAL_FTCS, n_points=16,
                          t_final=0.05), np.sin)
    path = tmp_path / "spacing.csv"
    write_spacing_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,dx"
    assert len(lines) == 17


def test_an_error_report_refuses_a_negative_linf():
    # and a NaN or infinite L-inf error, and any rms error that is not
    # finite and >= 0, which a check of the L-inf error's sign alone let
    # through to the errors CSV
    for linf, rms, name in [(-1e-3, 0.0, "linf_error"),
                            (math.nan, 0.0, "linf_error"),
                            (math.inf, 0.0, "linf_error"),
                            (1e-3, -1.0, "rms_error"),
                            (1e-3, math.nan, "rms_error"),
                            (1e-3, -math.inf, "rms_error")]:
        with pytest.raises(ValueError) as refused:
            harness.ErrorReport(SchemeKind.CLASSICAL_FTCS, 4, TAU / 4, linf,
                                rms)
        assert refused.type is ValueError
        assert str(refused.value) == f"{name} must be finite and nonnegative"
    report = harness.ErrorReport(SchemeKind.CLASSICAL_FTCS, 4, TAU / 4, 0.0,
                                 -0.0)
    assert report.linf_error == 0.0 == report.rms_error


def test_linf_error_rejects_an_error_that_is_not_finite(coeffs_nu01,
                                                        monkeypatch):
    # finite values measured against a reference that is not finite
    monkeypatch.setattr(harness, "evaluate",
                        lambda ref, t, x: np.full(len(x), np.inf))
    traj = run(config_for(SchemeKind.CLASSICAL_FTCS, n_points=16,
                          t_final=0.01), np.sin)
    with pytest.raises(NonFiniteSolutionError, match="not finite"):
        linf_error(traj, coeffs_nu01)


def far_final_field(coeffs, offset):
    """A trajectory whose final values are the reference's, offset by
    ``offset``."""
    grid = uniform_slice(16, t=0.5)
    final = evaluate(coeffs, 0.5, grid.x) + offset
    return Trajectory(
        snapshots=(DiscreteField(grid=uniform_slice(16), u=np.sin(grid.x)),
                   DiscreteField(grid=grid, u=final)),
        config=config_for(SchemeKind.CLASSICAL_FTCS))


@pytest.mark.parametrize("traj", [
    # the squared deviations overflow: the unscaled rms was inf, and the
    # report refused the finite error
    lambda coeffs: far_final_field(coeffs, 1e200),
    # they underflow: the unscaled rms was 0 under an L-inf of 4e-192
    lambda coeffs: run(config_for(SchemeKind.CLASSICAL_FTCS, n_points=8,
                                  t_final=1e-320), np.sin),
], ids=["overflow", "underflow"])
def test_the_rms_lies_between_linf_over_root_n_and_linf(coeffs_nu01, traj):
    traj = traj(coeffs_nu01)
    report = linf_error(traj, coeffs_nu01)
    assert 0.0 < report.linf_error < math.inf
    assert (report.linf_error / math.sqrt(traj.config.n_points)
            <= report.rms_error <= report.linf_error)


@pytest.fixture(scope="module")
def wrapping_run():
    """A boosted Lagrangian run whose nodes drift past the period's end, so
    later snapshots wrap some x."""
    traj = run(config_for(SchemeKind.LAGRANGIAN, n_points=32, t_final=0.3,
                          frame_velocity=1.5), np.sin, snapshot_every=2)
    assert len(traj.snapshots) >= 3
    assert any(np.any(f.grid.wrapped_x() != f.grid.x) for f in traj.snapshots)
    return traj


def test_a_node_a_hair_below_the_start_is_written_at_the_start(tmp_path):
    # node 0 of a Lagrangian run from sin x at c = 0 (u = 0) drifts a hair
    # below x = 0 by roundoff, and so does a node of the adaptive mesh at
    # t = 0.5; the trajectory CSV and the spacing profile wrote those at
    # x = 2 pi, outside [0, 2 pi)
    lagrangian = run(config_for(SchemeKind.LAGRANGIAN, n_points=16), np.sin,
                     snapshot_every=1)
    assert any(f.grid.x.min() < 0.0 for f in lagrangian.snapshots)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, lagrangian)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    adaptive = run(config_for(SchemeKind.EULERIAN_ADAPTIVE), np.sin)
    assert adaptive.final.grid.x.min() < 0.0
    for x in (rows[:, 1], grid_spacing_profile(adaptive)[:, 0]):
        assert np.all((0.0 <= x) & (x < TAU))
        assert np.count_nonzero(x == 0.0) >= 1


AWKWARD = np.array([-0.0, 5e-324, 1e-7, 1e16, 0.1 + 0.2, -1.5e300, 2.0])


@pytest.fixture(scope="module")
def csv_cases(wrapping_run, coeffs_nu01):
    """Every CSV kind: (writer, its call, header, rows the per-value oracle
    formats)."""
    coeffs = coeffs_nu01
    ftcs = run(config_for(SchemeKind.CLASSICAL_FTCS, n_points=16,
                          t_final=0.05), np.sin)
    reports = [linf_error(wrapping_run, coeffs), linf_error(ftcs, coeffs)]
    conv = convergence_study(config_for(SchemeKind.CLASSICAL_FTCS), [16, 32],
                             coeffs)
    assert conv[0].observed_order is None
    x = np.arange(64) * (TAU / 64)
    u = evaluate(coeffs, 0.5, x)
    t_odd = 0.1 + 0.2
    return {
        "trajectory": (
            write_trajectory_csv,
            lambda p: write_trajectory_csv(p, wrapping_run), ["t", "x", "u"],
            [(f.grid.t, float(xi), float(ui)) for f in wrapping_run.snapshots
             for xi, ui in zip(f.grid.wrapped_x(), f.u)]),
        "errors": (
            write_errors_csv,
            lambda p: write_errors_csv(p, reports),
            ["scheme", "N", "h", "linf", "rms"],
            [(r.scheme_kind.value, r.n, r.h, r.linf_error, r.rms_error)
             for r in reports]),
        "convergence": (
            write_convergence_csv,
            lambda p: write_convergence_csv(p, conv),
            ["scheme", "N", "h", "linf", "order", "rms"],
            [("ftcs", r.n, r.h, r.linf_error,
              "" if r.observed_order is None else repr(r.observed_order),
              r.rms_error) for r in conv]),
        "spacing": (
            write_spacing_csv,
            lambda p: write_spacing_csv(p, wrapping_run), ["x", "dx"],
            [(float(a), float(b))
             for a, b in grid_spacing_profile(wrapping_run)]),
        "exact": (
            write_exact_csv,
            lambda p: write_exact_csv(p, 0.5, x, u), ["t", "x", "u"],
            [(0.5, float(a), float(b)) for a, b in zip(x, u)]),
        "exact-awkward": (
            write_exact_csv,
            lambda p: write_exact_csv(p, t_odd, AWKWARD, AWKWARD[::-1]),
            ["t", "x", "u"],
            [(t_odd, float(a), float(b))
             for a, b in zip(AWKWARD, AWKWARD[::-1])]),
        "exact-integer-t": (
            write_exact_csv,
            lambda p: write_exact_csv(p, 0, x[:4], u[:4]), ["t", "x", "u"],
            [(0.0, float(a), float(b)) for a, b in zip(x[:4], u[:4])]),
        "frames": (
            write_frames_csv,
            lambda p: write_frames_csv(
                p, config_for(SchemeKind.LAGRANGIAN, n_points=512,
                              frame_velocity=0.75), 3.4e-7),
            ["scheme", "N", "eps3", "discrepancy"],
            [("lagrangian", 512, 0.75, 3.4e-7)]),
    }


CSV_KINDS = ["trajectory", "errors", "convergence", "spacing", "exact",
             "exact-awkward", "exact-integer-t", "frames"]


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_csv_bytes_match_the_per_value_oracle(tmp_path, csv_cases, kind):
    _, write, header, rows = csv_cases[kind]
    path = tmp_path / f"{kind}.csv"
    write(path)
    assert path.read_bytes() == csv_bytes(header, rows)


def test_trajectory_csv_round_trips_bit_for_bit(tmp_path, wrapping_run):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, wrapping_run)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "t,x,u" and lines[-1] == ""
    fields = [line.split(",") for line in lines[1:-1]]
    number = re.compile(r"-?\d+(\.\d+)?(e[-+]\d+)?")
    assert all(len(row) == 3 and all(number.fullmatch(v) for v in row)
               for row in fields)
    table = np.array([[float(v) for v in row] for row in fields])
    n = wrapping_run.config.n_points
    assert len(table) == n * len(wrapping_run.snapshots)
    for k, fld in enumerate(wrapping_run.snapshots):
        block = table[k * n:(k + 1) * n]
        for col, want in zip(block.T, (np.full(n, fld.grid.t),
                                       fld.grid.wrapped_x(), fld.u)):
            assert np.array_equal(col.view(np.int64), want.view(np.int64))


def test_every_writer_goes_through_the_one_csv_writer(tmp_path, monkeypatch,
                                                      csv_cases):
    # the benchmark's writer span wraps harness._write_csv by name, so a
    # writer that formats or opens its own file would escape it
    calls = []
    monkeypatch.setattr(harness, "_write_csv",
                        lambda path, header, blocks: calls.append(
                            (path, list(header), list(blocks))))
    for kind in CSV_KINDS:
        _, write, header, _ = csv_cases[kind]
        path = tmp_path / f"{kind}.csv"
        calls.clear()
        write(path)
        assert [c[:2] for c in calls] == [(path, header)], kind
        assert not path.exists(), kind
    writers = {name for name in vars(harness)
               if name.startswith("write_") and name.endswith("_csv")}
    assert writers == {csv_cases[k][0].__name__ for k in CSV_KINDS}


# ---------------------------------------------------------------------------
# The split write: runs of blocks formatted by forked children
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """Four usable CPUs whatever the machine has; collects the pid of each
    child forked."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def formatter_failing(where):
    """``harness._block_text``, raising in the parent or in a child only;
    a child forked after the patch runs the patch too."""
    parent, block_text = os.getpid(), harness._block_text

    def failing(block):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError(f"formatter failed in the {where}")
        return block_text(block)

    return failing


@pytest.mark.parametrize("kind", ["trajectory", "errors", "convergence"])
def test_split_csv_bytes_match_the_per_value_oracle(tmp_path, monkeypatch,
                                                    forks, csv_cases, kind):
    # a share of one value: one part per block, up to the four CPUs
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    _, write, header, rows = csv_cases[kind]
    path = tmp_path / f"{kind}.csv"
    write(path)
    assert forks
    assert path.read_bytes() == csv_bytes(header, rows)
    assert_no_child_left()


def test_a_large_trajectory_is_split_and_keeps_its_bytes(tmp_path, forks):
    traj = run(config_for(SchemeKind.LAGRANGIAN, n_points=512,
                          frame_velocity=1.3), np.sin, snapshot_every=10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    assert len(forks) == 3
    assert path.read_bytes() == csv_bytes(
        ["t", "x", "u"],
        [(f.grid.t, float(xi), float(ui)) for f in traj.snapshots
         for xi, ui in zip(f.grid.wrapped_x(), f.u)])
    assert_no_child_left()


@pytest.mark.parametrize("cpus", ["one", "unknown"])
def test_one_cpu_writes_serially(tmp_path, monkeypatch, csv_cases, cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    _, write, header, rows = csv_cases["trajectory"]
    path = tmp_path / "traj.csv"
    write(path)
    assert path.read_bytes() == csv_bytes(header, rows)


def test_a_failing_child_raises_oserror_and_is_reaped(tmp_path, monkeypatch,
                                                      forks, wrapping_run):
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    monkeypatch.setattr(harness, "_block_text", formatter_failing("child"))
    with pytest.raises(OSError, match="ended with wait statuses"):
        write_trajectory_csv(tmp_path / "traj.csv", wrapping_run)
    assert forks
    assert_no_child_left()


def test_a_failing_child_is_one_error_line_from_the_cli(tmp_path, monkeypatch,
                                                        forks, capsys):
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    monkeypatch.setattr(harness, "_block_text", formatter_failing("child"))
    code = cli.main(["run", "--scheme", "lagrangian", "--n", "16",
                     "--t-final", "0.05", "--snapshot-every", "1",
                     "--out", str(tmp_path / "traj.csv")])
    assert code == 1 and forks
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error kind=OSError step=- message=")
    assert_no_child_left()


def test_a_failing_parent_unblocks_and_reaps_its_children(tmp_path,
                                                          monkeypatch, forks):
    # each child's block is about 1 MB of text, more than a pipe holds, so
    # the children are still writing when the parent fails on its own
    # block; closing the pipes must end them, or this test hangs
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    monkeypatch.setattr(harness, "_block_text", formatter_failing("parent"))
    x = np.linspace(0.0, 1.0, 20_000)
    with pytest.raises(RuntimeError, match="failed in the parent"):
        harness._write_csv(tmp_path / "big.csv", ["t", "x", "u"],
                           [(0.5, x, x + 1.0)] * 4)
    assert len(forks) == 3
    assert_no_child_left()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch, forks,
                                       wrapping_run, where):
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    monkeypatch.setattr(harness, "_block_text", formatter_failing(where))
    path = tmp_path / "traj.csv"
    path.write_text("an earlier file\n")
    with pytest.raises((OSError, RuntimeError)):
        write_trajectory_csv(path, wrapping_run)
    assert forks
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()


def test_a_failed_write_through_a_link_keeps_the_link(tmp_path, monkeypatch,
                                                      wrapping_run):
    monkeypatch.setattr(harness, "_block_text", formatter_failing("parent"))
    link = tmp_path / "traj.csv"
    link.symlink_to(tmp_path / "target.csv")
    with pytest.raises(RuntimeError):
        write_trajectory_csv(link, wrapping_run)
    assert link.is_symlink()
    # the target the failed write truncated is removed
    assert not (tmp_path / "target.csv").exists()


def test_discard_keeps_what_the_write_did_not_leave(tmp_path):
    # a FIFO is not a regular file, and a file put in place of the one
    # written is another's; neither is removed
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    harness.discard(fifo)
    path = tmp_path / "traj.csv"
    path.write_text("written\n")
    written = os.stat(path)
    (tmp_path / "another.csv").write_text("another file\n")
    os.replace(tmp_path / "another.csv", path)
    harness.discard(path, written)
    harness.discard(tmp_path / "missing.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "traj.csv"]


def test_a_csv_has_the_mode_a_plain_open_gives(tmp_path, wrapping_run):
    plain = tmp_path / "plain"
    plain.open("w").close()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, wrapping_run)
    assert path.stat().st_mode == plain.stat().st_mode


def test_a_split_write_to_dev_null_succeeds(monkeypatch, forks, capsys):
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    code = cli.main(["run", "--scheme", "lagrangian", "--n", "16",
                     "--t-final", "0.05", "--snapshot-every", "1",
                     "--out", os.devnull])
    assert code == 0 and forks
    assert capsys.readouterr().err == ""
    assert_no_child_left()


# ---------------------------------------------------------------------------
# The frame comparison: the boosted half in a forked child
# ---------------------------------------------------------------------------

@pytest.fixture
def statuses(monkeypatch):
    """Collects the wait status of each child ``harness._forked`` reaps."""
    got, forked = [], harness._forked

    def recorded(jobs, own):
        result, statuses = forked(jobs, own)
        got.extend(statuses)
        return result, statuses

    monkeypatch.setattr(harness, "_forked", recorded)
    return got


@pytest.mark.parametrize("c", [0.5, -1.3])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_a_forked_frame_comparison_is_bit_for_bit(monkeypatch, forks,
                                                  statuses, kind, c):
    monkeypatch.setattr(harness, "_MIN_FORKED_STEPS", 0)
    config = config_for(kind, n_points=32, t_final=0.1, frame_velocity=c)
    two = frame_comparison(config)
    assert len(forks) == 1 and statuses == [0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = frame_comparison(config)
    assert len(forks) == 1
    assert two.hex() == one.hex()
    assert_no_child_left()


def test_a_failing_boosted_half_is_the_one_cpu_error(monkeypatch, forks,
                                                     statuses):
    # c t = 5e16 rounds the inverse boost's positions together: the
    # boosted half fails after its run, with no step
    monkeypatch.setattr(harness, "_MIN_FORKED_STEPS", 0)
    config = config_for(SchemeKind.CLASSICAL_FTCS, frame_velocity=1e17)
    errors = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with pytest.raises(NodeCrossingError) as info:
            frame_comparison(config)
        errors.append((type(info.value), str(info.value), info.value.step))
    assert len(forks) == 1 and statuses[0] != 0
    assert errors[0] == errors[1]
    assert errors[0][2] is None
    assert_no_child_left()


def test_a_failing_rest_half_reaps_the_running_child(monkeypatch, forks):
    # the child is still in its run when the parent's rest run fails; the
    # parent must wait for it and reap it, or this test leaves it behind
    monkeypatch.setattr(harness, "_MIN_FORKED_STEPS", 0)

    def rest_fails(config, initial, *args, **kwargs):
        if config.frame_velocity == 0.0:
            raise NonFiniteSolutionError("the rest run failed")
        time.sleep(0.5)
        return run(config, initial, *args, **kwargs)

    monkeypatch.setattr(harness, "run", rest_fails)
    start = time.monotonic()
    with pytest.raises(NonFiniteSolutionError, match="the rest run failed"):
        frame_comparison(config_for(SchemeKind.LAGRANGIAN, n_points=16,
                                    t_final=0.05, frame_velocity=0.5))
    assert len(forks) == 1
    assert_no_child_left()
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize("case", ["one-cpu", "unknown-cpus", "at-threshold",
                                  "cli-default", "zero-boost"])
def test_frame_comparison_forks_only_when_it_pays(monkeypatch, case):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    if case == "cli-default":
        # the module's threshold against N = 64's 34 Lagrangian steps
        config = config_for(SchemeKind.LAGRANGIAN, frame_velocity=0.5)
    else:
        config = config_for(SchemeKind.LAGRANGIAN, n_points=16, t_final=0.05,
                            frame_velocity=0.0 if case == "zero-boost"
                            else 0.5)
        h = config.domain_length / config.n_points
        steps = math.ceil(config.t_final / (config.dt_factor * h * h))
        monkeypatch.setattr(harness, "_MIN_FORKED_STEPS",
                            steps if case == "at-threshold" else 0)
    if case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "unknown-cpus":
        monkeypatch.delattr(os, "sched_getaffinity")
    assert frame_comparison(config) >= 0.0
