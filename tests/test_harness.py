import math

import numpy as np
import pytest

from invariant_burgers import (
    DiscreteField, NodeCrossingError, SchemeConfig, SchemeKind, TAU,
    Trajectory,
    convergence_study, evaluate, frame_comparison, grid_spacing_profile,
    linf_error, mean_spacing, run, uniform_slice,
)
from invariant_burgers.harness import (write_convergence_csv,
                                       write_errors_csv, write_spacing_csv,
                                       write_trajectory_csv)


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
    assert frame_comparison(config, 0.0) == 0.0


def test_constant_frame_kind_given_as_a_string_measures_alike(coeffs_nu01):
    # the drift of the constant-frame grid is no boost, so linf_error may
    # not undo one and frame_comparison has no boosted run to compare,
    # however the kind is written
    by_enum = config_for(SchemeKind.CONSTANT_FRAME, n_points=32,
                         frame_velocity=0.5)
    by_string = config_for("constant-frame", n_points=32, frame_velocity=0.5)
    assert (linf_error(run(by_string, np.sin), coeffs_nu01)
            == linf_error(run(by_enum, np.sin), coeffs_nu01))
    errors = []
    for config in (by_string, by_enum):
        with pytest.raises(ValueError, match="constant-frame") as info:
            frame_comparison(config, 0.5)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


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
    with pytest.raises(ValueError):
        convergence_study(config, [16, 48], coeffs_nu01)
    with pytest.raises(ValueError):
        convergence_study(config, [], coeffs_nu01)


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
    write_convergence_csv(path, SchemeKind.CLASSICAL_FTCS, rows)
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
