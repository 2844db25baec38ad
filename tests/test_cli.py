import numpy as np
import pytest

from invariant_burgers.cli import main


def test_run_writes_trajectory_and_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["run", "--scheme", "lagrangian", "--n", "16",
                 "--t-final", "0.05", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 2 * 16
    summary = capsys.readouterr().out
    assert "scheme=lagrangian" in summary and "linf=" in summary


def test_run_errors_out_report(tmp_path):
    out = tmp_path / "traj.csv"
    errors = tmp_path / "errors.csv"
    code = main(["run", "--n", "16", "--t-final", "0.05",
                 "--out", str(out), "--errors-out", str(errors)])
    assert code == 0
    assert errors.read_text().splitlines()[0] == "scheme,N,h,linf,rms"


def test_exact_subcommand(tmp_path):
    out = tmp_path / "exact.csv"
    code = main(["exact", "--n", "32", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 33
    u = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.max(np.abs(u)) < 1.0  # decayed below the initial amplitude


def test_spacing_subcommand(tmp_path):
    out = tmp_path / "spacing.csv"
    code = main(["spacing", "--scheme", "eulerian-adaptive", "--n", "32",
                 "--t-final", "0.1", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,dx"


def test_frames_subcommand(tmp_path, capsys):
    out = tmp_path / "frames.csv"
    code = main(["frames", "--scheme", "lagrangian", "--n", "16",
                 "--t-final", "0.05", "--eps3", "1.0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,N,eps3,discrepancy"
    assert float(lines[1].split(",")[3]) <= 1e-10


def test_convergence_subcommand(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--scheme", "ftcs", "--n-min", "8",
                 "--n-max", "32", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,N,h,linf,order,rms"
    assert len(lines) == 4  # N = 8, 16, 32


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scheme = lagrangian\nn = 16\nt-final = 0.05  # short\n")
    out = tmp_path / "t.csv"
    code = main(["run", "--config", str(cfg), "--n", "8", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "scheme=lagrangian" in summary  # from the file
    assert "N=8" in summary  # flag wins over the file


def test_config_file_values_take_the_flag_types(tmp_path, capsys):
    # dt_factor (float, default None), n (int) and interp (a choice)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scheme = evolution-projection\ndt_factor = 1.5\n"
                   "n = 16\nsnapshot-every = 1\ninterp = linear\n")
    out = tmp_path / "t.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "scheme=evolution-projection N=16" in capsys.readouterr().out
    # dt = 1.5 h^2 with h = 2 pi / 16 reaches t = 0.5 in 3 steps (the
    # default constant would take 2), each stored with the initial layer
    assert len(out.read_text().splitlines()) == 1 + 4 * 16


@pytest.mark.parametrize("line", ["interp = cubic", "n = 1.5",
                                  "dt_factor = fast", "dt-facotr = 1.5"])
def test_config_file_rejects_bad_values(tmp_path, capsys, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    code = main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ValueError step=- message=")
    assert line.split(" = ")[0] in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_reports_step_and_time(tmp_path, capsys):
    code = main(["run", "--dt-factor", "12", "--n", "256", "--t-final", "2",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1  # the error line alone, no numpy warnings
    err = lines[0]
    assert err.startswith("error kind=NonFiniteSolutionError step=")
    step = int(err.split("step=")[1].split()[0])
    assert f"message='step {step} (t=" in err


def test_nonzero_exit_with_machine_readable_error(tmp_path, capsys):
    code = main(["run", "--scheme", "lagrangian", "--n", "16",
                 "--t-final", "4.0", "--dt-factor", "200.0",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=NodeCrossingError step=0")


def test_output_directory_env_override(tmp_path, capsys, monkeypatch):
    from invariant_burgers.cli import OUTDIR_ENV

    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    code = main(["run", "--n", "16", "--t-final", "0.05",
                 "--out", "nested.csv"])
    assert code == 0
    assert (tmp_path / "nested.csv").exists()
