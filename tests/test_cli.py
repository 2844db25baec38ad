import argparse
import warnings

import numpy as np
import pytest

from invariant_burgers.cli import OUTDIR_ENV, build_parser, main


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


@pytest.mark.parametrize("n_min, n_max", [("64", "32"), ("5", "7")])
def test_convergence_rejects_an_empty_range(tmp_path, capsys, n_min, n_max):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--n-min", n_min, "--n-max", n_max,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ValueError step=- message=")
    assert (f"n-min={n_min} and n-max={n_max} leave no resolution of the "
            f"ladder 4..512") in err
    assert not out.exists()


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


def test_abbreviated_flag_wins_over_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scheme = evolution-projection\ndt-factor = 1.5\n"
                   "n = 16\n")
    out = tmp_path / "t.csv"
    code = main(["run", "--config", str(cfg), "--dt", "0.5",
                 "--snapshot-every", "1", "--out", str(out)])
    assert code == 0
    # dt = 0.5 h^2 with h = 2 pi / 16 reaches t = 0.5 in 7 steps (the
    # file's 1.5 would take 3), each stored with the initial layer
    assert len(out.read_text().splitlines()) == 1 + 8 * 16


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


@pytest.mark.parametrize("flag, value, name", [
    ("t-final", "inf", "t_final"),
    ("nu", "inf", "nu"),
    ("eps3", "nan", "frame_velocity"),
    ("dt-factor", "inf", "dt_factor"),
    ("snapshot-every", "-3", "snapshot_every"),
    ("t-final", "1e300", "t_final"),
    ("dt-factor", "1e-300", "dt_factor"),
    ("alpha", "nan", "alpha"),
    ("alpha", "-1", "alpha"),
])
def test_run_rejects_a_hostile_value_by_name(tmp_path, capsys, flag, value,
                                            name):
    code = main(["run", "--n", "8", f"--{flag}", value,
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ValueError step=- message=")
    assert name in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("n", "0", "n must be >= 1"),
    ("n", "-5", "n must be >= 1"),
    ("t-final", "inf", "t must be"),
    ("t-final", "nan", "t must be"),
    ("nu", "inf", "nu must be"),
])
def test_exact_rejects_a_hostile_value_by_name(tmp_path, capsys, flag, value,
                                              message):
    code = main(["exact", f"--{flag}", value,
                 "--out", str(tmp_path / "e.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error kind=ValueError step=- message='{message}")
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "lagrangian", "--n", "32", "--nu", "0.02",
     "--errors-out", "e.csv"],
    ["exact", "--n", "8", "--nu", "0.005", "--t-final", "0.5"],
])
def test_a_reference_that_is_not_finite_is_a_typed_error(tmp_path, capsys,
                                                         monkeypatch, argv):
    # at small nu the series reference cancels to inf; the command must
    # fail cleanly instead of writing inf or leaking a numpy warning
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", "o.csv"])
    assert code == 1
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error kind=NonFiniteSolutionError step=- message='reference "
        "solution is not finite")
    assert not (tmp_path / "e.csv").exists()
    assert not (tmp_path / "o.csv").exists()


def test_frames_rejects_the_constant_frame_scheme(tmp_path, capsys):
    code = main(["frames", "--scheme", "constant-frame", "--n", "16",
                 "--t-final", "0.05", "--eps3", "0.5",
                 "--out", str(tmp_path / "f.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ValueError step=- message=")
    assert "constant-frame" in err
    assert not (tmp_path / "f.csv").exists()


def test_nonzero_exit_with_machine_readable_error(tmp_path, capsys):
    code = main(["run", "--scheme", "lagrangian", "--n", "16",
                 "--t-final", "4.0", "--dt-factor", "200.0",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=NodeCrossingError step=0")


def test_convergence_failure_reports_its_step(tmp_path, capsys):
    code = main(["convergence", "--scheme", "lagrangian", "--t-final", "4",
                 "--dt-factor", "60", "--n-min", "32", "--n-max", "64",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=NodeCrossingError step=0 "
                          "message='N=32: step 0 (t=0): ")


def test_output_directory_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    code = main(["run", "--n", "16", "--t-final", "0.05",
                 "--out", "nested.csv"])
    assert code == 0
    assert (tmp_path / "nested.csv").exists()


# every flag a subcommand does not read, with a value it would accept
UNREAD_FLAGS = [
    ("exact", "scheme", "lagrangian"),
    ("exact", "dt-factor", "1.5"),
    ("exact", "alpha", "5"),
    ("exact", "eps3", "0.5"),
    ("exact", "interp", "linear"),
    ("exact", "snapshot-every", "3"),
    ("convergence", "n", "128"),
    ("convergence", "snapshot-every", "2"),
    ("frames", "snapshot-every", "2"),
    ("spacing", "snapshot-every", "2"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys,
                                                     command, flag, value):
    out = str(tmp_path / "out.csv")
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", value, "--out", out])
    assert exc.value.code == 2
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ValueError step=- message=")
    assert f"config '{flag}': no such flag for {command}" in err


def subcommand_flags():
    """(subcommand, flag action) for every flag of every subcommand, read
    from the parser so that a new flag joins the cases below."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, parser in sub.choices.items()
            for action in parser._actions
            if action.option_strings and action.dest not in ("help",
                                                              "config")]


# a valid value other than the default for each flag that is neither a
# choice nor a path; a new flag missing here fails the round trip by name
NON_DEFAULT = {"n": "12", "nu": "0.2", "t_final": "0.03", "dt_factor": "0.5",
               "alpha": "2.5", "eps3": "0.3", "snapshot_every": "2",
               "n_min": "8", "n_max": "8"}
# flags that keep each run short, unless one is the flag under test
FAST = {"n": "8", "t_final": "0.05", "n_max": "16"}


def non_default(action) -> str:
    if action.choices is not None:
        return next(c for c in reversed(action.choices)
                    if c != action.default)
    if action.type is None:
        return f"{action.dest}.csv"
    assert action.dest in NON_DEFAULT, f"no test value for {action.dest}"
    value = NON_DEFAULT[action.dest]
    assert action.type(value) != action.default
    return value


@pytest.mark.parametrize(
    "command, action",
    [pytest.param(c, a, id=f"{c}-{a.option_strings[0][2:]}")
     for c, a in subcommand_flags()])
def test_every_flag_reads_alike_from_argv_and_config_file(
        tmp_path, capsys, monkeypatch, command, action):
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    flag, value = action.option_strings[0], non_default(action)
    dests = {a.dest for c, a in subcommand_flags() if c == command}
    base = [arg for dest, fast in FAST.items()
            if dest in dests and dest != action.dest
            for arg in (f"--{dest.replace('_', '-')}", fast)]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    outputs = []
    for argv in ([command, *base, flag, value],
                 [command, *base, "--config", str(cfg)]):
        workdir = tmp_path / str(len(outputs))
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        assert files
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
