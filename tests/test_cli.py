import argparse
import math
import re
import warnings

import numpy as np
import pytest

from invariant_burgers import cli
from invariant_burgers.cli import OUTDIR_ENV, build_parser, main

from oracles import burgers_bessel_mp


def column(path, name):
    """The column ``name`` of a CSV the CLI wrote, as floats."""
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    return np.array([float(line.split(",")[i]) for line in lines[1:]])


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


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n# a comment\n   \nscheme = lagrangian  \n"
                   "\t# indented\nn = 16\n\n")
    by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(["run", "--config", str(cfg), "--out", str(by_file)]) == 0
    assert main(["run", "--scheme", "lagrangian", "--n", "16",
                 "--out", str(by_flags)]) == 0
    assert by_file.read_bytes() == by_flags.read_bytes()
    assert "scheme=lagrangian N=16" in capsys.readouterr().out


def test_config_line_without_an_equals_sign_is_refused(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scheme = lagrangian\nn 16\n")
    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error kind=ValueError step=- message=\"bad config line: 'n 16'\"\n")
    assert not out.exists()


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


def test_a_collapse_of_the_reported_positions_reports_its_step(tmp_path,
                                                             capsys):
    # the first snapshot reports the lattice at x + 1e17 dt, where doubles
    # are farther apart than its nodes; the error names that resolution,
    # not a mesh inversion, and leaves no trajectory behind
    code = main(["run", "--scheme", "constant-frame", "--n", "16",
                 "--eps3", "1e17", "--snapshot-every", "1",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = lines[0]
    assert err.startswith("error kind=NodeCrossingError step=")
    step = int(err.split("step=")[1].split()[0])
    assert f"message='step {step} (t=" in err
    assert "reported positions xi + c t are too coarse" in err
    assert "strictly increasing" not in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["run", "frames"])
def test_a_collapse_of_the_mapped_back_positions_names_the_inverse_boost(
        tmp_path, capsys, command):
    # the FTCS run at c = 1e17 finishes, as spacing shows, but mapping its
    # final positions back by x - c t, at c t = 5e16, rounds their gaps
    # away; the error names that shift, not a mesh inversion
    flags = ["--scheme", "ftcs", "--n", "16", "--eps3", "1e17"]
    assert main(["spacing", *flags, "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    code = main([command, *flags, "--out", str(tmp_path / "o.csv")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = lines[0]
    assert err.startswith("error kind=NodeCrossingError step=- message=")
    assert "the inverse boost x - c t at c t = 5e+16" in err
    assert "the run itself finished" in err
    assert "strictly increasing" not in err
    assert not (tmp_path / "o.csv").exists()


def test_an_allocation_too_large_is_a_typed_error(tmp_path, capsys,
                                                  monkeypatch):
    # exact --n 1e8 asks numpy for rows of 1e8 positions, their cosines,
    # sines and values, 0.8 GB each; whether that allocation fails depends
    # on the machine, so the reference raises here as numpy's MemoryError
    # would
    def refuse(coeffs, t, x):
        raise MemoryError("Unable to allocate 17.9 GiB for an array")

    monkeypatch.setattr(cli, "evaluate", refuse)
    code = main(["exact", "--n", "100000000",
                 "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error kind=MemoryError step=- message='Unable to allocate 17.9 GiB "
        "for an array'"]
    assert not (tmp_path / "e.csv").exists()


def test_constant_frame_at_zero_drift_writes_the_ftcs_trajectory(tmp_path):
    paths = {kind: tmp_path / f"{kind}.csv"
             for kind in ("constant-frame", "ftcs")}
    for kind, path in paths.items():
        assert main(["run", "--scheme", kind, "--n", "32",
                     "--snapshot-every", "3", "--out", str(path)]) == 0
    assert paths["constant-frame"].read_bytes() == paths["ftcs"].read_bytes()


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


def test_exact_refuses_a_tiny_viscosity_at_the_point_cap(tmp_path, capsys):
    code = main(["exact", "--nu", "1e-10", "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error kind=ValueError step=- message='the reference at nu=1e-10, "
        "t=0.5 needs more than 65536 quadrature points per query'"]
    assert not (tmp_path / "e.csv").exists()


def test_exact_at_a_small_viscosity(tmp_path, capsys):
    # the cosine series this form replaced wrote u(pi) = 1567475.96 and
    # u(pi/2) = -0.178 here, and exited 0
    out = tmp_path / "e.csv"
    code = main(["exact", "--n", "8", "--nu", "0.01", "--t-final", "0.5",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        f"exact nu=0.01 t=0.5 N=8 -> {out}\n")
    u = column(out, "u")
    assert abs(u[4]) <= 1e-12, u[4]
    oracle = burgers_bessel_mp(0.01, 0.5, [math.pi / 2])[0]
    assert abs(u[2] - oracle) <= 1e-13 and abs(oracle - 0.897) < 1e-3


@pytest.mark.parametrize("nu, t", [("400", "1"), ("0.1", "1e4")])
def test_exact_where_the_kernel_is_wider_than_the_period(tmp_path, nu, t):
    # a step sized by the kernel alone aliased the period at nu = 400
    # (0.27 sin x, for a solution within e^-400 of 0), and a window
    # unfolded past the period refused t = 1e4 at the point cap
    out = tmp_path / "e.csv"
    code = main(["exact", "--n", "8", "--nu", nu, "--t-final", t,
                 "--out", str(out)])
    assert code == 0
    u = column(out, "u")
    oracle = burgers_bessel_mp(float(nu), float(t), column(out, "x"))
    assert np.max(np.abs(u - oracle)) <= 1e-15, u - oracle


def test_a_long_run_reports_its_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--n", "4", "--t-final", "1e4",
                 "--errors-out", "e.csv", "--out", "o.csv"])
    assert code == 0
    assert column(tmp_path / "e.csv", "linf")[0] <= 1e-15


def test_an_error_whose_squares_underflow_reports_a_positive_rms(
        tmp_path, capsys, monkeypatch):
    # the squared deviations of 4e-192 underflow to 0; the rms printed was
    # 0.0 under a positive L-inf
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--t-final", "1e-320", "--n", "8",
                 "--out", "o.csv"]) == 0
    summary = capsys.readouterr().out
    linf, rms = (float(re.search(rf"{name}=(\S+)", summary).group(1))
                 for name in ("linf", "rms"))
    assert 0.0 < linf and 0.0 < rms <= linf


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "lagrangian", "--n", "32", "--nu", "0.02",
     "--errors-out", "e.csv"],
    ["exact", "--n", "8", "--nu", "0.005", "--t-final", "0.5"],
])
def test_a_reference_where_the_series_cancelled_is_right(tmp_path, capsys,
                                                         monkeypatch, argv):
    # at these nu the cosine series this form replaced cancelled to inf,
    # and the commands failed with NonFiniteSolutionError; now they write
    # the solution, or the error against it, with no numpy warning
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", "o.csv"])
    assert code == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    t = column(tmp_path / "o.csv", "t")
    final = t == t.max()
    x, u = (column(tmp_path / "o.csv", name)[final] for name in "xu")
    nu = float(argv[argv.index("--nu") + 1])
    diff = u - burgers_bessel_mp(nu, t.max(), x)
    if argv[0] == "exact":
        assert np.max(np.abs(diff)) <= 1e-13, diff
    else:
        linf = column(tmp_path / "e.csv", "linf")[0]
        assert abs(linf - np.max(np.abs(diff))) <= 1e-13, linf


def test_frames_measures_the_constant_frame_scheme_as_frame_exact(tmp_path):
    # the bound of acceptance criterion 3
    path = tmp_path / "f.csv"
    code = main(["frames", "--scheme", "constant-frame", "--eps3", "1",
                 "--out", str(path)])
    assert code == 0
    header, row = path.read_text().splitlines()
    assert header == "scheme,N,eps3,discrepancy"
    assert float(row.split(",")[-1]) <= 1e-10


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


# each subcommand, with flags that keep it short, and its default output
# file name
DEFAULT_OUTPUTS = [
    (["run", "--n", "8", "--t-final", "0.05"], "trajectory.csv"),
    (["convergence", "--n-max", "16", "--t-final", "0.05"],
     "convergence.csv"),
    (["frames", "--n", "8", "--t-final", "0.05"], "frames.csv"),
    (["spacing", "--n", "8", "--t-final", "0.05"], "spacing.csv"),
    (["exact", "--n", "8"], "exact.csv"),
]


def test_output_directory_env_override(tmp_path, capsys, monkeypatch):
    # for every subcommand, the default name, a relative --out and a
    # relative --errors-out are written under the directory the environment
    # names; an absolute --out is written where it points
    monkeypatch.chdir(tmp_path)
    for argv, default in DEFAULT_OUTPUTS:
        outdir = tmp_path / argv[0]
        outdir.mkdir()
        monkeypatch.setenv(OUTDIR_ENV, str(outdir))
        expected = {default, "nested.csv"}
        assert main(argv) == 0
        assert main([*argv, "--out", "nested.csv"]) == 0
        if argv[0] == "run":
            assert main([*argv, "--errors-out", "errors.csv"]) == 0
            expected.add("errors.csv")
        absolute = tmp_path / f"{argv[0]}.csv"
        assert main([*argv, "--out", str(absolute)]) == 0
        assert {p.name for p in outdir.iterdir()} == expected, argv[0]
        summary = capsys.readouterr().out
        assert f"-> {outdir / default}\n" in summary
        assert f"-> {absolute}\n" in summary
    # the working directory holds only the subcommands' directories and
    # the absolute outputs
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for argv, _ in DEFAULT_OUTPUTS
        for name in (argv[0], f"{argv[0]}.csv"))


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
