"""Command-line interface.

Subcommands: ``run`` (trajectory CSV), ``convergence`` (error-vs-N CSV),
``frames`` (rest-vs-boosted discrepancy), ``spacing`` (final grid gaps),
``exact`` (reference solution samples). A flat key=value config file can
seed the flags; explicit flags win. On a numerical failure the process
exits nonzero after printing one machine-readable ``error ...`` line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import SimulationError
from .exact import coefficients, evaluate
from .grid import TAU
from .harness import (frame_comparison, linf_error, write_convergence_csv,
                      write_errors_csv, write_exact_csv, write_frames_csv,
                      write_spacing_csv, write_trajectory_csv,
                      convergence_study)
from .interpolate import InterpKind
from .schemes import SchemeConfig, SchemeKind, run

OUTDIR_ENV = "INVARIANT_BURGERS_OUTDIR"
CONVERGENCE_NS = (4, 8, 16, 32, 64, 128, 256, 512)


def _add_common(parser: argparse.ArgumentParser, n: bool = True,
                scheme: bool = True):
    """Add the flags a subcommand reads; ``n`` and ``scheme`` false leave
    out the grid size and the scheme settings."""
    parser.add_argument("--config", help="flat key=value file with defaults "
                                         "for the flags below")
    if n:
        parser.add_argument("--n", type=int, default=64, help="grid points")
    parser.add_argument("--nu", type=float, default=0.1, help="viscosity")
    parser.add_argument("--t-final", type=float, default=0.5)
    parser.add_argument("--out", help="output CSV path")
    if not scheme:
        return
    parser.add_argument("--scheme", choices=[k.value for k in SchemeKind],
                        default=SchemeKind.CLASSICAL_FTCS.value)
    parser.add_argument("--dt-factor", type=float, default=None,
                        help="C in dt = C h^2 (default: the scheme's "
                             "calibrated constant)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="monitor weight")
    parser.add_argument("--eps3", type=float, default=0.0,
                        help="frame velocity: boosts the initial data, or "
                             "for the constant-frame scheme sets the grid "
                             "drift velocity")
    parser.add_argument("--interp", choices=[k.value for k in InterpKind],
                        default=InterpKind.QUADRATIC.value)


def _apply_config_file(args: argparse.Namespace,
                       parser: argparse.ArgumentParser,
                       argv: list[str]) -> argparse.Namespace:
    """Reparse ``argv`` with the file values as the subcommand's defaults,
    so every flag given on the command line, abbreviated or not, wins."""
    if not args.config:
        return args
    values = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = key, value
    sub = next(a for a in parser._actions if isinstance(
        a, argparse._SubParsersAction)).choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.option_strings}
    defaults = {}
    for key, (written, value) in values.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"config {written!r}: no such flag for "
                             f"{args.command}")
        # the flag's own converter: a default of None says nothing of type
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise ValueError(f"config {key} = {value!r}: not a valid "
                                 f"{action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {key} = {value!r}: choose from "
                             f"{', '.join(map(str, action.choices))}")
        defaults[key] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_from(args: argparse.Namespace, n_points: int) -> SchemeConfig:
    return SchemeConfig(
        scheme_kind=args.scheme,
        nu=args.nu,
        n_points=n_points,
        t_final=args.t_final,
        dt_factor=args.dt_factor,
        alpha=args.alpha,
        frame_velocity=args.eps3,
        interp_kind=args.interp,
    )


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    path = args.out or default_name
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return path


def _cmd_run(args) -> int:
    config = _config_from(args, args.n)
    traj = run(config, np.sin, snapshot_every=args.snapshot_every)
    # the report first: a refused reference leaves no trajectory file behind
    report = linf_error(traj, coefficients(config.nu))
    path = _out_path(args, "trajectory.csv")
    write_trajectory_csv(path, traj)
    if args.errors_out:
        write_errors_csv(args.errors_out, [report])
    print(f"scheme={config.scheme_kind.value} N={config.n_points} "
          f"h={report.h!r} linf={report.linf_error!r} "
          f"rms={report.rms_error!r} -> {path}")
    return 0


def _cmd_convergence(args) -> int:
    # the study sets the grid size of each row
    config = _config_from(args, CONVERGENCE_NS[0])
    ns = [n for n in CONVERGENCE_NS if args.n_min <= n <= args.n_max]
    if not ns:
        raise ValueError(
            f"n-min={args.n_min} and n-max={args.n_max} leave no resolution "
            f"of the ladder {CONVERGENCE_NS[0]}..{CONVERGENCE_NS[-1]} "
            f"(powers of two)")
    coeffs = coefficients(config.nu)
    rows = convergence_study(config, ns, coeffs)
    path = _out_path(args, "convergence.csv")
    write_convergence_csv(path, config.scheme_kind, rows)
    for r in rows:
        order = "-" if r.observed_order is None else f"{r.observed_order:.3f}"
        print(f"N={r.n:4d} h={r.h:.6e} linf={r.linf_error:.6e} order={order}")
    print(f"-> {path}")
    return 0


def _cmd_frames(args) -> int:
    config = _config_from(args, args.n)
    d = frame_comparison(config, args.eps3)
    path = _out_path(args, "frames.csv")
    write_frames_csv(path, config.scheme_kind, config.n_points, args.eps3, d)
    print(f"scheme={config.scheme_kind.value} eps3={args.eps3!r} "
          f"discrepancy={d!r} -> {path}")
    return 0


def _cmd_spacing(args) -> int:
    config = _config_from(args, args.n)
    traj = run(config, np.sin)
    path = _out_path(args, "spacing.csv")
    write_spacing_csv(path, traj)
    print(f"scheme={config.scheme_kind.value} N={config.n_points} -> {path}")
    return 0


def _cmd_exact(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    coeffs = coefficients(args.nu)
    x = np.arange(args.n) * (TAU / args.n)
    u = evaluate(coeffs, args.t_final, x)
    path = _out_path(args, "exact.csv")
    write_exact_csv(path, args.t_final, x, u)
    print(f"exact nu={args.nu!r} t={args.t_final!r} N={args.n} "
          f"J={coeffs.truncation_index} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invariant-burgers",
        description="Symmetry-preserving finite-difference runs for the "
                    "1-D viscous Burgers equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scheme, write t,x,u")
    _add_common(p_run)
    p_run.add_argument("--snapshot-every", type=int, default=0,
                       help="store every k-th step (0: first/last only)")
    p_run.add_argument("--errors-out", help="also write a scheme,N,h,linf,rms "
                                            "error report")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence",
                            help="error vs resolution for one scheme")
    _add_common(p_conv, n=False)
    p_conv.add_argument("--n-min", type=int, default=4)
    p_conv.add_argument("--n-max", type=int, default=512)
    p_conv.set_defaults(func=_cmd_convergence)

    p_frames = sub.add_parser("frames",
                              help="rest-frame vs moving-frame discrepancy")
    _add_common(p_frames)
    p_frames.set_defaults(func=_cmd_frames)

    p_sp = sub.add_parser("spacing", help="final-time grid gap profile")
    _add_common(p_sp)
    p_sp.set_defaults(func=_cmd_spacing)

    p_ex = sub.add_parser("exact", help="sample the reference solution")
    _add_common(p_ex, scheme=False)
    p_ex.set_defaults(func=_cmd_exact)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, parser, argv)
        return args.func(args)
    except SimulationError as exc:
        step = getattr(exc, "step", None)
        step_txt = "-" if step is None else str(step)
        print(f"error kind={type(exc).__name__} step={step_txt} "
              f"message={str(exc)!r}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error kind={type(exc).__name__} step=- message={str(exc)!r}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
