"""Print sha256 digests over the bits of a fixed grid of runs, certificates
and command-line outputs.

A change meant to keep every number, bit for bit, must print the same
lines before and after. One line per part names the part and its digest:

- each (scheme, interpolant) run set: every stored snapshot (t, x, u) of
  the scheme, the projection with each of the three interpolants, at N in
  {16, 64, 512} and frame velocity c in {0, 1.3}, from u0 = sin x with
  ``snapshot_every=7``;
- ``frames``: ``frame_comparison`` of each scheme at N = 64 and c = 1.3;
- ``certificates``: ``max_defect`` of the four certified relations under a
  boost, a scaling and a translation;
- ``seam``: every fifth snapshot of each (scheme, interpolant) at N in
  {16, 64, 512}, c in {-1.3, 0.37, 2.9, -0.71} and domain start in
  {0.3, -2}, where the lattice's periodic seam falls between nodes of a
  shifted lattice;
- ``failures``: runs built to cross or blow up (``FAILING_RUNS``): the
  type, step and message of the ``SimulationError`` each ends in, or its
  first and last snapshots where it finishes;
- ``cli``: the 53 commands of ``CLI_COMMANDS``, run in-process in a
  temporary directory: each command's exit code, stdout, stderr and the
  names and bytes of the files it wrote.

The last line is one digest over the runs, frames and certificates, in
that order; it leaves out the seam, failure and command-line parts, so
that it compares with the single line earlier versions of this script
printed.

Run it from the repository root, against the checkout to be compared:

    PYTHONPATH=src python tests/bitgrid.py

It takes about ten seconds. pytest does not collect it.
"""

import contextlib
import hashlib
import io
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from invariant_burgers import (Generator, GroupElement, InterpKind,
                               SchemeConfig, SchemeKind, SimulationError,
                               frame_comparison, max_defect, run,
                               satisfy_constant, satisfy_ftcs,
                               satisfy_scheme, satisfy_stationary)
from invariant_burgers import cli

CONFIGS = [(kind, InterpKind.QUADRATIC) for kind in SchemeKind
           if kind is not SchemeKind.EVOLUTION_PROJECTION] + [
    (SchemeKind.EVOLUTION_PROJECTION, interp) for interp in InterpKind]
RELATIONS = [satisfy_scheme, satisfy_ftcs, satisfy_stationary,
             satisfy_constant]
ELEMENTS = [GroupElement(Generator.GALILEAN_BOOST, 1.3),
            GroupElement(Generator.SCALING, 0.4),
            GroupElement(Generator.SPACE_TRANSLATION, 0.7)]
# the schemes with a published error table, for frames and spacing
TABLED = ["ftcs", "lagrangian", "eulerian-adaptive", "evolution-projection"]
CLI_COMMANDS = [
    ["run", "--scheme", kind.value, "--interp", interp.value, "--n", str(n),
     "--eps3", eps3, "--snapshot-every", "25" if n == 512 else "1",
     "--out", "trajectory.csv", "--errors-out", "errors.csv"]
    for kind, interp in CONFIGS for eps3 in ("0", "1.3")
    for n in (16, 64, 512)
] + [
    ["frames", "--scheme", scheme, "--n", "64", "--eps3", "1.3"]
    for scheme in TABLED
] + [
    ["spacing", "--scheme", scheme, "--n", "64"] for scheme in TABLED
] + [
    ["convergence", "--scheme", "eulerian-adaptive", "--n-max", "256"],
    ["exact", "--n", "64", "--t-final", "0.3"],
    ["run", "--scheme", "ftcs", "--eps3", "16", "--n", "64"],
]


def _two_modes(x):
    return np.sin(x) + 0.8 * np.sin(2.0 * x + 0.3)


def _huge(x):
    return 1e200 * np.sin(x)


def _three_modes(rng):
    """Three sine modes of random amplitudes in [-3, 3] and phases."""
    a, phase = rng.uniform(-3.0, 3.0, 3), rng.uniform(0.0, 2.0 * np.pi, 3)
    return lambda x: sum(a[k] * np.sin((k + 1) * x + phase[k])
                         for k in range(3))


def _failing_runs():
    """(config, initial data) of runs built to cross or blow up: each
    scheme with a published table at dt_factor 5, 20 and 80 on two-mode
    data at N = 256, six seeded three-mode draws per (scheme, interpolant)
    at N = 64 and dt_factor 1, 2 or 4, a monitor and a step that overflow,
    and a constant-frame run whose reported positions round its gaps
    away."""
    runs = [(SchemeConfig(scheme_kind=kind, n_points=256, dt_factor=factor),
             _two_modes)
            for kind in TABLED for factor in (5.0, 20.0, 80.0)]
    rng = np.random.default_rng(1301)
    for i in range(6 * len(CONFIGS)):
        kind, interp = CONFIGS[i % len(CONFIGS)]
        runs.append((SchemeConfig(scheme_kind=kind, interp_kind=interp,
                                  n_points=64,
                                  dt_factor=float(rng.choice([1, 2, 4]))),
                     _three_modes(rng)))
    return runs + [
        (SchemeConfig(scheme_kind="eulerian-adaptive", n_points=64), _huge),
        (SchemeConfig(scheme_kind="lagrangian", n_points=64), _huge),
        (SchemeConfig(scheme_kind="constant-frame", n_points=64,
                      frame_velocity=1e17), np.sin)]


def _outcome(update, part, config, initial, every):
    """Digest into ``part`` by ``update`` every stored snapshot (t, x, u) of
    a run, or the type, step and message of the ``SimulationError`` it ends
    in."""
    try:
        traj = run(config, initial, snapshot_every=every)
    except SimulationError as exc:
        update(part, repr((type(exc).__name__, exc.step,
                           str(exc))).encode())
        return
    for snap in traj.snapshots:
        update(part, struct.pack("<d", snap.grid.t))
        update(part, snap.grid.x.tobytes())
        update(part, snap.u.tobytes())


def _own(part, data: bytes):
    part.update(data)


def seam_digest() -> str:
    part = hashlib.sha256()
    for kind, interp in CONFIGS:
        for n in (16, 64, 512):
            for c in (-1.3, 0.37, 2.9, -0.71):
                for start in (0.3, -2.0):
                    _outcome(_own, part, SchemeConfig(
                        scheme_kind=kind, interp_kind=interp, n_points=n,
                        frame_velocity=c, domain_start=start), np.sin, 5)
    return part.hexdigest()


def failures_digest() -> str:
    part = hashlib.sha256()
    for config, initial in _failing_runs():
        _outcome(_own, part, config, initial, 0)
    return part.hexdigest()


def _runs(update):
    for kind, interp in CONFIGS:
        part = hashlib.sha256()
        for n in (16, 64, 512):
            for c in (0.0, 1.3):
                _outcome(update, part, SchemeConfig(
                    scheme_kind=kind, interp_kind=interp, n_points=n,
                    frame_velocity=c), np.sin, 7)
        yield f"runs {kind.value}/{interp.value}", part


def _frames(update):
    part = hashlib.sha256()
    for kind in SchemeKind:
        update(part, struct.pack("<d", frame_comparison(SchemeConfig(
            scheme_kind=kind, n_points=64, frame_velocity=1.3))))
    yield "frames", part


def _certificates(update):
    part = hashlib.sha256()
    for satisfy in RELATIONS:
        for g in ELEMENTS:
            update(part, struct.pack("<d", max_defect(satisfy, g,
                                                      n_samples=200)))
    yield "certificates", part


def cli_digest() -> str:
    """The digest of ``CLI_COMMANDS``, each run by ``cli.main`` in a fresh
    directory of its own with relative output paths."""
    part = hashlib.sha256()
    outdir, cwd = os.environ.pop(cli.OUTDIR_ENV, None), os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i, argv in enumerate(CLI_COMMANDS):
                workdir = Path(tmp, str(i))
                workdir.mkdir()
                os.chdir(workdir)
                out, err = io.StringIO(), io.StringIO()
                with (contextlib.redirect_stdout(out),
                      contextlib.redirect_stderr(err)):
                    code = cli.main(argv)
                part.update(repr((argv, code, out.getvalue(),
                                  err.getvalue())).encode())
                for path in sorted(workdir.iterdir()):
                    part.update(path.name.encode() + b"\0")
                    part.update(path.read_bytes())
    finally:
        os.chdir(cwd)
        if outdir is not None:
            os.environ[cli.OUTDIR_ENV] = outdir
    return part.hexdigest()


def digests() -> list[tuple[str, str]]:
    """(part, digest) for every part, the total over the runs, frames and
    certificates last."""
    total = hashlib.sha256()

    def update(part, data: bytes):
        part.update(data)
        total.update(data)

    lines = [(name, part.hexdigest())
             for parts in (_runs, _frames, _certificates)
             for name, part in parts(update)]
    lines += [("seam", seam_digest()), ("failures", failures_digest()),
              ("cli", cli_digest())]
    return lines + [("total", total.hexdigest())]


if __name__ == "__main__":
    for name, value in digests():
        print(f"{name:<40} {value}" if name != "total" else value)
