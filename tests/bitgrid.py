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
- ``cli``: the 53 commands of ``CLI_COMMANDS``, run in-process in a
  temporary directory: each command's exit code, stdout, stderr and the
  names and bytes of the files it wrote.

The last line is one digest over the runs, frames and certificates, in
that order; it leaves out the command-line part, so that it compares with
the single line earlier versions of this script printed.

Run it from the repository root, against the checkout to be compared:

    PYTHONPATH=src python tests/bitgrid.py

It takes a few seconds. pytest does not collect it.
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
                               SchemeConfig, SchemeKind, frame_comparison,
                               max_defect, run, satisfy_constant,
                               satisfy_ftcs, satisfy_scheme,
                               satisfy_stationary)
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


def _runs(update):
    for kind, interp in CONFIGS:
        part = hashlib.sha256()
        for n in (16, 64, 512):
            for c in (0.0, 1.3):
                traj = run(SchemeConfig(scheme_kind=kind, interp_kind=interp,
                                        n_points=n, frame_velocity=c),
                           np.sin, snapshot_every=7)
                for snap in traj.snapshots:
                    update(part, struct.pack("<d", snap.grid.t))
                    update(part, snap.grid.x.tobytes())
                    update(part, snap.u.tobytes())
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
    lines.append(("cli", cli_digest()))
    return lines + [("total", total.hexdigest())]


if __name__ == "__main__":
    for name, value in digests():
        print(f"{name:<40} {value}" if name != "total" else value)
