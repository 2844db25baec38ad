"""Print one sha256 over the bits of a fixed grid of runs and certificates.

A change meant to keep every number, bit for bit, must print the same
digest before and after. The digest covers:

- every stored snapshot (t, x, u) of the five schemes, the projection with
  each of the three interpolants, at N in {16, 64, 512} and frame velocity
  c in {0, 1.3}, from u0 = sin x with ``snapshot_every=7``;
- ``frame_comparison`` of each scheme at N = 64 and c = 1.3;
- ``max_defect`` of the four certified relations under a boost, a scaling
  and a translation.

Run it from the repository root, against the checkout to be compared:

    PYTHONPATH=src python tests/bitgrid.py

It takes a few seconds. pytest does not collect it.
"""

import hashlib
import struct

import numpy as np

from invariant_burgers import (Generator, GroupElement, InterpKind,
                               SchemeConfig, SchemeKind, frame_comparison,
                               max_defect, run, satisfy_constant,
                               satisfy_ftcs, satisfy_scheme,
                               satisfy_stationary)

CONFIGS = [(kind, InterpKind.QUADRATIC) for kind in SchemeKind
           if kind is not SchemeKind.EVOLUTION_PROJECTION] + [
    (SchemeKind.EVOLUTION_PROJECTION, interp) for interp in InterpKind]
RELATIONS = [satisfy_scheme, satisfy_ftcs, satisfy_stationary,
             satisfy_constant]
ELEMENTS = [GroupElement(Generator.GALILEAN_BOOST, 1.3),
            GroupElement(Generator.SCALING, 0.4),
            GroupElement(Generator.SPACE_TRANSLATION, 0.7)]


def digest() -> str:
    h = hashlib.sha256()

    def number(value):
        h.update(struct.pack("<d", value))

    for kind, interp in CONFIGS:
        for n in (16, 64, 512):
            for c in (0.0, 1.3):
                traj = run(SchemeConfig(scheme_kind=kind, interp_kind=interp,
                                        n_points=n, frame_velocity=c),
                           np.sin, snapshot_every=7)
                for snap in traj.snapshots:
                    number(snap.grid.t)
                    h.update(snap.grid.x.tobytes())
                    h.update(snap.u.tobytes())
    for kind in SchemeKind:
        number(frame_comparison(SchemeConfig(scheme_kind=kind, n_points=64,
                                             frame_velocity=1.3)))
    for satisfy in RELATIONS:
        for g in ELEMENTS:
            number(max_defect(satisfy, g, n_samples=200))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
