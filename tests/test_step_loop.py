"""The bookkeeping of ``run``'s step loop: how much layer work each step
costs, the whole trajectory against a plain loop over the stencil and remap
oracles, and the step functions the benchmark's tracer expects ``run`` to
call."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import invariant_burgers as ib
from invariant_burgers import (DiscreteField, GridSlice, InterpKind,
                               SchemeConfig, SchemeKind, TAU)
from invariant_burgers.grid import ghosted, require_ordered

from oracles import moving_mesh_update_loop, periodic_quadratic_loop

PACKAGE = "invariant_burgers"
SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def instrument(monkeypatch, original, replacement):
    """Point every package-module name bound to ``original`` at
    ``replacement``; the modules are taken from ``sys.modules``, so a
    package attribute that shadows its submodule cannot hide one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE
                                  or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


WORK = ("ghosts", "value_ghosts", "checks", "containers")


def layer_work(config, t_final):
    """Position ghosts (ghost arrays with a nonzero jump), value ghosts
    (jump 0), order checks and containers built by one run of ``config``
    to ``t_final``."""
    counts = dict.fromkeys(WORK, 0)

    def ghosted_counted(a, jump=0.0):
        counts["ghosts" if jump else "value_ghosts"] += 1
        return ghosted(a, jump)

    def ordered_counted(x, domain_length):
        counts["checks"] += 1
        return require_ordered(x, domain_length)

    with pytest.MonkeyPatch.context() as mp:
        instrument(mp, ghosted, ghosted_counted)
        instrument(mp, require_ordered, ordered_counted)
        for cls in (GridSlice, DiscreteField):
            post_init = cls.__post_init__

            def counted(self, post_init=post_init):
                counts["containers"] += 1
                post_init(self)

            mp.setattr(cls, "__post_init__", counted)
        ib.run(SchemeConfig(**{**config, "t_final": t_final}), np.sin)
    return counts


# per extra step: position ghosts, value ghosts, order checks, containers.
# The value ghosts are the stencil's copy of u, plus the monitor's and the
# mesh solve's on the adaptive grid, the remap's copy of the evolved values
# on the projection, and the spline's three (gaps, gap slopes, moments).
PER_STEP = [
    ({"scheme_kind": SchemeKind.CLASSICAL_FTCS}, (0, 1, 0, 0)),
    ({"scheme_kind": SchemeKind.LAGRANGIAN}, (1, 1, 1, 0)),
    ({"scheme_kind": SchemeKind.CONSTANT_FRAME, "frame_velocity": 0.5},
     (1, 1, 1, 0)),
    ({"scheme_kind": SchemeKind.EULERIAN_ADAPTIVE}, (1, 3, 1, 0)),
] + [
    ({"scheme_kind": SchemeKind.EVOLUTION_PROJECTION, "interp_kind": kind},
     (2, 5 if kind is InterpKind.CUBIC_SPLINE else 2, 2, 0))
    for kind in InterpKind
]


@pytest.mark.parametrize("config, per_step", PER_STEP)
def test_each_step_ghosts_and_checks_each_new_layer_once(config, per_step):
    config = {**config, "n_points": 32}
    h = TAU / 32
    dt0 = SchemeConfig(**config).dt_factor * h * h
    k = 4
    # (m - 1/2) dt0 takes m steps, the last one cut in half
    short = layer_work(config, (k - 0.5) * dt0)
    long = layer_work(config, (2 * k - 0.5) * dt0)
    extra = tuple(long[key] - short[key] for key in WORK)
    assert extra == tuple(k * n for n in per_step)


# the projection brackets its targets by the search on one of its two
# steps at N = 16, and by the partner bracket on every step at N = 64
@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("kind, n", [
    pytest.param(kind, 16, id=kind.value)
    for kind in (SchemeKind.CLASSICAL_FTCS, SchemeKind.LAGRANGIAN,
                 SchemeKind.CONSTANT_FRAME, SchemeKind.EVOLUTION_PROJECTION)
] + [pytest.param(SchemeKind.EVOLUTION_PROJECTION, 64,
                  id="evolution-projection-n64")])
def test_run_matches_a_plain_loop_over_the_oracle(kind, n, every):
    c = 0.5
    config = SchemeConfig(scheme_kind=kind, n_points=n, frame_velocity=c)
    traj = ib.run(config, np.sin, snapshot_every=every)

    h = TAU / n
    dt0 = config.dt_factor * h * h
    x = np.arange(n) * h
    u = np.sin(x) + (0.0 if kind is SchemeKind.CONSTANT_FRAME else c)
    t, layers = 0.0, [(0.0, x, u)]
    while t < config.t_final * (1.0 - 1e-12):
        dt = min(dt0, config.t_final - t)
        if kind is SchemeKind.CLASSICAL_FTCS:
            x1 = x
        elif kind is SchemeKind.CONSTANT_FRAME:
            x1 = x + dt * c
        else:
            x1 = x + dt * u
        u1 = moving_mesh_update_loop(x, u, x1, dt, config.nu, TAU)
        if kind is SchemeKind.EVOLUTION_PROJECTION:
            # remapped onto the step-start lattice moved by the mean velocity
            targets = x + dt * (sum(u) / n)
            u1 = periodic_quadratic_loop(x1, u1, TAU, targets)
            x1 = targets
        x, u, t = x1, u1, t + dt
        layers.append((t, x, u))
    steps = len(layers) - 1
    assert steps * dt0 > config.t_final  # the last step is cut

    stored = [0] + [s for s in range(1, steps + 1)
                    if s % every == 0 or s == steps]
    assert len(traj.snapshots) == len(stored)
    assert traj.final.grid.t == config.t_final
    # the moving-mesh schemes run the oracle's arithmetic in the same order,
    # so they match it bit for bit; the projection's oracle remaps in
    # Lagrange form, the package in Newton form
    atol = 1e-14 if kind is SchemeKind.EVOLUTION_PROJECTION else 0.0
    for snap, s in zip(traj.snapshots, stored):
        t, x, u = layers[s]
        assert abs(snap.grid.t - t) <= 1e-14
        np.testing.assert_allclose(snap.grid.x, x, rtol=0, atol=atol)
        np.testing.assert_allclose(snap.u, u, rtol=0, atol=atol)


def test_the_projection_searches_only_where_the_partner_bracket_fails(
        monkeypatch):
    # at N = 64 every target lies between the midpoints beside its own
    # node, so no step searches; at N = 32 some do not, and the search
    # brackets them
    searchsorted = np.searchsorted
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)

    def searches(n):
        calls.clear()
        ib.run(SchemeConfig(scheme_kind=SchemeKind.EVOLUTION_PROJECTION,
                            n_points=n), np.sin)
        return len(calls)

    assert searches(64) == 0
    assert searches(32) >= 1


def load_spans():
    """The benchmark's span tracer, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


# the grid equation each scheme calls once per step
ADVANCE_SPAN = {
    SchemeKind.CLASSICAL_FTCS: "grid.advance_stationary",
    SchemeKind.LAGRANGIAN: "grid.advance_lagrangian",
    SchemeKind.EULERIAN_ADAPTIVE: "grid.advance_equidistributed",
    SchemeKind.CONSTANT_FRAME: "grid.advance_constant",
    SchemeKind.EVOLUTION_PROJECTION: "grid.advance_lagrangian",
}


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_benchmark_tracer_sees_every_step(kind):
    spans = load_spans()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        tracer.enabled = True
        # through the package attribute, which the tracer rebinds
        traj = ib.run(SchemeConfig(scheme_kind=kind, n_points=16), np.sin,
                      snapshot_every=1)
    finally:
        restore()
    steps = len(traj.snapshots) - 1
    assert steps > 1
    assert tracer.counts["schemes.steps"] == steps
    assert tracer.calls[ADVANCE_SPAN[kind]] == steps
