"""The bookkeeping of ``run``'s step loop: how much layer work each step
costs, what every step function is handed, the whole trajectory against a
plain loop over the stencil and remap oracles, and the step functions the
benchmark's tracer expects ``run`` to call."""

import importlib.util
import inspect
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import invariant_burgers as ib
from invariant_burgers import (DiscreteField, GridSlice, InterpKind,
                               SchemeConfig, SchemeKind, SimulationError, TAU)
from invariant_burgers import grid, schemes
from invariant_burgers.grid import Layer, _require_positive

from oracles import moving_mesh_update_loop, quadratic_by_search

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


WORK = ("placed", "filled", "checks", "layers", "containers")


def layer_work(config, t_final):
    """Position layers placed, value layers filled, order checks, layers
    allocated and containers built by one run of ``config`` to
    ``t_final``."""
    counts = dict.fromkeys(WORK, 0)

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        instrument(mp, _require_positive,
                   counted("checks", _require_positive))
        mp.setattr(Layer, "__init__", counted("layers", Layer.__init__))
        mp.setattr(Layer, "place", counted("placed", Layer.place))
        mp.setattr(Layer, "fill", counted("filled", Layer.fill))
        for cls in (GridSlice, DiscreteField):
            mp.setattr(cls, "__post_init__",
                       counted("containers", cls.__post_init__))
        ib.run(SchemeConfig(**{**config, "t_final": t_final}), np.sin)
    return counts


# per extra step: position layers placed, value layers filled, order
# checks, layers allocated, containers. Each new layer is placed or filled
# once, and each placement checks its order once; the step-start layer of
# FTCS is its next layer too. The adaptive step fills its monitor into the
# destination layer before placing the positions there. Only the spline
# allocates layers in a step: value layers of its gaps, gap slopes and
# moments.
PER_STEP = [
    ({"scheme_kind": SchemeKind.CLASSICAL_FTCS}, (0, 1, 0, 0, 0)),
    ({"scheme_kind": SchemeKind.LAGRANGIAN}, (1, 1, 1, 0, 0)),
    ({"scheme_kind": SchemeKind.CONSTANT_FRAME, "frame_velocity": 0.5},
     (1, 1, 1, 0, 0)),
    ({"scheme_kind": SchemeKind.EULERIAN_ADAPTIVE}, (1, 2, 1, 0, 0)),
] + [
    ({"scheme_kind": SchemeKind.EVOLUTION_PROJECTION, "interp_kind": kind},
     (2, 5, 2, 3, 0) if kind is InterpKind.CUBIC_SPLINE else (2, 2, 2, 0, 0))
    for kind in InterpKind
]
# the schemes whose steps run in the layers the run allocated
IN_PLACE = [config for config, _ in PER_STEP
            if config.get("interp_kind") is not InterpKind.CUBIC_SPLINE]


@pytest.mark.parametrize("config, per_step", PER_STEP)
def test_each_step_ghosts_and_checks_each_new_layer_once(config, per_step):
    fields = {**config, "n_points": 32}
    h = TAU / 32
    dt0 = SchemeConfig(**fields).dt_factor * h * h
    k = 4
    # (m - 1/2) dt0 takes m steps, the last one cut in half
    short = layer_work(fields, (k - 0.5) * dt0)
    long = layer_work(fields, (2 * k - 0.5) * dt0)
    extra = {key: long[key] - short[key] for key in WORK}
    assert tuple(extra.values()) == tuple(k * n for n in per_step)
    if config in IN_PLACE:
        assert extra["layers"] == 0


# the step functions run() calls, each with the names of its arguments that
# are position layers; its other layer arguments hold values
STEP_FUNCTIONS = [
    (grid.advance_stationary, {"xl"}),
    (grid.advance_lagrangian, {"xl", "out"}),
    (grid.advance_constant, {"xl", "out"}),
    (grid.advance_equidistributed, {"xl", "out"}),
    (schemes.invariant_step, {"xl"}),
    (schemes.evolution_projection_step, {"xl", "moved", "targets"}),
]


def asserting(fn, positions, config, calls):
    """``fn``, asserting first that its dt is finite and in (0, dt0],
    dt0 = dt_factor * h^2 as ``run`` forms it, that each of its layers has
    N + 3 slots and that each position layer has the run's period."""
    signature = inspect.signature(fn)
    n, length = config.n_points, config.domain_length
    h = length / n
    dt0 = config.dt_factor * h * h

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        dt = bound["dt"]
        assert math.isfinite(dt) and 0.0 < dt <= dt0, dt
        for name, value in bound.items():
            if isinstance(value, Layer):
                assert len(value.g) == n + 3, name
                if name in positions:
                    assert value.period == length, name
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    return call


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)), n=st.integers(4, 64),
       log_dt_factor=st.floats(-3.0, 300.0),
       t_final=st.floats(5e-324, 10.0), length=st.floats(1e-3, 1e3),
       c=st.floats(-10.0, 10.0))
def test_run_hands_every_step_a_valid_dt_and_layers(kind, n, log_dt_factor,
                                                    t_final, length, c):
    # run() is the step layer's one boundary: the step functions check
    # none of this themselves
    config = SchemeConfig(scheme_kind=kind, n_points=n, t_final=t_final,
                          dt_factor=10.0 ** log_dt_factor,
                          domain_length=length, frame_velocity=c)
    h = length / n
    assume(t_final <= 2000 * config.dt_factor * h * h)
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for fn, positions in STEP_FUNCTIONS:
            instrument(mp, fn, asserting(fn, positions, config, calls))
        try:
            ib.run(config, np.sin)
        except (ValueError, SimulationError):
            return
    assert calls[("evolution_projection_step"
                  if kind is SchemeKind.EVOLUTION_PROJECTION
                  else "invariant_step")] >= 1


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
        # the grid velocity is the one each grid equation defines
        if kind is SchemeKind.CLASSICAL_FTCS:
            x1, xdot = x, 0.0
        elif kind is SchemeKind.CONSTANT_FRAME:
            x1, xdot = x + dt * c, c
        else:
            x1, xdot = x + dt * u, u
        u1 = moving_mesh_update_loop(x, u, xdot, dt, config.nu, TAU)
        if kind is SchemeKind.EVOLUTION_PROJECTION:
            # remapped onto the step-start lattice moved by the mean velocity
            targets = x + dt * float(np.sum(u) / n)
            u1 = quadratic_by_search(x1, u1, TAU, targets)
            x1 = targets
        x, u, t = x1, u1, t + dt
        layers.append((t, x, u))
    steps = len(layers) - 1
    assert steps * dt0 > config.t_final  # the last step is cut

    stored = [0] + [s for s in range(1, steps + 1)
                    if s % every == 0 or s == steps]
    assert len(traj.snapshots) == len(stored)
    assert traj.final.grid.t == config.t_final
    # every scheme runs the oracle's arithmetic in the same order (the
    # projection remaps by the searched Newton form and takes the mean as
    # the package does), so each matches it bit for bit
    for snap, s in zip(traj.snapshots, stored):
        t, x, u = layers[s]
        assert abs(snap.grid.t - t) <= 1e-14
        np.testing.assert_array_equal(snap.grid.x, x)
        np.testing.assert_array_equal(snap.u, u)


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_snapshots_own_their_arrays(kind):
    # run() writes each step into layers it reuses, so every stored array
    # must be a copy that no other snapshot shares
    traj = ib.run(SchemeConfig(scheme_kind=kind, n_points=16), np.sin,
                  snapshot_every=1)
    arrays = [a for snap in traj.snapshots for a in (snap.grid.x, snap.u)]
    assert len(traj.snapshots) > 2
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


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
