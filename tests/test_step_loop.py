"""The bookkeeping of ``run``'s step loop: how much layer work each step
costs, what every step function is handed, the whole trajectory against a
plain loop over the stencil and remap oracles, and the step functions the
benchmark's tracer expects ``run`` to call."""

import importlib.util
import inspect
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import invariant_burgers as ib
from invariant_burgers import (DiscreteField, GridSlice, InterpKind,
                               NonFiniteSolutionError, SchemeConfig,
                               SchemeKind, SimulationError, TAU)
from invariant_burgers import grid, schemes, symmetry
from invariant_burgers.grid import Layer, _require_positive
from invariant_burgers.schemes import StencilRows

from oracles import (monitor_loop, moving_mesh_update_loop,
                     order_gap_verdict, quadratic_by_search,
                     random_smooth_profile)

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


WORK = ("placed", "filled", "checks", "layers", "containers", "weights",
        "rows")


def layer_work(config, t_final):
    """Position layers placed, value layers filled, order checks (reads of
    the argmin of a layer's node gaps, the order test a placement makes
    without a Python call), layers allocated, containers built, diffusion
    weights formed (divisions into the ``weight`` row of a
    ``StencilRows``) and stencil rows allocated by one run of ``config``
    to ``t_final``."""
    counts = dict.fromkeys(WORK, 0)
    gap_rows = []

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    init, rows_init, divide, weights = (Layer.__init__, StencilRows.__init__,
                                        np.divide, [])

    def allocated(layer, *args, **kwargs):
        # a layer binds its own placement and fill when it is allocated
        counts["layers"] += 1
        init(layer, *args, **kwargs)
        gap_rows.append(layer.gaps)
        layer.place = counted("placed", layer.place)
        layer.fill = counted("filled", layer.fill)

    def allocated_rows(rows, *args, **kwargs):
        counts["rows"] += 1
        rows_init(rows, *args, **kwargs)
        weights.append(rows.weight)

    def dividing(*args, **kwargs):
        # the stencil takes np.divide when it is bound, inside run
        out = args[2] if len(args) > 2 else kwargs.get("out")
        counts["weights"] += any(out is weight for weight in weights)
        return divide(*args, **kwargs)

    def profile(frame, event, arg):
        # the C call of argmin on the node gaps of a layer allocated here
        if event == "c_call" and arg.__name__ == "argmin":
            row = getattr(getattr(arg, "__self__", None), "base", None)
            counts["checks"] += any(row is gaps for gaps in gap_rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Layer, "__init__", allocated)
        mp.setattr(StencilRows, "__init__", allocated_rows)
        mp.setattr(np, "divide", dividing)
        for cls in (GridSlice, DiscreteField):
            mp.setattr(cls, "__post_init__",
                       counted("containers", cls.__post_init__))
        sys.setprofile(profile)
        try:
            ib.run(SchemeConfig(**{**config, "t_final": t_final}), np.sin)
        finally:
            sys.setprofile(None)
    return counts


# per extra step: position layers placed, value layers filled, order checks,
# layers allocated, containers, diffusion weights formed and stencil rows
# allocated. Each new layer is placed or filled once, and each placement
# checks its order once; the loop places the positions a grid equation
# wrote after the stencil has read the step-start gaps. The lattice at rest
# of FTCS and of constant-frame, in the frame each computes in, is never
# placed again, so the stencil forms its diffusion weight once, when it is
# bound. The other stencils form it at the start of every step, from the
# step-start gaps. The adaptive step fills its monitor into a value layer
# of its own before the stencil runs. Only the spline allocates a layer in a step:
# the value layer of its moments. The stencil's rows are allocated once per
# run. The quadratic remap allocates its rows when it is bound, which no
# column here counts: test_no_step_function_allocates_a_row and
# test_a_runs_memory_does_not_grow_with_its_step_count hold it to that.
PER_STEP = [
    ({"scheme_kind": SchemeKind.CLASSICAL_FTCS}, (0, 1, 0, 0, 0, 0, 0)),
    ({"scheme_kind": SchemeKind.LAGRANGIAN}, (1, 1, 1, 0, 0, 1, 0)),
    ({"scheme_kind": SchemeKind.CONSTANT_FRAME, "frame_velocity": 0.5},
     (0, 1, 0, 0, 0, 0, 0)),
    ({"scheme_kind": SchemeKind.EULERIAN_ADAPTIVE}, (1, 2, 1, 0, 0, 1, 0)),
] + [
    ({"scheme_kind": SchemeKind.EVOLUTION_PROJECTION, "interp_kind": kind},
     (2, 3, 2, 1, 0, 1, 0) if kind is InterpKind.CUBIC_SPLINE
     else (2, 2, 2, 0, 0, 1, 0))
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
    assert short["rows"] == long["rows"] == 1
    if config in IN_PLACE:
        assert extra["layers"] == 0


def layers_of_run(config):
    """The layers ``run`` allocates itself: those whose first caller
    outside ``Layer`` (whose constructors allocate for their caller) is
    ``run``, not the containers, the set-up or the spline."""
    count = 0
    init = Layer.__init__
    constructors = {Layer.of_positions.__code__, Layer.of_values.__code__}

    def counted(self, *args, **kwargs):
        nonlocal count
        frame = sys._getframe(1)
        while frame.f_code in constructors:
            frame = frame.f_back
        count += (frame.f_code.co_name == "run"
                  and frame.f_globals["__name__"] == schemes.__name__)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Layer, "__init__", counted)
        ib.run(config, np.sin)
    return count


@pytest.mark.parametrize("config", [config for config, _ in PER_STEP])
def test_a_run_allocates_two_layers_and_the_projection_four(config):
    # the mesh, which the grid equation writes ahead of its placement, and
    # the solution, which the stencil steps in place; the projection's
    # moved positions and evolved values are the third and fourth. The
    # count does not grow with the steps
    fields = {**config, "n_points": 32}
    dt0 = SchemeConfig(**fields).dt_factor * (TAU / 32) ** 2
    projecting = config["scheme_kind"] is SchemeKind.EVOLUTION_PROJECTION
    for steps in (1, 7):
        run_config = SchemeConfig(**fields, t_final=(steps - 0.5) * dt0)
        assert layers_of_run(run_config) == 2 + 2 * projecting


def python_calls(config, t_final):
    """The Python function calls that one run of ``config`` to ``t_final``
    makes, as ``sys.setprofile`` sees them."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        ib.run(SchemeConfig(**{**config, "t_final": t_final}), np.sin)
    finally:
        sys.setprofile(None)
    return calls


# Python calls per extra step at N = 32: before the stages were bound, when
# the loop handed the layers to each step function, and now. A step calls
# the entries of the grid equation and the stencil, their bound closures,
# each layer's own placement (which forms its gaps and tests their order
# with no call, calling the order check only to raise) or fill, and the
# bound remap; the stencil forms its diffusion weight itself. The run's
# floating-point recorder, which decides whether a step's values need the
# finiteness test, is called only on an event, and these runs raise none.
# The adaptive grid equation forms its monitor and solve in its one closure.
# At N = 32 the projection's quadratic searches on every step (its five
# calls of numpy's search and extrema); the spline allocates one value
# layer, its moments
CALLS_PER_STEP = [
    ({"scheme_kind": SchemeKind.CLASSICAL_FTCS}, 5, 3),
    ({"scheme_kind": SchemeKind.CONSTANT_FRAME, "frame_velocity": 0.5}, 5, 3),
    ({"scheme_kind": SchemeKind.LAGRANGIAN}, 11, 6),
    ({"scheme_kind": SchemeKind.EULERIAN_ADAPTIVE}, 14, 7),
] + [
    ({"scheme_kind": SchemeKind.EVOLUTION_PROJECTION, "interp_kind": kind},
     unbound, bound)
    for kind, unbound, bound in ((InterpKind.LINEAR, 20, 13),
                                 (InterpKind.QUADRATIC, 22, 15),
                                 (InterpKind.CUBIC_SPLINE, 30, 17))
]


@pytest.mark.parametrize("config, unbound, bound", CALLS_PER_STEP)
def test_each_step_makes_fewer_python_calls_than_the_unbound_loop(
        config, unbound, bound):
    fields = {**config, "n_points": 32}
    h = TAU / 32
    dt0 = SchemeConfig(**fields).dt_factor * h * h
    k = 4
    extra = (python_calls(fields, (2 * k - 0.5) * dt0)
             - python_calls(fields, (k - 0.5) * dt0))
    assert extra == k * bound
    assert bound < unbound


def test_the_solver_and_the_certifier_bind_one_stencil(monkeypatch):
    # run binds the stencil once, and the certifier's relation binds the
    # same binder on its three-node layers
    callers = Counter()
    bind_stencil = schemes.bind_stencil

    def counted(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_qualname] += 1
        return bind_stencil(*args, **kwargs)

    instrument(monkeypatch, bind_stencil, counted)
    ib.run(SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, n_points=16),
           np.sin)
    ib.satisfy_scheme(symmetry.sample_stencil(np.random.default_rng(0)),
                      ib.StencilParams())
    assert callers == {"run": 1, "_terms": 1}


def test_the_steps_and_the_initial_mesh_bind_one_solve(monkeypatch):
    # the adaptive run binds the equidistribution solve once, and its
    # initial mesh binds the same binder once, with no dt
    callers = Counter()
    bind_equidistributed = grid.bind_equidistributed

    def counted(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_qualname] += 1
        return bind_equidistributed(*args, **kwargs)

    instrument(monkeypatch, bind_equidistributed, counted)
    ib.run(SchemeConfig(scheme_kind=SchemeKind.EULERIAN_ADAPTIVE,
                        n_points=16), np.sin)
    assert callers == {"run": 1, "equidistribute_initial": 1}


# the binders of the stages run() calls, each with the names of its
# arguments that are position layers; its other layer arguments hold values
STEP_FUNCTIONS = [
    (grid.bind_lagrangian, {"xl", "out"}),
    (grid.bind_equidistributed, {"xl", "out"}),
    (schemes.bind_stencil, {"xl"}),
    (schemes.bind_projection, {"xl", "moved"}),
]


def asserting(fn, positions, config, calls):
    """The binder ``fn``, asserting first that its dt is a 0-d float64
    array, that each of its layers has N + 3 slots, that each position
    layer has the run's period, that its stencil rows have N weights and
    N + 1 slopes and that a grid velocity given as an array is their own
    ``xdot`` row; and asserting, each time the stage it bound runs, that
    dt is finite and in (0, dt0], dt0 = dt_factor * h^2 as ``run`` forms
    it. The initial mesh's solve, bound with no dt, is checked for its
    layers alone. ``calls`` counts the stage's runs under the binder's
    name."""
    signature = inspect.signature(fn)
    n, length = config.n_points, config.domain_length
    h = length / n
    dt0 = config.dt_factor * h * h

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        dt = bound.get("dt")
        stepping = dt is not None or "xdot" in bound
        if stepping:
            assert (isinstance(dt, np.ndarray) and dt.shape == ()
                    and dt.dtype == np.float64), repr(dt)
        for name, value in bound.items():
            if isinstance(value, Layer):
                assert len(value.g) == n + 3, name
                if name in positions:
                    assert value.period == length, name
        if "rows" in bound:
            rows = bound["rows"]
            assert isinstance(rows, StencilRows)
            assert len(rows.weight) == n and len(rows.slopes) == n + 1
            if isinstance(bound.get("xdot"), np.ndarray):
                assert bound["xdot"] is rows.xdot
        stage = fn(*args, **kwargs)

        def checked():
            if stepping:
                assert math.isfinite(dt) and 0.0 < dt <= dt0, dt
            calls[fn.__name__] += 1
            return stage()

        return checked

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
    # every scheme steps through the one stencil
    assert calls["bind_stencil"] >= 1


def allocating(fn, peaks):
    """The binder ``fn``, recording in ``peaks`` the largest growth of
    tracemalloc's peak over the memory traced when a run of the stage it
    bound starts."""
    def call(*args, **kwargs):
        stage = fn(*args, **kwargs)

        def measured():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = stage()
            growth = tracemalloc.get_traced_memory()[1] - start
            peaks[fn.__name__] = max(peaks[fn.__name__], growth)
            return result

        return measured

    return call


def test_no_step_function_allocates_a_row():
    # each step writes into the rows and layers its run allocated; the
    # projection's quadratic and linear remaps and the adaptive mesh solve
    # formed 6, about 6 and 2 rows of temporaries per call. The linear
    # remap still allocates its search's index row, which np.searchsorted
    # gives no out for; the spline remap, which is not the default, still
    # allocates its intermediates
    n = 4096
    h = TAU / n
    configs = [SchemeConfig(scheme_kind=kind, n_points=n)
               for kind in SchemeKind] + [
        SchemeConfig(scheme_kind=SchemeKind.EVOLUTION_PROJECTION, n_points=n,
                     interp_kind=InterpKind.LINEAR)]
    peaks = []
    for config in configs:
        peaks.append(Counter())
        with pytest.MonkeyPatch.context() as mp:
            for fn, _ in STEP_FUNCTIONS:
                instrument(mp, fn, allocating(fn, peaks[-1]))
            tracemalloc.start()
            try:
                ib.run(replace(config, t_final=3.5 * config.dt_factor * h * h),
                       np.sin)
            finally:
                tracemalloc.stop()
    assert set().union(*peaks) == {fn.__name__ for fn, _ in STEP_FUNCTIONS}
    # one row of N intp indices is 8 N bytes, as one of N floats is
    *default, linear = peaks
    for counted in default:
        assert {name: peak for name, peak in counted.items()
                if peak >= 8 * n} == {}
    assert {name: peak for name, peak in linear.items()
            if peak >= 16 * n} == {}


@pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
def test_a_runs_memory_does_not_grow_with_its_step_count(kind):
    # the layers and rows are allocated before the loop and no step keeps
    # or allocates a layer, so ten times the steps leave the whole run's
    # traced peak within one N-row of the shorter run's
    n = 512
    peaks = []
    for t_final in (0.05, 0.5):
        tracemalloc.start()
        try:
            ib.run(SchemeConfig(scheme_kind=kind, n_points=n,
                                t_final=t_final), np.sin)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 8 * n, peaks


@pytest.mark.parametrize("name, value, kind", [
    ("nu", Fraction(1, 10), SchemeKind.LAGRANGIAN),
    ("nu", np.float32(0.1), SchemeKind.CLASSICAL_FTCS),
    ("t_final", np.float32(0.03), SchemeKind.LAGRANGIAN),
    ("t_final", Fraction(3, 100), SchemeKind.EVOLUTION_PROJECTION),
    ("dt_factor", np.float32(1.3), SchemeKind.EULERIAN_ADAPTIVE),
    ("dt_factor", 1, SchemeKind.CLASSICAL_FTCS),
    ("alpha", Fraction(1, 3), SchemeKind.EULERIAN_ADAPTIVE),
    ("frame_velocity", np.float32(0.3), SchemeKind.CONSTANT_FRAME),
    ("domain_start", np.float64(0.37), SchemeKind.EVOLUTION_PROJECTION),
    ("domain_length", np.float32(6.3), SchemeKind.LAGRANGIAN),
    ("domain_length", 6, SchemeKind.CONSTANT_FRAME),
])
def test_a_real_field_of_any_type_runs_as_its_float(name, value, kind):
    # a Fraction failed inside numpy, naming no field; a float32 dt_factor,
    # t_final or domain_length made every step's dt a float32 and a float32
    # t_final the final snapshot time
    fields = {"scheme_kind": kind, "n_points": 16, "t_final": 0.03}
    config = SchemeConfig(**{**fields, name: value})
    assert type(getattr(config, name)) is float
    assert getattr(config, name) == float(value)
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for fn, positions in STEP_FUNCTIONS:
            instrument(mp, fn, asserting(fn, positions, config, calls))
        traj = ib.run(config, np.sin, snapshot_every=1)
    ref = ib.run(SchemeConfig(**{**fields, name: float(value)}), np.sin,
                 snapshot_every=1)
    assert calls["bind_stencil"] == len(traj.snapshots) - 1
    assert len(traj.snapshots) == len(ref.snapshots)
    for snap, expected in zip(traj.snapshots, ref.snapshots):
        assert type(snap.grid.t) is float and snap.grid.t == expected.grid.t
        assert snap.grid.x.tobytes() == expected.grid.x.tobytes()
        assert snap.u.tobytes() == expected.u.tobytes()


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
    # the constant-frame run steps the unboosted data in the frame moving
    # at c, where its lattice is at rest
    drift = c if kind is SchemeKind.CONSTANT_FRAME else 0.0
    u = np.sin(x) + (c - drift)
    t, layers = 0.0, [(0.0, x, u)]
    while t < config.t_final * (1.0 - 1e-12):
        dt = min(dt0, config.t_final - t)
        # the grid velocity is the one each grid equation defines
        if kind in (SchemeKind.CLASSICAL_FTCS, SchemeKind.CONSTANT_FRAME):
            x1, xdot = x, 0.0
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
    # the constant-frame run reports each layer boosted by c, at
    # (xi + c t, v + c)
    for snap, s in zip(traj.snapshots, stored):
        t, x, u = layers[s]
        assert abs(snap.grid.t - t) <= 1e-14
        np.testing.assert_array_equal(snap.grid.x, x + drift * snap.grid.t)
        np.testing.assert_array_equal(snap.u, u + drift)


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("n, c", [(16, 0.5), (32, 0.0)])
def test_the_adaptive_run_matches_a_plain_loop_over_the_oracle(n, c, every):
    config = SchemeConfig(scheme_kind=SchemeKind.EULERIAN_ADAPTIVE,
                          n_points=n, frame_velocity=c)
    traj = ib.run(config, np.sin, snapshot_every=every)

    h = TAU / n
    dt0 = config.dt_factor * h * h
    # from the run's own equidistributed start
    x, u = traj.initial.grid.x, traj.initial.u
    t, layers = 0.0, [(0.0, x, u)]
    while t < config.t_final * (1.0 - 1e-12):
        dt = min(dt0, config.t_final - t)
        # the monitor on the step-start layer, then the gaps 1/(rho_i +
        # rho_{i+1}) summed in sequence and scaled by L over their sum,
        # from node 0 moved Lagrangianly
        rho = monitor_loop(x, u, config.alpha, TAU)
        anchor = x[0] + dt * u[0]
        sums, total = [], 0.0
        for i in range(n):
            total += 1.0 / (rho[i] + rho[(i + 1) % n])
            sums.append(total)
        x1 = np.array([anchor] + [anchor + s * (TAU / total)
                                  for s in sums[:-1]])
        # the grid velocity is the difference quotient
        xdot = (x1 - x) / dt
        u1 = moving_mesh_update_loop(x, u, xdot, dt, config.nu, TAU)
        x, u, t = x1, u1, t + dt
        layers.append((t, x, u))
    steps = len(layers) - 1
    assert steps * dt0 > config.t_final  # the last step is cut

    stored = [0] + [s for s in range(1, steps + 1)
                    if s % every == 0 or s == steps]
    assert len(traj.snapshots) == len(stored)
    # the monitor's alpha is 1, where the oracle's alpha * slope * slope
    # is the package's alpha * slope^2, so the arithmetic is the same, in
    # the same order, and the match is bit for bit
    for snap, s in zip(traj.snapshots, stored):
        t, x, u = layers[s]
        assert abs(snap.grid.t - t) <= 1e-14
        np.testing.assert_array_equal(snap.grid.x, x)
        np.testing.assert_array_equal(snap.u, u)


def adaptive_oracle_layers(config, x, u):
    """The layers (t, x, u) of a plain loop over the oracles of the
    adaptive step from the positions ``x`` and values ``u`` (the monitor,
    the sequentially summed gaps 1/(rho_i + rho_{i+1}) scaled by L over
    their sum from node 0 moved Lagrangianly, the difference quotient and
    the stencil), and whether it stopped early, at a mesh whose periodic
    gaps are not all positive."""
    n = config.n_points
    h = TAU / n
    dt0 = config.dt_factor * h * h
    t, layers = 0.0, [(0.0, x, u)]
    while t < config.t_final * (1.0 - 1e-12):
        dt = min(dt0, config.t_final - t)
        rho = monitor_loop(x, u, config.alpha, TAU)
        anchor = x[0] + dt * u[0]
        sums, total = [], 0.0
        for i in range(n):
            total += 1.0 / (rho[i] + rho[(i + 1) % n])
            sums.append(total)
        x1 = np.array([anchor] + [anchor + s * (TAU / total)
                                  for s in sums[:-1]])
        if not np.all(np.diff(np.append(x1, x1[0] + TAU)) > 0.0):
            return layers, True
        u1 = moving_mesh_update_loop(x, u, (x1 - x) / dt, dt, config.nu, TAU)
        x, u, t = x1, u1, t + dt
        layers.append((t, x, u))
    return layers, False


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 64),
       c=st.floats(-1.0, 1.0))
def test_the_adaptive_run_matches_the_oracle_on_random_data(seed, n, c):
    # the monitor's slope, which the stencil reads again, keeps its bits on
    # any smooth data, not only on sin x; at alpha = 1 the oracle's
    # arithmetic is the package's
    config = SchemeConfig(scheme_kind=SchemeKind.EULERIAN_ADAPTIVE,
                          n_points=n, frame_velocity=c)
    profile = random_smooth_profile(np.random.default_rng(seed))
    try:
        start = grid.equidistribute_initial(lambda x: profile(x) + c,
                                            ib.uniform_slice(n),
                                            config.alpha)
    except ib.NoConvergenceError:
        # the initial mesh does not settle: no run to compare
        assume(False)
    u0 = profile(start.x) + c
    layers, crossed = adaptive_oracle_layers(config, start.x, u0)
    while crossed:
        # a steep front closes a gap: the run refuses the step at which the
        # oracle's mesh crosses, and matches it up to there. The shorter
        # run's last step is cut to land on its t_final, and its dt may
        # differ from dt0 in the last bits, so a gap that closed to 0 one
        # step later may close on it; the oracle then crosses there too
        steps = len(layers) - 1
        with pytest.raises(ib.NodeCrossingError) as refused:
            ib.run(config, profile, snapshot_every=1)
        assert refused.value.step == steps
        assume(steps > 0)
        config = replace(config, t_final=steps * config.dt_factor
                         * (TAU / n) ** 2)
        layers, crossed = adaptive_oracle_layers(config, start.x, u0)
    traj = ib.run(config, profile, snapshot_every=1)
    assert len(traj.snapshots) == len(layers)
    for snap, (t, x, u) in zip(traj.snapshots, layers):
        assert abs(snap.grid.t - t) <= 1e-14
        np.testing.assert_array_equal(snap.grid.x, x)
        np.testing.assert_array_equal(snap.u, u)


# gaps that fail the order check, and ones that pass it
BAD_GAPS = st.sampled_from([np.nan, -np.inf, 0.0, -0.0, -5e-324, -1.0])
GOOD_GAPS = st.one_of(st.sampled_from([np.inf, 5e-324, 1e308]),
                      st.floats(1e-300, 1e300))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(GOOD_GAPS, GOOD_GAPS, BAD_GAPS), min_size=1,
                max_size=40))
def test_the_order_check_names_the_first_gap_that_is_not_positive(gaps):
    gaps = np.array(gaps)
    expected = order_gap_verdict(gaps)
    if expected is None:
        _require_positive(gaps)
    else:
        with pytest.raises(ib.NodeCrossingError) as info:
            _require_positive(gaps)
        assert str(info.value) == expected


@pytest.mark.parametrize("every", [0, 1, 2, 3, 7, 50])
@pytest.mark.parametrize("steps", [6, 14])
@pytest.mark.parametrize("kind, c", [
    (SchemeKind.CLASSICAL_FTCS, 0.0), (SchemeKind.LAGRANGIAN, 0.0),
    (SchemeKind.CONSTANT_FRAME, 0.7), (SchemeKind.EULERIAN_ADAPTIVE, -0.4)])
def test_snapshots_follow_the_modulo_rule(kind, c, steps, every):
    # the loop counts down to the next stored step; it stores step s (from
    # 1) where s % every == 0, and the cut last step, which lands on a
    # scheduled snapshot where every divides steps, once, at t_final; 50 is
    # more than the steps. Every stored snapshot is the one a run that
    # stores every step holds for its step
    config = SchemeConfig(scheme_kind=kind, n_points=32, frame_velocity=c)
    dt0 = config.dt_factor * (TAU / 32) ** 2
    config = replace(config, t_final=(steps - 0.5) * dt0)
    stored = [0] + [s for s in range(1, steps + 1)
                    if every and s % every == 0 or s == steps]
    every_step = ib.run(config, np.sin, snapshot_every=1).snapshots
    traj = ib.run(config, np.sin, snapshot_every=every)
    assert len(every_step) == steps + 1
    assert len(traj.snapshots) == len(stored)
    assert traj.final.grid.t == config.t_final
    for snap, s in zip(traj.snapshots, stored):
        expected = every_step[s]
        assert snap.grid.t == expected.grid.t
        assert snap.grid.x.tobytes() == expected.grid.x.tobytes()
        assert snap.u.tobytes() == expected.u.tobytes()


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


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([SchemeKind.CLASSICAL_FTCS,
                             SchemeKind.CONSTANT_FRAME]),
       n=st.integers(4, 32), dt_factor=st.floats(6.0, 200.0),
       log_amplitude=st.floats(-2.0, 150.0), phase=st.floats(0.0, TAU),
       c=st.floats(-2.0, 2.0), steps=st.integers(1, 200))
def test_a_blow_up_ends_where_the_plain_loop_first_goes_non_finite(
        kind, n, dt_factor, log_amplitude, phase, c, steps):
    # past dt_factor = 1/(2 nu) = 5 the explicit diffusion is unstable, so
    # most of these runs blow up; the run tests its values for finiteness
    # only on a step that raised a floating-point flag, and must still end
    # at the first step of the plain loop whose values are not all finite
    amplitude = 10.0 ** log_amplitude
    config = SchemeConfig(scheme_kind=kind, n_points=n, dt_factor=dt_factor,
                          frame_velocity=c)
    h = TAU / n
    dt0 = dt_factor * h * h
    config = replace(config, t_final=(steps - 0.5) * dt0)

    def initial(x):
        return amplitude * np.sin(x + phase)

    x = np.arange(n) * h
    drift = c if kind is SchemeKind.CONSTANT_FRAME else 0.0
    u = initial(x) + (c - drift)
    t, step, blown = 0.0, 0, None
    # the oracle's scalars are numpy's, which would warn as they overflow
    with np.errstate(all="ignore"):
        while t < config.t_final * (1.0 - 1e-12):
            dt = min(dt0, config.t_final - t)
            u = moving_mesh_update_loop(x, u, 0.0, dt, config.nu, TAU)
            if not np.isfinite(u).all():
                blown = step
                break
            t, step = t + dt, step + 1

    if blown is None:
        traj = ib.run(config, initial)
        np.testing.assert_array_equal(traj.final.u, u + drift)
        return
    with pytest.raises(NonFiniteSolutionError) as raised:
        ib.run(config, initial)
    assert raised.value.step == blown
    assert str(raised.value).endswith(": non-finite solution values")


# a run that finishes, one that blows up, one whose nodes cross and one
# that finishes through underflowing products, each from amplitude * sin x
ENDINGS = [
    (SchemeConfig(scheme_kind=SchemeKind.EVOLUTION_PROJECTION, n_points=32),
     1.0, "finished"),
    (SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=16,
                  dt_factor=40.0, t_final=1000.0), 1.0,
     "NonFiniteSolutionError"),
    (SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, n_points=16,
                  dt_factor=40.0), 1e100, "NodeCrossingError"),
    (SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=16), 1e-300,
     "finished"),
]


def ending(config, amplitude):
    """How a run of ``config`` from amplitude * sin x ends: the bits of its
    final values, or the type, step and message of the error it raises."""
    try:
        traj = ib.run(config, lambda x: amplitude * np.sin(x))
    except SimulationError as exc:
        return type(exc).__name__, exc.step, str(exc)
    return "finished", traj.final.u.tobytes()


@pytest.mark.parametrize("config, amplitude, kind", ENDINGS,
                         ids=["finishes", "blows-up", "crosses",
                              "underflows"])
def test_a_run_keeps_to_its_own_floating_point_settings(config, amplitude,
                                                        kind):
    # the run sets its own floating-point handling for its ufuncs and
    # restores the caller's, which cannot change how it ends: not under
    # numpy's defaults, nor where every event raises and every warning is
    # an error
    alone = ending(config, amplitude)
    assert alone[0] == kind

    def caller_handler(event, flag):
        raise AssertionError(f"the caller's handler saw {event}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise", call=caller_handler):
            settings_before = np.geterr(), np.geterrcall()
            assert ending(config, amplitude) == alone
            assert (np.geterr(), np.geterrcall()) == settings_before
    assert np.geterrcall() is None


def test_concurrent_runs_keep_their_own_recorders():
    # numpy's floating-point settings are a context variable, so each
    # thread's run records only its own events: a blow-up beside a
    # finishing run ends as it does alone, and so does the finishing run
    finishing, blowing_up = ENDINGS[0][:2], ENDINGS[1][:2]
    alone = [ending(*finishing), ending(*blowing_up)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(20):
            ends = [pool.submit(ending, *finishing),
                    pool.submit(ending, *blowing_up)]
            assert [end.result() for end in ends] == alone


def load_spans():
    """The benchmark's span tracer, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


# the grid equation each scheme calls once per step; the lattice at rest
# of FTCS and constant-frame calls none
ADVANCE_SPAN = {
    SchemeKind.CLASSICAL_FTCS: None,
    SchemeKind.LAGRANGIAN: "grid.advance_lagrangian",
    SchemeKind.EULERIAN_ADAPTIVE: "grid.advance_equidistributed",
    SchemeKind.CONSTANT_FRAME: None,
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
    for span in set(ADVANCE_SPAN.values()) - {None}:
        assert tracer.calls[span] == (steps if span == ADVANCE_SPAN[kind]
                                      else 0), span
