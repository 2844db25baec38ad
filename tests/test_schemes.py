import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariant_burgers import (
    DEFAULT_DT_FACTORS, DiscreteField, Generator, GridSlice, GroupElement, InterpKind,
    NodeCrossingError, NonFiniteSolutionError, SchemeConfig, SchemeKind,
    SimulationError, TAU,
    Trajectory, apply_field, mean_spacing, run, uniform_slice,
)

from invariant_burgers.grid import (Layer, advance_lagrangian,
                                    bind_equidistributed, bind_lagrangian)
from invariant_burgers.schemes import (StencilRows, bind_projection,
                                       bind_stencil, invariant_step)

from oracles import (ftcs_update_loop, moving_mesh_update_loop,
                     random_smooth_field)

ALL_KINDS = list(SchemeKind)
INVARIANT_KINDS = [SchemeKind.LAGRANGIAN, SchemeKind.EULERIAN_ADAPTIVE,
                   SchemeKind.EVOLUTION_PROJECTION]


def sin_field(n=64):
    grid = uniform_slice(n)
    return DiscreteField(grid=grid, u=np.sin(grid.x))


def layer(grid):
    """The layer placed at a slice's positions, as the step functions take
    one."""
    return Layer.of_positions(grid.x, grid.domain_length)


def stencil_step(xl, ul, xdot, dt, rows, out):
    """One step of the stencil bound to the layers, as ``run`` takes it:
    the value layer ``out`` it filled."""
    invariant_step(bind_stencil(xl, ul, xdot, dt, rows, out))
    return out


def moving_step(fld, grid_next, dt, nu):
    """The moving-mesh update from ``fld`` onto the slice ``grid_next``,
    with the grid velocity its difference quotient."""
    xdot = (grid_next.x - fld.grid.x) / dt
    xl = layer(fld.grid)
    out = stencil_step(xl, Layer.of_values(fld.u), xdot, dt,
                       StencilRows(fld.grid.n, nu), Layer(fld.grid.n))
    return DiscreteField(grid=grid_next, u=out.nodes)


def projection_step(fld, dt, nu, interp_kind):
    """The projection's step as ``run`` composes it: the Lagrangian grid
    equation, the stencil onto the moved layer with xdot = u, the
    placement of the moved layer and the remap back into the step-start
    layers."""
    n, length = fld.grid.n, fld.grid.domain_length
    xl, ul, moved = layer(fld.grid), Layer.of_values(fld.u), Layer(n, length)
    advance_lagrangian(bind_lagrangian(xl, ul, dt, moved))
    evolved = stencil_step(xl, ul, ul, dt, StencilRows(n, nu), Layer(n))
    moved.place()
    bind_projection(xl, ul, dt, moved, evolved, interp_kind)()
    return DiscreteField(grid=GridSlice(t=fld.grid.t + dt, x=xl.nodes),
                         u=ul.nodes)


# ---------------------------------------------------------------------------
# fixed-grid step: the moving-mesh update on the stationary layer
# ---------------------------------------------------------------------------

def ftcs_step(fld, dt, nu):
    xl = layer(fld.grid)
    out = stencil_step(xl, Layer.of_values(fld.u), None, dt,
                       StencilRows(fld.grid.n, nu), Layer(fld.grid.n))
    return DiscreteField(grid=fld.grid, u=out.nodes)


def test_ftcs_constant_state_is_fixed_point():
    grid = uniform_slice(16)
    fld = DiscreteField(grid=grid, u=np.full(16, 2.5))
    out = ftcs_step(fld, 1e-3, 0.1)
    np.testing.assert_allclose(out.u, 2.5, rtol=0, atol=1e-15)


def test_ftcs_zero_state_stays_zero():
    fld = DiscreteField(grid=uniform_slice(16), u=np.zeros(16))
    np.testing.assert_array_equal(ftcs_step(fld, 1e-3, 0.1).u, np.zeros(16))


@pytest.mark.parametrize("offset", [0.0, 2.7])
@pytest.mark.parametrize("n", [8, 64])
def test_ftcs_single_step_matches_loop_oracle(n, offset):
    grid = uniform_slice(n, domain_start=offset)
    fld = DiscreteField(grid=grid, u=np.sin(grid.x))
    h = mean_spacing(grid)
    out = ftcs_step(fld, 1e-3, 0.1)
    expected = ftcs_update_loop(fld.u, 1e-3, 0.1, h)
    np.testing.assert_allclose(out.u, expected, rtol=0, atol=1e-15)


def test_ftcs_conserves_discrete_mean():
    fld = sin_field(64)
    total = fld.u.sum()
    for _ in range(200):
        fld = ftcs_step(fld, 5e-3, 0.1)
    assert abs(fld.u.sum() - total) <= 1e-12


# ---------------------------------------------------------------------------
# moving-mesh step
# ---------------------------------------------------------------------------

def test_invariant_step_constant_state_any_mesh_motion():
    grid = uniform_slice(16)
    fld = DiscreteField(grid=grid, u=np.full(16, 1.7))
    wobble = GridSlice(t=2e-3, x=grid.x + 1e-3 * np.sin(3 * grid.x))
    out = moving_step(fld, wobble, 2e-3, 0.1)
    np.testing.assert_allclose(out.u, 1.7, rtol=0, atol=1e-12)


def test_invariant_step_matches_loop_oracle():
    fld = sin_field(8)
    dt = 1e-3
    moved = GridSlice(t=dt, x=fld.grid.x + dt * np.cos(fld.grid.x))
    out = moving_step(fld, moved, dt, 0.1)
    expected = moving_mesh_update_loop(fld.grid.x, fld.u,
                                       (moved.x - fld.grid.x) / dt, dt, 0.1,
                                       TAU)
    np.testing.assert_array_equal(out.u, expected)


def test_invariant_step_single_step_boost_equivariance():
    fld = sin_field(32)
    dt = 2e-3
    moved = GridSlice(t=dt, x=fld.grid.x + dt * fld.u)
    rest = moving_step(fld, moved, dt, 0.1)

    g = GroupElement(Generator.GALILEAN_BOOST, 1.0)
    boosted_in = apply_field(g, fld)
    boosted_grid = GridSlice(t=dt, x=moved.x + g.epsilon * dt,
                             domain_start=moved.domain_start)
    boosted_out = moving_step(boosted_in, boosted_grid, dt, 0.1)
    np.testing.assert_allclose(boosted_out.u, rest.u + g.epsilon,
                               rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-5, 1e-2), nu=st.floats(1e-3, 1.0))
def test_a_stationary_step_equals_a_step_onto_a_copied_layer(n, seed, dt,
                                                             nu):
    # no grid velocity skips u - xdot; the difference quotient onto a copy
    # of the layer, xdot = (x - x)/dt = 0 at every node, and the drift
    # c = 0 form it, and the values (ghost slots included) must not differ
    rng = np.random.default_rng(seed)
    x, u = random_smooth_field(rng, n)
    u[rng.integers(0, n, 3)] = rng.choice([0.0, -0.0], 3)
    xl, ul = Layer.of_positions(x, TAU), Layer.of_values(u)
    rows = StencilRows(n, nu)
    skipped = stencil_step(xl, ul, None, dt, rows, Layer(n))
    for xdot in ((x - x.copy()) / dt, 0.0):
        formed = stencil_step(xl, ul, xdot, dt, rows, Layer(n))
        assert skipped.g.tobytes() == formed.g.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-5, 1e-2), nu=st.floats(1e-3, 1.0),
       velocity=st.sampled_from(["none", "values", "row"]))
def test_a_step_in_place_equals_a_step_into_a_spare_layer(n, seed, dt, nu,
                                                          velocity):
    # every term is formed in the stencil rows before the one write into
    # out, so run steps its solution layer in place; the values, ghost
    # slots included, must not differ from a step into a spare layer
    rng = np.random.default_rng(seed)
    x, u = random_smooth_field(rng, n)
    xl = Layer.of_positions(x, TAU)
    rows = StencilRows(n, nu)
    rows.xdot[...] = rng.normal(size=n)
    spare_from, ul = Layer.of_values(u), Layer.of_values(u)
    xdot = {"none": None, "values": spare_from, "row": rows.xdot}[velocity]
    spare = stencil_step(xl, spare_from, xdot, dt, rows, Layer(n))
    xdot = ul if velocity == "values" else xdot
    stencil_step(xl, ul, xdot, dt, rows, ul)
    assert ul.g.tobytes() == spare.g.tobytes()


def bound_step(x, u, nu, dt, adaptive, ahead):
    """The layers and rows of a grid equation and the stencil bound to
    the position layer of ``x``: the equation writes that layer itself if
    ``ahead``, a layer of its own otherwise."""
    n = len(x)
    xl, ul = Layer.of_positions(x, TAU), Layer.of_values(u)
    rows = StencilRows(n, nu)
    out = xl if ahead else Layer(n, TAU)
    if adaptive:
        xdot = rows.xdot
        equation = bind_equidistributed(xl, ul, 1.0, out, rows.advection,
                                        dt, xdot)
    else:
        xdot, equation = ul, bind_lagrangian(xl, ul, dt, out)
    evolved = Layer(n)
    return (xl, out, evolved, equation,
            bind_stencil(xl, ul, xdot, dt, rows, evolved))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-5, 1e-2), nu=st.floats(1e-3, 1.0),
       adaptive=st.booleans())
def test_a_grid_equation_writes_its_step_start_layer_ahead_of_placement(
        n, seed, dt, nu, adaptive):
    # the stencil reads only the gap rows of its position layer, so a grid
    # equation may write the next positions into that layer's nodes: until
    # the layer is placed, its ghost slots and gap rows keep the step-start
    # layer, and the stencil steps the values it steps when the equation
    # writes a layer of its own, or, on the Lagrangian grid, has not run
    rng = np.random.default_rng(seed)
    x, u = random_smooth_field(rng, n)
    dt = np.array(dt)
    xl, _, evolved, equation, stencil = bound_step(x, u, nu, dt, adaptive,
                                                   ahead=True)
    ghosts = [0, -2, -1]

    def placed_rows():
        return [xl.g[ghosts].tobytes(), xl.gaps.tobytes(), xl.wide.tobytes()]

    start = placed_rows()
    equation()
    assert xl.nodes.tobytes() != x.tobytes()
    assert placed_rows() == start
    stencil()
    _, spare, expected, spare_equation, spare_stencil = bound_step(
        x, u, nu, dt, adaptive, ahead=False)
    if not adaptive:
        # the Lagrangian stencil reads no row the equation writes
        spare_stencil()
        assert evolved.g.tobytes() == expected.g.tobytes()
    spare_equation()
    spare_stencil()
    assert evolved.g.tobytes() == expected.g.tobytes()
    try:
        spare.place()
    except NodeCrossingError:
        with pytest.raises(NodeCrossingError):
            xl.place()
        return
    xl.place()
    for row in ("g", "gaps", "wide"):
        assert getattr(xl, row).tobytes() == getattr(spare, row).tobytes()


@pytest.mark.parametrize("times", [(0.0,), (0.0, 0.0), (0.5, 0.25)])
def test_a_trajectory_refuses_times_that_do_not_increase(times):
    snapshots = tuple(DiscreteField(grid=uniform_slice(4, t=t),
                                    u=np.zeros(4)) for t in times)
    with pytest.raises(ValueError, match="^snapshot times must be strictly "
                                         "increasing$") as refused:
        Trajectory(snapshots=snapshots,
                   config=SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN))
    assert refused.type is ValueError


# ---------------------------------------------------------------------------
# evolution-projection step
# ---------------------------------------------------------------------------

def test_projection_step_constant_state():
    grid = uniform_slice(16)
    c = 0.9
    fld = DiscreteField(grid=grid, u=np.full(16, c))
    out = projection_step(fld, 1e-3, 0.1, InterpKind.QUADRATIC)
    # values are reproduced exactly; the lattice rides with the bulk
    # velocity, which for constant data is the state itself
    np.testing.assert_allclose(out.u, c, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.grid.x, grid.x + 1e-3 * c, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(out.grid.gaps(), mean_spacing(grid),
                               rtol=0, atol=1e-14)


def test_projection_step_keeps_lattice_for_zero_mean_data():
    fld = sin_field(64)
    out = projection_step(fld, 1e-3, 0.1, InterpKind.QUADRATIC)
    np.testing.assert_allclose(out.grid.x, fld.grid.x, rtol=0, atol=1e-16)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_run_zero_solution_single_step(kind):
    h = TAU / 64
    config = SchemeConfig(scheme_kind=kind, t_final=2.0 * h * h)
    traj = run(config, lambda x: np.zeros_like(x))
    assert len(traj.snapshots) == 2
    for snap in traj.snapshots:
        np.testing.assert_allclose(snap.u, 0.0, rtol=0, atol=1e-15)
    assert traj.initial.grid.t == 0.0
    assert traj.final.grid.t == config.t_final


def test_run_snapshot_times_and_every():
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, t_final=0.1)
    traj = run(config, np.sin, snapshot_every=5)
    times = [f.grid.t for f in traj.snapshots]
    assert times[0] == 0.0
    assert times[-1] == 0.1
    assert np.all(np.diff(times) > 0.0)
    assert len(traj.snapshots) > 2


@pytest.mark.parametrize("kind", INVARIANT_KINDS)
def test_run_frame_equivalence_of_invariant_schemes(kind):
    config = SchemeConfig(scheme_kind=kind, n_points=32, t_final=0.25)
    rest = run(config, np.sin)
    boosted = run(SchemeConfig(scheme_kind=kind, n_points=32, t_final=0.25,
                               frame_velocity=1.0), np.sin)
    back = apply_field(GroupElement(Generator.GALILEAN_BOOST, -1.0),
                       boosted.final)
    np.testing.assert_allclose(back.grid.x, rest.final.grid.x,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(back.u, rest.final.u, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [SchemeKind.LAGRANGIAN,
                                  SchemeKind.EVOLUTION_PROJECTION])
def test_run_in_a_fast_frame_completes(kind):
    # nodes travel to |x| ~ 5e5, where the periodic gaps no longer sum to L
    # exactly; mapped back, the run matches the rest frame to the rounding
    # of values of size 1e6 (ulp 1.2e-10)
    rest = run(SchemeConfig(scheme_kind=kind), np.sin)
    fast = run(SchemeConfig(scheme_kind=kind, frame_velocity=1e6), np.sin)
    assert fast.final.grid.t == 0.5
    back = apply_field(GroupElement(Generator.GALILEAN_BOOST, -1e6),
                       fast.final)
    np.testing.assert_allclose(back.grid.x, rest.final.grid.x,
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(back.u, rest.final.u, rtol=0, atol=1e-8)


def test_run_scaling_equivariance_lagrangian():
    eps = 0.3
    s, s2 = math.exp(eps), math.exp(2.0 * eps)
    base = SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, n_points=32,
                        t_final=0.25)
    scaled = SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, n_points=32,
                          t_final=0.25 * s2, domain_length=TAU * s)
    rest = run(base, np.sin)
    big = run(scaled, lambda x: np.sin(x / s) / s)
    g = GroupElement(Generator.SCALING, eps)
    mapped = apply_field(g, rest.final)
    assert big.final.grid.t == pytest.approx(mapped.grid.t, abs=1e-12)
    np.testing.assert_allclose(big.final.grid.x, mapped.grid.x,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(big.final.u, mapped.u, rtol=0, atol=1e-10)


def test_run_attaches_step_index_to_failures():
    config = SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, n_points=32,
                          t_final=4.0, dt_factor=60.0)  # dt*|u_x| > 1: crossing
    with pytest.raises(NodeCrossingError) as excinfo:
        run(config, np.sin)
    assert excinfo.value.step == 0
    assert "step 0" in str(excinfo.value)


@pytest.mark.filterwarnings("error")
def test_an_overflow_in_the_adaptive_set_up_is_a_typed_error():
    # the initial equidistribution squares slopes of 1e160 in the monitor,
    # whose reciprocals the mesh solve would then divide by their sum, 0
    with pytest.raises(NonFiniteSolutionError,
                       match="equidistribution monitor is not finite"):
        run(SchemeConfig(scheme_kind=SchemeKind.EULERIAN_ADAPTIVE,
                         n_points=64), lambda x: 1e160 * np.sin(x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [SchemeKind.LAGRANGIAN,
                                  SchemeKind.CLASSICAL_FTCS])
def test_a_period_near_the_largest_float_runs_without_a_warning(kind):
    # placing the first layer adds the period to the last node, which
    # overflows in its ghost slots
    traj = run(SchemeConfig(scheme_kind=kind, n_points=8,
                            domain_length=1.7e308, t_final=1e-300), np.sin)
    assert traj.final.grid.t == 1e-300


def test_constant_frame_with_zero_velocity_matches_ftcs():
    ftcs = run(SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                            n_points=32, t_final=0.1), np.sin,
               snapshot_every=1)
    const = run(SchemeConfig(scheme_kind=SchemeKind.CONSTANT_FRAME,
                             n_points=32, t_final=0.1, frame_velocity=0.0),
                np.sin, snapshot_every=1)
    assert len(const.snapshots) == len(ftcs.snapshots) > 2
    for a, b in zip(const.snapshots, ftcs.snapshots):
        np.testing.assert_array_equal(a.grid.x, b.grid.x)
        np.testing.assert_array_equal(a.u, b.u)


def test_constant_frame_grid_drifts_rigidly():
    # the lattice is at rest in the frame of the boost c, so each snapshot
    # reports it at x + c t, one rounding per node
    c = 0.7
    traj = run(SchemeConfig(scheme_kind=SchemeKind.CONSTANT_FRAME,
                            n_points=32, t_final=0.1, frame_velocity=c),
               np.sin, snapshot_every=1)
    assert len(traj.snapshots) > 2
    for snap in traj.snapshots:
        np.testing.assert_array_equal(snap.grid.x,
                                      traj.initial.grid.x + c * snap.grid.t)


def test_a_collapse_of_the_reported_positions_carries_its_step():
    # at t = 0.5 a drift of 1e17 moves the lattice to 5e16, where doubles
    # are 8 apart, so the lab positions of the last snapshot coincide
    config = SchemeConfig(scheme_kind=SchemeKind.CONSTANT_FRAME, n_points=16,
                          frame_velocity=1e17)
    with pytest.raises(NodeCrossingError) as info:
        run(config, np.zeros_like)
    assert info.value.step is not None
    assert str(info.value).startswith(f"step {info.value.step} (t=")


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, nu=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, t_final=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=2)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        SchemeConfig(scheme_kind=SchemeKind.EULERIAN_ADAPTIVE, alpha=-1.0)
    for length in (0.0, -1.0):
        with pytest.raises(ValueError, match="domain_length must be positive"):
            SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                         domain_length=length)


# an int or a Fraction past the largest float overflows its conversion
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 10 ** 400,
                                   -Fraction(10 ** 400, 3)])
@pytest.mark.parametrize("name", ["nu", "t_final", "dt_factor", "alpha",
                                  "frame_velocity", "domain_start",
                                  "domain_length"])
def test_config_rejects_a_non_finite_value_by_name(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, **{name: value})


@pytest.mark.parametrize("value", ["0.1", 0.1 + 0j])
@pytest.mark.parametrize("name", ["nu", "t_final", "dt_factor", "alpha",
                                  "frame_velocity", "domain_start",
                                  "domain_length"])
def test_config_names_a_value_that_is_not_a_real_number(name, value):
    # numpy's own complaint ("ufunc 'isfinite' not supported ...") names
    # no field, and a complex value got past the finiteness check
    with pytest.raises(TypeError, match=re.escape(
            f"{name} must be a real number, got {value!r}")):
        SchemeConfig(scheme_kind=SchemeKind.LAGRANGIAN, **{name: value})


@pytest.mark.parametrize("value", [16.5, 16.0, "16"])
def test_config_rejects_a_grid_size_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=value)


@pytest.mark.parametrize("value", [np.int64(16), np.int32(16)])
def test_config_takes_a_numpy_integer_grid_size(value):
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                          n_points=value, t_final=0.05)
    assert len(run(config, np.sin).final.u) == 16


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", ["nu", "t_final", "dt_factor", "alpha",
                                  "frame_velocity", "domain_start",
                                  "domain_length", "n_points",
                                  "snapshot_every"])
def test_a_bool_is_not_a_number(name, value):
    # bool is a numbers.Integral: nu=True ran at nu = 1 and
    # snapshot_every=True stored every step
    match = re.escape(f"{name} must be ") + "(a real number|an integer)" + (
        re.escape(f", got {value!r}"))
    with pytest.raises(TypeError, match=match):
        if name == "snapshot_every":
            run(SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                             n_points=8, t_final=0.01), np.sin,
                snapshot_every=value)
        else:
            SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                         **{name: value})


@pytest.mark.parametrize("name, value, kind", [
    ("scheme_kind", "ftsc", "SchemeKind"),
    ("interp_kind", "cubic", "InterpKind"),
])
def test_config_rejects_an_unknown_kind(name, value, kind):
    fields = {"scheme_kind": SchemeKind.CLASSICAL_FTCS, name: value}
    with pytest.raises(ValueError, match=f"'{value}' is not a valid {kind}"):
        SchemeConfig(**fields)


def test_config_stores_its_kinds_as_enums():
    config = SchemeConfig(scheme_kind="constant-frame", interp_kind="linear")
    assert config.scheme_kind is SchemeKind.CONSTANT_FRAME
    assert config.interp_kind is InterpKind.LINEAR
    assert config.dt_factor == DEFAULT_DT_FACTORS[SchemeKind.CONSTANT_FRAME]


# values a caller might pass for a field: bools, exact rationals,
# non-finite and subnormal floats, the edge of the float range, strings
HOSTILE_VALUES = {
    "real": [True, False, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             1e308, -1e308, 0.0, -0.0, -1.0, 10 ** 400, Fraction(1, 3),
             np.float32(0.3), "0.1", "", None, 1 + 0j],
    "size": [3, 0, -1, 8.0, Fraction(8), "8", np.int64(8), True, None],
    "kind": ["ftsc", "", "FTCS", "cubic", None],
}
FIELD_KINDS = {"nu": "real", "t_final": "real", "dt_factor": "real",
               "alpha": "real", "frame_velocity": "real",
               "domain_start": "real", "domain_length": "real",
               "n_points": "size", "scheme_kind": "kind",
               "interp_kind": "kind"}


@st.composite
def hostile_configs(draw):
    """SchemeConfig fields: a short valid run, enum values given as members
    or strings, with up to three fields replaced by hostile values."""
    fields = {
        "scheme_kind": draw(st.sampled_from(
            [*SchemeKind, *(k.value for k in SchemeKind)])),
        "interp_kind": draw(st.sampled_from(
            [*InterpKind, *(k.value for k in InterpKind)])),
        "n_points": draw(st.integers(4, 16)),
        "nu": draw(st.sampled_from([0.1, 0.02, Fraction(1, 10)])),
        "t_final": draw(st.sampled_from([0.05, Fraction(1, 20)])),
        "dt_factor": draw(st.sampled_from([None, 0.5, Fraction(1, 2)])),
        "alpha": draw(st.sampled_from([1.0, 7.5])),
        "frame_velocity": draw(st.sampled_from([0.0, 1.3, -4])),
        "domain_start": draw(st.sampled_from([0.0, -2.0])),
        "domain_length": draw(st.sampled_from([TAU, 1.0])),
    }
    for name in draw(st.sets(st.sampled_from(sorted(FIELD_KINDS)),
                             max_size=3)):
        fields[name] = draw(st.sampled_from(HOSTILE_VALUES[FIELD_KINDS[name]]))
    return fields


@settings(max_examples=200, deadline=None)
@given(hostile_configs())
def test_any_config_runs_or_raises_a_typed_error(fields):
    # the library boundary: a config either runs to t_final or is refused
    # by TypeError, ValueError or a SimulationError, and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            traj = run(SchemeConfig(**fields), np.sin)
        except (TypeError, ValueError, SimulationError):
            return
    assert traj.final.grid.t == traj.config.t_final


@pytest.mark.parametrize("field, value", [("t_final", 1e300),
                                          ("dt_factor", 1e-300),
                                          ("dt_factor", 5e-324)])
def test_run_rejects_too_many_steps_before_the_first(field, value):
    # dt_factor 5e-324 makes dt = C h^2 underflow to 0
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=8,
                          **{field: value})
    with pytest.raises(ValueError, match="t_final=.*dt_factor="):
        run(config, np.sin)


def test_run_rejects_a_negative_snapshot_interval():
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=8)
    with pytest.raises(ValueError, match="snapshot_every"):
        run(config, np.sin, snapshot_every=-3)


@pytest.mark.parametrize("every", [2.5, float("nan"), "3", 3.0])
def test_run_rejects_a_snapshot_interval_that_is_not_an_integer(every):
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=8)
    with pytest.raises(ValueError, match="snapshot_every must be an integer"):
        run(config, np.sin, snapshot_every=every)


def test_run_takes_a_numpy_integer_snapshot_interval():
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS, n_points=32)
    times = [[f.grid.t for f in run(config, np.sin,
                                    snapshot_every=every).snapshots]
             for every in (3, np.int64(3))]
    assert len(times[0]) > 3
    assert times[0] == times[1]


@pytest.mark.parametrize("offset", [0.0, 2.7])
@pytest.mark.parametrize("n", [16, 64, 512])
def test_constant_frame_at_zero_drift_is_ftcs_byte_for_byte(n, offset):
    # at frame velocity 0 the constant-frame run computes in the frame of
    # the data, on the same lattice with the same step, and reports each
    # layer at (x + 0 t, u + 0), so every stored layer matches the FTCS run's
    every = 1 if n < 512 else 10
    ftcs, frame = (run(SchemeConfig(scheme_kind=kind, n_points=n,
                                    domain_start=offset), np.sin,
                       snapshot_every=every)
                   for kind in (SchemeKind.CLASSICAL_FTCS,
                                SchemeKind.CONSTANT_FRAME))
    assert len(ftcs.snapshots) == len(frame.snapshots) > 2
    for a, b in zip(ftcs.snapshots, frame.snapshots):
        assert a.grid.t == b.grid.t
        assert a.grid.x.tobytes() == b.grid.x.tobytes()
        assert a.u.tobytes() == b.u.tobytes()


@pytest.mark.parametrize("kind", [SchemeKind.CLASSICAL_FTCS,
                                  SchemeKind.CONSTANT_FRAME,
                                  SchemeKind.EVOLUTION_PROJECTION])
def test_uniform_lattice_defaults_keep_diffusion_positive(kind):
    # these stencils run on uniform step-start lattices, so the default
    # constant must satisfy nu dt / gap^2 <= 1/2 there, i.e. C <= 1/(2 nu)
    config = SchemeConfig(scheme_kind=kind)
    traj = run(config, np.sin, snapshot_every=1)
    h = mean_spacing(traj.initial.grid)
    dt = config.dt_factor * h * h
    min_gap = min(float(f.grid.gaps().min()) for f in traj.snapshots[:-1])
    assert config.nu * dt / min_gap ** 2 <= 0.5
