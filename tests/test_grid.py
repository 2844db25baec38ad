import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from invariant_burgers import (
    DiscreteField, Generator, GridSlice, GroupElement, NoConvergenceError,
    NodeCrossingError, NonFiniteSolutionError, TAU, apply_field,
    equidistribute_initial, mean_spacing, transform_monitor, uniform_slice,
)
from invariant_burgers.grid import (Layer, advance_constant,
                                    advance_equidistributed,
                                    advance_lagrangian, advance_stationary,
                                    monitor)
from invariant_burgers.interpolate import InterpKind, interpolate

from oracles import (dense_equidistribution_solve, equidistribution_residual,
                     ghosted_by_concatenation, monitor_loop, order_verdict,
                     random_smooth_field)


def sin_field(n=64, amplitude=1.0):
    grid = uniform_slice(n)
    return DiscreteField(grid=grid, u=amplitude * np.sin(grid.x))


def layer(grid):
    """The layer placed at a slice's positions, as the grid equations take
    and return one."""
    return Layer.of_positions(grid.x, grid.domain_length)


def values(u):
    return Layer.of_values(u)


def nodes(xl):
    return xl.nodes


def gaps(xl):
    return xl.gaps[1:-1]


def field_monitor(fld, alpha):
    return monitor(layer(fld.grid), values(fld.u), alpha,
                   Layer(fld.grid.n)).nodes


# ---------------------------------------------------------------------------
# grid slice basics
# ---------------------------------------------------------------------------

def test_uniform_slice_gap_sum():
    grid = uniform_slice(64)
    assert abs(grid.gaps().sum() - TAU) <= 1e-12 * TAU


def test_mean_spacing():
    assert mean_spacing(uniform_slice(64)) == pytest.approx(TAU / 64, abs=0)
    grid = uniform_slice(4, domain_length=4.0)
    assert mean_spacing(grid) == 1.0


def test_mean_spacing_ignores_node_distribution():
    grid = uniform_slice(16)
    skewed = GridSlice(t=0.0, x=grid.x + 0.3 * np.sin(grid.x))
    assert mean_spacing(skewed) == mean_spacing(grid)


def test_grid_slice_validation():
    with pytest.raises(ValueError):
        GridSlice(t=0.0, x=np.array([0.0, 1.0, 2.0]))  # too few nodes
    with pytest.raises(ValueError):
        GridSlice(t=0.0, x=np.array([0.0, 2.0, 1.0, 3.0]))  # not increasing
    with pytest.raises(ValueError):
        GridSlice(t=0.0, x=np.array([0.0, 1.0, 2.0, TAU + 1.0]))  # closure


@pytest.mark.parametrize("length", [np.inf, np.nan, 0.0, -1.0])
def test_grid_slice_rejects_a_bad_domain_length(length):
    # an infinite L would make the closing gap inf, which is positive
    with pytest.raises(ValueError, match="domain_length"):
        GridSlice(t=0.0, x=np.arange(4.0), domain_length=length)


def test_grid_slice_accepts_positions_far_from_the_origin():
    # gaps of a shifted lattice no longer sum to L exactly; order is all
    # a grid needs
    x = uniform_slice(64).x + 1e6
    np.testing.assert_array_equal(GridSlice(t=0.0, x=x).x, x)


def test_grid_slice_names_the_first_inverted_interval():
    with pytest.raises(NodeCrossingError, match=r"x\[2\] -> x\[3\]"):
        GridSlice(t=0.0, x=np.array([0.0, 1.0, 2.0, 1.5, 3.0]))
    with pytest.raises(NodeCrossingError, match=r"x\[3\] -> x\[0\] \+ L"):
        GridSlice(t=0.0, x=np.array([0.0, 1.0, 2.0, TAU + 1.0]))
    # a gap of exactly zero is not positive either
    with pytest.raises(NodeCrossingError,
                       match=r"x\[1\] -> x\[2\] has gap 0"):
        GridSlice(t=0.0, x=np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(NodeCrossingError,
                       match=r"x\[3\] -> x\[0\] \+ L has gap 0"):
        GridSlice(t=0.0, x=np.array([0.0, 1.0, 2.0, TAU]))


@pytest.mark.parametrize("node", [0, 3, 7])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grid_slice_rejects_a_non_finite_node_by_its_order(node, value):
    # a NaN or infinite node leaves some periodic gap NaN or not positive
    x = uniform_slice(8).x
    x[node] = value
    with pytest.raises(NodeCrossingError):
        GridSlice(t=0.0, x=x)


@pytest.mark.parametrize("x, interval", [
    ([0.0, np.inf, np.inf, 3.0], r"x\[1\] -> x\[2\] has gap nan"),
    ([-np.inf, -np.inf, 1.0, 2.0], r"x\[0\] -> x\[1\] has gap nan"),
])
def test_equal_infinite_nodes_are_a_crossing_without_a_warning(x, interval):
    # their gap inf - inf is NaN, which the order check must meet quietly,
    # on both ways in: the interpolant's nodes and a slice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in InterpKind:
            with pytest.raises(NodeCrossingError, match=interval):
                interpolate(x, [0.0, 1.0, 0.0, 1.0], [0.5], kind)
        with pytest.raises(NodeCrossingError, match=interval):
            GridSlice(t=0.0, x=x)


def test_container_errors_are_typed_value_errors():
    grid = uniform_slice(8)
    with pytest.raises(NonFiniteSolutionError):
        DiscreteField(grid=grid, u=np.full(8, np.nan))
    assert issubclass(NonFiniteSolutionError, ValueError)
    assert issubclass(NodeCrossingError, ValueError)


def test_wrapped_positions_stay_in_fundamental_interval():
    grid = uniform_slice(8)
    drifted = GridSlice(t=0.0, x=grid.x + 3.7 * TAU)
    w = drifted.wrapped_x()
    assert np.all((w >= 0.0) & (w < TAU))


# ---------------------------------------------------------------------------
# ghost slots
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 700)),
       seed=st.integers(0, 2**32 - 1),
       jump=st.sampled_from([0.0, TAU, 3.5]),
       zeros=st.sets(st.sampled_from([0, 1, -1])))
def test_a_layer_matches_the_concatenated_layout_by_bytes(n, seed, jump,
                                                         zeros):
    # a layer filled with values (jump 0) or placed at positions (jump L);
    # entries of -0.0 beside the seam must keep their sign in the ghosts.
    # A placement lays out its slots before its order check, which these
    # unsorted nodes may fail
    a = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
    for i in zeros:
        a[i % n] = -0.0
    layer = Layer(n, jump)
    layer.nodes[...] = a
    if jump:
        with contextlib.suppress(NodeCrossingError):
            layer.place()
    else:
        layer.fill()
    g = layer.g
    assert g.dtype == np.float64 and g.shape == (n + 3,)
    assert g.tobytes() == ghosted_by_concatenation(a, jump).tobytes()


def verdict(fn, *args):
    """The message of the ``NodeCrossingError`` that ``fn`` raises, or
    None."""
    try:
        fn(*args)
    except NodeCrossingError as exc:
        return str(exc)
    return None


node_values = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@settings(max_examples=400, deadline=None)
@given(x=hnp.arrays(float, st.integers(1, 40), elements=node_values),
       ordered=st.booleans(),
       length=st.one_of(st.floats(1e-3, 1e3), st.just(TAU)))
def test_a_placed_layer_matches_the_order_oracle(x, ordered, length):
    # the scalar loop's order verdict and message, whatever the nodes hold,
    # and the gaps and wide gaps of the concatenated layout
    if ordered:
        x = np.sort(x)
    placed = Layer(len(x), length)
    placed.nodes[...] = x
    with np.errstate(over="ignore", invalid="ignore"):
        assert verdict(placed.place) == order_verdict(x, length)
        xg = ghosted_by_concatenation(x, length)
        gaps, wide = xg[1:] - xg[:-1], xg[2:] - xg[:-2]
    assert placed.g.tobytes() == xg.tobytes()
    assert placed.gaps.tobytes() == gaps.tobytes()
    assert placed.wide.tobytes() == wide.tobytes()


# ---------------------------------------------------------------------------
# stationary / lagrangian / constant advances
# ---------------------------------------------------------------------------

def test_advance_stationary_keeps_positions():
    grid = uniform_slice(64)
    xg = layer(grid)
    out = advance_stationary(xg, 0.01)
    assert out is xg
    np.testing.assert_array_equal(nodes(out), grid.x)


def test_advance_lagrangian_zero_velocity():
    grid = uniform_slice(16)
    out = advance_lagrangian(layer(grid), values(np.zeros(16)), 0.05,
                             Layer(16, TAU))
    np.testing.assert_array_equal(nodes(out), grid.x)


def test_advance_lagrangian_rigid_motion_preserves_gaps():
    grid = uniform_slice(16)
    out = advance_lagrangian(layer(grid), values(np.full(16, 0.7)), 0.1,
                             Layer(16, TAU))
    np.testing.assert_allclose(nodes(out), grid.x + 0.1 * 0.7, rtol=0, atol=0)
    np.testing.assert_allclose(gaps(out), grid.gaps(), rtol=0, atol=5e-15)


def test_advance_lagrangian_matches_formula():
    # independent elementwise evaluation of the node-motion rule
    grid = uniform_slice(8)
    u = np.sin(grid.x)
    out = advance_lagrangian(layer(grid), values(u), 0.1, Layer(8, TAU))
    expected = [grid.x[i] + 0.1 * math.sin(grid.x[i]) for i in range(8)]
    np.testing.assert_allclose(nodes(out), expected, rtol=0, atol=1e-16)


def test_advance_lagrangian_detects_node_crossing():
    grid = uniform_slice(8)
    u = np.zeros(8)
    u[3] = -2.0 * mean_spacing(grid)  # node 3 would overtake node 2
    with pytest.raises(NodeCrossingError):
        advance_lagrangian(layer(grid), values(u), 1.0, Layer(8, TAU))


def test_advance_constant_zero_velocity_is_stationary():
    grid = uniform_slice(12)
    xg = layer(grid)
    np.testing.assert_array_equal(
        advance_constant(xg, 0.0, 0.01, Layer(12, TAU)).g,
        advance_stationary(xg, 0.01).g)


def test_advance_constant_shifts_every_node():
    grid = uniform_slice(12)
    out = advance_constant(layer(grid), 1.0, 0.01, Layer(12, TAU))
    np.testing.assert_allclose(nodes(out) - grid.x, 0.01, rtol=0, atol=1e-14)


def test_gap_sum_preserved_by_advances():
    fld = sin_field(32)
    xg, ul = layer(fld.grid), values(fld.u)
    for out in (
        advance_stationary(xg, 0.01),
        advance_lagrangian(xg, ul, 0.01, Layer(32, TAU)),
        advance_constant(xg, 1.3, 0.01, Layer(32, TAU)),
        advance_equidistributed(xg, ul, 1.0, 0.01, Layer(32, TAU)),
    ):
        assert abs(gaps(out).sum() - TAU) <= 1e-12 * TAU


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def test_monitor_is_one_for_zero_alpha():
    np.testing.assert_array_equal(
        field_monitor(sin_field(64), 0.0), np.ones(64))


def test_monitor_is_one_for_constant_state():
    grid = uniform_slice(32)
    fld = DiscreteField(grid=grid, u=np.full(32, 5.0))
    np.testing.assert_array_equal(
        field_monitor(fld, 1.0), np.ones(32))


def test_monitor_closed_form_at_origin():
    # centered quotient of sin at x=0 on a uniform grid is sin(h)/h
    fld = sin_field(64)
    h = mean_spacing(fld.grid)
    rho = field_monitor(fld, 1.0)
    expected = math.sqrt(1.0 + (math.sin(h) / h) ** 2)
    assert rho[0] == pytest.approx(expected, abs=1e-14)


def test_monitor_matches_loop_oracle():
    rng = np.random.default_rng(42)
    x, u = random_smooth_field(rng, 24)
    fld = DiscreteField(grid=GridSlice(t=0.0, x=x - x[0]), u=u)
    rho = field_monitor(fld, 0.7)
    np.testing.assert_allclose(
        rho, monitor_loop(fld.grid.x, u, 0.7, TAU), rtol=0, atol=1e-14)


def test_monitor_at_least_one():
    rng = np.random.default_rng(3)
    x, u = random_smooth_field(rng, 40)
    fld = DiscreteField(grid=GridSlice(t=0.0, x=x - x[0]), u=u)
    assert np.all(field_monitor(fld, 2.0) >= 1.0)


# ---------------------------------------------------------------------------
# equidistribution
# ---------------------------------------------------------------------------

def test_equidistributed_constant_monitor_gives_uniform_gaps():
    fld = sin_field(32)
    out = advance_equidistributed(layer(fld.grid), values(fld.u), 0.0, 0.01,
                                  Layer(32, TAU))
    np.testing.assert_allclose(gaps(out), TAU / 32, rtol=0, atol=1e-9)


def test_equidistributed_matches_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, u = random_smooth_field(rng, 32)
        fld = DiscreteField(grid=GridSlice(t=0.0, x=x - x[0] + 0.2), u=u)
        dt = 1e-3
        out = advance_equidistributed(layer(fld.grid), values(u), 1.0, dt,
                                      Layer(32, TAU))
        rho = field_monitor(fld, 1.0)
        ref = dense_equidistribution_solve(rho, fld.grid.x[0] + dt * u[0], TAU)
        assert np.max(np.abs(nodes(out) - ref)) <= 1e-10


@st.composite
def monitored_fields(draw):
    """A random ordered grid (node 0 in [-10, 10]) carrying random data,
    with alpha scaled so that the monitor spans [1, rho_max], rho_max in
    [1, 50]."""
    n = draw(st.integers(4, 96))
    weights = draw(hnp.arrays(float, n, elements=st.floats(0.1, 1.0)))
    u = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    x0 = draw(st.floats(-10.0, 10.0))
    rho_max = draw(st.floats(1.0, 50.0))
    offsets = np.concatenate([[0.0], np.cumsum(weights[:-1])])
    x = x0 + offsets * (TAU / weights.sum())
    fld = DiscreteField(grid=GridSlice(t=0.0, x=x), u=u)
    slope2 = field_monitor(fld, 1.0) ** 2 - 1.0
    alpha = (rho_max ** 2 - 1.0) / slope2.max() if slope2.max() > 0.0 else 0.0
    return fld, alpha


def check_placement(fld, alpha, dt):
    """The placed layer agrees with the dense solve, carries one flux in
    every cell up to the rounding of stored positions, and spans L."""
    out = advance_equidistributed(layer(fld.grid), values(fld.u), alpha, dt,
                                  Layer(fld.grid.n, TAU))
    rho = field_monitor(fld, alpha)
    ref = dense_equidistribution_solve(rho, fld.grid.x[0] + dt * fld.u[0],
                                       TAU)
    assert np.max(np.abs(nodes(out) - ref)) <= 1e-10
    out_gaps = gaps(out)
    weight = rho + np.roll(rho, -1)
    flux = weight * out_gaps
    # a gap is the difference of two stored positions, so it carries a
    # rounding of a few ulp(max |x|) that no placement can avoid; beyond it
    # every cell carries the same flux
    rounding = 4.0 * np.spacing(np.abs(nodes(out)).max() + TAU) * weight
    assert np.all(np.abs(flux - flux.mean())
                  <= 1e-12 * flux.mean() + rounding)
    assert abs(out_gaps.sum() - TAU) <= 1e-12 * TAU


@settings(max_examples=300, deadline=None)
@given(monitored_fields(), st.floats(1e-6, 1e-2))
def test_equidistributed_random_monitors_match_dense_solve(case, dt):
    check_placement(*case, dt)


def test_equidistributed_closing_gap_keeps_the_flux():
    # a draw on which the closing gap, placed by subtracting a pairwise sum
    # from a sequential one, missed the common flux by 1.13x its allowance
    grid = uniform_slice(88)
    u = np.ones(88)
    u[0] = 0.0
    check_placement(DiscreteField(grid=grid, u=u), 26.40730929630311,
                    1.0 / 128.0)


def test_equidistributed_products_are_equal():
    fld = sin_field(64)
    out = nodes(advance_equidistributed(layer(fld.grid), values(fld.u), 1.0,
                                        0.005, Layer(64, TAU)))
    rho = field_monitor(fld, 1.0)
    res = equidistribution_residual(out, rho, TAU)
    res_cap = 1e-12 * TAU * TAU * rho.max()
    assert np.max(np.abs(res)) <= res_cap
    # equivalent statement: monitor-weighted gaps agree across cells
    xp = np.roll(out, -1)
    xp[-1] += TAU
    products = (np.roll(rho, -1) + rho) * (xp - out)
    assert products.max() - products.min() <= 64 * res_cap


def test_equidistributed_anchor_is_lagrangian():
    fld = sin_field(32)
    dt = 0.01
    out = advance_equidistributed(layer(fld.grid), values(fld.u), 1.0, dt,
                                  Layer(32, TAU))
    assert nodes(out)[0] == pytest.approx(fld.grid.x[0] + dt * fld.u[0],
                                          abs=0)


def test_equidistribute_initial_no_convergence_error(monkeypatch):
    # the sine data needs about ten mesh -> resample rounds to settle
    monkeypatch.setattr("invariant_burgers.grid._MAX_ROUNDS", 1)
    with pytest.raises(NoConvergenceError):
        equidistribute_initial(np.sin, uniform_slice(64), 1.0)


def test_equidistribute_initial_concentrates_where_slope_is_steep():
    grid = uniform_slice(64)
    out = equidistribute_initial(np.sin, grid, 1.0)
    gaps = out.gaps()
    # arc-length monitor of sin is largest where |cos| is largest (x=0, pi)
    assert gaps.min() < gaps.mean() < gaps.max()
    assert min(out.wrapped_x()[np.argmin(gaps)] % math.pi,
               math.pi - out.wrapped_x()[np.argmin(gaps)] % math.pi) < 0.5


# ---------------------------------------------------------------------------
# symmetry interplay
# ---------------------------------------------------------------------------

def test_lagrangian_advance_commutes_with_boost_exactly():
    fld = sin_field(32)
    dt = 0.02
    boost = GroupElement(Generator.GALILEAN_BOOST, 1.5)
    moved = GridSlice(t=dt, x=nodes(advance_lagrangian(
        layer(fld.grid), values(fld.u), dt, Layer(32, TAU))))
    direct = DiscreteField(grid=moved, u=fld.u)  # carry values for transform
    transformed_after = apply_field(boost, direct)

    boosted = apply_field(boost, fld)
    moved_boosted = advance_lagrangian(layer(boosted.grid), values(boosted.u),
                                       dt, Layer(32, TAU))
    np.testing.assert_allclose(nodes(moved_boosted), transformed_after.grid.x,
                               rtol=0, atol=1e-12)


def test_equidistributed_advance_commutes_with_boost():
    fld = sin_field(48)
    dt = 0.01
    boost = GroupElement(Generator.GALILEAN_BOOST, 1.0)

    rest = advance_equidistributed(layer(fld.grid), values(fld.u), 1.0, dt,
                                   Layer(48, TAU))
    boosted_in = apply_field(boost, fld)
    boosted_out = advance_equidistributed(layer(boosted_in.grid),
                                          values(boosted_in.u), 1.0, dt,
                                          Layer(48, TAU))
    # the boosted mesh should be the rest mesh shifted by eps*(t+dt)
    np.testing.assert_allclose(nodes(boosted_out), nodes(rest) + 1.0 * dt,
                               rtol=0, atol=1e-10)


def test_monitor_invariant_under_boost():
    fld = sin_field(64)
    boosted = apply_field(GroupElement(Generator.GALILEAN_BOOST, 2.0), fld)
    np.testing.assert_allclose(field_monitor(boosted, 1.0),
                               field_monitor(fld, 1.0), rtol=0, atol=1e-13)


def test_monitor_scaling_equivalence_extension():
    fld = sin_field(64)
    g = GroupElement(Generator.SCALING, 0.4)
    scaled = apply_field(g, fld)
    np.testing.assert_allclose(
        field_monitor(scaled, transform_monitor(g, 1.0)),
        field_monitor(fld, 1.0), rtol=0, atol=1e-12)
