import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from invariant_burgers import (
    DiscreteField, Generator, GridSlice, GroupElement, NoConvergenceError,
    NodeCrossingError, NonFiniteSolutionError, TAU, apply_field,
    mean_spacing, uniform_slice,
)
from invariant_burgers.grid import (_MAX_ROUNDS, _SETTLE_RTOL, Layer,
                                    _require_positive,
                                    advance_equidistributed,
                                    advance_lagrangian, bind_equidistributed,
                                    bind_lagrangian, equidistribute_initial,
                                    require_finite)
from invariant_burgers.interpolate import InterpKind, interpolate
from invariant_burgers.symmetry import transform_monitor

from oracles import (dense_equidistribution_solve,
                     equidistribute_initial_rounds, equidistribution_residual,
                     ghosted_by_concatenation, monitor_loop, order_verdict,
                     random_smooth_field, random_smooth_profile)


def sin_field(n=64, amplitude=1.0):
    grid = uniform_slice(n)
    return DiscreteField(grid=grid, u=amplitude * np.sin(grid.x))


def layer(grid):
    """The layer placed at a slice's positions, as the grid equations take
    and return one."""
    return Layer.of_positions(grid.x, grid.domain_length)


def values(u):
    return Layer.of_values(u)


def lagrangian_step(xl, ul, dt, out):
    """One step of the Lagrangian grid equation bound to the layers, as
    ``run`` takes it: the layer ``out`` it wrote, placed as the step loop
    places it after the stencil."""
    advance_lagrangian(bind_lagrangian(xl, ul, dt, out))
    out.place()
    return out


def equidistributed_step(xl, ul, alpha, dt, out):
    """One step of the equidistributing grid equation bound to the layers,
    as ``run`` takes it: the layer ``out`` it wrote, placed as the step
    loop places it after the stencil."""
    n = len(out.nodes)
    advance_equidistributed(bind_equidistributed(xl, ul, alpha, out,
                                                 np.empty(n), dt, np.empty(n)))
    out.place()
    return out


def nodes(xl):
    return xl.nodes


def gaps(xl):
    return xl.gaps[1:-1]


def field_monitor(fld, alpha):
    """The monitor sqrt(1 + alpha s^2) of the centred slope s that the
    equidistribution solve leaves in its slope row."""
    slope = np.empty(fld.grid.n)
    bind_equidistributed(layer(fld.grid), values(fld.u), alpha,
                         Layer(fld.grid.n, TAU), slope)()
    return np.sqrt(1.0 + alpha * np.square(slope))


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


@pytest.mark.parametrize("make, message", [
    (lambda: GridSlice(t=0.0, x=np.zeros((2, 4))),
     r"expected a 1-D array, got shape \(2, 4\)"),
    (lambda: GridSlice(t=np.inf, x=np.arange(4.0)), "non-finite layer time"),
    (lambda: GridSlice(t=np.nan, x=np.arange(4.0)), "non-finite layer time"),
    (lambda: DiscreteField(grid=uniform_slice(4), u=np.zeros(5)),
     "u has 5 values for 4 nodes"),
])
def test_a_container_names_what_it_refuses(make, message):
    with pytest.raises(ValueError, match=f"^{message}$") as refused:
        make()
    assert refused.type is ValueError


def test_container_errors_are_typed_value_errors():
    grid = uniform_slice(8)
    with pytest.raises(NonFiniteSolutionError):
        DiscreteField(grid=grid, u=np.full(8, np.nan))
    assert issubclass(NonFiniteSolutionError, ValueError)
    assert issubclass(NodeCrossingError, ValueError)


@settings(max_examples=300, deadline=None)
@given(u=hnp.arrays(float, st.integers(1, 64),
                    elements=st.floats(-1e300, 1e300)),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_require_finite_refuses_a_non_finite_value_at_any_index(u, bad,
                                                                data):
    # the sum of squares decides most arrays; squares that overflow (any
    # value past 1.3e154) fall through to the exact test, with no warning
    n = len(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert require_finite(u) is u
        i = data.draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1),
                      label="index")
        u[i] = bad
        with pytest.raises(NonFiniteSolutionError):
            require_finite(u)


def test_wrapped_positions_stay_in_fundamental_interval():
    grid = uniform_slice(8)
    drifted = GridSlice(t=0.0, x=grid.x + 3.7 * TAU)
    w = drifted.wrapped_x()
    assert np.all((w >= 0.0) & (w < TAU))


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1e3, 1e3), length=st.floats(1e-3, 1e3),
       k=st.integers(-5, 5),
       delta=st.one_of(st.just(0.0), st.floats(5e-324, 1e-12)))
def test_a_position_a_hair_below_a_period_wraps_into_the_interval(
        start, length, k, delta):
    # np.mod rounds a position a hair below start + k L up to L, which put
    # it at start + L, outside [start, start + L)
    x = start + k * length + np.array([-delta, 0.25, 0.5, 0.75]) * [
        1.0, length, length, length]
    grid = GridSlice(t=0.0, x=x, domain_start=start, domain_length=length)
    w = grid.wrapped_x()
    assert np.all((start <= w) & (w < start + length)), w


# ---------------------------------------------------------------------------
# ghost slots
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.sampled_from([2, 3]), st.integers(2, 700)),
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


@pytest.mark.parametrize("n, period", [(2, 0.0), (16, TAU), (512, 0.0)])
def test_a_layer_owns_its_slots_gaps_and_wide_gaps_only(n, period):
    # a layer is its slots and gaps: the stencil's rows belong to the run,
    # and every other member of a layer is a view of its three buffers
    layer = Layer(n, period)
    arrays = [a for value in vars(layer).values()
              for a in (value if isinstance(value, tuple) else (value,))
              if isinstance(a, np.ndarray)]
    owned = [a for a in arrays if a.base is None]
    assert sorted(map(id, owned)) == sorted(
        map(id, (layer.g, layer.gaps, layer.wide)))
    for a in arrays:
        assert a.base is None or any(a.base is b for b in owned)


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
@given(x=hnp.arrays(float, st.integers(2, 40), elements=node_values),
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


def by_numpy_scalars(a, period):
    """The slots, gaps and wide gaps of a layer of the entries ``a``, its
    ghost slots written by float64 scalar indexing as g[0] = g[-3] - L,
    g[-2] = g[1] + L and g[-1] = g[2] + L (plain copies at period 0),
    and the warnings its two row subtractions raise."""
    g = np.empty(len(a) + 3)
    g[1:-2] = a
    with np.errstate(all="ignore"):
        if period:
            g[0], g[-2], g[-1] = g[-3] - period, g[1] + period, g[2] + period
        else:
            g[0], g[-2], g[-1] = g[-3], g[1], g[2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gaps, wide = np.subtract(g[1:], g[:-1]), np.subtract(g[2:], g[:-2])
    return g, gaps, wide, {str(w.message) for w in caught}


def warned(fn):
    """The verdict of ``fn`` (``verdict``) and the messages of the warnings
    it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = verdict(fn)
    return result, {str(w.message) for w in caught}


# entries at the edges of the doubles: signed zeros, subnormals, the largest
# finite values (whose ghosts overflow to inf over a large period), equal
# infinities and NaN
edge_entries = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7e308, -1.7e308, np.inf, -np.inf, np.nan]))


@settings(max_examples=500, deadline=None)
@given(a=hnp.arrays(float, st.integers(2, 24), elements=edge_entries),
       ordered=st.booleans(),
       period=st.one_of(st.sampled_from([0.0, TAU, 5e-324, 1e308, 1.7e308]),
                        st.floats(1e-300, 1e300)))
def test_the_scalar_path_writes_the_bytes_of_numpy_scalars(a, ordered,
                                                          period):
    # place() and fill() write their ghost slots as Python floats through a
    # view of the slots: the same IEEE operations, so the same bytes, as
    # numpy's float64 scalars, with no scalar warning; a placement raises
    # the full order check's message on the gaps it forms, and warns only
    # as its row subtractions do
    if ordered:
        a = np.sort(a)
    g, gaps, wide, row_warnings = by_numpy_scalars(a, period)
    layer = Layer(len(a), period)
    layer.nodes[...] = a
    if period:
        assert warned(layer.place) == (
            verdict(_require_positive, gaps[1:-1]), row_warnings)
        assert layer.gaps.tobytes() == gaps.tobytes()
        assert layer.wide.tobytes() == wide.tobytes()
    else:
        assert warned(layer.fill) == (None, set())
    assert layer.g.tobytes() == g.tobytes()


# ---------------------------------------------------------------------------
# lagrangian and equidistributed advances
# ---------------------------------------------------------------------------

def test_advance_lagrangian_zero_velocity():
    grid = uniform_slice(16)
    out = lagrangian_step(layer(grid), values(np.zeros(16)), 0.05,
                             Layer(16, TAU))
    np.testing.assert_array_equal(nodes(out), grid.x)


def test_advance_lagrangian_rigid_motion_preserves_gaps():
    grid = uniform_slice(16)
    out = lagrangian_step(layer(grid), values(np.full(16, 0.7)), 0.1,
                             Layer(16, TAU))
    np.testing.assert_allclose(nodes(out), grid.x + 0.1 * 0.7, rtol=0, atol=0)
    np.testing.assert_allclose(gaps(out), grid.gaps(), rtol=0, atol=5e-15)


def test_advance_lagrangian_matches_formula():
    # independent elementwise evaluation of the node-motion rule
    grid = uniform_slice(8)
    u = np.sin(grid.x)
    out = lagrangian_step(layer(grid), values(u), 0.1, Layer(8, TAU))
    expected = [grid.x[i] + 0.1 * math.sin(grid.x[i]) for i in range(8)]
    np.testing.assert_allclose(nodes(out), expected, rtol=0, atol=1e-16)


def test_advance_lagrangian_detects_node_crossing():
    grid = uniform_slice(8)
    u = np.zeros(8)
    u[3] = -2.0 * mean_spacing(grid)  # node 3 would overtake node 2
    out = Layer(8, TAU)
    # the equation only writes the nodes; their placement rejects them
    advance_lagrangian(bind_lagrangian(layer(grid), values(u), np.array(1.0),
                                       out))
    with pytest.raises(NodeCrossingError):
        out.place()


def test_gap_sum_preserved_by_advances():
    fld = sin_field(32)
    xg, ul = layer(fld.grid), values(fld.u)
    for out in (
        lagrangian_step(xg, ul, 0.01, Layer(32, TAU)),
        equidistributed_step(xg, ul, 1.0, 0.01, Layer(32, TAU)),
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
    out = equidistributed_step(layer(fld.grid), values(fld.u), 0.0, 0.01,
                                  Layer(32, TAU))
    np.testing.assert_allclose(gaps(out), TAU / 32, rtol=0, atol=1e-9)


def test_equidistributed_matches_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, u = random_smooth_field(rng, 32)
        fld = DiscreteField(grid=GridSlice(t=0.0, x=x - x[0] + 0.2), u=u)
        dt = 1e-3
        out = equidistributed_step(layer(fld.grid), values(u), 1.0, dt,
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
    out = equidistributed_step(layer(fld.grid), values(fld.u), alpha, dt,
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
    out = nodes(equidistributed_step(layer(fld.grid), values(fld.u), 1.0,
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
    out = equidistributed_step(layer(fld.grid), values(fld.u), 1.0, dt,
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


@st.composite
def initial_cases(draw):
    """Low-mode initial data on a uniform slice of 4 to 128 nodes at a
    random start, with a monitor weight of 0 or log-uniform in
    [1e-3, 1e3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 128))
    start = draw(st.floats(-10.0, 10.0))
    alpha = draw(st.just(0.0) | st.floats(math.log(1e-3), math.log(1e3))
                 .map(math.exp))
    return random_smooth_profile(rng), uniform_slice(n, 0.0, start), alpha


def initial_outcome(equidistribute, *args):
    """The positions ``equidistribute(*args)`` settles at, or the type and
    message of what it raises."""
    try:
        return equidistribute(*args).x.tobytes()
    except (NoConvergenceError, NodeCrossingError,
            NonFiniteSolutionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(initial_cases())
def test_equidistribute_initial_matches_its_own_loop(case):
    # each round is the step's bound solve at the anchor x_0: the bits of
    # the loop that solves into fresh arrays
    initial, grid, alpha = case
    expected = initial_outcome(equidistribute_initial_rounds, initial, grid,
                               alpha, _SETTLE_RTOL, _MAX_ROUNDS)
    if expected[0] is NoConvergenceError:
        # the plain rounds do not settle, and the accelerated restart
        # takes over (test_equidistribute_initial_settles_or_raises)
        reject()
    assert (initial_outcome(equidistribute_initial, initial, grid, alpha)
            == expected)


@settings(max_examples=60, deadline=None)
@given(initial_cases())
def test_equidistribute_initial_settles_at_a_fixed_point(case):
    # one more solve from the settled mesh, at the anchor x_0 of the slice
    # it started from, moves no node by more than the settling tolerance.
    # A steep monitor on a coarse mesh can keep the rounds from settling
    # at all; such a draw has no mesh to check
    initial, grid, alpha = case
    try:
        out = equidistribute_initial(initial, grid, alpha)
    except NoConvergenceError:
        reject()
    assert_settled(initial, grid, alpha, out)


def assert_settled(initial, grid, alpha, out):
    """One more solve from the mesh ``out`` settled from ``grid`` keeps
    node 0 at the anchor and moves no node by more than the tolerance."""
    again = Layer(grid.n, TAU)
    bind_equidistributed(layer(out), values(initial(out.x)), alpha, again,
                         np.empty(grid.n))()
    assert again.nodes[0] == grid.x[0]
    assert np.max(np.abs(nodes(again) - out.x)) <= _SETTLE_RTOL * TAU


@settings(max_examples=60, deadline=None)
@given(initial_cases())
def test_equidistribute_initial_settles_or_raises(case):
    # where the plain rounds oscillate, the accelerated restart settles the
    # mesh or gives up with the residual of its last round; nothing else
    initial, grid, alpha = case
    try:
        out = equidistribute_initial(initial, grid, alpha)
    except NoConvergenceError as exc:
        assert re.fullmatch(
            rf"initial equidistribution did not settle in {2 * _MAX_ROUNDS} "
            r"rounds: the last moved a node by \S+, more than \S+",
            str(exc)), str(exc)
        return
    assert out.n == grid.n and out.x[0] == grid.x[0]


def initial_draw(seed):
    """Low-mode initial data on a uniform slice of 4 to 128 nodes with a
    monitor weight log-uniform in [1e-3, 1e3], drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 129))
    alpha = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
    return random_smooth_profile(rng), uniform_slice(n), alpha


# the draws of the first 100 seeds whose plain rounds do not settle in
# _MAX_ROUNDS; the accelerated restart settles all but seed 12
OSCILLATING_SEEDS = (1, 5, 7, 8, 12, 13, 15, 18, 19, 28, 37, 40, 41, 50, 53,
                     55, 59, 61, 62, 63, 76, 78, 82, 84, 87, 88, 91, 95, 96,
                     98)


def test_the_restart_settles_draws_the_plain_rounds_do_not():
    settled = 0
    for seed in OSCILLATING_SEEDS:
        initial, grid, alpha = initial_draw(seed)
        with pytest.raises(NoConvergenceError):
            equidistribute_initial_rounds(initial, grid, alpha, _SETTLE_RTOL,
                                          _MAX_ROUNDS)
        try:
            out = equidistribute_initial(initial, grid, alpha)
        except NoConvergenceError:
            continue
        settled += 1
        assert_settled(initial, grid, alpha, out)
    assert settled >= 29


# ---------------------------------------------------------------------------
# symmetry interplay
# ---------------------------------------------------------------------------

def test_lagrangian_advance_commutes_with_boost_exactly():
    fld = sin_field(32)
    dt = 0.02
    boost = GroupElement(Generator.GALILEAN_BOOST, 1.5)
    moved = GridSlice(t=dt, x=nodes(lagrangian_step(
        layer(fld.grid), values(fld.u), dt, Layer(32, TAU))))
    direct = DiscreteField(grid=moved, u=fld.u)  # carry values for transform
    transformed_after = apply_field(boost, direct)

    boosted = apply_field(boost, fld)
    moved_boosted = lagrangian_step(layer(boosted.grid), values(boosted.u),
                                       dt, Layer(32, TAU))
    np.testing.assert_allclose(nodes(moved_boosted), transformed_after.grid.x,
                               rtol=0, atol=1e-12)


def test_equidistributed_advance_commutes_with_boost():
    fld = sin_field(48)
    dt = 0.01
    boost = GroupElement(Generator.GALILEAN_BOOST, 1.0)

    rest = equidistributed_step(layer(fld.grid), values(fld.u), 1.0, dt,
                                   Layer(48, TAU))
    boosted_in = apply_field(boost, fld)
    boosted_out = equidistributed_step(layer(boosted_in.grid),
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
