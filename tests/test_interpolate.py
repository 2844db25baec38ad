import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from invariant_burgers import (DiscreteField, Generator, GridSlice,
                               GroupElement, InterpKind, NodeCrossingError,
                               TAU, apply_field, uniform_slice)
from invariant_burgers.grid import Layer
from invariant_burgers.interpolate import (_evaluate,
                                           _solve_cyclic_tridiagonal,
                                           interpolate)

from oracles import (dense_spline_matrix, periodic_quadratic_loop,
                     periodic_spline_scipy, quadratic_by_search,
                     random_smooth_field)

KINDS = [InterpKind.LINEAR, InterpKind.QUADRATIC, InterpKind.CUBIC_SPLINE]


def test_linear_midpoint_of_affine_nodes():
    value = interpolate([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0], 0.5,
                        InterpKind.LINEAR, domain_length=4.0)
    assert value[0] == pytest.approx(1.0, abs=1e-15)


def test_quadratic_exact_on_parabola():
    value = interpolate([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], 1.5,
                        InterpKind.QUADRATIC, domain_length=TAU)
    assert value[0] == pytest.approx(2.25, abs=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_interpolation_condition_at_nodes(kind):
    rng = np.random.default_rng(11)
    x, u = random_smooth_field(rng, 20)
    values = interpolate(x, u, x, kind, TAU)
    np.testing.assert_allclose(values, u, rtol=0, atol=1e-14)


@st.composite
def ordered_grids(draw, min_n, max_n=300):
    """Periodic nodes from node 0 in [-10, 10], with gap weights in
    [0.05, 1.95] scaled so the N gaps sum to L."""
    n = draw(st.integers(min_n, max_n))
    w = draw(hnp.arrays(float, n, elements=st.floats(0.05, 1.95)))
    x0 = draw(st.floats(-10.0, 10.0))
    return x0 + np.concatenate(([0.0], np.cumsum(w[:-1] * (TAU / w.sum()))))


@settings(max_examples=200, deadline=None)
@given(ordered_grids(min_n=3), st.data())
def test_cyclic_solve_matches_dense_spline_system(x, data):
    n = len(x)
    A = dense_spline_matrix(x, TAU)
    # rhs on a 1e-6 lattice in [-1, 1]: tiny entries would put the solve in
    # the subnormal range, where no solver keeps relative precision
    rhs = 1e-6 * data.draw(hnp.arrays(np.int64, n,
                                      elements=st.integers(-10**6, 10**6)))
    i = np.arange(n)
    m = _solve_cyclic_tridiagonal(A[i, (i - 1) % n], A[i, i],
                                  A[i, (i + 1) % n], rhs)
    ref = np.linalg.solve(A, rhs)
    assert np.max(np.abs(m - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=200, deadline=None)
@given(ordered_grids(min_n=4), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.data())
def test_local_stencils_reproduce_affine_data(x, a, b, data):
    # queries in [x_1, x_{N-2}]: neither stencil reaches across the seam.
    # The bound is 1e-13 up to |u| = 10 and grows with |u| beyond: the
    # quadratic weights reach about 10 at gap ratio 39, so its rounding is
    # a few ulp(max |u|) times that
    n = len(x)
    u = a + b * x
    s = data.draw(hnp.arrays(float, 16, elements=st.floats(0.0, 1.0)))
    q = x[1] + s * (x[n - 2] - x[1])
    for kind in (InterpKind.LINEAR, InterpKind.QUADRATIC):
        np.testing.assert_allclose(
            interpolate(x, u, q, kind, TAU), a + b * q, rtol=0,
            atol=1e-14 * max(np.abs(u).max(), 10.0))


@settings(max_examples=200, deadline=None)
@given(ordered_grids(min_n=2), st.data())
def test_quadratic_matches_the_scalar_loop_oracle(x, data):
    # Newton form against the oracle's Lagrange form, on the same stencil.
    # Both round to a few ulp(max |u|) times the largest ratio R of ghost
    # gaps (slot slopes and second differences grow like 1/gap), so the
    # bound is 8 eps max|u| R; on 6,000 random grids with R up to 3e3 the
    # largest difference was 2.6 eps max|u| R
    n = len(x)
    u = 1e-6 * data.draw(hnp.arrays(np.int64, n,
                                    elements=st.integers(-10**7, 10**7)))
    xg = Layer.of_positions(x, TAU).g
    gaps = np.diff(xg)
    mid = 0.5 * (xg[:-1] + xg[1:])
    lo, hi = mid[0], mid[-1]
    s = data.draw(hnp.arrays(float, 64, elements=st.floats(0.0, 1.0,
                                                           exclude_max=True)))
    q = np.concatenate((
        x[0] - 2 * TAU + 5 * TAU * s,        # [x_0 - 2L, x_0 + 3L)
        x, mid,                              # nodes, exact midpoints
        [x[0] + TAU, x[-1] - TAU],           # the seam, both sides
        [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
         np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)]))
    bound = 8 * np.finfo(float).eps * np.abs(u).max() * (gaps.max()
                                                         / gaps.min())
    inside = q[(lo < q) & (q <= hi)]
    # all queries (some outside the window: all are shifted into the
    # period), those inside the window (used as given), and those with the
    # open end of the window, which alone is outside
    for queries in (q, inside, np.append(inside, lo)):
        np.testing.assert_allclose(
            interpolate(x, u, queries, InterpKind.QUADRATIC, TAU),
            periodic_quadratic_loop(x, u, TAU, queries), rtol=0, atol=bound)


@st.composite
def partner_queries(draw, x):
    """One query per node: node i moved by a fraction in [-1, 1] of the
    half gap on that side, then up to three of them replaced by an exact
    midpoint beside their node or one ulp either side of it. The midpoints
    are the package's, 0.5 * (slot + next slot) over a placed layer. Some
    draws leave a query outside the two midpoints beside its node."""
    n = len(x)
    xg = Layer.of_positions(x, TAU).g
    mid = 0.5 * (xg[:-1] + xg[1:])
    f = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    q = x + 0.5 * f * np.where(f < 0, xg[1:-2] - xg[:-3], xg[2:-1] - xg[1:-2])
    edits = st.tuples(st.integers(0, n - 1), st.sampled_from([0, 1]),
                      st.sampled_from([-np.inf, 0.0, np.inf]))
    for i, east, ulp in draw(st.lists(edits, max_size=3)):
        # the west (east = 0) or east midpoint of node i, or its neighbour
        # one ulp towards -inf or +inf
        q[i] = np.nextafter(mid[i + east], ulp) if ulp else mid[i + east]
    partner = bool((mid[:-2] < q).all() and (q <= mid[1:-1]).all())
    event(f"partner bracket {'holds' if partner else 'fails'}")
    return q


@settings(max_examples=300, deadline=None)
@given(ordered_grids(min_n=4, max_n=64), st.data())
def test_partner_bracket_agrees_with_the_search_by_bytes(x, data):
    n = len(x)
    u = 1e-6 * data.draw(hnp.arrays(np.int64, n,
                                    elements=st.integers(-10**7, 10**7)))
    q = data.draw(partner_queries(x))
    ours = interpolate(x, u, q, InterpKind.QUADRATIC, TAU)
    assert ours.tobytes() == quadratic_by_search(x, u, TAU, q).tobytes()
    # 2-D queries are searched: as one column and as an N x N block of
    # rotations they give the bytes of the same queries in one row
    i = np.arange(n)
    for shaped in (q[:, None], q[np.add.outer(i, i) % n]):
        flat = interpolate(x, u, shaped.ravel(), InterpKind.QUADRATIC, TAU)
        assert (interpolate(x, u, shaped, InterpKind.QUADRATIC, TAU).tobytes()
                == flat.reshape(shaped.shape).tobytes())


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 64), st.data())
def test_one_rows_object_serves_calls_on_other_layers_and_queries(n, data):
    # the projection binds its quadratic once, on layers not yet written,
    # and calls it every step after rewriting its layers and queries in
    # place: what a call leaves in the rows the closure allocated must not
    # reach the next, on either bracket (the queries moved one period up
    # are always searched)
    xl, ul, q = Layer(n, TAU), Layer(n), np.empty(n)
    quadratic = _evaluate(xl, ul, q, InterpKind.QUADRATIC, np.empty(n))
    for _ in range(3):
        x = data.draw(ordered_grids(min_n=n, max_n=n))
        u = 1e-6 * data.draw(hnp.arrays(np.int64, n,
                                        elements=st.integers(-10**7, 10**7)))
        near = data.draw(partner_queries(x))
        for queries in (near, near + TAU):
            xl.nodes[...], ul.nodes[...], q[...] = x, u, queries
            xl.place()
            ul.fill()
            assert quadratic().tobytes() == interpolate(
                x, u, queries, InterpKind.QUADRATIC, TAU).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_affine_reproduction_away_from_seam(kind):
    # affine data is not periodic, so the seam cannot reproduce it: local
    # stencils fail only while wrapping, the spline's seam contamination
    # decays geometrically with node distance; mid-domain queries are exact
    rng = np.random.default_rng(5)
    x, _ = random_smooth_field(rng, 128)
    u = 0.7 + 1.3 * x
    q = np.linspace(x[0] + 0.35 * TAU, x[0] + 0.65 * TAU, 113)
    values = interpolate(x, u, q, kind, TAU)
    np.testing.assert_allclose(values, 0.7 + 1.3 * q, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind,nominal", [(InterpKind.LINEAR, 2.0),
                                          (InterpKind.QUADRATIC, 3.0),
                                          (InterpKind.CUBIC_SPLINE, 4.0)])
def test_order_of_accuracy_on_sine(kind, nominal):
    rng = np.random.default_rng(17)
    queries = rng.uniform(0.0, TAU, 400)
    errors = []
    for n in (16, 32, 64, 128):
        grid = uniform_slice(n)
        values = interpolate(grid.x, np.sin(grid.x), queries, kind, TAU)
        errors.append(np.max(np.abs(values - np.sin(queries))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - nominal) <= 0.3)


@pytest.mark.parametrize("kind", KINDS)
def test_periodic_in_queries(kind):
    rng = np.random.default_rng(23)
    x, u = random_smooth_field(rng, 24)
    q = rng.uniform(0.0, TAU, 64)
    base = interpolate(x, u, q, kind, TAU)
    shifted = interpolate(x, u, q + TAU, kind, TAU)
    # identical up to one rounding of the shifted query argument
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
def test_periodic_across_the_seam(kind):
    # one query at a time, so none is shifted for the sake of another: just
    # above x_0 + L and just below x_0 the stencils read the ghost slots
    rng = np.random.default_rng(29)
    x, u = random_smooth_field(rng, 24)
    first = x[0] + 0.3 * (x[1] - x[0])
    closing = x[-1] + 0.7 * (x[0] + TAU - x[-1])
    for q, image in ((first + TAU, first), (closing - TAU, closing)):
        np.testing.assert_allclose(interpolate(x, u, q, kind, TAU),
                                   interpolate(x, u, image, kind, TAU),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
def test_constant_reproduction(kind):
    grid = uniform_slice(16)
    fld = DiscreteField(grid=grid, u=np.full(16, 3.25))
    values = interpolate(fld.grid.x, fld.u, np.linspace(0, TAU, 50), kind,
                         fld.grid.domain_length)
    np.testing.assert_allclose(values, 3.25, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_constant_reproduction_on_few_nodes(kind, n):
    x = 0.4 + np.arange(n) * (TAU / n) + np.arange(n) ** 2 * 0.1
    q = np.linspace(-TAU, 2 * TAU, 301)
    values = interpolate(x, np.full(n, -1.5), q, kind, TAU)
    np.testing.assert_allclose(values, -1.5, rtol=0, atol=1e-14)


def test_projection_identity_on_source_nodes():
    rng = np.random.default_rng(31)
    x, u = random_smooth_field(rng, 28)
    fld = DiscreteField(grid=GridSlice(t=0.0, x=x - x[0]), u=u)
    for kind in KINDS:
        np.testing.assert_allclose(
            interpolate(fld.grid.x, fld.u, fld.grid.x, kind,
                        fld.grid.domain_length), u, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
def test_projection_commutes_with_boost(kind):
    rng = np.random.default_rng(37)
    x, u = random_smooth_field(rng, 32)
    fld = DiscreteField(grid=GridSlice(t=0.4, x=x - x[0]), u=u)
    targets = np.sort(rng.uniform(0.0, TAU, 40))
    g = GroupElement(Generator.GALILEAN_BOOST, 1.0)

    boosted = apply_field(g, fld)
    lhs = interpolate(boosted.grid.x, boosted.u,
                      targets + g.epsilon * fld.grid.t, kind,
                      boosted.grid.domain_length)
    rhs = interpolate(fld.grid.x, fld.u, targets, kind,
                      fld.grid.domain_length) + g.epsilon
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_values_must_match_nodes(kind):
    x = [0.0, 1.0, 2.0, 3.0]
    for u in ([0.0] * 6, [0.0] * 2):
        with pytest.raises(ValueError, match="values for"):
            interpolate(x, u, 0.5, kind, TAU)
    with pytest.raises(ValueError, match="values for"):
        interpolate([], [], 0.5, kind, TAU)


@pytest.mark.parametrize("kind", KINDS)
def test_one_node_is_refused_by_its_count(kind):
    # a layer holds at least two nodes
    with pytest.raises(ValueError, match="at least two nodes, got 1 values "
                                         "for 1 nodes"):
        interpolate([0.5], [1.0], 0.5, kind, TAU)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_a_non_finite_query_is_rejected_by_its_index(kind, bad, at):
    q = np.linspace(0.0, 5.0, 7)
    q[at] = bad
    with pytest.raises(ValueError,
                       match=rf"^query {at} is {bad!r}; queries must be "):
        interpolate([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], q, kind, TAU)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("length", [np.inf, np.nan, 0.0, -1.0, 1e308])
def test_a_bad_domain_length_is_refused_by_name(kind, length):
    # refused before any arithmetic: no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="domain_length"):
            interpolate([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0],
                        [-1.0, 0.5], kind, domain_length=length)


@pytest.mark.parametrize("kind", KINDS)
def test_a_length_that_swamps_the_gaps_is_refused_by_name(kind):
    # beside the seam, x_3 - L and x_0 + L round to -L and L
    with pytest.raises(ValueError, match=r"^domain_length=1e\+150 swamps "
                                         r"the node gaps: ") as refused:
        interpolate([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], [0.5],
                    kind, domain_length=1e150)
    assert refused.type is ValueError


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("length", [4.0, 1e6, 1e15])
def test_a_long_domain_gives_finite_values(kind, length):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = interpolate([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0],
                             [-1.0, 0.5, 3.5], kind, domain_length=length)
    assert np.isfinite(values).all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spacing, length, name", [
    (2.5e199, 1e200, "nodes_x"),         # node gaps square to inf
    (2.5e307, 1e308, "nodes_x"),         # so do sums of two slots
    (1e154, 1e155, "domain_length"),     # only the closing gap squares
], ids=["node-gap", "huge-nodes", "closing-gap"])
def test_coordinates_that_overflow_are_refused_by_name(kind, spacing,
                                                        length, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name}"):
            interpolate(np.arange(4) * spacing, [0.0, 1.0, 0.0, 1.0],
                        [1.0, -1.0], kind, domain_length=length)


@pytest.mark.parametrize("kind", KINDS)
def test_the_largest_gaps_that_square_give_finite_values(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = interpolate(np.arange(4) * 1e154, [0.0, 1.0, 0.0, 1.0],
                             [1.0, -1.0, 3.5e154], kind, domain_length=4e154)
    assert np.isfinite(values).all()


@pytest.mark.parametrize("kind", KINDS)
def test_no_queries_give_no_values(kind):
    values = interpolate([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], [],
                         kind, TAU)
    assert values.shape == (0,)


def test_non_monotone_nodes_rejected():
    with pytest.raises(NodeCrossingError):
        interpolate([0.0, 2.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0], 0.5,
                    InterpKind.LINEAR, TAU)
    with pytest.raises(NodeCrossingError):
        interpolate([0.0, 1.0, 2.0, TAU + 0.5], [0.0] * 4, 0.5,
                    InterpKind.LINEAR, TAU)


@pytest.mark.parametrize("kind", KINDS)
def test_nan_nodes_rejected(kind):
    with pytest.raises(NodeCrossingError, match=r"x\[0\] -> x\[1\]"):
        interpolate([0.0, np.nan, 2.0, 3.0], [0.0] * 4, 0.5, kind, TAU)


def test_spline_matches_scipy_periodic():
    rng = np.random.default_rng(41)
    x, u = random_smooth_field(rng, 30)
    q = rng.uniform(-TAU, 2 * TAU, 200)
    ours = interpolate(x, u, q, InterpKind.CUBIC_SPLINE, TAU)
    ref = periodic_spline_scipy(x, u, TAU, q)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)

