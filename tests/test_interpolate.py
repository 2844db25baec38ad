import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from invariant_burgers import (DiscreteField, Generator, GridSlice,
                               GroupElement, InterpKind, NodeCrossingError,
                               TAU, apply_field, uniform_slice)
from invariant_burgers.interpolate import (_solve_cyclic_tridiagonal,
                                           interpolate)

from oracles import (dense_spline_matrix, periodic_spline_scipy,
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
def ordered_grids(draw, min_n):
    """Periodic nodes from node 0 in [-10, 10], with gap weights in
    [0.05, 1.95] scaled so the N gaps sum to L."""
    n = draw(st.integers(min_n, 300))
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
def test_constant_reproduction(kind):
    grid = uniform_slice(16)
    fld = DiscreteField(grid=grid, u=np.full(16, 3.25))
    values = interpolate(fld.grid.x, fld.u, np.linspace(0, TAU, 50), kind,
                         fld.grid.domain_length)
    np.testing.assert_allclose(values, 3.25, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_reproduction_on_few_nodes(kind, n):
    # with one node the quadratic stencil reaches node 0 two periods on
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

