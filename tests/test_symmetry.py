import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from invariant_burgers import (
    DiscreteField, Generator, GridSlice, GroupElement,
    Stencil, StencilParams, TAU, apply_field, apply_point, invariance_defect,
    max_defect, relation_defect,
    sample_stencil, satisfy_constant, satisfy_ftcs, satisfy_scheme,
    satisfy_stationary, stencil_scale, transform_stencil, uniform_slice,
)

from invariant_burgers.grid import Layer, monitor
from invariant_burgers.schemes import invariant_step

from oracles import moving_mesh_update_loop

GENERATORS = list(Generator)


def sin_field(n=32, t=0.0):
    grid = uniform_slice(n, t=t)
    return DiscreteField(grid=grid, u=np.sin(grid.x))


# ---------------------------------------------------------------------------
# point maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen", GENERATORS)
def test_zero_parameter_is_identity(gen):
    p = (0.3, 1.7, -0.4)
    assert apply_point(GroupElement(gen, 0.0), *p) == p


def test_scaling_by_log_two():
    t, x, u = apply_point(GroupElement(Generator.SCALING, math.log(2.0)),
                          1.0, 2.0, 3.0)
    assert t == pytest.approx(4.0, abs=1e-14)
    assert x == pytest.approx(4.0, abs=1e-14)
    assert u == pytest.approx(1.5, abs=1e-15)


def test_boost_composition_is_additive():
    p = (0.7, 2.0, 0.5)
    a, b = 0.3, -1.1
    via_two = apply_point(GroupElement(Generator.GALILEAN_BOOST, b),
                          *apply_point(GroupElement(Generator.GALILEAN_BOOST,
                                                    a), *p))
    direct = apply_point(GroupElement(Generator.GALILEAN_BOOST, a + b), *p)
    assert via_two[1] == pytest.approx(direct[1], abs=1e-15)
    assert via_two[2] == pytest.approx(direct[2], abs=1e-15)


@pytest.mark.parametrize("gen", GENERATORS)
def test_group_law_composition_and_inverse(gen):
    p = (0.4, 1.3, -0.8)
    a, b = 0.25, 0.4
    g_ab = GroupElement(gen, a + b)
    composed = apply_point(GroupElement(gen, b),
                           *apply_point(GroupElement(gen, a), *p))
    direct = apply_point(g_ab, *p)
    for lhs, rhs in zip(composed, direct):
        assert lhs == pytest.approx(rhs, abs=1e-13)
    g = GroupElement(gen, a)
    roundtrip = apply_point(g.inverse(), *apply_point(g, *p))
    for lhs, rhs in zip(roundtrip, p):
        assert lhs == pytest.approx(rhs, abs=1e-13)


# ---------------------------------------------------------------------------
# field maps
# ---------------------------------------------------------------------------

def test_boost_at_time_zero_only_lifts_values():
    fld = sin_field(t=0.0)
    out = apply_field(GroupElement(Generator.GALILEAN_BOOST, 1.0), fld)
    np.testing.assert_array_equal(out.grid.x, fld.grid.x)
    np.testing.assert_allclose(out.u, fld.u + 1.0, rtol=0, atol=0)


def test_field_inverse_roundtrip():
    fld = sin_field(t=0.6)
    for gen in GENERATORS:
        g = GroupElement(gen, 0.35)
        back = apply_field(g.inverse(), apply_field(g, fld))
        np.testing.assert_allclose(back.grid.x, fld.grid.x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(back.u, fld.u, rtol=0, atol=1e-14)
        assert back.grid.t == pytest.approx(fld.grid.t, abs=1e-14)


def test_boost_then_deshift_restores_positions():
    fld = sin_field(t=0.5)
    g = GroupElement(Generator.GALILEAN_BOOST, 1.0)
    out = apply_field(g, fld)
    np.testing.assert_allclose(out.grid.x - g.epsilon * fld.grid.t,
                               fld.grid.x, rtol=0, atol=1e-15)


def test_field_ordering_preserved_under_scaling():
    fld = sin_field()
    out = apply_field(GroupElement(Generator.SCALING, 1.2), fld)
    assert np.all(np.diff(out.grid.x) > 0.0)
    assert out.grid.domain_length == pytest.approx(TAU * math.exp(1.2))


# ---------------------------------------------------------------------------
# invariance defects
# ---------------------------------------------------------------------------

def manual_stencil():
    return Stencil(t=0.3, dt=0.004,
                   x=np.array([1.0, 1.3, 1.9]),
                   u=np.array([0.2, -0.4, 0.9]),
                   x_next=np.array([1.05, 1.28, 1.97]),
                   u_next=np.array([0.1, 0.5, -0.2]))


def test_stationary_relation_defect_equals_boost_drift():
    p = StencilParams()
    for eps in (1.0, -1.0, 5.0):
        s = satisfy_stationary(manual_stencil(), p)
        g = GroupElement(Generator.GALILEAN_BOOST, eps)
        d = invariance_defect(satisfy_stationary, g, s, p)
        assert d == pytest.approx(abs(eps * s.dt), abs=1e-14)


def test_constant_grid_defect_vanishes_iff_extended():
    p = StencilParams(c=0.8)
    s = satisfy_constant(manual_stencil(), p)
    g = GroupElement(Generator.GALILEAN_BOOST, 1.0)
    assert invariance_defect(satisfy_constant, g, s, p) <= 1e-14
    # the image measured against the untransformed constants
    bare = relation_defect(satisfy_constant, transform_stencil(g, s), p)
    assert bare == pytest.approx(abs(1.0 * s.dt), abs=1e-14)


@pytest.mark.parametrize("gen, eps", [
    (Generator.SCALING, 0.5), (Generator.SCALING, -0.5),
    (Generator.TIME_TRANSLATION, 1.0), (Generator.SPACE_TRANSLATION, 1.0),
])
def test_constant_grid_relation_invariant_with_its_drift(gen, eps):
    # a scaling maps dt -> e^(2 eps) dt and x -> e^eps x, so the drift
    # x_next - x = c dt holds on the image only with c -> e^(-eps) c
    rng = np.random.default_rng(31)
    p = StencilParams(c=0.8)
    g = GroupElement(gen, eps)
    worst = max(invariance_defect(satisfy_constant, g, sample_stencil(rng), p)
                for _ in range(200))
    assert worst <= 1e-14


@pytest.mark.parametrize("gen,eps_values", [
    (Generator.TIME_TRANSLATION, (1.0, -1.0)),
    (Generator.SPACE_TRANSLATION, (1.0, -1.0)),
    (Generator.GALILEAN_BOOST, (1.0, -1.0, 5.0, -5.0)),
    (Generator.SCALING, (0.25, -0.25, 1.0)),
])
def test_scheme_relation_invariant(gen, eps_values):
    # scalings rescale the whole relation, so certification happens on the
    # relation's own solution set; the time increment transforms with the
    # stencil, which realizes the co-scaling of dt automatically
    for i, eps in enumerate(eps_values):
        worst = max_defect(satisfy_scheme, GroupElement(gen, eps),
                           n_samples=200, seed=100 + i)
        assert worst <= 1e-11


def test_fixed_grid_relation_boost_defect_closed_form():
    rng = np.random.default_rng(55)
    p = StencilParams()
    eps = 1.0
    g = GroupElement(Generator.GALILEAN_BOOST, eps)
    for _ in range(300):
        s = satisfy_ftcs(sample_stencil(rng), p)
        measured = invariance_defect(satisfy_ftcs, g, s, p)
        analytic = abs(eps * (s.u[2] - s.u[0]) / (s.x[2] - s.x[0]))
        assert abs(measured - analytic) <= 1e-12 * stencil_scale(s, p)


@st.composite
def moving_layers(draw):
    """A random ordered periodic grid (gaps in [0.2, 1.8] h before
    normalization, node 0 in [-10, 10]) carrying sin x, a time step, and a
    next layer x + dt r cos x with r in [-1, 1]."""
    n = draw(st.integers(4, 96))
    weights = draw(hnp.arrays(float, n, elements=st.floats(0.2, 1.8)))
    x0 = draw(st.floats(-10.0, 10.0))
    dt = draw(st.floats(1e-4, 1e-2))
    r = draw(st.floats(-1.0, 1.0))
    offsets = np.concatenate([[0.0], np.cumsum(weights[:-1])])
    grid = GridSlice(t=0.0, x=x0 + offsets * (TAU / weights.sum()))
    grid_next = GridSlice(t=dt, x=grid.x + dt * r * np.cos(grid.x))
    return DiscreteField(grid=grid, u=np.sin(grid.x)), grid_next, dt


@settings(max_examples=300, deadline=None)
@given(moving_layers())
def test_scheme_step_sits_on_residual_manifold(case):
    # the certifier's relation and the running step share one stencil: the
    # step output satisfies the relation at every node of a random moving
    # grid
    fld, grid_next, dt = case
    p = StencilParams(nu=0.1)
    xdot = (grid_next.x - fld.grid.x) / dt
    out_u = invariant_step(Layer.of_positions(fld.grid.x, TAU),
                           Layer.of_values(fld.u), xdot, dt, p.nu,
                           Layer(fld.grid.n)).nodes
    expected = moving_mesh_update_loop(fld.grid.x, fld.u, xdot, dt, p.nu,
                                       TAU)
    np.testing.assert_array_equal(out_u, expected)
    n = len(out_u)
    seam = np.zeros(n + 2)
    seam[0], seam[-1] = -TAU, TAU  # unwrap the neighbours across the seam
    idx = np.arange(-1, n + 1) % n
    x, x1 = fld.grid.x[idx] + seam, grid_next.x[idx] + seam
    u, u1 = fld.u[idx], out_u[idx]
    for i in range(1, n + 1):
        nodes = slice(i - 1, i + 2)
        s = Stencil(t=0.0, dt=dt, x=x[nodes], u=u[nodes],
                    x_next=x1[nodes], u_next=u1[nodes])
        # the certifier solves its relation with the step's own arithmetic
        assert relation_defect(satisfy_scheme, s, p) == 0.0


def test_monitor_invariant_under_boosted_field():
    fld = sin_field(n=64, t=0.4)
    boosted = apply_field(GroupElement(Generator.GALILEAN_BOOST, 1.0), fld)
    np.testing.assert_allclose(
        monitor(Layer.of_positions(boosted.grid.x, TAU),
                Layer.of_values(boosted.u), 1.0, Layer(64)).nodes,
        monitor(Layer.of_positions(fld.grid.x, TAU), Layer.of_values(fld.u),
                1.0, Layer(64)).nodes, rtol=0, atol=1e-13)


def test_transformed_stencil_rescales_dt_under_scaling():
    s = manual_stencil()
    out = transform_stencil(GroupElement(Generator.SCALING, 0.5), s)
    assert out.dt == pytest.approx(math.exp(1.0) * s.dt, rel=1e-13)
