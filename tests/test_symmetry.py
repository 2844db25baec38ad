import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from invariant_burgers import (
    DiscreteField, Generator, GridSlice, GroupElement, NodeCrossingError,
    StencilParams, TAU, apply_field, apply_point, max_defect,
    satisfy_constant, satisfy_ftcs, satisfy_scheme, satisfy_stationary,
    uniform_slice,
)

from invariant_burgers.grid import Layer, bind_equidistributed
from invariant_burgers.schemes import (StencilRows, bind_stencil,
                                       invariant_step)
from invariant_burgers.symmetry import (Stencil, _grid_velocity,
                                        invariance_defect, relation_defect,
                                        sample_stencil, stencil_scale,
                                        transform_monitor, transform_params,
                                        transform_stencil)

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


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
def test_a_group_element_refuses_a_parameter_not_finite(gen, eps):
    with pytest.raises(ValueError,
                       match="^epsilon must be finite$") as refused:
        GroupElement(gen, eps)
    assert refused.type is ValueError


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.value)
def test_a_generator_given_by_its_value_acts_as_its_member(gen):
    # a string generator was kept as given, failed every identity test
    # against the members and fell through to the scaling
    by_value, by_member = GroupElement(gen.value, 0.7), GroupElement(gen, 0.7)
    assert by_value == by_member and by_value.generator is gen
    t, x, u = 0.5, np.array([1.0, 2.5]), np.array([2.0, -1.0])
    for got, expected in zip(apply_point(by_value, t, x, u),
                             apply_point(by_member, t, x, u)):
        np.testing.assert_array_equal(got, expected)
    got, expected = (apply_field(g, sin_field()) for g in (by_value,
                                                            by_member))
    assert (got.grid.t, got.grid.domain_start, got.grid.domain_length) == (
        expected.grid.t, expected.grid.domain_start,
        expected.grid.domain_length)
    np.testing.assert_array_equal(got.grid.x, expected.grid.x)
    np.testing.assert_array_equal(got.u, expected.u)
    p = StencilParams(c=0.3)
    assert transform_params(by_value, p) == transform_params(by_member, p)
    assert transform_monitor(by_value, 0.3) == transform_monitor(by_member,
                                                                 0.3)


def test_a_space_translation_given_by_its_value_translates():
    assert apply_point(GroupElement("space-translation", 1.0), 0.5, 1.0,
                       2.0) == (0.5, 2.0, 2.0)


def test_a_group_element_refuses_an_unknown_generator():
    with pytest.raises(ValueError, match="'no-such-generator' is not a "
                                         "valid Generator") as refused:
        GroupElement("no-such-generator", 1.0)
    assert refused.type is ValueError


@pytest.mark.parametrize("gen", [Generator.TIME_TRANSLATION,
                                 Generator.SPACE_TRANSLATION,
                                 Generator.GALILEAN_BOOST])
def test_translations_and_boosts_keep_the_monitor_weight(gen):
    # the centred slope is unchanged by translations and boosts
    assert transform_monitor(GroupElement(gen, 0.7), 0.3) == 0.3


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


@settings(max_examples=300, deadline=None)
@given(xc=st.floats(-10.0, 10.0), gaps=st.tuples(st.floats(1e-3, 1.0),
                                                 st.floats(1e-3, 1.0)),
       u=hnp.arrays(float, 3, elements=st.floats(-2.0, 2.0)),
       dt=st.floats(1e-5, 1e-2), velocity=st.floats(-2.0, 2.0),
       nu=st.floats(1e-3, 1.0), moving=st.booleans())
def test_the_certifier_steps_the_centre_as_the_oracle(xc, gaps, u, dt,
                                                      velocity, nu, moving):
    # the certifier places its three nodes as one layer and reads node 1,
    # which the oracle steps by the same arithmetic in the same order: the
    # match is bit for bit (== also takes a centre of -0.0 against 0.0,
    # the one pair of bit patterns two orders of a zero sum can differ by)
    x = np.array([xc - gaps[0], xc, xc + gaps[1]])
    s = Stencil(t=0.0, dt=dt, x=x, u=u, x_next=x + dt * velocity,
                u_next=np.zeros(3))
    satisfy, xdot = ((satisfy_scheme, _grid_velocity(s)) if moving
                     else (satisfy_ftcs, 0.0))
    expected = moving_mesh_update_loop(x, u, xdot, dt, nu,
                                       2.0 * (x[2] - x[0]))
    assert satisfy(s, StencilParams(nu=nu)).u_next[1] == expected[1]


@pytest.mark.parametrize("x", [[1.0, 0.5, 2.0], [1.0, 2.0, 1.5],
                               [2.0, 1.5, 1.0], [1.0, 1.0, 2.0]])
@pytest.mark.parametrize("satisfy", [satisfy_scheme, satisfy_ftcs])
def test_an_unordered_stencil_is_a_node_crossing(x, satisfy):
    # the stencil's positions are placed as a layer, whose order check
    # refuses nodes that are not strictly increasing
    s = replace(manual_stencil(), x=np.array(x))
    with pytest.raises(NodeCrossingError):
        satisfy(s, StencilParams())


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
    xl = Layer.of_positions(fld.grid.x, TAU)
    rows, out = StencilRows(fld.grid.n, p.nu), Layer(fld.grid.n)
    invariant_step(bind_stencil(xl, Layer.of_values(fld.u), xdot, dt, rows,
                                out))
    out_u = out.nodes
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

    def monitor(f):
        # sqrt(1 + s^2) of the centred slope s that the equidistribution
        # solve leaves in its slope row
        slope = np.empty(64)
        bind_equidistributed(Layer.of_positions(f.grid.x, TAU),
                             Layer.of_values(f.u), 1.0, Layer(64, TAU),
                             slope)()
        return np.sqrt(1.0 + np.square(slope))

    np.testing.assert_allclose(monitor(boosted), monitor(fld), rtol=0,
                               atol=1e-13)


def test_transformed_stencil_rescales_dt_under_scaling():
    s = manual_stencil()
    out = transform_stencil(GroupElement(Generator.SCALING, 0.5), s)
    assert out.dt == pytest.approx(math.exp(1.0) * s.dt, rel=1e-13)


# each entry point of a scaling's factors e^(k eps), k in {4, 2, 1, -1}
SCALED = {
    "apply_point": lambda g: apply_point(g, 0.5, 1.0, 0.3),
    "apply_field": lambda g: apply_field(g, sin_field()),
    "transform_monitor": lambda g: transform_monitor(g, 1.0),
    "transform_stencil": lambda g: transform_stencil(g, manual_stencil()),
    "max_defect": lambda g: max_defect(satisfy_scheme, g, n_samples=3),
}


@pytest.mark.parametrize("eps", [400.0, -400.0])
@pytest.mark.parametrize("entry", sorted(SCALED))
def test_a_scaling_factor_out_of_range_is_a_value_error(entry, eps):
    # e^(2 eps) overflows at eps = 400 and is 0 at eps = -400: a ValueError
    # naming the element, not math.exp's bare OverflowError or a map that
    # collapses t
    with pytest.raises(ValueError, match=rf"^scaling by eps={eps!r}: its "
                                         rf"factor e\^\(\d eps\)"):
        SCALED[entry](GroupElement(Generator.SCALING, eps))


@pytest.mark.parametrize("eps", [400.0, -400.0, 800.0, -800.0])
def test_transform_params_refuses_only_a_factor_out_of_range(eps):
    g, p = GroupElement(Generator.SCALING, eps), StencilParams(c=1.0)
    if abs(eps) < 700.0:
        assert transform_params(g, p).c == math.exp(-eps)
    else:
        with pytest.raises(ValueError, match=rf"^scaling by eps={eps!r}: "
                                             rf"its factor e\^\(-1 eps\)"):
            transform_params(g, p)
