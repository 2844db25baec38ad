"""Whole-run symmetry properties: ``run`` on transformed data equals the
transformed ``run``, node for node, on random low-mode data.

Each draw sets t_final = (m + 1/2) dt0, so that the rest run and the mapped
run take the same m + 1 steps (the last one cut to half) and no rounding of
t_final / dt0 can add or drop a step in one of them. Tolerances are tied to
the unit roundoff of the largest coordinate of the compared layer.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariant_burgers import (Generator, GroupElement, SchemeConfig,
                               SchemeKind, apply_field, run)

SCHEMES = list(SchemeKind)
BOOST_INVARIANT = [SchemeKind.LAGRANGIAN, SchemeKind.EULERIAN_ADAPTIVE,
                   SchemeKind.CONSTANT_FRAME, SchemeKind.EVOLUTION_PROJECTION]
# the worst case seen over 400 draws per scheme and property was 16.1 ulp,
# in a scaling by e^-1 of the constant-frame scheme
ULPS = 64
MAX_STEPS = 20
T_MAX = 0.5

whole_run = settings(max_examples=20, deadline=None)


@st.composite
def low_mode_runs(draw, kind):
    """A config of ``kind`` and its initial data: 1-3 Fourier modes of
    summed amplitude at most 0.6, N in [8, 64], a random domain start, and
    t_final = (m + 1/2) dt0 with at most ``MAX_STEPS`` + 1 steps up to
    about t = ``T_MAX``."""
    n = draw(st.integers(8, 64))
    start = draw(st.floats(-3.0, 3.0))
    modes = draw(st.lists(st.tuples(st.integers(1, 3),
                                    st.floats(-0.2, 0.2),
                                    st.floats(0.0, 2.0 * math.pi)),
                          min_size=1, max_size=3))
    # the constant-frame scheme computes in the frame of a drawn boost
    boost = draw(st.floats(-0.5, 0.5)) if kind is SchemeKind.CONSTANT_FRAME \
        else 0.0
    config = SchemeConfig(scheme_kind=kind, n_points=n, domain_start=start,
                          alpha=draw(st.floats(0.5, 2.0)),
                          frame_velocity=boost)
    length = config.domain_length
    h = length / n
    dt0 = config.dt_factor * h * h
    m = min(draw(st.integers(0, MAX_STEPS)), int(T_MAX / dt0))
    # coarse grids take long steps: damp the data so that no Lagrangian
    # step shrinks a gap by more than half (dt0 max|u_x| <= 1/2) and the
    # moving meshes stay ordered
    wavenumber = 2.0 * math.pi / length
    slope = wavenumber * sum(k * abs(a) for k, a, _ in modes)
    damp = 0.5 / (dt0 * slope) if dt0 * slope > 0.5 else 1.0

    def initial(x):
        phase = (x - start) * wavenumber
        return sum(damp * a * np.sin(k * phase + p) for k, a, p in modes)

    return replace(config, t_final=(m + 0.5) * dt0), initial


def defect(got, expected):
    """Largest nodewise difference of positions and values, in ulp of the
    largest coordinate of ``expected``; the layer times must be equal."""
    assert got.grid.t == expected.grid.t
    scale = max(1.0, float(np.max(np.abs(expected.grid.x))),
                float(np.max(np.abs(expected.u))))
    diff = max(float(np.max(np.abs(got.grid.x - expected.grid.x))),
               float(np.max(np.abs(got.u - expected.u))))
    return diff / (np.finfo(float).eps * scale)


@pytest.mark.parametrize("kind", SCHEMES)
@whole_run
@given(data=st.data(), shift=st.floats(-3.0, 3.0))
def test_run_commutes_with_space_translation(kind, data, shift):
    config, initial = data.draw(low_mode_runs(kind))
    g = GroupElement(Generator.SPACE_TRANSLATION, shift)
    rest = run(config, initial).final
    moved = run(replace(config, domain_start=config.domain_start + shift),
                lambda x: initial(x - shift)).final
    assert defect(moved, apply_field(g, rest)) <= ULPS


@pytest.mark.parametrize("kind", BOOST_INVARIANT)
@whole_run
@given(data=st.data(), eps=st.floats(-1.0, 1.0))
def test_invariant_schemes_commute_with_a_boost(kind, data, eps):
    config, initial = data.draw(low_mode_runs(kind))
    g = GroupElement(Generator.GALILEAN_BOOST, eps)
    rest = run(config, initial).final
    boosted = run(replace(config, frame_velocity=config.frame_velocity + eps),
                  initial).final
    assert defect(boosted, apply_field(g, rest)) <= ULPS


@whole_run
@given(data=st.data(), size=st.floats(0.25, 1.0), negative=st.booleans())
def test_fixed_grid_scheme_breaks_the_boost(data, size, negative):
    # the negative control: the same check sees the fixed grid stay put
    # while the boosted frame moves it by eps * t
    config, initial = data.draw(low_mode_runs(SchemeKind.CLASSICAL_FTCS))
    eps = -size if negative else size
    g = GroupElement(Generator.GALILEAN_BOOST, eps)
    rest = run(config, initial).final
    boosted = run(replace(config, frame_velocity=eps), initial).final
    assert defect(boosted, apply_field(g, rest)) >= 1e6 * ULPS


@whole_run
@given(data=st.data())
def test_constant_frame_is_ftcs_in_the_frame_of_its_drift(data):
    # the remedy: data boosted by c is stepped as FTCS on u0 in the frame
    # moving at c, and each layer is reported boosted by c, bit for bit
    config, initial = data.draw(low_mode_runs(SchemeKind.CONSTANT_FRAME))
    g = GroupElement(Generator.GALILEAN_BOOST, config.frame_velocity)
    frame = run(config, initial, snapshot_every=1)
    ftcs = run(replace(config, scheme_kind=SchemeKind.CLASSICAL_FTCS,
                       frame_velocity=0.0), initial, snapshot_every=1)
    assert len(frame.snapshots) == len(ftcs.snapshots)
    for got, rest in zip(frame.snapshots, ftcs.snapshots):
        expected = apply_field(g, rest)
        assert got.grid.t == expected.grid.t
        np.testing.assert_array_equal(got.grid.x, expected.grid.x)
        np.testing.assert_array_equal(got.u, expected.u)


@pytest.mark.parametrize("kind", SCHEMES)
@whole_run
@given(data=st.data(), eps=st.floats(-1.0, 1.0))
def test_run_commutes_with_scaling(kind, data, eps):
    # x -> e^eps x, t -> e^(2 eps) t, u -> e^(-eps) u, with the monitor
    # weight alpha -> e^(4 eps) alpha and the boost c -> e^(-eps) c;
    # dt = C h^2 scales with t, so both runs take the same steps
    config, initial = data.draw(low_mode_runs(kind))
    g = GroupElement(Generator.SCALING, eps)
    scale = math.exp(eps)
    rest = run(config, initial).final
    scaled = run(replace(config, domain_start=scale * config.domain_start,
                         domain_length=scale * config.domain_length,
                         t_final=math.exp(2.0 * eps) * config.t_final,
                         alpha=math.exp(4.0 * eps) * config.alpha,
                         frame_velocity=config.frame_velocity / scale),
                 lambda x: initial(x / scale) / scale).final
    assert defect(scaled, apply_field(g, rest)) <= ULPS
