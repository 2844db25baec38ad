import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariant_burgers import (Reference, SimulationError, TAU, coefficients,
                               evaluate, exact)

from oracles import burgers_bessel_mp

LATTICE_16 = np.arange(16) * (TAU / 16)


def moved_by_refining(nu, t, x):
    """How far halving the trapezoid step and, apart, doubling the window
    move the values at x."""
    step, half = exact._window(nu, t)
    base = exact._cole_hopf(nu, t, x, step, half)
    finer = exact._cole_hopf(nu, t, x, step / 2.0, half)
    wider = exact._cole_hopf(nu, t, x, step, 2.0 * half)
    return (float(np.max(np.abs(finer - base))),
            float(np.max(np.abs(wider - base))))


def test_large_viscosity_limit():
    # diffusion outweighs advection: u tends to the heat equation's
    # e^(-nu t) sin x, with a nonlinear correction of order 1 / nu
    x = np.arange(64) * (TAU / 64)
    for nu in (100.0, 1e4):
        t = 1.0 / nu
        u = evaluate(coefficients(nu), t, x)
        gap = np.max(np.abs(u - math.exp(-nu * t) * np.sin(x)))
        assert gap <= 0.05 / nu, (nu, gap)


@pytest.mark.parametrize("nu", [400.0, 1e4])
def test_a_wide_kernel_does_not_alias_the_period(nu):
    # at t = 1 the kernel is wider than the period: a step sized by the
    # kernel alone reached 2 pi / 1 at nu = 400 and returned 0.27 sin x,
    # where the solution is within e^-400 of 0
    finer, _ = moved_by_refining(nu, 1.0, LATTICE_16)
    u = evaluate(coefficients(nu), 1.0, LATTICE_16)
    assert np.max(np.abs(u - burgers_bessel_mp(nu, 1.0, LATTICE_16))) <= 1e-15
    assert finer <= 1e-15, finer


def test_the_folded_kernel_on_both_sides_of_its_two_forms():
    # 2 nu t = 81 divides the sum over images from the flat kernel, whose
    # ripple 2 e^(-nu t) would show below it: 6e-7 at 2 nu t = 30
    worst = max(
        float(np.max(np.abs(evaluate(coefficients(nu), t, LATTICE_16)
                            - burgers_bessel_mp(nu, t, LATTICE_16))))
        for nu, t in ((0.5, 9.9), (0.5, 30.0), (5.0, 3.0), (0.5, 80.9),
                      (0.5, 81.1), (50.0, 1.0)))
    assert worst <= 1e-15, worst


@pytest.mark.parametrize("nu", [0.1, 0.01])
def test_large_times_take_one_period_of_points(nu):
    # the window t + 12 sqrt(2 nu t) is folded onto one period, so a long
    # run is not refused: unfolded, every t above about 4,500 at nu = 0.1
    # needed more than 2^16 points
    for t in (10.0, 100.0, 1e4, 1e12):
        step, _ = exact._window(nu, t)
        assert math.tau / step <= 200
        u = evaluate(coefficients(nu), t, LATTICE_16)
        gap = np.max(np.abs(u - burgers_bessel_mp(nu, t, LATTICE_16)))
        assert gap <= 1e-15, (t, gap)


def test_quadrature_converged_in_point_count():
    # halving the step moves no value beyond roundoff
    for t in (0.05, 0.5, 2.0):
        finer, _ = moved_by_refining(0.1, t, np.arange(64) * (TAU / 64))
        assert finer <= 1e-14, (t, finer)


def test_truncation_robust_to_doubling():
    # the window holds the integrand's tails: doubling it moves no value
    for t in (0.05, 0.5, 2.0):
        _, wider = moved_by_refining(0.1, t, np.arange(64) * (TAU / 64))
        assert wider <= 1e-14, (t, wider)


def test_zeros_at_origin_and_pi(coeffs_nu01):
    for t in (0.0, 0.1, 0.5, 2.0):
        assert abs(evaluate(coeffs_nu01, t, 0.0)) <= 1e-13
        assert abs(evaluate(coeffs_nu01, t, np.pi)) <= 1e-13


def test_reference_matches_the_bessel_series_in_mpmath():
    # an independent form of the same solution: the Bessel generating
    # function of the potential, in mpmath at digits and modes scaled
    # with 1 / nu, on the 16-node lattice; past the breaking time t = 1
    # too (measured at most 1.1e-15)
    worst = {}
    for nu in (0.1, 0.05, 0.02, 0.01, 0.005):
        ref = coefficients(nu)
        assert np.array_equal(evaluate(ref, 0.0, LATTICE_16),
                              np.sin(LATTICE_16))
        worst[nu] = max(
            float(np.max(np.abs(evaluate(ref, t, LATTICE_16)
                                - burgers_bessel_mp(nu, t, LATTICE_16))))
            for t in (0.05, 0.5, 1.0, 2.0))
    print(", ".join(f"nu={nu}: {e:.1e}" for nu, e in worst.items()))
    assert max(worst.values()) <= 1e-13, worst


def test_the_quadrature_settles_at_a_tiny_viscosity():
    # at nu = 0.001 the oracle is too slow (39 s for 16 points), so the
    # reference is checked against itself: a finer step and a wider window
    # move nothing, and the zeros hold. fl(pi) lies pi - fl(pi) =
    # sin(fl(pi)) below pi, where the front's slope u_x(pi) is about -500
    # at t = 2, so u(fl(pi)) is not 0 but -u_x(pi) sin(fl(pi)), 6e-14
    nu, d = 0.001, 1e-9
    ref = coefficients(nu)
    for t in (0.5, 2.0):
        finer, wider = moved_by_refining(nu, t, LATTICE_16)
        assert finer <= 1e-14 and wider <= 1e-14, (t, finer, wider)
        at_0, at_pi, left, right = evaluate(
            ref, t, [0.0, np.pi, np.pi - d, np.pi + d])
        slope = (right - left) / (2.0 * d)
        assert abs(at_0) <= 1e-14, (t, at_0)
        assert abs(at_pi + slope * math.sin(np.pi)) <= 1e-14, (t, at_pi)


def test_the_bessel_oracle_holds_at_small_viscosity():
    # at nu = 0.01 the oracle's defaults scale with 1/nu; at a fixed 40
    # digits and 60 modes it gave -0.955 at x = 3 pi / 4, where the
    # solution is about +0.946
    nu, t = 0.01, 0.5
    s = np.array([np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    x = np.concatenate([np.pi - s, np.pi + s])
    u = burgers_bessel_mp(nu, t, x)
    left, right = u[:len(s)], u[len(s):]
    assert np.all(left > 0.0) and abs(left[1] - 0.946) < 5e-4, left
    assert np.max(np.abs(left + right)) <= 1e-12, left + right
    digits = math.ceil(1 / (nu * math.log(10)) + 40)
    modes = math.ceil(math.sqrt((2 / nu) * (2 / nu + 40)) + 20)
    finer = burgers_bessel_mp(nu, t, x, digits=2 * digits, modes=2 * modes)
    assert np.max(np.abs(u - finer)) <= 1e-15, u - finer


def test_initial_condition_consistency(coeffs_nu01):
    x = np.arange(1024) * (TAU / 1024)
    for ref in (coeffs_nu01, coefficients(0.05)):
        assert evaluate(ref, 0.0, x).tobytes() == np.sin(x).tobytes()


def test_small_times_approach_the_initial_data(coeffs_nu01):
    # |u - sin x| <= t (1/2 + nu) to first order in t; the weights are an
    # average of u0 itself, so nothing is divided by t
    x = np.arange(64) * (TAU / 64)
    for t in (1e-8, 1e-12, 1e-30, 1e-300):
        gap = np.max(np.abs(evaluate(coeffs_nu01, t, x) - np.sin(x)))
        assert gap <= t + 2e-16, (t, gap)


def test_a_value_does_not_depend_on_the_other_queries(coeffs_nu01):
    x = np.random.default_rng(5).uniform(-TAU, 2.0 * TAU, 50)
    for ref in (coeffs_nu01, coefficients(0.01)):
        for t in (0.5, 2.0):
            together = evaluate(ref, t, x)
            alone = [evaluate(ref, t, xi) for xi in x]
            assert together.tobytes() == np.array(alone).tobytes()


def test_odd_symmetry(coeffs_nu01):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, TAU, 50)
    lhs = evaluate(coeffs_nu01, 0.5, -x)
    rhs = -evaluate(coeffs_nu01, 0.5, x)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_periodicity(coeffs_nu01):
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, TAU, 50)
    # x + 2pi rounds before cos and sin ever see it; near the steep front
    # that single ulp moves the value by the slope times it, so exact
    # equality is not representable and near-roundoff is the contract
    np.testing.assert_allclose(evaluate(coeffs_nu01, 0.5, x + TAU),
                               evaluate(coeffs_nu01, 0.5, x),
                               rtol=0, atol=2e-12)


def test_amplitude_decays_in_time(coeffs_nu01):
    x = np.arange(256) * (TAU / 256)
    amplitudes = [np.max(np.abs(evaluate(coeffs_nu01, t, x)))
                  for t in np.linspace(0.0, 2.0, 9)]
    assert np.all(np.diff(amplitudes) <= 1e-12)
    assert amplitudes[0] <= 1.0 + 1e-12  # unit-amplitude initial sine
    assert np.max(np.abs(evaluate(coeffs_nu01, 0.5, x))) < 1.0


def test_negative_time_rejected(coeffs_nu01):
    with pytest.raises(ValueError):
        evaluate(coeffs_nu01, -0.1, 1.0)


@pytest.mark.parametrize("nu", [0.0, -1.0, np.inf, np.nan])
def test_a_reference_needs_a_positive_finite_viscosity(nu):
    with pytest.raises(ValueError, match="^nu must be positive and finite"):
        coefficients(nu)


def test_a_reference_where_the_series_cancelled_is_right():
    # at nu = 0.005 the cosine series this form replaced cancelled to inf
    # at x = pi; no numpy warning either (warnings fail the suite)
    x = np.arange(8) * (TAU / 8)
    u = evaluate(coefficients(0.005), 0.5, x)
    assert np.max(np.abs(u - burgers_bessel_mp(0.005, 0.5, x))) <= 1e-13


@pytest.mark.parametrize("nu", [1e-9, 1e-10, 1e-20, 1e-300])
def test_a_tiny_viscosity_is_refused_at_the_point_cap(nu):
    # the integrand is too narrow for 2^16 trapezoid points to span its
    # window: a bad argument, named by nu and t, not a numerical failure.
    # nu = 1e-7, which the series refused, takes 11,709 points
    with pytest.raises(ValueError, match=re.escape(
            f"nu={nu!r}, t=0.5 needs more than 65536 quadrature points")) \
            as refused:
        evaluate(coefficients(nu), 0.5, LATTICE_16)
    assert not isinstance(refused.value, SimulationError)


@settings(max_examples=100, deadline=None)
@given(st.floats(math.log(1e-300), math.log(1e300)),
       st.floats(math.log(1e-300), math.log(1e300)))
def test_every_viscosity_and_time_gives_bounded_values_or_the_point_cap(
        log_nu, log_t):
    # the maximum principle: u is an average of u0 = sin x, so |u| <= 1.
    # The point cap is met only where a third of the narrowest width
    # sqrt(2 nu t / (1 + t)) is below 2 pi / 2^16: a wider integrand takes
    # less than the cap over a window or over the period it folds onto
    nu, t = math.exp(log_nu), math.exp(log_t)
    try:
        u = evaluate(coefficients(nu), t, LATTICE_16)
    except ValueError as exc:
        assert "needs more than 65536 quadrature points" in str(exc)
        narrowest = math.sqrt(2.0 * nu) * math.sqrt(t / (1.0 + t))
        assert narrowest / 3.0 <= math.tau / 2 ** 16, (nu, t)
    else:
        assert np.max(np.abs(u)) <= 1.0 + 1e-15, u


def test_memory_is_bounded_near_the_point_cap():
    # 64,051 points per query, so one query row to a block of at most
    # 2^13 entries: unblocked, one 4,096-row matrix would take 2.1 GB. The
    # measured peak is 4.2 MB: eight rows of z, at 0.5 MB each
    nu, t = 3.3e-9, 0.5
    step, half = exact._window(nu, t)
    assert 2 * math.ceil(half / step) + 1 > 64_000
    x = np.arange(4096) * (TAU / 4096)
    tracemalloc.start()
    try:
        u = evaluate(coefficients(nu), t, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000, peak
    assert abs(u[0]) <= 1e-14 and abs(u[1024] - 0.90) < 0.01, u[[0, 1024]]


@pytest.mark.parametrize("x, message", [
    (np.inf, "x[0] is inf"),
    (-np.inf, "x[0] is -inf"),
    (np.nan, "x[0] is nan"),
    (np.array([0.0, 1.0, -np.inf, np.nan]), "x[2] is -inf"),
])
def test_a_non_finite_position_is_refused_by_index(coeffs_nu01, x, message):
    # a bad argument, not a numerical failure, and refused before any
    # arithmetic, so no numpy warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            evaluate(coeffs_nu01, 0.5, x)
    assert not isinstance(caught.value, SimulationError)


def test_scalar_and_array_evaluation(coeffs_nu01):
    scalar = evaluate(coeffs_nu01, 0.5, 1.0)
    array = evaluate(coeffs_nu01, 0.5, np.array([1.0]))
    assert isinstance(scalar, float)
    assert scalar == array[0]
    assert isinstance(evaluate(coeffs_nu01, 0.0, 1.0), float)
    # a 2-D x keeps its shape, with the bytes of the flat call
    x = np.linspace(-4.0, 4.0, 6)
    shaped = evaluate(coeffs_nu01, 0.5, x.reshape(2, 3))
    assert shaped.shape == (2, 3)
    assert shaped.tobytes() == evaluate(coeffs_nu01, 0.5, x).tobytes()


def test_a_reference_is_a_frozen_value():
    ref = coefficients(0.1)
    assert ref == Reference(0.1)
    with pytest.raises(AttributeError):
        ref.nu = 0.2
