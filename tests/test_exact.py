import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariant_burgers import (FourierCoeffs, NoDecayError,
                               NonFiniteSolutionError, SimulationError, TAU,
                               coefficients, evaluate, uniform_slice)

from oracles import (burgers_bessel_mp, coefficients_all_rows,
                     leading_coefficient_quadrature, trapezoid_coefficient)


def test_leading_coefficient_matches_adaptive_quadrature(coeffs_nu01):
    ref = leading_coefficient_quadrature(0.1)
    assert abs(coeffs_nu01.a[0] - ref) <= 1e-12 * ref


def outcome(table, nu):
    """The coefficient bytes and quadrature size ``table(nu)`` gives, or
    the type and message of what it raises."""
    try:
        result = table(nu)
    except (NoDecayError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, FourierCoeffs):
        result = result.a, result.quad_points
    return result[0].tobytes(), result[1]


@settings(max_examples=60, deadline=None)
@given(st.floats(math.log(1e-4), math.log(50.0)))
def test_coefficients_match_the_table_of_all_modes(log_nu):
    # the table forms its modes only where the doubling can stop, one
    # trapezoid row per mode, in order up to the first below the bound;
    # each is the mean over its own row, so it gives the bits, the size
    # and the error of the whole table
    nu = math.exp(log_nu)
    assert outcome(coefficients, nu) == outcome(coefficients_all_rows, nu)


def test_large_viscosity_limit():
    # integrand tends to 1, so a_0 -> 1 and the higher modes die out
    coeffs = coefficients(100.0)
    assert abs(coeffs.a[0] - 1.0) <= 1e-2
    assert np.all(np.abs(coeffs.a[1:]) < coeffs.a[0])


def test_quadrature_converged_in_point_count(coeffs_nu01):
    m = coeffs_nu01.quad_points
    for j in range(len(coeffs_nu01.a)):
        refined = trapezoid_coefficient(0.1, j, 2 * m)
        assert abs(coeffs_nu01.a[j] - refined) <= 1e-12 * coeffs_nu01.a[0]


def test_zeros_at_origin_and_pi(coeffs_nu01):
    for t in (0.0, 0.1, 0.5, 2.0):
        assert abs(evaluate(coeffs_nu01, t, 0.0)) <= 1e-13
        assert abs(evaluate(coeffs_nu01, t, np.pi)) <= 1e-13


def test_reference_matches_the_bessel_series_in_mpmath(coeffs_nu01):
    # an independent form of the same solution: the Bessel generating
    # function of the potential, summed at 40 digits. At nu = 0.05 the
    # series cancels near the front (ROADMAP item 3), so that viscosity is
    # printed, not gated
    x = uniform_slice(64).x
    for nu, coeffs in ((0.1, coeffs_nu01), (0.05, coefficients(0.05))):
        errs = [float(np.max(np.abs(evaluate(coeffs, t, x)
                                    - burgers_bessel_mp(nu, t, x))))
                for t in (0.0, 0.25, 0.5)]
        print(f"nu={nu}: " + ", ".join(f"{e:.1e}" for e in errs))
        if nu == 0.1:
            assert max(errs) <= 1e-10, errs


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
    gap = np.max(np.abs(evaluate(coeffs_nu01, 0.0, x) - np.sin(x)))
    assert gap <= 1e-8


def test_truncation_robust_to_doubling(coeffs_nu01):
    # double both the truncation index and the quadrature resolution using
    # the independent trapezoid oracle; benchmark-time values must not move
    j2 = 2 * coeffs_nu01.truncation_index
    m2 = 2 * coeffs_nu01.quad_points
    a2 = np.array([trapezoid_coefficient(0.1, j, m2) for j in range(j2 + 1)])
    deeper = FourierCoeffs(nu=0.1, a=a2, quad_points=m2)
    x = np.arange(64) * (TAU / 64)
    delta = np.max(np.abs(evaluate(coeffs_nu01, 0.5, x)
                          - evaluate(deeper, 0.5, x)))
    assert delta <= 1e-10


def test_odd_symmetry(coeffs_nu01):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, TAU, 50)
    lhs = evaluate(coeffs_nu01, 0.5, -x)
    rhs = -evaluate(coeffs_nu01, 0.5, x)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_periodicity(coeffs_nu01):
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, TAU, 50)
    # x + 2pi rounds before the argument reduction ever sees it; near the
    # steep front the small denominator amplifies that single ulp, so
    # exact equality is not representable and near-roundoff is the contract
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


def test_coefficient_tail_decays(coeffs_nu01):
    tail = np.abs(coeffs_nu01.a[len(coeffs_nu01.a) // 2:])
    assert np.all(np.diff(tail) <= 0.0)


def test_constructor_rejects_growing_tail():
    with pytest.raises(ValueError):
        FourierCoeffs(nu=0.1, a=np.array([1.0, 0.5, 1e-4, 1e-3]),
                      quad_points=256)


@pytest.mark.parametrize("a0", [0.0, -1.0])
def test_constructor_rejects_a_leading_coefficient_not_positive(a0):
    with pytest.raises(ValueError, match="^a_0 must be positive$") as refused:
        FourierCoeffs(nu=0.1, a=np.array([a0, 0.1]), quad_points=256)
    assert refused.type is ValueError


def test_negative_time_rejected(coeffs_nu01):
    with pytest.raises(ValueError):
        evaluate(coeffs_nu01, -0.1, 1.0)


def test_reference_that_cancels_to_inf_is_a_typed_error():
    # at nu = 0.005 the series' denominator cancels to zero at x = pi; the
    # error is raised without a numpy warning (warnings fail the suite)
    coeffs = coefficients(0.005)
    with pytest.raises(NonFiniteSolutionError, match="t=0.5 .nu=0.005"):
        evaluate(coeffs, 0.5, np.arange(8) * (TAU / 8))


def test_no_decay_error_for_impossible_tolerance():
    # at nu = 1e-4 the modes decay too slowly to fall below the tolerance
    # within the mode cap
    with pytest.raises(NoDecayError):
        coefficients(1e-4)


@pytest.mark.parametrize("nu", [1e-7, 1e-10, 1e-20, 1e-300])
def test_a_tiny_viscosity_is_refused_at_the_mode_cap(nu):
    # the potential is too narrow for the quadrature to settle a_0, and its
    # modes do not decay within the mode cap either: the refusal names the
    # mode cap at the quadrature size where the modes first reach it
    with pytest.raises(NoDecayError, match=r"within j <= 200"):
        coefficients(nu)


@settings(max_examples=60, deadline=None)
@given(st.floats(math.log(1e-300), math.log(1e8)))
def test_the_table_ends_where_its_modes_reach_the_cap(log_nu):
    # m / 4 modes first reach the cap of 200 at m = 1024, where the table
    # returns or is refused; it is never formed on more points
    try:
        coeffs = coefficients(math.exp(log_nu))
    except NoDecayError as exc:
        assert re.search(r"within j <= 200", str(exc))
    else:
        assert coeffs.quad_points in (512, 1024)


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
    # a 2-D x keeps its shape, with the bytes of the flat call
    x = np.linspace(-4.0, 4.0, 6)
    shaped = evaluate(coeffs_nu01, 0.5, x.reshape(2, 3))
    assert shaped.shape == (2, 3)
    assert shaped.tobytes() == evaluate(coeffs_nu01, 0.5, x).tobytes()
