"""The reference's query-independent quadrature rows, formed once per
(nu, t) and kept read only."""

import numpy as np
import pytest

from invariant_burgers import TAU, coefficients, evaluate
from invariant_burgers import exact

# an error study's (nu, t), a window wider than the period, a kernel flat
# over the period, and a narrow kernel
CASES = [(0.1, 0.5), (0.1, 40.0), (400.0, 1.0), (0.01, 0.05)]


@pytest.mark.parametrize("nu, t", CASES)
def test_a_warm_cache_gives_the_bytes_of_a_cold_one(nu, t):
    x = np.linspace(-1.0, TAU + 1.0, 37)
    exact._quadrature.cache_clear()
    cold = evaluate(coefficients(nu), t, x)
    warm = evaluate(coefficients(nu), t, x)
    info = exact._quadrature.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold.tobytes() == warm.tobytes()
    # each query's value is its own row's, warm or cold
    assert evaluate(coefficients(nu), t, x[5]) == cold[5]


def test_the_cached_rows_are_read_only():
    exact._quadrature.cache_clear()
    evaluate(coefficients(0.1), 0.5, 1.0)
    rows = exact._quadrature(0.1, 0.5, *exact._window(0.1, 0.5))
    assert exact._quadrature.cache_info().hits == 1
    for row in rows:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0


def test_a_refused_quadrature_is_refused_again():
    # an error is not kept: each query at that (nu, t) is refused
    exact._quadrature.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="quadrature points"):
            evaluate(coefficients(1e-9), 0.5, 1.0)
    assert exact._quadrature.cache_info().currsize == 0
