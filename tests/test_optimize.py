"""The grid-seeded Newton maximizer on sums of log-polynomials."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from snpwoe.optimize import maximize_on_interval


def log_lik(coeffs, counts):
    """``w -> sum_i counts[i] * log p_i(w)``, counting its calls, and the
    coefficients padded to one common degree of at least 2. Each point's
    terms are summed exactly, so its value does not depend on the other
    points in the call."""
    degree = max(2, max(len(c) for c in coeffs) - 1)
    coeffs = np.array([np.pad(np.asarray(c, dtype=float), (0, degree + 1 - len(c)))
                       for c in coeffs])
    counts = np.asarray(counts, dtype=float)

    def fn(w):
        fn.calls += 1
        with np.errstate(divide="ignore"):
            terms = counts[:, None] * np.log(P.polyval(w, coeffs.T))
        return np.array([math.fsum(column) for column in terms.T.tolist()])

    fn.calls = 0
    return fn, coeffs, counts


def maximize(coeffs, counts, lower=0.0, upper=0.5):
    fn, coeffs, counts = log_lik(coeffs, counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, value = maximize_on_interval(fn, lower, upper, coeffs, counts)
    assert fn.calls == 1
    return w, value, fn


def stationary_points(coeffs, counts, lower, upper):
    """Real roots in (lower, upper) of the numerator of the summed slope."""
    numerator = np.zeros(1)
    for i, (c, n) in enumerate(zip(coeffs, counts)):
        others = np.ones(1)
        for j, other in enumerate(coeffs):
            if j != i:
                others = P.polymul(others, other)
        numerator = P.polyadd(numerator, n * P.polymul(P.polyder(c), others))
    roots = P.polyroots(numerator)
    real = roots[np.abs(roots.imag) < 1e-12].real
    return real[(real > lower) & (real < upper)]


class TestModes:
    def test_higher_mode_is_not_the_first_grid_maximum(self):
        """Modes near 0.1 and 0.4 of ``0.01 - (w-0.1)^2 (w-0.4)^2``, tilted
        upward by a second row ``1 + w/2``: the later mode is the higher."""
        bimodal = P.polysub([0.01], P.polymul(P.polymul([-0.1, 1], [-0.1, 1]),
                                              P.polymul([-0.4, 1], [-0.4, 1])))
        coeffs = [bimodal, [1.0, 0.5, 0.0, 0.0, 0.0]]
        fn, arr, counts = log_lik(coeffs, [1.0, 1.0])
        grid = np.linspace(0.0, 0.5, 65)
        vals = fn(grid)
        first_peak = next(i for i in range(1, 64) if vals[i - 1] < vals[i] >= vals[i + 1])
        assert grid[first_peak] < 0.2
        w, value, fn = maximize(coeffs, [1.0, 1.0])
        modes = stationary_points(arr, counts, 0.0, 0.5)
        want = max(modes, key=lambda x: float(fn(np.array([x]))[0]))
        assert want > 0.3
        assert abs(w - want) < 1e-10
        assert value == fn(np.array([w]))[0]

    def test_interior_maximum_matches_the_slope_root(self):
        """``3 log(w) + 7 log(1 - w)`` peaks at 0.3."""
        w, value, _ = maximize([[0.0, 1.0], [1.0, -1.0]], [3.0, 7.0])
        assert abs(w - 0.3) < 1e-12
        assert value == pytest.approx(3 * math.log(0.3) + 7 * math.log(0.7), abs=1e-12)


class TestEnds:
    @pytest.mark.parametrize("lower, upper", [(0.0, 0.5), (0.05, 0.3)])
    def test_falling_objective_peaks_at_lower_end_exactly(self, lower, upper):
        w, value, fn = maximize([[1.0, -1.0, 0.5]], [4.0], lower, upper)
        assert w == lower
        assert value == fn(np.array([lower]))[0]

    @pytest.mark.parametrize("lower, upper", [(0.0, 0.5 - 1e-12), (0.05, 0.3)])
    def test_rising_objective_peaks_at_upper_end_exactly(self, lower, upper):
        w, value, fn = maximize([[1.0, 2.0], [0.5, 0.0, 1.0]], [1.0, 2.0], lower, upper)
        assert w == upper
        assert value == fn(np.array([upper]))[0]


class TestHardExclusion:
    def test_row_with_zero_probability_at_zero(self):
        """``log(w) + 1000 log(1 - w)``: -inf at w = 0, the maximum 1/1001
        inside the first grid step; no numpy warning escapes."""
        w, value, fn = maximize([[0.0, 1.0], [1.0, -1.0]], [1.0, 1000.0])
        assert fn(np.array([0.0]))[0] == -math.inf
        assert abs(w - 1.0 / 1001.0) < 1e-12
        assert value == fn(np.array([w]))[0]


class TestErrors:
    def test_empty_interval(self):
        fn, coeffs, counts = log_lik([[1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match=r"^need lower < upper, got \[0\.5, 0\.5\]$"):
            maximize_on_interval(fn, 0.5, 0.5, coeffs, counts)
        assert fn.calls == 0

    def test_nan_on_grid(self):
        coeffs, counts = np.array([[1.0, 1.0]]), np.ones(1)
        with pytest.raises(ValueError, match="^objective returned NaN on the search grid$"):
            maximize_on_interval(lambda w: np.where(w > 0.25, np.nan, w), 0.0, 0.5,
                                 coeffs, counts)
