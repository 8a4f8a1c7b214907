"""Scaled beta distribution on (0, 1/2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from snpwoe.scaled_beta import ScaledBeta

# Ten published prior parameterizations used as a cross-library oracle:
# (mean, variance, shape1, shape2, 5% fractile, 95% fractile). Shapes are
# printed to 3 decimals, fractiles to 7.
PRIOR_TABLE = [
    (1e-1, 5e-3, 1.400, 5.600, 0.0124384, 0.2377969),
    (1e-1, 1e-2, 0.600, 2.400, 0.0012744, 0.3103297),
    (1e-2, 5e-5, 1.940, 95.060, 0.0017324, 0.0237371),
    (1e-2, 1e-4, 0.960, 47.040, 0.0004717, 0.0300839),
    (1e-3, 5e-7, 1.994, 995.006, 0.0001772, 0.0023721),
    (1e-3, 1e-6, 0.996, 497.004, 0.0000509, 0.0029970),
    (1e-4, 5e-9, 1.999, 9995.001, 0.0000178, 0.0002372),
    (1e-4, 1e-8, 1.000, 4997.000, 0.0000051, 0.0002996),
    (1e-5, 5e-11, 2.000, 99995.000, 0.0000018, 0.0000237),
    (1e-5, 1e-10, 1.000, 49997.000, 0.0000005, 0.0000300),
]

means = st.floats(min_value=1e-5, max_value=0.499, allow_nan=False)


def moment_pairs():
    # feasibility requires variance < mean*(1/2-mean); stay at half that
    # bound so nu > 1 and quantile inversion keeps its conditioning
    return means.flatmap(
        lambda mu: st.tuples(
            st.just(mu),
            st.floats(min_value=mu * (0.5 - mu) * 1e-6,
                      max_value=mu * (0.5 - mu) / 2.0 * 0.999,
                      allow_nan=False),
        )
    )


class TestConstruction:
    def test_rejects_bad_shapes(self):
        for a, b in ((0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0),
                     (float("inf"), 1.0)):
            with pytest.raises(ValueError):
                ScaledBeta(a, b)

    def test_moments(self):
        d = ScaledBeta(1.4, 5.6)
        assert math.isclose(d.mean, 0.1, rel_tol=1e-14)
        assert math.isclose(d.variance, 5e-3, rel_tol=1e-12)


class TestFromMoments:
    @pytest.mark.parametrize("mu,s2,a,b,f05,f95", PRIOR_TABLE)
    def test_published_shapes(self, mu, s2, a, b, f05, f95):
        d = ScaledBeta.from_moments(mu, s2)
        assert abs(d.alpha - a) < 5e-4
        assert abs(d.beta - b) < 5e-4

    def test_variance_bound_error_names_bound(self):
        # feasibility bound at mu = 0.1 is mu*(1/2 - mu) = 0.04
        for bad in (0.04 + 1e-12, 1.0):
            with pytest.raises(ValueError, match="require variance <"):
                ScaledBeta.from_moments(0.1, bad)
        ScaledBeta.from_moments(0.1, 0.04 - 1e-12)

    def test_domain(self):
        for mu in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                ScaledBeta.from_moments(mu, 1e-6)
        with pytest.raises(ValueError):
            ScaledBeta.from_moments(0.1, 0.0)

    @given(ms=moment_pairs())
    @settings(max_examples=60)
    def test_round_trip(self, ms):
        mu, s2 = ms
        d = ScaledBeta.from_moments(mu, s2)
        assert math.isclose(d.mean, mu, rel_tol=1e-10)
        assert math.isclose(d.variance, s2, rel_tol=1e-10)


class TestQuantile:
    @pytest.mark.parametrize("mu,s2,a,b,f05,f95", PRIOR_TABLE)
    def test_published_fractiles(self, mu, s2, a, b, f05, f95):
        d = ScaledBeta.from_moments(mu, s2)
        assert abs(d.quantile(0.05) - f05) < 1e-6
        assert abs(d.quantile(0.95) - f95) < 1e-6

    def test_symmetric_median(self):
        assert math.isclose(ScaledBeta(3.7, 3.7).quantile(0.5), 0.25,
                            rel_tol=1e-12)

    def test_domain(self):
        d = ScaledBeta(1.4, 5.6)
        for p in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                d.quantile(p)

    def test_vectorized(self):
        d = ScaledBeta(1.4, 5.6)
        ps = np.array([0.05, 0.5, 0.95])
        out = d.quantile(ps)
        assert out.shape == (3,)
        assert out[0] == d.quantile(0.05)

    @pytest.mark.parametrize("mu,s2,a,b,f05,f95", PRIOR_TABLE)
    def test_cdf_quantile_inverse(self, mu, s2, a, b, f05, f95):
        d = ScaledBeta.from_moments(mu, s2)
        ps = np.linspace(0.001, 0.999, 41)
        back = d.cdf(d.quantile(ps))
        assert np.all(np.abs(back - ps) < 1e-10)


class TestPdf:
    def test_uniform_prior_density(self):
        d = ScaledBeta(1.0, 1.0)
        w = np.array([1e-9, 0.1, 0.25, 0.49999])
        assert np.allclose(d.pdf(w), 2.0, atol=1e-9)

    def test_outside_support_zero(self):
        d = ScaledBeta(1.4, 5.6)
        assert d.pdf(-0.1) == 0.0
        assert d.pdf(0.6) == 0.0
        assert d.pdf(0.0) == 0.0 and d.pdf(0.5) == 0.0

    def test_unbounded_at_zero_for_shape_below_one(self):
        d = ScaledBeta(0.6, 2.4)
        # the density diverges like w^(alpha-1); no capping allowed
        assert d.pdf(1e-12) > d.pdf(1e-6) > d.pdf(1e-3)

    def test_integrates_to_one(self):
        d = ScaledBeta(1.4, 5.6)
        total, err = integrate.quad(d.pdf, 0.0, 0.5, epsabs=1e-10)
        assert abs(total - 1.0) < 1e-8

    def test_mean_by_quadrature(self):
        d = ScaledBeta.from_moments(1e-2, 5e-5)
        mean, err = integrate.quad(lambda w: w * d.pdf(w), 0.0, 0.5,
                                   epsabs=1e-12)
        assert abs(mean - 0.01) < 1e-8


class TestSample:
    def test_deterministic_given_seed(self):
        d = ScaledBeta(1.4, 5.6)
        a = d.sample(np.random.default_rng(42), 1000)
        b = d.sample(np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_support_open(self):
        # includes a shape < 1, where draws concentrate near 0
        for d in (ScaledBeta(0.6, 2.4), ScaledBeta(1.0, 4997.0)):
            x = d.sample(np.random.default_rng(7), 200_000)
            assert np.all(x > 0.0) and np.all(x < 0.5)

        class OneCall:
            """Beta draws at both ends and below the least half; a second
            call, which a redraw would make, fails."""
            calls = 0

            def beta(self, a, b, size):
                self.calls += 1
                assert self.calls == 1, "redrew"
                return np.array([0.0, 5e-324, 1.0, 0.3])

        x = ScaledBeta(0.6, 2.4).sample(OneCall(), 4)
        assert np.all(x > 0.0) and np.all(x < 0.5)
        assert x[3] == 0.15

    def test_mean_clt(self):
        d = ScaledBeta(1.4, 5.6)
        n = 1_000_000
        x = d.sample(np.random.default_rng(3), n)
        se = math.sqrt(d.variance / n)
        assert abs(x.mean() - 0.1) <= 4.0 * se

    def test_small_shape_mean_clt(self):
        # gamma-ratio samplers are suspect at shapes < 1; verify directly
        d = ScaledBeta(0.6, 2.4)
        n = 1_000_000
        x = d.sample(np.random.default_rng(11), n)
        se = math.sqrt(d.variance / n)
        assert abs(x.mean() - d.mean) <= 4.0 * se

    def test_n_validated(self):
        with pytest.raises(ValueError):
            ScaledBeta(1.0, 1.0).sample(np.random.default_rng(0), 0)
