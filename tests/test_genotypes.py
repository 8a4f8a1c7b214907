"""Genotype dosages, HWE priors, and the error channel."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snpwoe.evidence import MarkerObservation
from snpwoe.genotypes import (
    CHANNEL_COEFFS,
    GenotypePriors,
    channel_matrix,
    hwe_prior_array,
    hwe_priors,
    validate_dosage,
    validate_error_prob,
)

error_probs = st.floats(min_value=0.0, max_value=0.5, exclude_max=True,
                        allow_nan=False)
frequencies = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def marker_x_t(d):
    return MarkerObservation(d, 0, hwe_priors(0.5)).x_t


def marker_x_r(d):
    return MarkerObservation(0, d, hwe_priors(0.5)).x_r


class TestGenotype:
    """Genotype dosage checks, through the validator and through both
    dosages of a marker record."""

    checks = (validate_dosage, marker_x_t, marker_x_r)

    def test_valid_dosages(self):
        for check in self.checks:
            for d in (0, 1, 2):
                assert check(d) == d

    def test_rejects_other_integers(self):
        for check in self.checks:
            for d in (-1, 3, 7):
                with pytest.raises(ValueError, match="must be 0, 1 or 2"):
                    check(d)

    def test_rejects_non_integers(self):
        for check in self.checks:
            for bad in (1.0, "1", None, True):
                with pytest.raises(TypeError, match="must be an integer"):
                    check(bad)

    def test_numpy_integers_accepted(self):
        for check in self.checks:
            d = check(np.int64(2))
            assert d == 2 and type(d) is int


class TestGenotypePriors:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            GenotypePriors(0.5, 0.4, 0.2)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            GenotypePriors(-0.1, 0.6, 0.5)

    def test_hashable_and_equal(self):
        assert hwe_priors(0.75) == hwe_priors(0.75)
        assert len({hwe_priors(0.75), hwe_priors(0.75), hwe_priors(0.9)}) == 2


class TestHwePriors:
    def test_q075(self):
        p = hwe_priors(0.75)
        assert (p.p0, p.p1, p.p2) == (0.5625, 0.375, 0.0625)

    def test_q09(self):
        p = hwe_priors(0.9)
        assert math.isclose(p.p0, 0.81, abs_tol=1e-15)
        assert math.isclose(p.p1, 0.18, abs_tol=1e-15)
        assert math.isclose(p.p2, 0.01, abs_tol=1e-15)

    def test_degenerate_monomorphic(self):
        p = hwe_priors(1.0)
        assert (p.p0, p.p1, p.p2) == (1.0, 0.0, 0.0)

    def test_domain(self):
        for bad in (0.0, -0.2, 1.1, float("nan")):
            with pytest.raises(ValueError):
                hwe_priors(bad)

    @given(q=frequencies)
    def test_sums_to_one(self, q):
        p = hwe_priors(q)
        assert abs(p.p0 + p.p1 + p.p2 - 1.0) <= 1e-12

    @given(q=st.lists(frequencies, min_size=1, max_size=20))
    def test_array_rows_are_bit_identical(self, q):
        for f, row in zip(q, hwe_prior_array(q).tolist()):
            p = hwe_priors(f)
            assert row == [p.p0, p.p1, p.p2]
            assert row == [f * f, 2.0 * f * (1.0 - f), (1.0 - f) * (1.0 - f)]


class TestValidateErrorProb:
    def test_accepts_zero_and_interior(self):
        assert validate_error_prob(0.0) == 0.0
        assert validate_error_prob(0.4999) == 0.4999

    def test_rejects_out_of_domain(self):
        for bad in (0.5, -1e-12, 1.0, float("nan")):
            with pytest.raises(ValueError):
                validate_error_prob(bad)


class TestChannelMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(channel_matrix(0.0), np.eye(3))

    def test_hand_enumerated_row_z1(self):
        # w = 0.1: z=1 has allele calls (1, 0); enumerating the four flip
        # outcomes gives (w(1-w), (1-w)^2 + w^2, w(1-w)) = (0.09, 0.82, 0.09).
        row = channel_matrix(0.1)[1]
        assert np.allclose(row, [0.09, 0.82, 0.09], atol=1e-15)

    def test_half_limit_row_z0(self):
        row = channel_matrix(0.5 - 1e-13)[0]
        assert np.allclose(row, [0.25, 0.5, 0.25], atol=1e-11)

    def test_vectorized_shape(self):
        t = channel_matrix(np.array([0.0, 0.1, 0.2]))
        assert t.shape == (3, 3, 3)
        assert np.array_equal(t[1], channel_matrix(0.1))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            channel_matrix(0.5)
        with pytest.raises(ValueError):
            channel_matrix(np.array([0.1, -0.2]))

    @given(w=error_probs)
    def test_rows_sum_to_one(self, w):
        t = channel_matrix(w)
        assert np.all(np.abs(t.sum(axis=1) - 1.0) <= 1e-12)

    @given(w=error_probs)
    def test_quadratic_coefficients(self, w):
        a0, a1, a2 = CHANNEL_COEFFS
        assert np.allclose(channel_matrix(w), a0 + w * (a1 + w * a2),
                           rtol=0, atol=4e-16)

    @given(w=error_probs)
    def test_double_symmetry(self, w):
        t = channel_matrix(w)
        assert np.array_equal(t, t[::-1, ::-1])

    @given(w1=error_probs, w2=error_probs)
    def test_diagonal_strictly_decreasing(self, w1, w2):
        # strictness needs a resolvable gap: below ~1e-17 the (1-w)^2
        # entries round to 1.0, and t[1,1]'s slope vanishes toward 0.5
        lo, hi = min(w1, w2), max(w1, w2)
        assume(hi - lo >= 1e-9 and hi <= 0.49)
        tlo, thi = channel_matrix(lo), channel_matrix(hi)
        for z in range(3):
            assert thi[z, z] < tlo[z, z]


class TestStochasticConsistency:
    def test_observed_frequencies_match_channel(self):
        # Z ~ priors, X ~ T(w) row Z; empirical X frequencies vs p @ T(w).
        from snpwoe.study import _draw_dosages, _observe

        rng = np.random.default_rng(np.random.SeedSequence(202))
        priors = hwe_priors(0.8)
        w = 0.07
        n = 1_000_000
        z = _draw_dosages(priors, n, rng)
        x = _observe(z, w, rng)
        expected = priors.as_array() @ channel_matrix(w)
        freq = np.bincount(x, minlength=3) / n
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(freq - expected) <= 4.0 * se)
