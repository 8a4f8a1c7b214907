"""Joint probabilities under H1/H2, per-marker LR, and known-w WoE."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_case, table_frequencies
from snpwoe.evidence import (
    CaseData,
    DegenerateCaseError,
    MarkerObservation,
    joint_prob_h1,
    joint_prob_h2,
    joint_table_h1,
    joint_table_h2,
    log10_lik_h1,
    log10_lik_h2,
    lr,
    per_marker_log10_lr,
    trace_marginal,
    woe_known,
)
from snpwoe.genotypes import GenotypePriors, hwe_priors

error_probs = st.floats(min_value=0.0, max_value=0.5, exclude_max=True,
                        allow_nan=False)
open_freqs = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
dosages = st.integers(min_value=0, max_value=2)


class TestMarkerAndCaseTypes:
    def test_marker_coerces_ints(self):
        mk = MarkerObservation(0, 2, hwe_priors(0.75))
        assert mk.x_t.dosage == 0 and mk.x_r.dosage == 2

    def test_marker_rejects_bad(self):
        with pytest.raises(ValueError):
            MarkerObservation(0, 3, hwe_priors(0.75))
        with pytest.raises(TypeError):
            MarkerObservation(0, 1, (0.5, 0.3, 0.2))

    def test_case_nonempty(self):
        with pytest.raises(ValueError):
            CaseData(())

    def test_case_ids(self):
        mk = MarkerObservation(0, 0, hwe_priors(0.75))
        case = CaseData((mk, mk), ("a", "b"))
        assert case.marker_label(1) == "b"
        with pytest.raises(ValueError):
            CaseData((mk, mk), ("a", "a"))
        with pytest.raises(ValueError):
            CaseData((mk, mk), ("a",))


class TestJointProbs:
    def test_h1_no_error_match(self):
        assert joint_prob_h1(0, 0, hwe_priors(0.75), 0.0, 0.0) == 0.5625

    def test_h1_no_error_mismatch(self):
        assert joint_prob_h1(0, 2, hwe_priors(0.75), 0.0, 0.0) == 0.0

    def test_h2_no_error_product(self):
        assert joint_prob_h2(2, 2, hwe_priors(0.75), 0.0, 0.0) == 0.00390625

    def test_h1_simulation_oracle(self):
        # (a=2, b=2, q=0.75, w_t=1e-2, w_r=1e-4) against 10^7 same-donor draws
        from snpwoe.study import _draw_dosages, _observe

        priors = hwe_priors(0.75)
        p = joint_prob_h1(2, 2, priors, 1e-2, 1e-4)
        rng = np.random.default_rng(np.random.SeedSequence(51))
        n = 10_000_000
        z = _draw_dosages(priors, n, rng)
        x_t = _observe(z, 1e-2, rng)
        x_r = _observe(z, 1e-4, rng)
        freq = np.mean((x_t == 2) & (x_r == 2))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= 4.0 * se

    def test_h2_simulation_oracle(self):
        # (a=1, b=0, q=0.9, w_t=1e-3, w_r=1e-4) with independent donors
        from snpwoe.study import _draw_dosages, _observe

        priors = hwe_priors(0.9)
        p = joint_prob_h2(1, 0, priors, 1e-3, 1e-4)
        rng = np.random.default_rng(np.random.SeedSequence(52))
        n = 10_000_000
        x_t = _observe(_draw_dosages(priors, n, rng), 1e-3, rng)
        x_r = _observe(_draw_dosages(priors, n, rng), 1e-4, rng)
        freq = np.mean((x_t == 1) & (x_r == 0))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= 4.0 * se

    @given(q=open_freqs, w_t=error_probs, w_r=error_probs)
    @settings(max_examples=80)
    def test_tables_normalize(self, q, w_t, w_r):
        priors = hwe_priors(q)
        assert abs(joint_table_h1(priors, w_t, w_r).sum() - 1.0) <= 1e-12
        assert abs(joint_table_h2(priors, w_t, w_r).sum() - 1.0) <= 1e-12

    @given(q=open_freqs, w_t=error_probs, w_r=error_probs, a=dosages)
    @settings(max_examples=60)
    def test_h1_h2_share_trace_marginal(self, q, w_t, w_r, a):
        priors = hwe_priors(q)
        m1 = joint_table_h1(priors, w_t, w_r)[a, :].sum()
        m2 = joint_table_h2(priors, w_t, w_r)[a, :].sum()
        assert math.isclose(m1, m2, rel_tol=0, abs_tol=1e-14)
        assert math.isclose(m1, trace_marginal(priors, w_t)[a], abs_tol=1e-14)


class TestLr:
    def test_match_is_reciprocal_prior(self):
        # both sides are exact dyadic ratios, so equality is exact
        assert lr(0, 0, hwe_priors(0.75), 0.0, 0.0) == 1.0 / 0.5625

    def test_mismatch_exclusion(self):
        assert lr(0, 1, hwe_priors(0.75), 0.0, 0.0) == 0.0
        assert lr(2, 0, hwe_priors(0.75), 0.0, 0.0) == 0.0

    def test_degenerate_denominator(self):
        priors = GenotypePriors(1.0, 0.0, 0.0)
        with pytest.raises(DegenerateCaseError):
            lr(0, 2, priors, 0.0, 0.0)

    @given(q=open_freqs, w=st.floats(min_value=1e-6, max_value=0.49),
           a=dosages, b=dosages)
    @settings(max_examples=60)
    def test_single_w_symmetry(self, q, w, a, b):
        priors = hwe_priors(q)
        assert math.isclose(lr(a, b, priors, w, w), lr(b, a, priors, w, w),
                            rel_tol=1e-12)

    @given(q=open_freqs, w_t=error_probs, w_r=error_probs,
           a=dosages, b=dosages)
    @settings(max_examples=80)
    def test_allele_relabel_invariance(self, q, w_t, w_r, a, b):
        v1 = lr(a, b, hwe_priors(q), w_t, w_r)
        v2 = lr(2 - a, 2 - b, hwe_priors(1.0 - q), w_t, w_r)
        assert math.isclose(v1, v2, rel_tol=1e-9, abs_tol=1e-12)

    def test_continuity_to_zero_error(self):
        priors = hwe_priors(0.75)
        near = lr(0, 0, priors, 1e-9, 1e-9)
        assert math.isclose(near, 1.0 / 0.5625, rel_tol=1e-6)
        assert lr(0, 2, priors, 1e-9, 1e-9) < 1e-12

    @given(q=open_freqs, w_t=error_probs, w_r=error_probs)
    @settings(max_examples=60)
    def test_expected_lr_under_h2_is_one(self, q, w_t, w_r):
        priors = hwe_priors(q)
        h1 = joint_table_h1(priors, w_t, w_r)
        h2 = joint_table_h2(priors, w_t, w_r)
        with np.errstate(invalid="ignore"):
            e = np.where(h2 > 0, h2 * (h1 / np.where(h2 > 0, h2, 1.0)), 0.0).sum()
        assert abs(e - 1.0) <= 1e-10


class TestWoeKnown:
    def test_additivity_identical_markers(self):
        priors = hwe_priors(0.8)
        one = CaseData((MarkerObservation(1, 1, priors),))
        many = CaseData(tuple(MarkerObservation(1, 1, priors) for _ in range(7)))
        w1 = woe_known(one, 1e-3, 1e-4)
        assert math.isclose(woe_known(many, 1e-3, 1e-4), 7 * w1, rel_tol=1e-12)

    def test_closed_form_200_matches(self):
        priors = hwe_priors(0.75)
        case = CaseData(tuple(MarkerObservation(0, 0, priors) for _ in range(200)))
        expect = 200 * math.log10(1.0 / 0.5625)
        assert math.isclose(woe_known(case, 0.0, 0.0), expect, rel_tol=1e-12)
        assert round(expect, 2) == 49.98

    def test_exclusion_gives_minus_inf(self):
        priors = hwe_priors(0.75)
        case = CaseData((MarkerObservation(0, 0, priors),
                         MarkerObservation(0, 2, priors)))
        assert woe_known(case, 0.0, 0.0) == -math.inf

    def test_impossible_under_h2_raises(self):
        priors = GenotypePriors(1.0, 0.0, 0.0)
        case = CaseData((MarkerObservation(0, 1, priors),))
        with pytest.raises(DegenerateCaseError, match="marker 0"):
            woe_known(case, 0.1, 0.0)

    def test_extended_precision_product_oracle(self):
        # exact-rational product of per-marker LRs vs the log-space sum
        rng = np.random.default_rng(9)
        for _ in range(20):
            case = random_case(rng, n_priors=2)
            w_t = float(rng.uniform(1e-4, 0.45))
            w_r = float(rng.uniform(1e-4, 0.45))
            num = Fraction(1)
            den = Fraction(1)
            for mk in case.markers:
                num *= Fraction(joint_prob_h1(mk.x_t, mk.x_r, mk.priors, w_t, w_r))
                den *= Fraction(joint_prob_h2(mk.x_t, mk.x_r, mk.priors, w_t, w_r))
            exact = (math.log10(num.numerator) - math.log10(num.denominator)
                     - math.log10(den.numerator) + math.log10(den.denominator))
            got = woe_known(case, w_t, w_r)
            assert math.isclose(got, exact, rel_tol=1e-10, abs_tol=1e-10)

    def test_per_marker_decomposition(self):
        rng = np.random.default_rng(13)
        case = random_case(rng, m=15, n_priors=2)
        contr = per_marker_log10_lr(case, 0.01, 1e-4)
        assert contr.shape == (15,)
        assert math.isclose(contr.sum(), woe_known(case, 0.01, 1e-4),
                            rel_tol=1e-10)


class TestCaseKernel:
    def test_rows_keep_first_appearance_order(self):
        pa, pb = hwe_priors(0.75), hwe_priors(0.9)
        case = CaseData((
            MarkerObservation(0, 0, pa),
            MarkerObservation(1, 1, pb),
            MarkerObservation(0, 0, hwe_priors(0.75)),
            MarkerObservation(0, 1, pa),
        ))
        kernel = case.kernel(1e-4)
        assert kernel.counts.tolist() == [2.0, 1.0, 1.0]
        assert kernel.first.tolist() == [0, 1, 3]
        assert kernel.inverse.tolist() == [0, 1, 0, 2]
        assert kernel.x_t.tolist() == [0, 1, 0] and kernel.x_r.tolist() == [0, 1, 1]

    def test_built_once_per_w_r(self):
        case = random_case(np.random.default_rng(3), m=10, n_priors=3)
        assert case.kernel(1e-4) is case.kernel(1e-4)
        assert case.kernel(1e-3) is not case.kernel(1e-4)

    @given(q=open_freqs, w_t=error_probs, w_r=error_probs, a=dosages, b=dosages)
    @settings(max_examples=80)
    def test_coefficients_reproduce_joint_tables(self, q, w_t, w_r, a, b):
        priors = hwe_priors(q)
        kernel = CaseData((MarkerObservation(a, b, priors),)).kernel(w_r)
        h1 = joint_table_h1(priors, w_t, w_r)[a, b]
        h2 = joint_table_h2(priors, w_t, w_r)[a, b]
        v = np.array([1.0, w_t, w_t * w_t])
        assert math.isclose(kernel.c_h1[0] @ v, h1, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose((kernel.c_t[0] @ v) * 10.0 ** kernel.log10_mr[0], h2,
                            rel_tol=1e-12, abs_tol=1e-300)


class TestCaseLogLikelihoods:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        case = random_case(rng, m=12, n_priors=2)
        w_t, w_r = 0.02, 1e-3
        direct_h1 = sum(
            math.log10(joint_prob_h1(mk.x_t, mk.x_r, mk.priors, w_t, w_r))
            for mk in case.markers
        )
        direct_h2 = sum(
            math.log10(joint_prob_h2(mk.x_t, mk.x_r, mk.priors, w_t, w_r))
            for mk in case.markers
        )
        assert math.isclose(log10_lik_h1(case, w_t, w_r), direct_h1, rel_tol=1e-12)
        assert math.isclose(log10_lik_h2(case, w_t, w_r), direct_h2, rel_tol=1e-12)

    def test_vectorized_over_w(self):
        rng = np.random.default_rng(6)
        case = random_case(rng, m=8)
        ws = np.array([1e-3, 1e-2, 0.1])
        out = log10_lik_h1(case, ws, 1e-4)
        assert out.shape == (3,)
        assert math.isclose(out[1], log10_lik_h1(case, 1e-2, 1e-4), rel_tol=1e-14)
