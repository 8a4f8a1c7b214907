"""Joint probabilities under H1/H2, per-marker LR, and known-w WoE."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import markers, random_case, same_case, table_frequencies
from snpwoe.evidence import (
    CaseData,
    DegenerateCaseError,
    MarkerObservation,
    _polyval_rows,
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
from snpwoe.unknown_w import woe_profile

error_probs = st.floats(min_value=0.0, max_value=0.5, exclude_max=True,
                        allow_nan=False)
open_freqs = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
dosages = st.integers(min_value=0, max_value=2)


class TestMarkerAndCaseTypes:
    def test_marker_coerces_ints(self):
        mk = MarkerObservation(0, np.int64(2), hwe_priors(0.75))
        assert (mk.x_t, mk.x_r) == (0, 2) and type(mk.x_r) is int

    def test_marker_rejects_bad(self):
        with pytest.raises(ValueError):
            MarkerObservation(0, 3, hwe_priors(0.75))
        with pytest.raises(TypeError):
            MarkerObservation(0, 1, (0.5, 0.3, 0.2))

    def test_case_nonempty(self):
        with pytest.raises(ValueError):
            CaseData(())

    def test_from_arrays_matches_records(self):
        priors = [hwe_priors(0.75), hwe_priors(0.9)]
        records = CaseData([MarkerObservation(0, 1, priors[0]),
                            MarkerObservation(2, 2, priors[1])], ids=("a", "b"))
        arrays = CaseData.from_arrays(np.array([0, 2], dtype=np.int8), [1, 2],
                                      [p.as_array() for p in priors], ids=["a", "b"])
        assert same_case(arrays, records) and arrays.ids == ("a", "b") and arrays.m == 2
        assert arrays.x_t.dtype == np.int64 and arrays.priors.shape == (2, 3)

    def test_prior_layout_does_not_matter(self):
        row = hwe_priors(0.75).as_array()
        x_t, x_r = [0, 1, 0, 2, 0], [0, 1, 0, 2, 1]
        want = CaseData([MarkerObservation(a, b, hwe_priors(0.75)) for a, b in zip(x_t, x_r)])
        for priors in (np.broadcast_to(row, (5, 3)), np.asfortranarray(np.tile(row, (5, 1))),
                       np.tile(row, (5, 2))[:, ::2]):
            kernel = CaseData.from_arrays(x_t, x_r, priors).kernel(1e-4)
            assert kernel.counts.tolist() == want.kernel(1e-4).counts.tolist()
            assert kernel.first[kernel.inverse].tolist() == [0, 1, 0, 3, 4]

    def test_columns_are_read_only_copies(self):
        x_t = np.array([0, 1])
        case = CaseData.from_arrays(x_t, [0, 1], [hwe_priors(0.5).as_array()] * 2)
        x_t[0] = 2
        assert case.x_t.tolist() == [0, 1]
        for column in (case.x_t, case.x_r, case.priors):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_from_arrays_rejects_bad_columns(self):
        priors = [hwe_priors(0.75).as_array()] * 2
        with pytest.raises(TypeError, match="x_t must be an integer"):
            CaseData.from_arrays(np.array([0.0, 1.0]), [0, 1], priors)
        with pytest.raises(TypeError, match="x_r must be an integer"):
            CaseData.from_arrays([0, 1], np.array([True, False]), priors)
        with pytest.raises(ValueError, match="must be 0, 1 or 2, got 3"):
            CaseData.from_arrays([0, 3], [0, 1], priors)
        with pytest.raises(ValueError, match="must sum to 1"):
            CaseData.from_arrays([0, 1], [0, 1], [priors[0], [0.5, 0.4, 0.2]])
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\]"):
            CaseData.from_arrays([0, 1], [0, 1], [priors[0], [0.5, -0.1, 0.6]])
        with pytest.raises(ValueError, match=r"shape \(2,\) to match 2 rows"):
            CaseData.from_arrays([0, 1], [0], priors)
        with pytest.raises(ValueError, match=r"shape \(1,\) to match 1 rows"):
            CaseData.from_arrays([0, 1], [0, 1], priors[:1])
        with pytest.raises(ValueError, match=r"got \(1, 2\)"):
            CaseData.from_arrays([[0, 1]], [0, 1], priors)
        with pytest.raises(ValueError, match=r"shape \(m, 3\)"):
            CaseData.from_arrays([0, 1], [0, 1], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="1 marker ids for 2 markers"):
            CaseData.from_arrays([0, 1], [0, 1], priors, ids=["a"])
        with pytest.raises(ValueError, match="at least one marker"):
            CaseData.from_arrays([], [], np.empty((0, 3)))

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

    def test_every_table_and_lookup_rejects_bare_masses(self):
        """A tuple of masses is not priors: every table, lookup and record
        says so in one message."""
        from snpwoe.estimation import PairCountTable

        masses = (0.5, 0.3, 0.2)
        calls = [lambda: joint_table_h1(masses, 0.0, 0.0), lambda: joint_table_h2(masses, 0.0, 0.0),
                 lambda: trace_marginal(masses, 0.0), lambda: joint_prob_h1(0, 0, masses, 0.0, 0.0),
                 lambda: joint_prob_h2(0, 0, masses, 0.0, 0.0), lambda: lr(0, 0, masses, 0.0, 0.0),
                 lambda: MarkerObservation(0, 0, masses), lambda: PairCountTable(np.eye(3), masses)]
        for call in calls:
            with pytest.raises(TypeError, match=r"^priors must be GenotypePriors, got tuple$"):
                call()


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
            for a, b, priors in markers(case):
                num *= Fraction(joint_prob_h1(a, b, priors, w_t, w_r))
                den *= Fraction(joint_prob_h2(a, b, priors, w_t, w_r))
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
        kernel = case.kernel(1e-4)
        assert np.array_equal(contr, kernel.log10_lr(0.01)[kernel.inverse])
        assert np.array_equal(per_marker_log10_lr(case, 0.01, 1e-4, 0.01), contr)
        # H1 at w1 and H2 at w2: the reference read's probability cancels.
        w1, w2 = 0.02, 0.003
        two = per_marker_log10_lr(case, w1, 1e-4, w2)
        for i, got in enumerate(two.tolist()):
            priors = GenotypePriors(*case.priors[i])
            a, b = int(case.x_t[i]), int(case.x_r[i])
            want = (math.log10(joint_prob_h1(a, b, priors, w1, 1e-4))
                    - math.log10(joint_prob_h2(a, b, priors, w2, 1e-4)))
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)
        prof = woe_profile(case, 1e-4)
        at_hats = per_marker_log10_lr(case, prof.w_hat_h1, 1e-4, prof.w_hat_h2)
        assert math.isclose(math.fsum(at_hats.tolist()), prof.woe, rel_tol=0, abs_tol=1e-9)


class TestCaseKernel:
    def test_rows_group_markers_by_value(self):
        pa, pb = hwe_priors(0.75), hwe_priors(0.9)
        case = CaseData.from_arrays(
            [0, 1, 0, 0, 2, 2], [0, 1, 0, 1, 2, 2],
            [pa.as_array(), pb.as_array(), hwe_priors(0.75).as_array(), pa.as_array(),
             [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]])
        kernel = case.kernel(1e-4)
        assert sorted(zip(kernel.first.tolist(), kernel.counts.tolist())) == [
            (0, 2.0), (1, 1.0), (3, 1.0), (4, 2.0)]
        assert kernel.first[kernel.inverse].tolist() == [0, 1, 0, 3, 4, 4]
        assert kernel.x_t[kernel.inverse].tolist() == case.x_t.tolist()
        assert kernel.x_r[kernel.inverse].tolist() == case.x_r.tolist()

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
        assert math.isclose((kernel.c_h1[0] @ v) * 10.0 ** kernel.log10_mr[0], h1,
                            rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose((kernel.c_t[0] @ v) * 10.0 ** kernel.log10_mr[0], h2,
                            rel_tol=1e-12, abs_tol=1e-300)

    @staticmethod
    def all_pairs_kernel(priors, w_r):
        """The kernel of all 9 (x_t, x_r) pairs under one prior; marker
        ``3 * x_r + x_t`` holds the pair (x_t, x_r)."""
        x_r, x_t = np.divmod(np.arange(9), 3)
        return CaseData.from_arrays(x_t, x_r, np.tile(priors, (9, 1))).kernel(w_r)

    @pytest.mark.parametrize("w_r", [0.0, 1e-300, 1e-4, 0.3])
    @pytest.mark.parametrize("z", range(3))
    def test_point_mass_prior_is_its_own_posterior(self, z, w_r):
        """A one-hot prior's H1 row equals its H2 row bit for bit, so its
        likelihood ratio is exactly 1 at every w."""
        kernel = self.all_pairs_kernel(np.eye(3)[z], w_r)
        live = np.isfinite(kernel.log10_mr)
        assert live.any()
        assert np.array_equal(kernel.c_h1[live], kernel.c_t[live])

    @given(q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True), w_r=error_probs)
    @settings(max_examples=80)
    def test_rows_are_conditional_on_the_reference_read(self, q, w_r):
        """Given a possible reference read, the trace read's probabilities
        over x_t = 0, 1, 2 sum to 1 at every w under both hypotheses."""
        kernel = self.all_pairs_kernel(hwe_priors(q).as_array(), w_r)
        for rows in kernel.inverse.reshape(3, 3):   # one reference read, x_t = 0, 1, 2
            if np.isfinite(kernel.log10_mr[rows[0]]):
                for c in (kernel.c_h1, kernel.c_t):
                    assert np.allclose(c[rows].sum(axis=0), [1.0, 0.0, 0.0], rtol=0.0,
                                       atol=1e-15)

    def test_impossible_reference_read_builds_quietly(self):
        """A reference read of probability 0 gives that row c_h1 = 0, with
        no division warning."""
        case = CaseData.from_arrays([0, 1], [1, 1], [[1.0, 0.0, 0.0], hwe_priors(0.5).as_array()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = case.kernel(0.0)
        row = kernel.inverse[0]
        assert kernel.log10_mr[row] == -np.inf
        assert np.array_equal(kernel.c_h1[row], np.zeros(3))


class TestCaseLogLikelihoods:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        case = random_case(rng, m=12, n_priors=2)
        w_t, w_r = 0.02, 1e-3
        direct_h1 = sum(
            math.log10(joint_prob_h1(a, b, priors, w_t, w_r))
            for a, b, priors in markers(case)
        )
        direct_h2 = sum(
            math.log10(joint_prob_h2(a, b, priors, w_t, w_r))
            for a, b, priors in markers(case)
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

    @pytest.mark.parametrize("lik", [log10_lik_h1, log10_lik_h2])
    def test_two_dimensional_w_is_the_flat_result_reshaped(self, lik):
        case = random_case(np.random.default_rng(9), m=40, n_priors=3)
        ws = np.array([[1e-4, 1e-3, 0.02], [0.1, 0.3, 0.49]])
        out = lik(case, ws, 1e-4)
        assert out.shape == (2, 3)
        assert out.tobytes() == lik(case, ws.ravel(), 1e-4).reshape(2, 3).tobytes()

    @pytest.mark.parametrize("lik", [log10_lik_h1, log10_lik_h2])
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_w_gives_empty_array(self, lik, shape):
        case = random_case(np.random.default_rng(7), m=8)
        out = lik(case, np.zeros(shape), 1e-4)
        assert isinstance(out, np.ndarray) and out.shape == shape


class TestPolyvalRows:
    @pytest.mark.parametrize("degree", [2, 4])
    def test_per_row_points(self, degree):
        """A 2-D ``w`` gives each row its own points: exactly the bits that
        row gets when evaluated alone, and the bits of the 1-D form when
        every row has the same points."""
        rng = np.random.default_rng(10)
        coeffs = rng.normal(size=(6, degree + 1)) * 10.0 ** rng.integers(-12, 3, (6, 1))
        w = rng.uniform(0.0, 0.5, (6, 7))
        per_row = _polyval_rows(coeffs, w)
        assert per_row.shape == (6, 7)
        for i in range(6):
            assert per_row[i].tobytes() == _polyval_rows(coeffs[i:i + 1], w[i])[0].tobytes()
            alone = [_polyval_rows(coeffs[i:i + 1], point)[0] for point in w[i].tolist()]
            assert per_row[i].tobytes() == np.array(alone).tobytes()
        shared = _polyval_rows(coeffs, np.tile(w[0], (6, 1)))
        assert shared.tobytes() == _polyval_rows(coeffs, w[0]).tobytes()
