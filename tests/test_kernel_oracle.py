"""Differential tests: the case kernel against the frozen per-group paths.

``oracle_per_group`` keeps the per-prior-group einsum arithmetic the kernel
replaced. Required agreement: 1e-12 relative (scale floored at 1) for
known, plug-in, Monte Carlo and the case log-likelihoods; 1e-9 absolute
for the profile WoE; 1e-6 for the MLE ``w``; ``tol`` per integral for
quadrature. Degenerate cases must fail the same way, naming the same
marker.

Nonzero error probabilities are drawn from [1e-12, 0.5). Below about
1e-150 the squared terms of both paths fall into subnormal floats, where
neither path keeps relative precision and the two round differently.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle_per_group as oracle
from conftest import same_case
from mpmath_reference import PriorReference
from snpwoe.estimation import PairCountTable, estimate_w_mle, estimate_w_mle_per_marker
from snpwoe.evidence import (
    CaseData,
    DegenerateCaseError,
    MarkerObservation,
    log10_lik_h1,
    log10_lik_h2,
    per_marker_log10_lr,
    woe_known,
)
from snpwoe.genotypes import GenotypePriors, hwe_prior_array, hwe_priors
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.unknown_w import (
    QuadratureError,
    woe_integrate_mc,
    woe_integrate_quad,
    woe_plugin,
    woe_profile,
)

REL = 1e-12

dosages = st.integers(0, 2)
error_probs = st.one_of(st.just(0.0),
                        st.floats(1e-12, 0.5, exclude_max=True, allow_nan=False))
interior_probs = st.floats(1e-6, 0.45, allow_nan=False)
ZERO_PRIORS = (
    GenotypePriors(1.0, 0.0, 0.0),
    GenotypePriors(0.0, 1.0, 0.0),
    GenotypePriors(0.0, 0.0, 1.0),
    GenotypePriors(0.5, 0.0, 0.5),
    GenotypePriors(0.0, 0.3, 0.7),
)


def _normalized(parts):
    total = math.fsum(parts)
    return GenotypePriors(*(p / total for p in parts))


priors_st = st.one_of(
    st.floats(0.01, 0.99).map(hwe_priors),
    st.floats(1.0 - 1e-6, 1.0).map(hwe_priors),          # q -> 1
    st.sampled_from(ZERO_PRIORS),                         # explicit zeros
    st.tuples(*[st.floats(1e-3, 1.0)] * 3).map(_normalized),
)


@st.composite
def cases(draw, max_m=30):
    """Cases whose markers share a few priors, or each have their own."""
    pool = draw(st.lists(priors_st, min_size=1, max_size=4))
    per_marker = draw(st.booleans())
    m = draw(st.integers(1, max_m))
    markers = []
    for _ in range(m):
        priors = draw(priors_st) if per_marker else draw(st.sampled_from(pool))
        markers.append(MarkerObservation(draw(dosages), draw(dosages), priors))
    return CaseData(tuple(markers), tuple(f"rs{j}" for j in range(m)))


@st.composite
def columns(draw, max_m=30):
    """A case's columns (x_t, x_r, priors objects, ids), markers sharing a
    few priors or each with their own."""
    pool = draw(st.lists(priors_st, min_size=1, max_size=4))
    per_marker = draw(st.booleans())
    m = draw(st.integers(1, max_m))
    x_t = draw(st.lists(dosages, min_size=m, max_size=m))
    x_r = draw(st.lists(dosages, min_size=m, max_size=m))
    priors = [draw(priors_st) if per_marker else draw(st.sampled_from(pool))
              for _ in range(m)]
    return x_t, x_r, priors, [f"rs{j}" for j in range(m)]


def outcome(fn, *args, **kwargs):
    """The call's value, or the message of the DegenerateCaseError or
    QuadratureError it raised."""
    try:
        return fn(*args, **kwargs), None
    except (DegenerateCaseError, QuadratureError) as exc:
        return None, str(exc)


def split_abserr(message):
    """An error message as (text, abserr): a ``QuadratureError`` message
    split before ``with abserr``, any other message whole with ``None``."""
    if message is None or " with abserr " not in message:
        return message, None
    text, err = message.rsplit(" with abserr ", 1)
    return text, float(err)


def assert_close(got, want, rel=REL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    inf = np.isinf(want)
    assert np.array_equal(got[inf], want[inf])
    assert not np.any(np.isinf(got[~inf]))
    scale = np.maximum(np.abs(want[~inf]), 1.0)
    assert np.all(np.abs(got[~inf] - want[~inf]) <= rel * scale)


def assert_same(new, old, rel=REL):
    (got, got_err), (want, want_err) = new, old
    assert got_err == want_err
    if want_err is None:
        assert_close(got, want, rel)


class TestExactMethods:
    @given(case=cases(), w_t=error_probs, w_r=error_probs)
    @settings(max_examples=300, deadline=None)
    def test_known_and_per_marker(self, case, w_t, w_r):
        assert_same(outcome(woe_known, case, w_t, w_r),
                    outcome(oracle.woe_known, case, w_t, w_r))
        assert_same(outcome(per_marker_log10_lr, case, w_t, w_r),
                    outcome(oracle.per_marker_log10_lr, case, w_t, w_r))

    @given(case=cases(), w_r=error_probs)
    @settings(max_examples=100, deadline=None)
    def test_plugin(self, case, w_r):
        new = outcome(lambda: woe_plugin(case, w_r).woe)
        assert_same(new, outcome(oracle.woe_known, case, w_r, w_r))

    @given(case=cases(), w_r=error_probs,
           w_t=st.lists(error_probs, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_case_log_likelihoods(self, case, w_r, w_t):
        for w in (w_t[0], np.array(w_t)):
            assert_close(log10_lik_h1(case, w, w_r), oracle.log10_lik_h1(case, w, w_r))
            assert_close(log10_lik_h2(case, w, w_r), oracle.log10_lik_h2(case, w, w_r))

    def test_hard_exclusion_is_minus_inf(self):
        priors = hwe_priors(0.75)
        case = CaseData((MarkerObservation(0, 0, priors),
                         MarkerObservation(0, 2, priors)))
        assert woe_known(case, 0.0, 0.0) == oracle.woe_known(case, 0.0, 0.0) == -math.inf

    def test_degenerate_names_first_offending_marker(self):
        pa, pz = hwe_priors(0.6), GenotypePriors(1.0, 0.0, 0.0)
        case = CaseData((MarkerObservation(0, 0, pa), MarkerObservation(0, 0, pz),
                         MarkerObservation(2, 1, pz), MarkerObservation(1, 0, pz)),
                        ids=("a", "b", "c", "d"))
        new = outcome(woe_known, case, 0.0, 0.0)
        assert new[1] is not None and new[1].startswith("marker c:")
        assert new == outcome(oracle.woe_known, case, 0.0, 0.0)


class TestIntegrationAndProfile:
    @given(case=cases(), w_r=error_probs, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_monte_carlo(self, case, w_r, seed):
        prior = ScaledBeta.from_moments(1e-2, 1e-5)

        def new():
            r = woe_integrate_mc(case, prior, w_r, np.random.default_rng(seed), n_samples=200)
            return r.woe, r.mc_std_error

        old = outcome(oracle.woe_integrate_mc, case, prior, w_r,
                      np.random.default_rng(seed), 200)
        got = outcome(new)
        assert got[1] == old[1]
        if old[1] is None:
            assert_close(got[0][0], old[0][0])
            assert math.isclose(got[0][1], old[0][1], rel_tol=1e-9, abs_tol=1e-12)

    def test_monte_carlo_per_marker_q_at_m_2000(self):
        """The mean of the per-draw sums against the oracle's exact sum of
        every marker's and draw's term."""
        rng = np.random.default_rng(36)
        case = CaseData.from_arrays(rng.integers(0, 3, 2000), rng.integers(0, 3, 2000),
                                    hwe_prior_array(rng.uniform(0.05, 0.95, 2000)))
        prior = ScaledBeta.from_moments(1e-3, 1e-6)
        r = woe_integrate_mc(case, prior, 1e-4, np.random.default_rng(37))
        woe, se = oracle.woe_integrate_mc(case, prior, 1e-4, np.random.default_rng(37), 1000)
        assert_close(r.woe, woe)
        assert math.isclose(r.mc_std_error, se, rel_tol=1e-9)

    @given(case=cases(), w_r=error_probs)
    @settings(max_examples=100, deadline=None)
    def test_profile(self, case, w_r):
        def new():
            r = woe_profile(case, w_r)
            return r.woe

        got = outcome(new)
        old = outcome(oracle.woe_profile, case, w_r)
        assert got[1] == old[1]
        if old[1] is None:
            assert abs(got[0] - old[0][0]) <= 1e-9

    @given(case=cases(max_m=6), w_r=interior_probs)
    @example(case=CaseData((MarkerObservation(1, 0, hwe_priors(1.0 - 4.196e-7)),),
                           ids=("rs0",)),
             w_r=1e-5)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_quadrature_within_tol(self, case, w_r):
        """Where the kernel fails, the oracle fails with the same message
        up to its abserr figure; where both return, they agree to
        ``2 * tol * m``; where only the oracle fails, the kernel agrees with
        a 30-digit reference to ``2 * tol * m``.

        The kernel integrates each row's log10 LR by ``unknown_w.quad``;
        the oracle integrates each hypothesis on its own by scipy's ``quad``.
        Their error estimates differ, so the text before ``with abserr``
        (tol, pattern count, worst marker) must match, and the two abserr
        values must agree to 1e-3 relative. On the example above scipy's
        ``quad`` stops on a round-off warning (abserr 7.0e-09 against tol
        1e-8) and the oracle fails, while the kernel returns
        -0.0015118..., 2.1e-16 from the reference, without refinement.
        """
        prior = ScaledBeta.from_moments(1e-3, 1e-6)
        tol = 1e-8
        got = outcome(lambda: woe_integrate_quad(case, prior, w_r, tol).woe)
        old = outcome(oracle.woe_integrate_quad, case, prior, w_r, tol)
        bound = 2.0 * tol * case.m
        if got[1] is None and old[1] is not None:
            assert old[1].startswith("quadrature failed")
            assert abs(got[0] - PriorReference(prior).woe(case, w_r)) <= bound
            return
        (got_text, got_err), (old_text, old_err) = split_abserr(got[1]), split_abserr(old[1])
        assert got_text == old_text
        if old_err is not None:
            assert math.isclose(got_err, old_err, rel_tol=1e-3)
        if old[1] is None:
            assert abs(got[0] - old[0]) <= bound

    def test_quadrature_degenerate_and_failure_match(self):
        prior = ScaledBeta(1.0, 1.0)
        pz = GenotypePriors(1.0, 0.0, 0.0)
        degenerate = CaseData((MarkerObservation(0, 0, pz), MarkerObservation(0, 2, pz)),
                              ids=("x", "y"))
        assert (outcome(woe_integrate_quad, degenerate, prior, 0.0)[1]
                == outcome(oracle.woe_integrate_quad, degenerate, prior, 0.0)[1]
                == "marker y: observed pair (0, 2) has probability zero under H2")
        case = CaseData((MarkerObservation(0, 0, hwe_priors(0.75)),), ids=("rs17",))
        for fn in (woe_integrate_quad, oracle.woe_integrate_quad):
            with pytest.raises(QuadratureError, match="on 1 marker pattern.*rs17"):
                fn(case, prior, 1e-4, tol=1e-300)


def assert_same_estimate(got, want, groups):
    """Same maximum; same argmax within 1e-6 unless the likelihood is flat
    there to rounding, in which case ``got.w`` must be an argmax of the
    oracle's likelihood too. Toward w = 1/2 the likelihood can be flat to
    rounding, so ``at_boundary`` is not compared there."""
    assert_close(got.log_likelihood, want.log_likelihood)
    if abs(got.w - want.w) > 1e-6:
        at_got = float(oracle._log_lik_terms(groups, np.array([got.w]))[0])
        assert_close(at_got, want.log_likelihood)
    elif want.w < 0.5 - 1e-6:
        assert got.at_boundary == want.at_boundary


class TestDuplicateMle:
    @given(counts=st.lists(st.integers(0, 400), min_size=9, max_size=9),
           priors=priors_st)
    @settings(max_examples=60, deadline=None)
    def test_table(self, counts, priors):
        counts = np.array(counts).reshape(3, 3)
        if counts.sum() == 0:
            counts[1, 1] = 1
        table = PairCountTable(counts, priors)
        assert_same_estimate(estimate_w_mle(table), oracle.estimate_w_mle(table),
                             [(priors, counts.astype(float))])

    def test_flat_likelihood_ends_at_upper_boundary(self):
        """One discordant (0, 1) pair under priors (1/6, 2/3, 1/6): the
        likelihood is flat to rounding toward w = 1/2, where Brent's search
        used to stop at w = 0.49995 with ``at_boundary=False``; the end point
        matches the maximum, so it is the estimate, as in the oracle."""
        priors = GenotypePriors(1 / 6, 2 / 3, 1 / 6)
        observations = [MarkerObservation(0, 1, priors)]
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = 1
        for got, want in (
            (estimate_w_mle_per_marker(observations),
             oracle.estimate_w_mle_per_marker(observations)),
            (estimate_w_mle(PairCountTable(counts, priors)),
             oracle.estimate_w_mle(PairCountTable(counts, priors))),
        ):
            assert (got.w, got.at_boundary) == (want.w, want.at_boundary) == (0.5 - 1e-12, True)
            assert_close(got.log_likelihood, want.log_likelihood)
        assert estimate_w_mle_per_marker(observations) == estimate_w_mle_per_marker(observations)

    @given(case=cases(max_m=60))
    @settings(max_examples=60, deadline=None)
    def test_per_marker(self, case):
        observations = oracle.markers(case)
        assert_same_estimate(estimate_w_mle_per_marker(observations),
                             oracle.estimate_w_mle_per_marker(observations),
                             oracle.group_counts(case))


def both_forms(x_t, x_r, priors, ids):
    """One case built from marker records and from its columns."""
    records = CaseData([MarkerObservation(a, b, p) for a, b, p in zip(x_t, x_r, priors)], ids)
    arrays = CaseData.from_arrays(np.array(x_t), np.array(x_r),
                                  np.array([(p.p0, p.p1, p.p2) for p in priors]), ids)
    return records, arrays


def all_outcomes(case, w_t, w_r, seed):
    """Every method's outcome on ``case`` as (value, error message or None);
    the per-marker list comes last. No value is NaN, so outcomes compare
    exactly with ``==``."""
    prior = ScaledBeta.from_moments(1e-2, 1e-5)
    ws = np.array([w_t, 0.01, 0.2])

    def mc():
        r = woe_integrate_mc(case, prior, w_r, np.random.default_rng(seed), n_samples=50)
        return r.woe, r.mc_std_error

    def profile():
        r = woe_profile(case, w_r)
        return r.woe, r.w_hat_h1, r.w_hat_h2

    found = [
        outcome(woe_known, case, w_t, w_r),
        outcome(lambda: woe_plugin(case, w_r).woe),
        outcome(lambda: (log10_lik_h1(case, ws, w_r).tolist(),
                         log10_lik_h2(case, ws, w_r).tolist())),
        outcome(mc),
        outcome(profile),
    ]
    if case.m <= 6:
        found.append(outcome(lambda: woe_integrate_quad(case, prior, max(w_r, 1e-6)).woe))
    found.append(outcome(lambda: per_marker_log10_lr(case, w_t, w_r).tolist()))
    return found


class TestColumnarCase:
    """A case from ``CaseData.from_arrays`` is the case built from marker
    records, and no result depends on the marker order."""

    @given(cols=columns(), w_t=error_probs, w_r=error_probs,
           seed=st.integers(0, 2**32 - 1), order=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_records_arrays_and_permutations_agree(self, cols, w_t, w_r, seed, order):
        records, arrays = both_forms(*cols)
        assert same_case(records, arrays)
        want = all_outcomes(arrays, w_t, w_r, seed)
        assert want == all_outcomes(records, w_t, w_r, seed)

        perm = list(range(arrays.m))
        order.shuffle(perm)
        permuted_records, permuted = both_forms(*([col[j] for j in perm] for col in cols))
        got = all_outcomes(permuted, w_t, w_r, seed)
        assert got == all_outcomes(permuted_records, w_t, w_r, seed)
        # The first offending marker in case order moves with the order, so
        # errors are compared by their presence alone.
        assert [(v, e is None) for v, e in got[:-1]] == [(v, e is None) for v, e in want[:-1]]
        (got_per_marker, got_error), (want_per_marker, want_error) = got[-1], want[-1]
        assert (got_error is None) == (want_error is None)
        if want_error is None:
            assert got_per_marker == [want_per_marker[j] for j in perm]
