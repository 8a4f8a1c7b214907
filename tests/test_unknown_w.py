"""Case-level WoE with unknown trace error probability."""

import copy
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import markers, peak_rss_above_case_mb, random_case
from snpwoe import unknown_w
from snpwoe.evidence import (
    CaseData,
    CaseKernel,
    DegenerateCaseError,
    MarkerObservation,
    joint_prob_h1,
    joint_prob_h2,
    log10_lik_h1,
    log10_lik_h2,
    woe_known,
)
from snpwoe.fileio import load_study_config
from snpwoe.genotypes import GenotypePriors, hwe_prior_array, hwe_priors
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.study import run_woe_study
from snpwoe.unknown_w import (
    METHOD_INTEGRATE_MC,
    METHOD_INTEGRATE_QUAD,
    METHOD_KNOWN,
    METHOD_PLUGIN,
    METHOD_PROFILE,
    METHODS,
    QuadratureError,
    WoEResult,
    woe_integrate_mc,
    woe_integrate_quad,
    woe_known_result,
    woe_plugin,
    woe_profile,
)

PRIORS75 = hwe_priors(0.75)
UNIFORM = ScaledBeta(1.0, 1.0)


def one_marker_case(a, b, priors=PRIORS75):
    return CaseData((MarkerObservation(a, b, priors),))


def oracle_quad_woe(case, prior, w_r):
    """Direct w-space integral of the expected per-marker log10 LR."""
    total = 0.0
    for a, b, pr in markers(case):

        def f1(w):
            return prior.pdf(w) * math.log10(joint_prob_h1(a, b, pr, w, w_r))

        def f2(w):
            return prior.pdf(w) * math.log10(joint_prob_h2(a, b, pr, w, w_r))

        i1, _ = quad(f1, 0.0, 0.5, limit=300)
        i2, _ = quad(f2, 0.0, 0.5, limit=300)
        total += i1 - i2
    return total


class TestWoEResult:
    def test_method_whitelist(self):
        assert set(METHODS) == {METHOD_KNOWN, METHOD_PLUGIN, METHOD_INTEGRATE_MC,
                                METHOD_INTEGRATE_QUAD, METHOD_PROFILE}
        with pytest.raises(ValueError):
            WoEResult(1.0, "bogus")

    def test_maximizers_only_for_profile(self):
        with pytest.raises(ValueError):
            WoEResult(1.0, METHOD_PROFILE)
        with pytest.raises(ValueError):
            WoEResult(1.0, METHOD_KNOWN, w_hat_h1=0.1, w_hat_h2=0.1)
        r = WoEResult(1.0, METHOD_PROFILE, w_hat_h1=0.1, w_hat_h2=0.2)
        assert r.w_hat_h2 == 0.2

    def test_mc_std_error_pairing(self):
        for missing in ({}, {"mc_std_error": 0.1}, {"mc_draws_at_floor": 0}):
            with pytest.raises(ValueError):
                WoEResult(1.0, METHOD_INTEGRATE_MC, **missing)
        with pytest.raises(ValueError):
            WoEResult(1.0, METHOD_KNOWN, mc_std_error=0.1)
        with pytest.raises(ValueError):
            WoEResult(1.0, METHOD_KNOWN, mc_draws_at_floor=0)
        for bad in ({"mc_std_error": -1e-9, "mc_draws_at_floor": 0},
                    {"mc_std_error": 0.1, "mc_draws_at_floor": -1}):
            with pytest.raises(ValueError):
                WoEResult(1.0, METHOD_INTEGRATE_MC, **bad)
        r = WoEResult(1.0, METHOD_INTEGRATE_MC, mc_std_error=0.1, mc_draws_at_floor=3)
        assert (r.mc_std_error, r.mc_draws_at_floor) == (0.1, 3)

    def test_quad_diagnostics_pairing(self):
        for missing in ({}, {"quad_abserr": 1e-12}, {"quad_fallbacks": 0}):
            with pytest.raises(ValueError):
                WoEResult(1.0, METHOD_INTEGRATE_QUAD, **missing)
        with pytest.raises(ValueError):
            WoEResult(1.0, METHOD_PLUGIN, quad_abserr=1e-12, quad_fallbacks=0)
        for bad in ({"quad_abserr": -1e-12, "quad_fallbacks": 0},
                    {"quad_abserr": 1e-12, "quad_fallbacks": -1}):
            with pytest.raises(ValueError):
                WoEResult(1.0, METHOD_INTEGRATE_QUAD, **bad)
        r = WoEResult(1.0, METHOD_INTEGRATE_QUAD, quad_abserr=1e-12, quad_fallbacks=2)
        assert (r.quad_abserr, r.quad_fallbacks) == (1e-12, 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            WoEResult(float("nan"), METHOD_KNOWN)

    def test_infinite_woe_allowed(self):
        assert WoEResult(-math.inf, METHOD_PLUGIN).woe == -math.inf


class TestKnownAndPlugin:
    def test_known_wraps_value(self):
        case = one_marker_case(0, 0)
        r = woe_known_result(case, 1e-3, 1e-4)
        assert r.method == METHOD_KNOWN
        assert r.woe == woe_known(case, 1e-3, 1e-4)

    def test_plugin_is_known_at_w_r(self):
        rng = np.random.default_rng(21)
        case = random_case(rng, m=10, n_priors=2)
        assert woe_plugin(case, 1e-4).woe == woe_known(case, 1e-4, 1e-4)


class TestIntegrateQuad:
    def test_uniform_prior_matches_w_space_oracle(self):
        # includes a mismatching pair, whose integrand is log-singular at 0
        case = CaseData((
            MarkerObservation(0, 0, PRIORS75),
            MarkerObservation(1, 1, hwe_priors(0.9)),
            MarkerObservation(0, 1, PRIORS75),
        ))
        got = woe_integrate_quad(case, UNIFORM, w_r=1e-4)
        assert got.method == METHOD_INTEGRATE_QUAD
        want = oracle_quad_woe(case, UNIFORM, 1e-4)
        assert math.isclose(got.woe, want, rel_tol=0, abs_tol=1e-6)

    def test_skewed_prior_matches_w_space_oracle(self):
        prior = ScaledBeta.from_moments(1e-2, 1e-4)
        case = CaseData((
            MarkerObservation(2, 2, hwe_priors(0.6)),
            MarkerObservation(2, 0, hwe_priors(0.6)),
        ))
        got = woe_integrate_quad(case, prior, w_r=1e-4).woe
        want = oracle_quad_woe(case, prior, 1e-4)
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-6)

    def test_marker_additivity(self):
        rng = np.random.default_rng(23)
        case = random_case(rng, m=6, n_priors=2)
        prior = ScaledBeta.from_moments(5e-3, 1e-6)
        whole = woe_integrate_quad(case, prior, w_r=1e-4).woe
        parts = [
            woe_integrate_quad(CaseData.from_arrays([a], [b], [p]), prior, w_r=1e-4).woe
            for a, b, p in zip(case.x_t, case.x_r, case.priors)
        ]
        assert math.isclose(whole, math.fsum(parts), rel_tol=0, abs_tol=1e-9)

    def test_near_point_mass_recovers_known(self):
        prior = ScaledBeta.from_moments(1e-2, 1e-12)
        rng = np.random.default_rng(24)
        case = random_case(rng, m=5)
        got = woe_integrate_quad(case, prior, w_r=1e-4).woe
        assert math.isclose(got, woe_known(case, 1e-2, 1e-4),
                            rel_tol=0, abs_tol=1e-4)

    def test_reports_error_and_fallbacks(self):
        # The (0, 1) pair at w_r = 0 has a log-singular H1 integrand; the
        # fixed rule's G10/K21 gap on it (about 1e-10) is under tol/2 at
        # the default tol and over it at tol = 1e-10, where that one row
        # integral is refined by bisecting its panels.
        case = CaseData((MarkerObservation(0, 1, PRIORS75),
                         MarkerObservation(0, 0, PRIORS75)))
        prior = ScaledBeta(0.6, 2.4)
        plain = woe_integrate_quad(case, prior, w_r=0.0)
        assert plain.quad_fallbacks == 0
        assert 0.0 < plain.quad_abserr <= 0.5e-8
        tight = woe_integrate_quad(case, prior, w_r=0.0, tol=1e-10)
        assert tight.quad_fallbacks == 1
        assert 0.0 < tight.quad_abserr <= 1e-10
        assert math.isclose(tight.woe, plain.woe, rel_tol=0, abs_tol=2e-10)

    def test_block_size_moves_nothing(self, monkeypatch):
        """A row's panels, splits and sums do not depend on the other rows
        of its block, nor a refined point's value on the piece of the
        product it is taken from, so the default, refinement products of at
        most 4 points each and one row per block give the same bits, here
        with refined rows in several blocks."""
        rng = np.random.default_rng(36)
        q = rng.uniform(0.05, 0.95, 400)
        case = CaseData.from_arrays(rng.integers(0, 3, 400), rng.integers(0, 3, 400),
                                    hwe_prior_array(q))
        prior = ScaledBeta(0.6, 2.4)
        flagged = []
        real_quad = unknown_w.quad

        def spy(f, f0, tol):
            result = real_quad(f, f0, tol)
            flagged.append(result[2])
            return result

        monkeypatch.setattr(unknown_w, "quad", spy)

        def run():
            r = woe_integrate_quad(case, prior, 1e-4, tol=1e-10)
            return r.woe, r.quad_abserr, r.quad_fallbacks

        want = run()
        assert sum(n > 0 for n in flagged) >= 2
        real_integrand, real_ratio = unknown_w._integrand, CaseKernel.log10_ratio
        evaluations, pieces = [], []

        def small_pieces(kernel, prior, start, out):
            def f(v, rows):   # room for 4 points of the open rows' product
                evaluations.append(len(v))
                out = np.empty((2 * len(np.unique(rows)), 4))
                return real_integrand(kernel, prior, start, out)(v, rows)
            return f

        def ratio(self, powers, rows, out, at=None):
            if at is not None:
                pieces.append(powers.shape[1])
            return real_ratio(self, powers, rows, out, at)

        monkeypatch.setattr(unknown_w, "_integrand", small_pieces)
        monkeypatch.setattr(CaseKernel, "log10_ratio", ratio)
        assert run() == want
        assert len(pieces) > len(evaluations) and max(pieces) <= 4
        monkeypatch.setattr(unknown_w, "_QUAD_BLOCK", 1)
        assert run() == want

    def test_memory_bounded_in_m(self):
        """m = 10^5 markers with per-marker q stay within 150 MB of peak RSS
        above the built case; one (rows x nodes) matrix would be 0.8 GB."""
        call = "woe_integrate_quad(case, ScaledBeta.from_moments(1e-3, 1e-6), 1e-4)"
        assert peak_rss_above_case_mb(call) < 150.0

    def test_unreachable_tolerance_reports_marker(self):
        case = CaseData((MarkerObservation(0, 0, PRIORS75),), ids=("rs17",))
        with pytest.raises(QuadratureError, match="rs17"):
            woe_integrate_quad(case, UNIFORM, w_r=1e-4, tol=1e-300)

    def test_validation(self):
        case = one_marker_case(0, 0)
        with pytest.raises(ValueError):
            woe_integrate_quad(case, UNIFORM, w_r=0.5)
        with pytest.raises(ValueError):
            woe_integrate_quad(case, UNIFORM, w_r=1e-4, tol=0.0)

    def test_impossible_reference_observation(self):
        case = one_marker_case(0, 2, GenotypePriors(1.0, 0.0, 0.0))
        with pytest.raises(DegenerateCaseError):
            woe_integrate_quad(case, UNIFORM, w_r=0.0)


class TestNodeQuantilesPerPrior:
    """The quadrature rule's node quantiles are computed once per prior
    instance and kept on it; results do not depend on that."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        quantile = ScaledBeta.quantile

        def counted(prior, p):
            made.append(prior)
            return quantile(prior, p)

        monkeypatch.setattr(ScaledBeta, "quantile", counted)
        return made

    def test_full_study_computes_them_once_per_prior(self, calls):
        path = Path(__file__).resolve().parents[1] / "perfbench/configs/woe_study_full_1rep.yaml"
        config = load_study_config(path)
        run_woe_study(config)
        assert len(config.priors) == 2
        assert calls == [spec.dist for spec in config.priors]

    def test_second_call_and_h2_prior(self, calls):
        """One call computes them once for both hypotheses; a second call
        reuses them."""
        case = random_case(np.random.default_rng(3), m=30)
        prior = ScaledBeta(0.6, 2.4)
        woe_integrate_quad(case, prior, w_r=1e-4)
        assert len(calls) == 1
        woe_integrate_quad(case, prior, w_r=1e-4)
        assert calls == [prior]

    def test_held_array_is_read_only(self):
        prior = ScaledBeta(0.6, 2.4)
        woe_integrate_quad(one_marker_case(0, 1), prior, w_r=1e-4)
        (held,) = [v for v in vars(prior).values() if isinstance(v, np.ndarray)]
        with pytest.raises(ValueError):
            held[0] = 0.25

    def test_fresh_and_reused_priors_agree_bitwise(self):
        case = random_case(np.random.default_rng(4), m=40)
        shapes = (0.6, 2.4)
        reused = ScaledBeta(*shapes)
        first = woe_integrate_quad(case, reused, w_r=1e-4)
        again = woe_integrate_quad(case, reused, w_r=1e-4)
        fresh = woe_integrate_quad(case, ScaledBeta(*shapes), w_r=1e-4)
        assert first == again == fresh
        assert first.woe.hex() == fresh.woe.hex()

    def test_prior_looks_the_same_after_use(self):
        prior = ScaledBeta.from_moments(1e-4, 5e-9)
        before = (repr(prior), hash(prior), pickle.dumps(prior))
        woe_integrate_quad(one_marker_case(1, 1), prior, w_r=1e-4)
        fresh = ScaledBeta.from_moments(1e-4, 5e-9)
        assert (repr(prior), hash(prior), pickle.dumps(prior)) == before
        assert prior == fresh and fresh == prior and hash(fresh) == hash(prior)
        assert vars(pickle.loads(pickle.dumps(prior))) == vars(fresh)
        assert vars(copy.deepcopy(prior)) == vars(fresh)


class TestIntegrateMc:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(30)
        case = random_case(rng, m=12)
        prior = ScaledBeta.from_moments(1e-2, 1e-5)
        r1 = woe_integrate_mc(case, prior, 1e-4,
                              np.random.default_rng(np.random.SeedSequence(7)))
        r2 = woe_integrate_mc(case, prior, 1e-4,
                              np.random.default_rng(np.random.SeedSequence(7)))
        assert r1.woe == r2.woe and r1.mc_std_error == r2.mc_std_error
        assert r1.method == METHOD_INTEGRATE_MC and r1.mc_std_error > 0.0

    def test_marker_order_invariance_is_bitwise(self):
        rng = np.random.default_rng(31)
        case = random_case(rng, m=20, n_priors=2)
        flipped = CaseData.from_arrays(case.x_t[::-1], case.x_r[::-1], case.priors[::-1])
        prior = ScaledBeta.from_moments(1e-2, 1e-5)
        a = woe_integrate_mc(case, prior, 1e-4,
                             np.random.default_rng(np.random.SeedSequence(8)))
        b = woe_integrate_mc(flipped, prior, 1e-4,
                             np.random.default_rng(np.random.SeedSequence(8)))
        assert a.woe == b.woe

    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(32)
        case = random_case(rng, m=25, n_priors=2)
        prior = ScaledBeta.from_moments(1e-2, 1e-5)
        exact = woe_integrate_quad(case, prior, 1e-4).woe
        mc = woe_integrate_mc(case, prior, 1e-4,
                              np.random.default_rng(np.random.SeedSequence(9)),
                              n_samples=4000)
        assert abs(mc.woe - exact) <= 4.0 * mc.mc_std_error + 1e-6

    def test_near_point_mass_recovers_known(self):
        prior = ScaledBeta.from_moments(1e-2, 1e-14)
        rng = np.random.default_rng(33)
        case = random_case(rng, m=5)
        r = woe_integrate_mc(case, prior, 1e-4,
                             np.random.default_rng(np.random.SeedSequence(10)))
        assert math.isclose(r.woe, woe_known(case, 1e-2, 1e-4),
                            rel_tol=0, abs_tol=1e-3)
        assert r.mc_std_error < 1e-3

    def test_validation(self):
        case = one_marker_case(0, 0)
        rng = np.random.default_rng(0)
        prior = ScaledBeta.from_moments(1e-2, 1e-5)
        with pytest.raises(ValueError):
            woe_integrate_mc(case, prior, 1e-4, rng, n_samples=1)
        with pytest.raises(ValueError):
            woe_integrate_mc(case, prior, -0.1, rng)

    def test_default_sample_count(self):
        # per-draw case sums have positive spread, so the standard error of
        # the mean at the default draw count is visibly nonzero
        case = one_marker_case(2, 0)
        prior = ScaledBeta.from_moments(1e-2, 1e-5)
        r = woe_integrate_mc(case, prior, 1e-4,
                             np.random.default_rng(np.random.SeedSequence(12)))
        assert r.mc_std_error > 0.0

    def test_floored_draws_at_zero_w_r(self):
        """This prior draws below 1e-154, where ``w**2`` underflows to 0 and
        the (2, 0) pair's H1 probability at ``w_r = 0`` with it; its draws
        are floored at 1e-120, as quadrature's nodes are, so every log stays
        finite and the estimate agrees with quadrature. Draws below 5e-324
        are kept, as the least positive float: at 200,000 draws, redrawing
        them instead put the estimate 16 standard errors above."""
        case = CaseData.from_arrays([2, 1], [0, 1], hwe_prior_array([0.5, 0.5]))
        prior = ScaledBeta(0.005, 5.0)
        assert prior.quantile(0.05) < 1e-154
        quad = woe_integrate_quad(case, prior, 0.0).woe
        for n in (4000, 200_000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = woe_integrate_mc(case, prior, 0.0,
                                     np.random.default_rng(np.random.SeedSequence(0)), n)
            assert math.isfinite(r.woe)
            assert math.isfinite(r.mc_std_error) and r.mc_std_error >= 0.0
            assert abs(r.woe - quad) <= 4.0 * r.mc_std_error, n
            assert 0 < r.mc_draws_at_floor < n

    def test_draws_at_floor_are_counted(self):
        """The heavy-tailed prior of the README: every default draw is
        floored, where the standard error cannot see the missed mass."""
        case = CaseData.from_arrays([2, 1], [0, 1], hwe_prior_array([0.5, 0.5]))
        heavy = ScaledBeta.from_moments(1e-5, 4.9998e-6)
        r = woe_integrate_mc(case, heavy, 1e-4, np.random.default_rng(np.random.SeedSequence(0)))
        assert r.mc_draws_at_floor == 1000
        r = woe_integrate_mc(case, ScaledBeta.from_moments(1e-2, 1e-5), 1e-4,
                             np.random.default_rng(np.random.SeedSequence(0)))
        assert r.mc_draws_at_floor == 0

    def test_block_size_moves_nothing(self, monkeypatch):
        """The per-draw sums add the rows in order whatever the block size,
        so one row per block, the default and one block give the same bits."""
        rng = np.random.default_rng(34)
        q = rng.uniform(0.05, 0.95, 500)
        case = CaseData.from_arrays(rng.integers(0, 3, 500), rng.integers(0, 3, 500),
                                    hwe_prior_array(q))
        prior = ScaledBeta.from_moments(1e-3, 1e-6)

        def run():
            r = woe_integrate_mc(case, prior, 1e-4, np.random.default_rng(35), 1000)
            return r.woe, r.mc_std_error

        want = run()
        for block in (1000, 1 << 20):
            monkeypatch.setattr(unknown_w, "_SUM_BLOCK", block)
            assert run() == want

    def test_memory_bounded_in_m(self):
        """1000 draws over m = 10^5 markers with per-marker q stay within
        150 MB of peak RSS above the built case; one (rows x draws) matrix
        would be 0.8 GB."""
        call = ("woe_integrate_mc(case, ScaledBeta.from_moments(1e-3, 1e-6), 1e-4, "
                "np.random.default_rng(1), 1000)")
        assert peak_rss_above_case_mb(call) < 150.0


class TestProfile:
    def test_all_match_case_maximizes_h1_at_zero(self):
        case = CaseData(tuple(MarkerObservation(0, 0, PRIORS75)
                              for _ in range(10)))
        r = woe_profile(case, w_r=1e-4)
        assert r.method == METHOD_PROFILE
        assert r.w_hat_h1 == 0.0
        assert 0.0 <= r.w_hat_h2 < 0.5

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(40)
        case = random_case(rng, m=15, n_priors=2)
        r = woe_profile(case, w_r=1e-4)
        l1 = float(log10_lik_h1(case, r.w_hat_h1, 1e-4))
        l2 = float(log10_lik_h2(case, r.w_hat_h2, 1e-4))
        assert math.isclose(r.woe, l1 - l2, rel_tol=0, abs_tol=1e-9)

    def test_per_hypothesis_dominance_on_grid(self):
        rng = np.random.default_rng(41)
        case = random_case(rng, m=12, n_priors=2)
        r = woe_profile(case, w_r=1e-4)
        grid = np.linspace(0.0, 0.5 - 1e-12, 301)
        l1_max = float(log10_lik_h1(case, r.w_hat_h1, 1e-4))
        l2_max = float(log10_lik_h2(case, r.w_hat_h2, 1e-4))
        assert l1_max >= np.max(log10_lik_h1(case, grid, 1e-4)) - 1e-9
        assert l2_max >= np.max(log10_lik_h2(case, grid, 1e-4)) - 1e-9

    def test_restricted_interval(self):
        case = CaseData(tuple(MarkerObservation(0, 0, PRIORS75)
                              for _ in range(10)))
        r = woe_profile(case, w_r=1e-4, lower=0.05, upper=0.2)
        assert r.w_hat_h1 == 0.05

    def test_bound_validation(self):
        case = one_marker_case(0, 0)
        with pytest.raises(ValueError):
            woe_profile(case, 1e-4, lower=0.2, upper=0.1)
        with pytest.raises(ValueError):
            woe_profile(case, 1e-4, lower=-0.1)
        with pytest.raises(ValueError):
            woe_profile(case, 1e-4, upper=0.6)
        with pytest.raises(ValueError, match="collapses"):
            woe_profile(case, 1e-4, lower=0.5 - 1e-13, upper=0.5)

    def test_impossible_reference_observation(self):
        case = one_marker_case(1, 1, GenotypePriors(0.5, 0.0, 0.5))
        with pytest.raises(DegenerateCaseError):
            woe_profile(case, w_r=0.0)

    def test_memory_bounded_in_m(self):
        """The 65-point search grid over m = 10^5 markers with per-marker q
        stays within 150 MB of peak RSS above the built case."""
        assert peak_rss_above_case_mb("woe_profile(case, 1e-4)") < 150.0


class TestMonomorphicMarkers:
    """A marker whose prior is one dosage with certainty has likelihood
    ratio 1 at every w, and contributes exactly 0 under every method."""

    PRIOR = ScaledBeta.from_moments(1e-3, 1e-6)

    @staticmethod
    def cases():
        rng = np.random.default_rng(8)
        z = rng.integers(0, 3, 20)
        mono = np.eye(3)[z]
        x_t = z.copy()
        x_t[:5] = (z[:5] + 1) % 3   # trace errors on a sure genotype
        q = rng.uniform(0.05, 0.95, 40)
        priors = np.stack([q * q, 2 * q * (1 - q), (1 - q) ** 2], axis=1)
        g = rng.integers(0, 3, 40)
        informative = CaseData.from_arrays(g, g, priors)
        mixed = CaseData.from_arrays(np.r_[g, x_t], np.r_[g, z], np.r_[priors, mono])
        return CaseData.from_arrays(x_t, z, mono), informative, mixed

    def evaluate(self, case):
        rng = np.random.default_rng(np.random.SeedSequence(9))
        return (woe_known(case, 1e-3, 1e-4), woe_plugin(case, 1e-4).woe,
                woe_integrate_mc(case, self.PRIOR, 1e-4, rng, 200).woe,
                woe_integrate_quad(case, self.PRIOR, 1e-4).woe, woe_profile(case, 1e-4).woe)

    def test_all_monomorphic_case_is_exactly_zero(self):
        mono, _, _ = self.cases()
        assert self.evaluate(mono) == (0.0,) * 5

    @pytest.mark.parametrize("seed", range(20))
    def test_all_monomorphic_profile_is_exactly_zero(self, seed):
        """Both hypotheses' searches take the same steps, so their maxima
        are the same float, wherever the maximum lies."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 60))
        z = rng.integers(0, 3, m)
        k = int(rng.integers(1, m))
        x_t = z.copy()
        x_t[:k] = (z[:k] + rng.integers(1, 3, k)) % 3
        r = woe_profile(CaseData.from_arrays(x_t, z, np.eye(3)[z]), 1e-4)
        assert r.woe == 0.0
        assert r.w_hat_h1 == r.w_hat_h2

    def test_fixed_and_integrated_methods_ignore_them(self):
        # the profile maximizers move with them (both hypotheses' likelihoods
        # change by the same function of w), so only profile differs
        _, informative, mixed = self.cases()
        assert self.evaluate(mixed)[:4] == self.evaluate(informative)[:4]


class TestCrossMethodConsistency:
    def test_point_mass_prior_collapses_to_known(self):
        # a concentrated prior makes both integration flavours reproduce the
        # fixed-w evidence at the prior mean
        w0 = 5e-3
        prior = ScaledBeta.from_moments(w0, w0 * w0 * 1e-8)
        case = CaseData((
            MarkerObservation(0, 0, PRIORS75),
            MarkerObservation(1, 1, PRIORS75),
            MarkerObservation(2, 2, hwe_priors(0.9)),
        ))
        known = woe_known(case, w0, 1e-4)
        q = woe_integrate_quad(case, prior, 1e-4).woe
        m = woe_integrate_mc(case, prior, 1e-4,
                             np.random.default_rng(np.random.SeedSequence(50))).woe
        assert math.isclose(q, known, rel_tol=0, abs_tol=1e-6)
        assert math.isclose(m, known, rel_tol=0, abs_tol=1e-4)

    def test_expected_h2_woe_is_negative(self):
        # a trace/reference pair from different donors should on average
        # give negative evidence under every method
        rng = np.random.default_rng(51)
        priors = hwe_priors(0.75)
        prior = ScaledBeta.from_moments(1e-3, 1e-8)
        markers = []
        for _ in range(150):
            z_t = rng.choice(3, p=priors.as_array())
            z_r = rng.choice(3, p=priors.as_array())
            markers.append(MarkerObservation(int(z_t), int(z_r), priors))
        case = CaseData(tuple(markers))
        assert woe_known(case, 1e-3, 1e-4) < 0
        assert woe_integrate_quad(case, prior, 1e-4).woe < 0
        assert woe_profile(case, 1e-4).woe < 0
