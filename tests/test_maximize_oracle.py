"""Differential tests: profile and the duplicate MLE with the library's
maximizer, which steers on a plain float sum, against the same calls with
the maximizer that summed its whole grid exactly (``oracle_maximize``).

Every search of both runs returns its argmax and value; a pair of searches
may differ only at a near-tie of exact values, within 1e-12 relative. Each
test counts such ties and pins the count (none so far but one exact tie in
``test_grid_step_underflows``), and a case without a tie must give
bit-identical results.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import oracle_maximize
from snpwoe import estimation, optimize, unknown_w
from snpwoe.estimation import PairCountTable, estimate_w_mle, estimate_w_mle_per_marker
from snpwoe.evidence import CaseData, MarkerObservation
from snpwoe.genotypes import GenotypePriors, hwe_prior_array, hwe_priors
from snpwoe.optimize import maximize_on_interval
from snpwoe.unknown_w import woe_profile
from test_estimation import casework_duplicate_sets, perfbench_inputs
from test_optimize import log_lik

TIE = 1e-12
SIZES = (1, 2, 3, 10, 50, 200, 2000, 20_000)


def near_tie(new, old):
    return abs(new - old) <= TIE * max(1.0, abs(old))


def profile_fields(result):
    return result.woe, result.w_hat_h1, result.w_hat_h2


def mle_fields(est):
    return est.w, est.log_likelihood, est.at_boundary


def compare(monkeypatch, run, fields):
    """Runs ``run()`` with the library's and with the oracle's maximizer and
    returns the number of near-ties among their searches; without one, the
    two results' ``fields`` must be identical, bit for bit."""
    outcomes = []
    for maximize in (maximize_on_interval, oracle_maximize.maximize_on_interval):
        searches = []

        def recorded(*args, maximize=maximize, searches=searches):
            searches.append(maximize(*args))
            return searches[-1]

        for module in (unknown_w, estimation):
            monkeypatch.setattr(module, "maximize_on_interval", recorded)
        outcomes.append((fields(run()), searches))
    (new, new_searches), (old, old_searches) = outcomes
    assert len(new_searches) == len(old_searches) > 0
    ties = 0
    for (x_new, v_new), (x_old, v_old) in zip(new_searches, old_searches):
        if (x_new, v_new) != (x_old, v_old):
            assert near_tie(v_new, v_old), (x_new, v_new, x_old, v_old)
            ties += 1
    if not ties:
        assert repr(new) == repr(old)
    return ties


def simulated(rng, m, w_r, per_marker, hyp, w_t=0.01):
    """A case of ``m`` markers under H1 (``hyp`` 0) or H2, with one shared q
    or one q per marker from U(0.05, 0.95)."""
    q = rng.uniform(0.05, 0.95, m if per_marker else 1) * np.ones(m)
    priors = hwe_prior_array(q)

    def genotypes():
        return (rng.random(m)[:, None] > np.cumsum(priors, axis=1)[:, :2]).sum(axis=1)

    z_t = genotypes()
    z_r = z_t if hyp == 0 else genotypes()

    def observe(z, w):
        flips = rng.random((2, m)) < w
        return ((z >= 1) ^ flips[0]).astype(int) + ((z == 2) ^ flips[1]).astype(int)

    return CaseData.from_arrays(observe(z_t, w_t), observe(z_r, w_r), priors)


class TestProfile:
    @pytest.mark.parametrize("per_marker", [False, True], ids=["shared-q", "per-marker-q"])
    @pytest.mark.parametrize("w_r", [0.0, 1e-4])
    def test_simulated_cases(self, monkeypatch, per_marker, w_r):
        rng = np.random.default_rng([22, per_marker, int(w_r > 0)])
        ties = 0
        for m in SIZES:
            for hyp in (0, 1):
                case = simulated(rng, m, w_r, per_marker, hyp)
                ties += compare(monkeypatch, lambda: woe_profile(case, w_r), profile_fields)
        assert ties == 0

    def test_casework_rounds(self, monkeypatch):
        """The benchmark's 48 casework rounds, both profile cases each."""
        inputs = perfbench_inputs()
        ties = 0
        for rnd in range(inputs.FULL.pool_rounds):
            for hyp in (0, 1):
                q, x_t, x_r = inputs.case_arrays(inputs.FULL, rnd, "profile", hyp)
                case = CaseData.from_arrays(x_t, x_r, hwe_prior_array(q))
                ties += compare(monkeypatch, lambda: woe_profile(case, inputs.W_R),
                                profile_fields)
        assert ties == 0

    def test_hard_exclusions(self, monkeypatch):
        """At w_r = 0 a trace homozygote against the other homozygote is
        impossible under H1 at w = 0: -inf there."""
        rng = np.random.default_rng(2201)
        ties = 0
        for m in (1, 5, 200):
            case = simulated(rng, m, 0.0, True, 1, w_t=0.05)
            excluded = CaseData.from_arrays(np.append(case.x_t, 2), np.append(case.x_r, 0),
                                            np.vstack((case.priors, hwe_priors(0.5).as_array())))
            for c in (case, excluded):
                ties += compare(monkeypatch, lambda: woe_profile(c, 0.0), profile_fields)
        assert ties == 0

    @pytest.mark.parametrize("w_r", [0.0, 1e-4])
    def test_all_monomorphic(self, monkeypatch, w_r):
        """Every prior is one dosage with certainty: a likelihood ratio of
        exactly 1, and -inf at w = 0 wherever the trace read differs."""
        ties = 0
        for x_t in ([0, 0, 0], [0, 1, 2], [1, 1]):
            case = CaseData.from_arrays(x_t, [0] * len(x_t), hwe_prior_array(np.ones(len(x_t))))
            ties += compare(monkeypatch, lambda: woe_profile(case, w_r), profile_fields)
        assert ties == 0

    @pytest.mark.parametrize("lower, upper", [(0.01, 0.2), (0.0, 1e-3), (1e-6, 1e-3),
                                              (0.3, 0.5), (0.2, 0.2 + 1e-9)])
    def test_restricted_intervals(self, monkeypatch, lower, upper):
        rng = np.random.default_rng([2202, int(lower * 1e6)])
        ties = 0
        for m in (1, 20, 2000):
            for hyp in (0, 1):
                case = simulated(rng, m, 1e-4, True, hyp, w_t=0.05)
                ties += compare(monkeypatch, lambda: woe_profile(case, 1e-4, lower, upper),
                                profile_fields)
        assert ties == 0


class TestMLE:
    @pytest.mark.parametrize("per_marker", [False, True], ids=["shared-q", "per-marker-q"])
    def test_simulated_duplicates(self, monkeypatch, per_marker):
        rng = np.random.default_rng([2203, per_marker])
        ties = 0
        for m in SIZES:
            for w in (0.0, 1e-3, 1e-2, 0.2):
                case = simulated(rng, m, w, per_marker, 0, w_t=w)
                observations = [MarkerObservation(a, b, GenotypePriors(*p)) for a, b, p in
                                zip(case.x_t.tolist(), case.x_r.tolist(), case.priors.tolist())]
                ties += compare(monkeypatch, lambda: estimate_w_mle_per_marker(observations),
                                mle_fields)
        assert ties == 0

    def test_casework_duplicate_sets(self, monkeypatch):
        ties = sum(compare(monkeypatch, lambda: estimate_w_mle_per_marker(obs), mle_fields)
                   for obs in casework_duplicate_sets())
        assert ties == 0

    def test_tables(self, monkeypatch):
        """Pair-count tables, concordant, sparse and dense."""
        rng = np.random.default_rng(2204)
        tables = [np.diag([810, 170, 16]), [[810, 9, 0], [10, 170, 2], [0, 3, 16]],
                  [[0, 1, 0], [0, 0, 0], [0, 0, 0]]]
        tables += [rng.integers(0, 50, (3, 3)) for _ in range(8)]
        ties = 0
        for q in (0.5, 0.9):
            for counts in tables:
                table = PairCountTable(np.asarray(counts), hwe_priors(q))
                ties += compare(monkeypatch, lambda: estimate_w_mle(table), mle_fields)
        assert ties == 0


def test_bimodal_polynomial():
    """The two-mode objective of ``test_optimize``, on the whole interval and
    on pieces that cut each mode."""
    bimodal = P.polysub([0.01], P.polymul(P.polymul([-0.1, 1], [-0.1, 1]),
                                          P.polymul([-0.4, 1], [-0.4, 1])))
    fn, coeffs, counts = log_lik([bimodal, [1.0, 0.5, 0.0, 0.0, 0.0]], [1.0, 1.0])
    for lower, upper in ((0.0, 0.5), (0.0, 0.25), (0.05, 0.45), (0.2, 0.5)):
        new = maximize_on_interval(fn, lower, upper, coeffs, counts)
        assert repr(new) == repr(oracle_maximize.maximize_on_interval(fn, lower, upper,
                                                                      coeffs, counts))


class TestScalarBookkeeping:
    """Objectives that send each peak's bracket, step and stop test through
    their rarer branches; every search must match the oracle bit for bit."""

    @staticmethod
    def active_sizes(monkeypatch, rows, counts, lower=0.0, upper=0.5):
        """Checks the library's search against the oracle's and returns the
        number of active peaks at each of its Newton steps, and each step's
        points, slopes and curvatures. ``log_lik`` sums the objective exactly
        at each point, so that a point's value does not depend on the others
        in its call, as ``evidence._row_total``'s does not."""
        fn, coeffs, counts = log_lik(rows, counts)
        steps = []
        log_slopes = optimize._log_slopes

        def recorded(stacked, n, w):
            slope, curve = log_slopes(stacked, n, w)
            steps.append((w.tolist(), slope.tolist(), curve.tolist()))
            return slope, curve

        monkeypatch.setattr(optimize, "_log_slopes", recorded)
        new = maximize_on_interval(fn, lower, upper, coeffs, counts)
        assert repr(new) == repr(oracle_maximize.maximize_on_interval(fn, lower, upper,
                                                                      coeffs, counts))
        return [len(w) for w, _, _ in steps], steps

    def test_peaks_stop_one_at_a_time(self, monkeypatch):
        """Three modes, near 0.1, 0.25 and 0.4, tilted by twelve small
        linear rows: the active set shrinks from 3 peaks to 2 to 1."""
        modes = P.polysub([1e-3], P.polymul(P.polymul(
            P.polymul([-0.1, 1], [-0.1, 1]), P.polymul([-0.25, 1], [-0.25, 1])),
            P.polymul([-0.4, 1], [-0.4, 1])))
        shrinking = 0
        for seed in range(40):
            tilts = np.random.default_rng([2401, seed]).uniform(-0.004, 0.004, 12)
            sizes, _ = self.active_sizes(monkeypatch, [modes] + [[1.0, t] for t in tilts],
                                         [1.0] * 13)
            shrinking += sizes[0] == 3 and 2 in sizes and sizes[-1] == 1
        assert shrinking >= 10

    @pytest.mark.parametrize("value", [1.0, 2.0, 0.5])
    def test_constant_objective(self, monkeypatch, value):
        """A slope of exactly 0 stops the only peak, the lower end, at once."""
        sizes, steps = self.active_sizes(monkeypatch, [[value]], [3.0])
        assert sizes == [1] and steps[0][1] == [0.0]

    def test_zero_at_an_interior_grid_point(self, monkeypatch):
        """``(w - 1/4)^2`` is 0 at the grid point 1/4: the grid is -inf there
        and the points on either side of it become peaks."""
        sizes, _ = self.active_sizes(monkeypatch, [[1 / 16, -0.5, 1.0], [1.0, 1.0]], [1.0, 3.0])
        assert sizes[0] == 2

    def test_bisection_onto_a_zero_of_a_row(self, monkeypatch):
        """A narrow spike just right of the grid point 20/128, whose convex
        shoulders make its first step a bisection, onto the midpoint where a
        row of small weight has a simple zero: there the slope is -inf and
        the curvature inf - inf, NaN."""
        h = 1 / 128
        spike, zero, gap = 20.125 * h, 20.5 * h, h / 16
        rows = [[(h / 64) ** 2 + spike * spike, -2 * spike, 1.0],
                [zero * (zero + gap), -(2 * zero + gap), 1.0]]
        _, steps = self.active_sizes(monkeypatch, rows, [-1.0, 1e-3])
        assert ([zero], [-np.inf]) == tuple(steps[1][:2]) and np.isnan(steps[1][2][0])

    def test_grid_step_underflows(self, monkeypatch):
        """An interval so narrow that its grid step rounds to 0, which
        ``validate_profile_interval`` accepts: the grid is linspace's.

        On the 20-marker H2 case H1's log-likelihood is the same float at
        every point of [0, 1e-322]. The library returns the first of its
        candidates, the grid maximum of its plain sum, 1e-322; the oracle
        the first exactly summed grid point, 0.0. That one tie is exact, so
        the WoE is the same."""
        rng = np.random.default_rng(2402)
        cases = [simulated(rng, m, 1e-4, True, hyp, w_t=0.05) for m in (1, 20) for hyp in (0, 1)]
        ties = sum(compare(monkeypatch, lambda: woe_profile(case, 1e-4, 0.0, 1e-322),
                           profile_fields) for case in cases)
        assert ties == 1
        woes = []
        for maximize in (maximize_on_interval, oracle_maximize.maximize_on_interval):
            monkeypatch.setattr(unknown_w, "maximize_on_interval", maximize)
            woes.append([woe_profile(case, 1e-4, 0.0, 1e-322).woe for case in cases])
        assert woes[0] == woes[1]
