"""MLE of a shared genotyping error probability from duplicate pairs."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_rss_above_case_mb
from snpwoe import estimation
from snpwoe.estimation import (
    PairCountTable,
    WEstimate,
    estimate_w_mle,
    estimate_w_mle_per_marker,
)
from snpwoe.evidence import MarkerObservation, joint_prob_h1, joint_table_h1
from snpwoe.genotypes import hwe_priors
from snpwoe.optimize import W_SEARCH_MAX

PRIORS75 = hwe_priors(0.75)
PRIORS90 = hwe_priors(0.9)


def perfbench_inputs():
    """The benchmark's input module, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def casework_duplicate_sets():
    """The benchmark's 48 casework duplicate-pair sets, as its run builds them."""
    inputs = perfbench_inputs()
    for rnd in range(inputs.FULL.pool_rounds):
        q, first, second = inputs.duplicate_arrays(inputs.FULL, rnd)
        yield [MarkerObservation(int(a), int(b), hwe_priors(float(f)))
               for a, b, f in zip(first, second, q)]


def pair_table(priors, w):
    return joint_table_h1(priors, w, w)


def multinomial_table(priors, w, n, rng):
    p = pair_table(priors, w).ravel()
    counts = rng.multinomial(n, p / p.sum()).reshape(3, 3)
    return PairCountTable(counts, priors)


class TestPairProb:
    def test_no_error_heterozygote(self):
        assert joint_prob_h1(1, 1, PRIORS75, 0.0, 0.0) == 0.375

    @given(w=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
           a=st.integers(0, 2), b=st.integers(0, 2))
    @settings(max_examples=60)
    def test_symmetric_in_reads(self, w, a, b):
        assert math.isclose(joint_prob_h1(a, b, PRIORS75, w, w),
                            joint_prob_h1(b, a, PRIORS75, w, w),
                            rel_tol=1e-13, abs_tol=1e-300)

    def test_normalizes(self):
        total = math.fsum(joint_prob_h1(a, b, PRIORS90, 0.01, 0.01)
                          for a in range(3) for b in range(3))
        assert abs(total - 1.0) <= 1e-12

    def test_rejects_bad_dosages(self):
        # a negative dosage must not index the table from its far end
        with pytest.raises(ValueError, match="0, 1 or 2"):
            joint_prob_h1(-1, 0, PRIORS75, 0.01, 0.01)
        with pytest.raises(TypeError):
            joint_prob_h1(1, 1.0, PRIORS75, 0.01, 0.01)


class TestPairCountTable:
    def test_accepts_integer_valued_floats(self):
        t = PairCountTable(np.eye(3) * 4.0, PRIORS75)
        assert t.total == 12 and t.counts.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            PairCountTable(np.full((3, 3), 0.5), PRIORS75)

    def test_rejects_bad_shape_negative_empty(self):
        with pytest.raises(ValueError):
            PairCountTable(np.zeros((2, 3)), PRIORS75)
        bad = np.eye(3, dtype=int)
        bad[0, 1] = -1
        with pytest.raises(ValueError):
            PairCountTable(bad, PRIORS75)
        with pytest.raises(ValueError):
            PairCountTable(np.zeros((3, 3), dtype=int), PRIORS75)

    def test_rejects_non_priors(self):
        with pytest.raises(TypeError):
            PairCountTable(np.eye(3, dtype=int), (0.5, 0.3, 0.2))

    def test_counts_up_to_2_to_the_53(self):
        """Float counts are exact up to 2**53, and nine such counts sum below 2**63."""
        t = PairCountTable([[2**53] * 3] * 3, PRIORS75)
        assert t.total == 9 * 2**53
        for over in ([[2**62] * 3] * 3, [[1, 0, 0], [0, 10**20, 0], [0, 0, 1]],
                     [[1, 0, 0], [0, 1, 2**53 + 1], [0, 0, 1]]):
            with pytest.raises(ValueError, match=r"pair count \[\d, \d\] must be at most 2\*\*53"):
                PairCountTable(over, PRIORS75)
        with pytest.raises(ValueError, match=r"pair count \[1, 1\] must be at most"):
            PairCountTable([[1, 0, 0], [0, float(2**60), 0], [0, 0, 1]], PRIORS75)

    def test_count_too_long_to_print_is_named_by_its_length(self):
        """A count past Python's 4300-digit limit for printing ints fails the
        table's rule, not the interpreter's."""
        for n in (10**20, 10**5000):
            with pytest.raises(ValueError, match=r"^pair count \[0, 2\] must be at most 2\*\*53, "
                                                 r"got a count of more than 20 digits$"):
                PairCountTable([[1, 0, n], [0, 1, 0], [0, 0, 1]], PRIORS75)

    def test_counts_read_only(self):
        t = PairCountTable(np.eye(3, dtype=int), PRIORS75)
        with pytest.raises(ValueError):
            t.counts[0, 0] = 5


class TestWEstimate:
    def test_domain(self):
        with pytest.raises(ValueError):
            WEstimate(0.5, -1.0, False)
        with pytest.raises(ValueError):
            WEstimate(float("nan"), -1.0, False)
        assert WEstimate(0.0, -1.0, True).at_boundary is True


class TestEstimateWMle:
    def test_expected_count_fixed_point(self):
        # a table exactly proportional to the model's pair probabilities
        # should return (almost exactly) the generating w
        counts = np.rint(1e6 * pair_table(PRIORS75, 0.01))
        est = estimate_w_mle(PairCountTable(counts, PRIORS75))
        assert abs(est.w - 0.01) <= 1e-4
        assert not est.at_boundary

    def test_concordant_pairs_give_zero_at_boundary(self):
        t = PairCountTable(np.diag([40, 30, 30]), PRIORS75)
        est = estimate_w_mle(t)
        assert est.w == 0.0 and est.at_boundary

    def test_fully_discordant_pairs_pin_upper_boundary(self):
        counts = np.array([[0, 0, 50], [0, 0, 0], [50, 0, 0]])
        est = estimate_w_mle(PairCountTable(counts, PRIORS75))
        assert est.at_boundary and est.w > 0.49

    def test_simulated_tables_recover_w(self):
        # N = 100,000 pairs at w = 0.01: the MLE should land in
        # [0.009, 0.011] in at least 95% of replicates
        rng = np.random.default_rng(np.random.SeedSequence(60))
        hits = 0
        reps = 200
        for _ in range(reps):
            est = estimate_w_mle(multinomial_table(PRIORS90, 0.01, 100_000, rng))
            if 0.009 <= est.w <= 0.011:
                hits += 1
        assert hits >= 0.95 * reps

    def test_grid_dominance(self):
        rng = np.random.default_rng(np.random.SeedSequence(61))
        table = multinomial_table(PRIORS75, 0.03, 5000, rng)
        est = estimate_w_mle(table)
        grid = np.linspace(0.0, 0.5 - 1e-12, 10_001)
        tbl = joint_table_h1(table.priors, grid, grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = np.where(table.counts > 0,
                          table.counts * np.log(tbl), 0.0).sum(axis=(-2, -1))
        assert est.log_likelihood >= ll.max() - 1e-9

    def test_allele_relabel_equivariance(self):
        rng = np.random.default_rng(np.random.SeedSequence(62))
        table = multinomial_table(PRIORS75, 0.02, 20_000, rng)
        flipped = PairCountTable(table.counts[::-1, ::-1].copy(),
                                 hwe_priors(0.25))
        a = estimate_w_mle(table)
        b = estimate_w_mle(flipped)
        assert abs(a.w - b.w) <= 1e-9
        assert math.isclose(a.log_likelihood, b.log_likelihood,
                            rel_tol=0, abs_tol=1e-8)


class TestEstimatePerMarker:
    def test_matches_table_estimator_for_shared_prior(self):
        rng = np.random.default_rng(np.random.SeedSequence(63))
        table = multinomial_table(PRIORS75, 0.015, 3000, rng)
        obs = [
            MarkerObservation(a, b, PRIORS75)
            for a in range(3) for b in range(3)
            for _ in range(int(table.counts[a, b]))
        ]
        per = estimate_w_mle_per_marker(obs)
        tab = estimate_w_mle(table)
        assert per.w == tab.w
        assert per.log_likelihood == tab.log_likelihood

    def test_mixed_priors_recover_w(self):
        rng = np.random.default_rng(np.random.SeedSequence(64))
        obs = []
        for priors in (PRIORS75, PRIORS90):
            counts = rng.multinomial(10_000, pair_table(priors, 0.01).ravel())
            counts = counts.reshape(3, 3)
            obs.extend(
                MarkerObservation(a, b, priors)
                for a in range(3) for b in range(3)
                for _ in range(int(counts[a, b]))
            )
        est = estimate_w_mle_per_marker(obs)
        assert 0.007 <= est.w <= 0.013

    def test_all_concordant_gives_zero(self):
        obs = [MarkerObservation(d, d, PRIORS75) for d in (0, 1, 2, 1, 0)]
        est = estimate_w_mle_per_marker(obs)
        assert est.w == 0.0 and est.at_boundary

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_w_mle_per_marker([])

    def test_type_checked(self):
        with pytest.raises(TypeError):
            estimate_w_mle_per_marker([(0, 0, PRIORS75)])

    def test_memory_bounded_in_m(self):
        """The 65-point search grid over m = 10^5 duplicate pairs with
        per-pair q stays within 150 MB of peak RSS above the built pairs."""
        setup = ("from snpwoe.genotypes import GenotypePriors; observations = "
                 "[MarkerObservation(a, b, GenotypePriors(*p)) for a, b, p in "
                 "zip(case.x_t.tolist(), case.x_r.tolist(), case.priors.tolist())]")
        assert peak_rss_above_case_mb("estimate_w_mle_per_marker(observations)", setup) < 150.0

    def test_end_points_reuse_the_grid_sums(self, monkeypatch):
        """One MLE sums the log-likelihood exactly once, on the grid
        maximum, both ends and the refined points; each end's one-point sum,
        which an MLE used to recompute, equals its grid value."""
        totals, objectives = [], []
        real_total, real_maximize = estimation._row_total, estimation.maximize_on_interval
        monkeypatch.setattr(estimation, "_row_total",
                            lambda *args: totals.append(1) or real_total(*args))
        monkeypatch.setattr(estimation, "maximize_on_interval",
                            lambda fn, *args: objectives.append(fn) or real_maximize(fn, *args))
        grid = np.linspace(0.0, W_SEARCH_MAX, 65)
        estimates = []
        for observations in casework_duplicate_sets():
            totals.clear()
            estimates.append(estimate_w_mle_per_marker(observations))
            assert len(totals) == 1
            log_lik = objectives[-1]
            on_grid = log_lik(grid)
            for i, end in ((0, 0.0), (-1, W_SEARCH_MAX)):
                assert log_lik(np.array([end]))[0] == on_grid[i]
        assert len(estimates) == 48
        assert not any(est.at_boundary for est in estimates)
