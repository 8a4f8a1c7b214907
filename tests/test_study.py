"""Simulation studies: case generators, study runners, summaries, ECE."""

import math

import numpy as np
import pytest

from conftest import same_case
from snpwoe.estimation import estimate_w_mle
from snpwoe.evidence import joint_table_h1, trace_marginal
from snpwoe.genotypes import hwe_priors
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.study import (
    HYPOTHESES,
    EceRow,
    OverdispersionConfig,
    PriorSpec,
    StudyConfig,
    StudyError,
    StudyRecord,
    _substream,
    compute_ece,
    compute_ece_by_cell,
    run_overdispersion_study,
    run_woe_study,
    simulate_case,
    simulate_overdispersed_table,
    summarize_overdispersion,
    summarize_records,
)
from snpwoe.evidence import woe_known
from snpwoe.unknown_w import woe_integrate_mc, woe_integrate_quad

PRIORS75 = hwe_priors(0.75)
PRIOR_SPEC = PriorSpec("mean1e-2", ScaledBeta.from_moments(1e-2, 1e-5))


def record(hypothesis, woe, method="true-w", m=10, q=0.75, w_t=1e-3,
           replicate=0, prior_id=None):
    return StudyRecord(hypothesis=hypothesis, method=method, prior_id=prior_id,
                       m=m, q=q, w_t_true=w_t, replicate=replicate, woe=woe)


class TestSimulateCase:
    def test_error_free_duplicates_match(self):
        rng = _substream(1, 0)
        case = simulate_case("H1", 500, PRIORS75, 0.0, 0.0, rng)
        assert np.array_equal(case.x_t, case.x_r)

    def test_determinism(self):
        a = simulate_case("H2", 50, PRIORS75, 1e-2, 1e-4, _substream(2, 7))
        b = simulate_case("H2", 50, PRIORS75, 1e-2, 1e-4, _substream(2, 7))
        assert same_case(a, b)

    def test_h1_h2_share_trace_draws(self):
        # same stream: the trace genotypes are drawn first either way, so the
        # hypotheses differ only downstream of the reference draws
        h1 = simulate_case("H1", 200, PRIORS75, 0.0, 0.0, _substream(3, 1))
        h2 = simulate_case("H2", 200, PRIORS75, 0.0, 0.0, _substream(3, 1))
        assert np.array_equal(h1.x_t, h2.x_t)
        assert not np.array_equal(h1.x_r, h2.x_r)

    def test_reference_frequencies_match_channel_marginal(self):
        m = 1_000_000
        case = simulate_case("H1", m, PRIORS75, 1e-2, 1e-3, _substream(4, 0))
        want = trace_marginal(PRIORS75, 1e-3)
        xs = case.x_r
        for d in range(3):
            freq = np.mean(xs == d)
            se = math.sqrt(want[d] * (1.0 - want[d]) / m)
            assert abs(freq - want[d]) <= 4.0 * se

    def test_validation(self):
        rng = _substream(0)
        with pytest.raises(ValueError):
            simulate_case("H3", 10, PRIORS75, 0.0, 0.0, rng)
        with pytest.raises(ValueError):
            simulate_case("H1", 0, PRIORS75, 0.0, 0.0, rng)
        with pytest.raises(ValueError):
            simulate_case("H1", 10, PRIORS75, 0.5, 0.0, rng)


class TestSimulateOverdispersedTable:
    def test_total_and_determinism(self):
        prior = ScaledBeta.from_moments(1e-2, 5e-5)
        a = simulate_overdispersed_table(4000, prior, PRIORS75, _substream(5, 0))
        b = simulate_overdispersed_table(4000, prior, PRIORS75, _substream(5, 0))
        assert a.total == 4000
        assert np.array_equal(a.counts, b.counts)

    def test_near_constant_prior_matches_fixed_w_cells(self):
        w0 = 0.01
        prior = ScaledBeta.from_moments(w0, 1e-12)
        n = 100_000
        table = simulate_overdispersed_table(n, prior, PRIORS75, _substream(6, 0))
        want = joint_table_h1(PRIORS75, w0, w0)
        for a in range(3):
            for b in range(3):
                se = math.sqrt(want[a, b] * (1.0 - want[a, b]) / n)
                assert abs(table.counts[a, b] / n - want[a, b]) <= 4.0 * se
        est = estimate_w_mle(table)
        assert 0.009 <= est.w <= 0.011

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_overdispersed_table(0, ScaledBeta(1.0, 1.0), PRIORS75,
                                         _substream(0))


class TestStudyConfig:
    def base(self, **kw):
        args = dict(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                    marker_counts=(10,), replicates=2, methods=("true-w",))
        args.update(kw)
        return StudyConfig(**args)

    def test_valid(self):
        cfg = self.base(methods=("true-w", "integrate-mc"),
                        priors=(PRIOR_SPEC,))
        assert cfg.methods == ("true-w", "integrate-mc")

    def test_rejections(self):
        with pytest.raises(ValueError):
            self.base(methods=("bogus",))
        with pytest.raises(ValueError):
            self.base(methods=("true-w", "true-w"))
        with pytest.raises(ValueError):
            self.base(methods=("integrate-quad",))  # no priors given
        with pytest.raises(ValueError):
            self.base(q_values=(0.0,))
        with pytest.raises(ValueError):
            self.base(w_t_values=())
        with pytest.raises(ValueError):
            self.base(replicates=0)
        with pytest.raises(ValueError):
            self.base(mc_samples=1)
        with pytest.raises(ValueError):
            self.base(quad_tol=0.0)
        with pytest.raises(ValueError):
            self.base(profile_lower=0.3, profile_upper=0.2)
        with pytest.raises(ValueError):
            StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                        marker_counts=(10,), replicates=1,
                        methods=("integrate-mc",),
                        priors=(PRIOR_SPEC, PRIOR_SPEC))  # duplicate id

    def test_prior_spec_validation(self):
        with pytest.raises(ValueError):
            PriorSpec("", ScaledBeta(1.0, 1.0))
        with pytest.raises(TypeError):
            PriorSpec("u", (1.0, 1.0))


def study_config(**kw):
    args = dict(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                marker_counts=(50,), replicates=2, methods=("true-w",))
    return StudyConfig(**{**args, **kw})


def overdispersion_config(**kw):
    args = dict(q_values=(0.9,), priors=(PRIOR_SPEC,), table_sizes=(100,),
                replicates=2)
    return OverdispersionConfig(**{**args, **kw})


@pytest.mark.parametrize("make, key, value", [
    (study_config, "marker_counts", (50.7,)),
    (study_config, "replicates", 2.9),
    (study_config, "mc_samples", 999.5),
    (study_config, "master_seed", 1.5),
    (study_config, "master_seed", -1),
    (study_config, "replicates", True),
    (study_config, "master_seed", float("inf")),
    (overdispersion_config, "table_sizes", (100.9,)),
    (overdispersion_config, "replicates", 2.5),
    (overdispersion_config, "master_seed", 3.7),
    (overdispersion_config, "master_seed", -1),
    (overdispersion_config, "replicates", False),
])
def test_integer_fields_are_not_truncated(make, key, value):
    with pytest.raises(ValueError):
        make(**{key: value})


def test_integral_values_are_kept_as_ints():
    cfg = study_config(marker_counts=(np.int64(50), 60.0), replicates=np.int32(3),
                       master_seed=0)
    assert cfg.marker_counts == (50, 60) and cfg.replicates == 3
    assert all(type(v) is int for v in (*cfg.marker_counts, cfg.replicates, cfg.master_seed))
    cfg = overdispersion_config(table_sizes=(1e3,), master_seed=2**70)
    assert cfg.table_sizes == (1000,) and cfg.master_seed == 2**70


@pytest.mark.parametrize("make, key, values", [
    (study_config, "q_values", (0.75, 0.75)),
    (study_config, "w_t_values", (1e-3, 0.01, "1e-3")),
    (study_config, "marker_counts", (50, 50.0)),
    (study_config, "methods", ("true-w", "true-w")),
    (overdispersion_config, "q_values", (0.9, 0.5, 0.9)),
    (overdispersion_config, "table_sizes", (100, "100")),
])
def test_grid_values_are_distinct(make, key, values):
    """Two equal grid values would run two cells whose records share every
    identifying column, so summaries would pool them and neither could be
    re-simulated from its record."""
    with pytest.raises(ValueError, match=f"^{key} must be distinct$"):
        make(**{key: values})


class TestRunWoeStudy:
    def test_record_grid_and_metadata(self):
        cfg = StudyConfig(
            q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
            marker_counts=(5,), replicates=3,
            methods=("true-w", "plug-in", "profile", "integrate-mc",
                     "integrate-quad"),
            priors=(PRIOR_SPEC,), mc_samples=50,
        )
        records = run_woe_study(cfg)
        # 1 cell x 3 replicates x 2 hypotheses x 5 method evaluations
        assert len(records) == 30
        for rec in records:
            is_integration = rec.method.startswith("integrate")
            assert (rec.prior_id == "mean1e-2") == is_integration
            assert (rec.w_hat_h1 is not None) == (rec.method == "profile")
        assert {rec.hypothesis for rec in records} == {"H1", "H2"}

    def test_deterministic(self):
        cfg = StudyConfig(q_values=(0.8,), w_t_values=(1e-2,), w_r=1e-4,
                          marker_counts=(20,), replicates=2,
                          methods=("true-w", "integrate-mc"),
                          priors=(PRIOR_SPEC,), mc_samples=40, master_seed=11)
        assert run_woe_study(cfg) == run_woe_study(cfg)

    def test_seed_changes_records(self):
        base = dict(q_values=(0.8,), w_t_values=(1e-2,), w_r=1e-4,
                    marker_counts=(20,), replicates=2, methods=("true-w",))
        a = run_woe_study(StudyConfig(master_seed=1, **base))
        b = run_woe_study(StudyConfig(master_seed=2, **base))
        assert a != b

    def test_true_w_records_are_reconstructible(self):
        """Every record rebuilds from its columns and its stream keys: the
        case from (cell, replicate, hypothesis), MC's draws from (cell,
        replicate, 2 + 2 * prior index + hypothesis index)."""
        priors = (PRIOR_SPEC, PriorSpec("mean1e-3", ScaledBeta.from_moments(1e-3, 1e-6)))
        for methods in [("true-w",), ("integrate-mc", "integrate-quad")]:
            cfg = StudyConfig(q_values=(0.75, 0.9), w_t_values=(1e-3,), w_r=1e-4,
                              marker_counts=(8,), replicates=2, methods=methods,
                              priors=priors, master_seed=17, mc_samples=50)
            records = run_woe_study(cfg)
            assert len(records) == 8 * (1 if methods == ("true-w",) else 4)
            cells = [(m, q, w) for m in cfg.marker_counts for q in cfg.q_values
                     for w in cfg.w_t_values]
            for rec in records:
                cell_index = cells.index((rec.m, rec.q, rec.w_t_true))
                hyp_index = HYPOTHESES.index(rec.hypothesis)
                case = simulate_case(rec.hypothesis, rec.m, hwe_priors(rec.q),
                                     rec.w_t_true, cfg.w_r,
                                     _substream(17, cell_index, rec.replicate, hyp_index))
                if rec.method == "true-w":
                    assert rec.woe == woe_known(case, rec.w_t_true, cfg.w_r)
                    continue
                prior_index = [spec.prior_id for spec in priors].index(rec.prior_id)
                prior = priors[prior_index].dist
                if rec.method == "integrate-mc":
                    rng = _substream(17, cell_index, rec.replicate,
                                     2 + 2 * prior_index + hyp_index)
                    want = woe_integrate_mc(case, prior, cfg.w_r, rng, cfg.mc_samples)
                else:
                    want = woe_integrate_quad(case, prior, cfg.w_r, cfg.quad_tol)
                assert rec.woe == want.woe

    def test_progress_reporting(self):
        cfg = StudyConfig(q_values=(0.75,), w_t_values=(1e-3, 1e-2), w_r=1e-4,
                          marker_counts=(5,), replicates=2, methods=("plug-in",))
        calls = []
        run_woe_study(cfg, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_failures_name_the_cell(self):
        cfg = StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                          marker_counts=(5,), replicates=1,
                          methods=("integrate-quad",), priors=(PRIOR_SPEC,),
                          quad_tol=1e-300)
        with pytest.raises(StudyError, match="m=5"):
            run_woe_study(cfg)


class TestSummaries:
    def test_summary_matches_manual_grouping(self):
        cfg = StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                          marker_counts=(10,), replicates=20,
                          methods=("true-w", "plug-in"), master_seed=23)
        records = run_woe_study(cfg)
        rows = summarize_records(records)
        assert len(rows) == 4  # 2 hypotheses x 2 methods
        for row in rows:
            woes = [r.woe for r in records
                    if (r.hypothesis, r.method) == (row.hypothesis, row.method)]
            assert row.n == 20
            assert math.isclose(row.mean_woe, np.mean(woes), rel_tol=1e-12)
            assert row.min_woe == min(woes) and row.max_woe == max(woes)
            assert row.n_woe_positive == sum(w > 0 for w in woes)
            assert row.n_woe_negative == sum(w < 0 for w in woes)

    def test_mean_with_exclusion_is_minus_inf(self):
        rows = summarize_records([record("H1", 5.0), record("H1", -math.inf)])
        assert rows[0].mean_woe == -math.inf
        assert rows[0].min_woe == -math.inf and rows[0].max_woe == 5.0

    def test_sign_errors_fraction(self):
        records = [record("H1", 1.0, replicate=i) for i in range(499)]
        records.append(record("H1", -2.0, replicate=499))
        records += [record("H2", -1.0, replicate=i) for i in range(500)]
        (row,) = compute_ece_by_cell(records)
        assert row.n_h1 + row.n_h2 == 1000 and row.n_wrong == 1
        assert row.fraction_wrong == 0.001

    def test_zero_woe_is_wrong_under_both(self):
        rows = compute_ece_by_cell([record("H1", 0.0), record("H2", 0.0)])
        assert rows[0].n_wrong == 2


class TestEce:
    def test_mild_miscalibration_value(self):
        # 0.5*log2(1 + 10^-1) + 0.5*log2(1 + 10^-1) = log2(1.1)
        assert math.isclose(compute_ece([1.0], [-1.0]), math.log2(1.1),
                            rel_tol=0, abs_tol=1e-12)

    def test_uninformative_woe_gives_exactly_one_bit(self):
        assert compute_ece([0.0, 0.0], [0.0]) == 1.0

    def test_strong_correct_evidence_drives_ece_to_zero(self):
        assert compute_ece([300.0], [-300.0]) <= 1e-12

    def test_wrong_sign_penalty_scales_with_magnitude(self):
        # a confidently wrong report costs about |woe|*log2(10) bits
        got = compute_ece([-10.0], [10.0])
        assert math.isclose(got, 10.0 * math.log2(10.0), rel_tol=1e-9)

    def test_false_exclusion_is_infinite(self):
        assert compute_ece([-math.inf], [-5.0]) == math.inf
        assert compute_ece([math.inf], [-math.inf]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_ece([], [-1.0])
        with pytest.raises(ValueError):
            compute_ece([1.0], [float("nan")])

    def test_by_cell_roundtrip_and_missing_side(self):
        records = [record("H1", 2.0), record("H1", 3.0), record("H2", -4.0)]
        (row,) = compute_ece_by_cell(records)
        assert isinstance(row, EceRow)
        assert row.n_h1 == 2 and row.n_h2 == 1
        assert row.ece == compute_ece([2.0, 3.0], [-4.0])
        with pytest.raises(ValueError, match="no H2"):
            compute_ece_by_cell([record("H1", 2.0)])

    def test_record_labels_are_checked(self):
        with pytest.raises(ValueError, match="hypothesis must be one of"):
            record("h1", 2.0)
        with pytest.raises(ValueError, match="method must be one of"):
            record("H1", 2.0, method="known")

    def test_record_woe_is_not_nan(self):
        with pytest.raises(ValueError, match="WoE must not be NaN"):
            record("H1", math.nan)
        assert record("H2", -math.inf).woe == -math.inf

    def test_monomorphic_cell_has_exact_zeros_and_counts_them_wrong(self):
        # q = 1 puts every marker on dosage 0, so every likelihood ratio is 1
        cfg = StudyConfig(q_values=(1.0,), w_t_values=(1e-2,), w_r=1e-4,
                          marker_counts=(20,), replicates=2,
                          methods=("true-w", "plug-in", "profile", "integrate-mc",
                                   "integrate-quad"),
                          priors=(PRIOR_SPEC,), mc_samples=50)
        records = run_woe_study(cfg)
        assert {rec.woe for rec in records} == {0.0}
        for row in compute_ece_by_cell(records):
            assert row.n_wrong == row.n_h1 + row.n_h2 == 4


class TestPaperScaleCell:
    def test_true_w_h1_mean_at_m50(self):
        # m=50, q=0.75, w_t=1e-4: the H1 mean WoE under the true-w method
        # sits near 18.7 with every replicate positive
        cfg = StudyConfig(q_values=(0.75,), w_t_values=(1e-4,), w_r=1e-4,
                          marker_counts=(50,), replicates=300,
                          methods=("true-w",), master_seed=99)
        records = [r for r in run_woe_study(cfg) if r.hypothesis == "H1"]
        woes = np.asarray([r.woe for r in records])
        assert abs(woes.mean() - 18.7) <= 0.05 * 18.7
        assert np.all(woes > 0.0)


class TestOverdispersionStudy:
    def test_run_and_summary(self):
        cfg = OverdispersionConfig(
            q_values=(0.9,),
            priors=(PriorSpec("var5e-5", ScaledBeta.from_moments(1e-2, 5e-5)),),
            table_sizes=(500, 2000),
            replicates=8,
            master_seed=31,
        )
        records = run_overdispersion_study(cfg)
        assert len(records) == 16
        again = run_overdispersion_study(cfg)
        assert records == again
        rows = summarize_overdispersion(records)
        assert [(r.n_sites, r.n) for r in rows] == [(500, 8), (2000, 8)]
        for row in rows:
            assert 0.004 <= row.mean_w_hat <= 0.02
            assert row.sd_w_hat > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OverdispersionConfig(q_values=(0.9,), priors=(),
                                 table_sizes=(100,), replicates=1)
        with pytest.raises(ValueError):
            OverdispersionConfig(
                q_values=(0.9,),
                priors=(PriorSpec("p", ScaledBeta(1.0, 1.0)),),
                table_sizes=(0,), replicates=1)
