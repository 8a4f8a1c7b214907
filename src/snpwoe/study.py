"""Seeded simulation studies comparing the unknown-``w_t`` methods.

Two studies are provided. The first genotypes synthetic duplicate pairs
whose per-site error probability varies (overdispersion relative to the
constant-``w`` model) and checks what a single-``w`` MLE recovers. The
second simulates full cases under both hypotheses across a grid of marker
counts, allele frequencies and true trace error probabilities, evaluates a
chosen set of WoE methods on every case, and summarizes the resulting WoE
distributions and, per cell, calibration (empirical cross-entropy) and
sign errors.

Reproducibility: every random quantity comes from a substream derived from
``master_seed`` and a structural key (cell index, replicate, stream role),
so results are independent of evaluation order and identical across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import PairCountTable, estimate_w_mle
from .evidence import CaseData
from .genotypes import (
    GenotypePriors,
    hwe_priors,
    validate_allele_freq,
    validate_error_prob,
    validate_integer,
    validate_positive,
)
from .scaled_beta import ScaledBeta
from .unknown_w import (
    METHOD_INTEGRATE_MC,
    METHOD_INTEGRATE_QUAD,
    METHOD_PLUGIN,
    METHOD_PROFILE,
    METHODS,
    WoEResult,
    validate_profile_interval,
    woe_integrate_mc,
    woe_integrate_quad,
    woe_known_result,
    woe_plugin,
    woe_profile,
)

__all__ = [
    "METHOD_TRUE_W",
    "STUDY_METHODS",
    "HYPOTHESES",
    "StudyError",
    "PriorSpec",
    "StudyConfig",
    "StudyRecord",
    "SummaryRow",
    "OverdispersionConfig",
    "OverdispersionRecord",
    "OverdispersionSummaryRow",
    "simulate_case",
    "simulate_overdispersed_table",
    "run_woe_study",
    "run_overdispersion_study",
    "summarize_records",
    "summarize_overdispersion",
    "compute_ece",
    "EceRow",
    "compute_ece_by_cell",
]

METHOD_TRUE_W = "true-w"
STUDY_METHODS = (METHOD_TRUE_W, *METHODS[1:])
_INTEGRATION_METHODS = (METHOD_INTEGRATE_MC, METHOD_INTEGRATE_QUAD)
HYPOTHESES = ("H1", "H2")

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)


class StudyError(RuntimeError):
    """A method evaluation failed inside a study; carries the grid cell."""


@dataclass(frozen=True)
class PriorSpec:
    """A named prior on the trace error probability."""

    prior_id: str
    dist: ScaledBeta

    def __post_init__(self) -> None:
        if not isinstance(self.prior_id, str) or not self.prior_id:
            raise ValueError("prior_id must be a nonempty string")
        if not isinstance(self.dist, ScaledBeta):
            raise TypeError(f"dist must be ScaledBeta, got {type(self.dist).__name__}")


def _one_of(value, name: str, allowed: tuple):
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def _checked_tuple(values, name: str, check, *args) -> tuple:
    """``values`` as a nonempty tuple of distinct values, element ``i``
    passed through ``check(value, f"{name}[{i}]", *args)``."""
    out = tuple(check(v, f"{name}[{i}]", *args) for i, v in enumerate(values))
    if not out:
        raise ValueError(f"{name} must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError(f"{name} must be distinct")
    return out


def _set_shared_fields(config) -> None:
    """Check and normalize the fields both study configs have: ``q_values``,
    ``priors``, ``replicates`` and ``master_seed``."""
    q_values = _checked_tuple(config.q_values, "q_values", validate_allele_freq)
    priors = tuple(config.priors)
    for spec in priors:
        if not isinstance(spec, PriorSpec):
            raise TypeError(f"priors entries must be PriorSpec, got {type(spec).__name__}")
    if len({spec.prior_id for spec in priors}) != len(priors):
        raise ValueError("prior ids must be unique")
    object.__setattr__(config, "q_values", q_values)
    object.__setattr__(config, "priors", priors)
    object.__setattr__(config, "replicates", validate_integer(config.replicates, "replicates", 1))
    object.__setattr__(config, "master_seed", validate_integer(config.master_seed, "master_seed", 0))


@dataclass(frozen=True)
class StudyConfig:
    """Grid and method settings for the WoE comparison study."""

    q_values: tuple[float, ...]
    w_t_values: tuple[float, ...]
    w_r: float
    marker_counts: tuple[int, ...]
    replicates: int
    methods: tuple[str, ...]
    priors: tuple[PriorSpec, ...] = ()
    master_seed: int = 0
    mc_samples: int = 1000
    quad_tol: float = 1e-8
    profile_lower: float = 0.0
    profile_upper: float = 0.5

    def __post_init__(self) -> None:
        _set_shared_fields(self)
        object.__setattr__(self, "w_t_values",
                           _checked_tuple(self.w_t_values, "w_t_values", validate_error_prob))
        object.__setattr__(self, "w_r", validate_error_prob(self.w_r, "w_r"))
        object.__setattr__(self, "marker_counts",
                           _checked_tuple(self.marker_counts, "marker_counts", validate_integer, 1))
        object.__setattr__(self, "methods",
                           _checked_tuple(self.methods, "methods", _one_of, STUDY_METHODS))
        needs_priors = any(meth in _INTEGRATION_METHODS for meth in self.methods)
        if needs_priors and not self.priors:
            raise ValueError("integration methods require at least one prior")
        object.__setattr__(self, "mc_samples", validate_integer(self.mc_samples, "mc_samples", 2))
        object.__setattr__(self, "quad_tol", validate_positive(self.quad_tol, "quad_tol"))
        lo, hi = validate_profile_interval(self.profile_lower, self.profile_upper,
                                           ("profile_lower", "profile_upper"))
        object.__setattr__(self, "profile_lower", lo)
        object.__setattr__(self, "profile_upper", hi)


@dataclass(frozen=True)
class StudyRecord:
    """One method evaluation on one simulated case."""

    hypothesis: str
    method: str
    prior_id: str | None
    m: int
    q: float
    w_t_true: float
    replicate: int
    woe: float
    w_hat_h1: float | None = None
    w_hat_h2: float | None = None

    def __post_init__(self) -> None:
        _one_of(self.hypothesis, "hypothesis", HYPOTHESES)
        _one_of(self.method, "method", STUDY_METHODS)
        if math.isnan(self.woe):
            raise ValueError("WoE must not be NaN")

    def cell(self) -> tuple:
        return (self.hypothesis, self.method, self.prior_id, self.m, self.q, self.w_t_true)


@dataclass(frozen=True)
class SummaryRow:
    """WoE distribution summary for one (cell, method, prior) combination."""

    hypothesis: str
    method: str
    prior_id: str | None
    m: int
    q: float
    w_t_true: float
    n: int
    mean_woe: float
    min_woe: float
    max_woe: float
    n_woe_positive: int
    n_woe_negative: int


def _substream(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def _draw_dosages(priors: GenotypePriors, n: int, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(priors.as_array())
    z = np.searchsorted(cum, rng.random(n), side="right")
    return np.minimum(z, 2)


def _observe(z: np.ndarray, w, rng: np.random.Generator) -> np.ndarray:
    """Read dosages through the error channel: each of the two allele calls
    flips independently with probability ``w`` (scalar or per-site)."""
    flip1 = rng.random(z.size) < w
    flip2 = rng.random(z.size) < w
    allele1 = z >= 1
    allele2 = z == 2
    return (allele1 ^ flip1).astype(np.int64) + (allele2 ^ flip2).astype(np.int64)


def simulate_case(hypothesis: str, m: int, priors: GenotypePriors, w_t: float,
                  w_r: float, rng: np.random.Generator) -> CaseData:
    """Simulate one case of ``m`` markers sharing one genotype prior.

    Fixed draw order: trace-donor genotypes, then (under H2 only) the
    reference donor's genotypes, then the trace flip indicators, then the
    reference flip indicators. Under H1 both observations descend from the
    trace donor's genotypes.
    """
    _one_of(hypothesis, "hypothesis", HYPOTHESES)
    m = validate_integer(m, "m", 1)
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    z_t = _draw_dosages(priors, m, rng)
    z_r = z_t if hypothesis == "H1" else _draw_dosages(priors, m, rng)
    x_t = _observe(z_t, w_t, rng)
    x_r = _observe(z_r, w_r, rng)
    return CaseData.from_arrays(x_t, x_r, np.broadcast_to(priors.as_array(), (m, 3)))


def simulate_overdispersed_table(n_sites: int, prior: ScaledBeta,
                                 priors: GenotypePriors,
                                 rng: np.random.Generator) -> PairCountTable:
    """Duplicate-pair counts where each site has its own error probability.

    Per site: one error probability from ``prior``, one latent genotype,
    then two independent reads at that site's error probability. The
    constant-``w`` likelihood is thus misspecified for these counts, which
    is the point of the study. Draw order: error probabilities, genotypes,
    first-read flips, second-read flips.
    """
    n_sites = validate_integer(n_sites, "n_sites", 1)
    w = prior.sample(rng, n_sites)
    z = _draw_dosages(priors, n_sites, rng)
    x1 = _observe(z, w, rng)
    x2 = _observe(z, w, rng)
    counts = np.zeros((3, 3), dtype=np.int64)
    np.add.at(counts, (x1, x2), 1)
    return PairCountTable(counts, priors)


def _evaluate_method(method: str, case: CaseData, spec: PriorSpec | None,
                     config: StudyConfig, w_t_true: float, stream: tuple) -> WoEResult:
    """``method`` on ``case``; MC draws from the substream keyed ``stream``."""
    if method == METHOD_TRUE_W:
        return woe_known_result(case, w_t_true, config.w_r)
    if method == METHOD_PLUGIN:
        return woe_plugin(case, config.w_r)
    if method == METHOD_PROFILE:
        return woe_profile(case, config.w_r, config.profile_lower, config.profile_upper)
    if method == METHOD_INTEGRATE_MC:
        return woe_integrate_mc(case, spec.dist, config.w_r,
                                _substream(config.master_seed, *stream), config.mc_samples)
    if method == METHOD_INTEGRATE_QUAD:
        return woe_integrate_quad(case, spec.dist, config.w_r, config.quad_tol)
    raise ValueError(f"unknown method {method!r}")


def run_woe_study(config: StudyConfig, progress=None) -> list[StudyRecord]:
    """Run the full WoE comparison grid and return one record per
    (cell, replicate, hypothesis, method, prior) evaluation.

    ``progress``, if given, is called as ``progress(done, total)`` after
    each simulated case pair, with counts of grid-cell replicates.
    """
    cells = list(itertools.product(config.marker_counts, config.q_values,
                                   config.w_t_values))
    total = len(cells) * config.replicates
    records: list[StudyRecord] = []
    for cell_index, (m, q, w_t_true) in enumerate(cells):
        priors = hwe_priors(q)
        for rep in range(config.replicates):
            for hyp_index, hypothesis in enumerate(HYPOTHESES):
                case = simulate_case(hypothesis, m, priors, w_t_true, config.w_r,
                                     _substream(config.master_seed, cell_index, rep, hyp_index))
                for method in config.methods:
                    specs = config.priors if method in _INTEGRATION_METHODS else (None,)
                    for prior_index, spec in enumerate(specs):
                        stream = (cell_index, rep, 2 + 2 * prior_index + hyp_index)
                        try:
                            result = _evaluate_method(method, case, spec, config,
                                                      w_t_true, stream)
                        except Exception as exc:
                            raise StudyError(
                                f"method {method!r} failed at m={m}, q={q!r}, "
                                f"w_t={w_t_true!r}, replicate {rep}, {hypothesis}: {exc}"
                            ) from exc
                        records.append(StudyRecord(
                            hypothesis=hypothesis,
                            method=method,
                            prior_id=None if spec is None else spec.prior_id,
                            m=m,
                            q=q,
                            w_t_true=w_t_true,
                            replicate=rep,
                            woe=result.woe,
                            w_hat_h1=result.w_hat_h1,
                            w_hat_h2=result.w_hat_h2,
                        ))
            if progress is not None:
                progress(cell_index * config.replicates + rep + 1, total)
    return records


def summarize_records(records) -> list[SummaryRow]:
    """Per-cell WoE distribution summaries, cells in first-appearance order.

    A mean over values containing ``-inf`` is ``-inf``; this is the honest
    summary of a cell containing a hard exclusion.
    """
    grouped: dict[tuple, list[float]] = {}
    for rec in records:
        grouped.setdefault(rec.cell(), []).append(rec.woe)
    rows = []
    for (hypothesis, method, prior_id, m, q, w_t_true), woes in grouped.items():
        arr = np.asarray(woes)
        rows.append(SummaryRow(
            hypothesis=hypothesis, method=method, prior_id=prior_id,
            m=m, q=q, w_t_true=w_t_true, n=len(woes),
            mean_woe=float(arr.mean()), min_woe=float(arr.min()),
            max_woe=float(arr.max()),
            n_woe_positive=int(np.sum(arr > 0.0)),
            n_woe_negative=int(np.sum(arr < 0.0)),
        ))
    return rows


def compute_ece(woe_h1, woe_h2) -> float:
    """Empirical cross-entropy (bits) of reported WoE values at prior odds 1.

    ``0.5 * mean(log2(1 + 10**-woe))`` over the H1 values plus
    ``0.5 * mean(log2(1 + 10**woe))`` over the H2 values. Computed through
    ``logaddexp`` so extreme WoE magnitudes neither overflow nor lose the
    penalty of a wrong-signed value; a ``-inf`` WoE under H1 (a false
    exclusion) makes the ECE infinite.
    """
    h1 = np.asarray(woe_h1, dtype=float)
    h2 = np.asarray(woe_h2, dtype=float)
    if h1.size == 0 or h2.size == 0:
        raise ValueError("ECE needs at least one WoE value under each hypothesis")
    if np.any(np.isnan(h1)) or np.any(np.isnan(h2)):
        raise ValueError("WoE values must not be NaN")
    loss_h1 = np.logaddexp(0.0, -h1 * _LN10) / _LN2
    loss_h2 = np.logaddexp(0.0, h2 * _LN10) / _LN2
    return float(0.5 * loss_h1.mean() + 0.5 * loss_h2.mean())


@dataclass(frozen=True)
class EceRow:
    """Calibration and sign errors of one method/prior in one grid cell,
    both hypotheses pooled.

    A sign error is a nonpositive WoE under H1 or a nonnegative WoE under
    H2; an exact zero supports neither hypothesis and is wrong under both.
    ``fraction_wrong`` is ``n_wrong / (n_h1 + n_h2)``.
    """

    method: str
    prior_id: str | None
    m: int
    q: float
    w_t_true: float
    n_h1: int
    n_h2: int
    ece: float
    n_wrong: int
    fraction_wrong: float


def compute_ece_by_cell(records) -> list[EceRow]:
    """Empirical cross-entropy and sign errors per (method, prior, grid cell).

    Every cell must contain records under both hypotheses; a one-sided
    cell has no calibration to measure and raises ``ValueError`` naming it.
    """
    grouped: dict[tuple, tuple[list[float], list[float]]] = {}
    for rec in records:
        key = (rec.method, rec.prior_id, rec.m, rec.q, rec.w_t_true)
        pair = grouped.setdefault(key, ([], []))
        pair[0 if rec.hypothesis == "H1" else 1].append(rec.woe)
    rows = []
    for (method, prior_id, m, q, w_t_true), (h1, h2) in grouped.items():
        if not h1 or not h2:
            missing = "H1" if not h1 else "H2"
            raise ValueError(
                f"cell method={method!r} prior={prior_id!r} m={m} q={q!r} "
                f"w_t={w_t_true!r} has no {missing} records; ECE undefined"
            )
        n_wrong = sum(w <= 0.0 for w in h1) + sum(w >= 0.0 for w in h2)
        rows.append(EceRow(
            method=method, prior_id=prior_id, m=m, q=q, w_t_true=w_t_true,
            n_h1=len(h1), n_h2=len(h2), ece=compute_ece(h1, h2),
            n_wrong=n_wrong, fraction_wrong=n_wrong / (len(h1) + len(h2)),
        ))
    return rows


@dataclass(frozen=True)
class OverdispersionConfig:
    """Grid for the varying-``w`` duplicate-pair estimation study."""

    q_values: tuple[float, ...]
    priors: tuple[PriorSpec, ...]
    table_sizes: tuple[int, ...]
    replicates: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        _set_shared_fields(self)
        if not self.priors:
            raise ValueError("priors must be nonempty")
        object.__setattr__(self, "table_sizes",
                           _checked_tuple(self.table_sizes, "table_sizes", validate_integer, 1))


@dataclass(frozen=True)
class OverdispersionRecord:
    """One MLE from one simulated overdispersed pair-count table."""

    q: float
    prior_id: str
    n_sites: int
    replicate: int
    w_hat: float
    at_boundary: bool


@dataclass(frozen=True)
class OverdispersionSummaryRow:
    q: float
    prior_id: str
    n_sites: int
    n: int
    mean_w_hat: float
    sd_w_hat: float
    n_at_boundary: int


def run_overdispersion_study(config: OverdispersionConfig) -> list[OverdispersionRecord]:
    """Estimate a constant ``w`` from overdispersed duplicate tables across
    the configured grid; one record per (cell, replicate)."""
    cells = list(itertools.product(config.q_values, config.priors,
                                   config.table_sizes))
    records: list[OverdispersionRecord] = []
    for cell_index, (q, spec, n_sites) in enumerate(cells):
        priors = hwe_priors(q)
        for rep in range(config.replicates):
            rng = _substream(config.master_seed, cell_index, rep)
            table = simulate_overdispersed_table(n_sites, spec.dist, priors, rng)
            try:
                est = estimate_w_mle(table)
            except Exception as exc:
                raise StudyError(
                    f"estimation failed at q={q!r}, prior {spec.prior_id!r}, "
                    f"n_sites={n_sites}, replicate {rep}: {exc}"
                ) from exc
            records.append(OverdispersionRecord(
                q=q, prior_id=spec.prior_id, n_sites=n_sites, replicate=rep,
                w_hat=est.w, at_boundary=est.at_boundary,
            ))
    return records


def summarize_overdispersion(records) -> list[OverdispersionSummaryRow]:
    """Mean and spread of the estimates per cell, first-appearance order."""
    grouped: dict[tuple, list[OverdispersionRecord]] = {}
    for rec in records:
        grouped.setdefault((rec.q, rec.prior_id, rec.n_sites), []).append(rec)
    rows = []
    for (q, prior_id, n_sites), recs in grouped.items():
        w = np.asarray([r.w_hat for r in recs])
        sd = float(w.std(ddof=1)) if w.size > 1 else 0.0
        rows.append(OverdispersionSummaryRow(
            q=q, prior_id=prior_id, n_sites=n_sites, n=w.size,
            mean_w_hat=float(w.mean()), sd_w_hat=sd,
            n_at_boundary=sum(r.at_boundary for r in recs),
        ))
    return rows
