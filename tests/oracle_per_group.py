"""Frozen reference: the per-prior-group likelihood paths that the case
kernel replaced.

Each function contracts the spec-level ``joint_table_h1``/``joint_table_h2``
tables separately per group of markers sharing a priors object, exactly as
the library did before the kernel; it reads a case as marker records
rebuilt from the case's columns. The differential tests in
``test_kernel_oracle.py`` hold the kernel to these results. Do not
optimise this file; its value is that it stays the old arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from snpwoe.estimation import WEstimate
from snpwoe.evidence import (
    CaseData,
    DegenerateCaseError,
    MarkerObservation,
    joint_table_h1,
    joint_table_h2,
    trace_marginal,
)
from snpwoe.genotypes import GenotypePriors, validate_error_prob
from snpwoe.unknown_w import QuadratureError

_HALF_OPEN_MARGIN = 1e-12
_W_FLOOR = 1e-120
_W_UPPER = 0.5 - 1e-12


def maximize_on_interval(fn, lower, upper):
    """The library's maximizer before Newton refinement: a 65-point grid,
    then a bounded Brent search (``xatol`` 1e-11) around every local
    maximum of the grid, keeping the best point found."""
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower!r}, {upper!r}]")
    grid = np.linspace(lower, upper, 65)
    vals = np.asarray(fn(grid), dtype=float)
    if np.any(np.isnan(vals)):
        raise ValueError("objective returned NaN on the search grid")
    best_idx = int(np.argmax(vals))
    best_x = float(grid[best_idx])
    best_val = float(vals[best_idx])
    if not np.isfinite(best_val):
        return best_x, best_val

    def neg(x):
        return -float(fn(np.array([x]))[0])

    last = len(grid) - 1
    for i in range(len(grid)):
        if not np.isfinite(vals[i]):
            continue
        left_ok = i == 0 or vals[i] > vals[i - 1]
        right_ok = i == last or vals[i] >= vals[i + 1]
        if not (left_ok and right_ok):
            continue
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, last)]
        res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-11})
        cand_val = -float(res.fun)
        if cand_val > best_val:
            best_val = cand_val
            best_x = float(res.x)
    return best_x, best_val


def markers(case: CaseData) -> list[MarkerObservation]:
    """The case's markers as records, read from its columns."""
    return [MarkerObservation(a, b, GenotypePriors(*p)) for a, b, p in
            zip(case.x_t.tolist(), case.x_r.tolist(), case.priors.tolist())]


def group_counts(case: CaseData) -> list[tuple[GenotypePriors, np.ndarray]]:
    groups: dict[GenotypePriors, np.ndarray] = {}
    for mk in markers(case):
        tbl = groups.get(mk.priors)
        if tbl is None:
            tbl = np.zeros((3, 3))
            groups[mk.priors] = tbl
        tbl[mk.x_t, mk.x_r] += 1.0
    return list(groups.items())


def _counts_weighted_log10(counts, table):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0.0, counts * np.log10(table), 0.0)
    return terms.sum(axis=(-2, -1))


def _group_log10_lik(groups, w_t, w_r, table_fn):
    total = 0.0
    for priors, counts in groups:
        total = total + _counts_weighted_log10(counts, table_fn(priors, w_t, w_r))
    return total


def log10_lik_h1(case, w_t, w_r):
    w_r = validate_error_prob(w_r, "w_r")
    out = _group_log10_lik(group_counts(case), np.asarray(w_t, float), w_r, joint_table_h1)
    return float(out) if np.ndim(out) == 0 else out


def log10_lik_h2(case, w_t, w_r):
    w_r = validate_error_prob(w_r, "w_r")
    out = _group_log10_lik(group_counts(case), np.asarray(w_t, float), w_r, joint_table_h2)
    return float(out) if np.ndim(out) == 0 else out


def check_h2_support(case, w_t, w_r):
    cache = {}
    for idx, mk in enumerate(markers(case)):
        entry = cache.get(mk.priors)
        if entry is None:
            mr = trace_marginal(mk.priors, w_r)
            mt = None if w_t is None else trace_marginal(mk.priors, w_t)
            entry = (mr, mt)
            cache[mk.priors] = entry
        mr, mt = entry
        if mr[mk.x_r] == 0.0 or (mt is not None and mt[mk.x_t] == 0.0):
            raise DegenerateCaseError(
                f"marker {case.marker_label(idx)}: observed pair "
                f"({mk.x_t}, {mk.x_r}) has probability zero under H2"
            )


def woe_known(case, w_t, w_r):
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, w_t, w_r)
    parts = []
    for priors, counts in group_counts(case):
        h1 = _counts_weighted_log10(counts, joint_table_h1(priors, w_t, w_r))
        h2 = _counts_weighted_log10(counts, joint_table_h2(priors, w_t, w_r))
        parts.append(float(h1) - float(h2))
    return math.fsum(parts)


def per_marker_log10_lr(case, w_t, w_r):
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, w_t, w_r)
    cache = {}
    out = np.empty(case.m)
    for idx, mk in enumerate(markers(case)):
        tbl = cache.get(mk.priors)
        if tbl is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                tbl = np.log10(joint_table_h1(mk.priors, w_t, w_r)) - np.log10(
                    joint_table_h2(mk.priors, w_t, w_r)
                )
            cache[mk.priors] = tbl
        out[idx] = tbl[mk.x_t, mk.x_r]
    return out


def _per_marker_log10_matrix(case, draws, w_r, table_fn):
    cache = {}
    cols = []
    for mk in markers(case):
        logs = cache.get(mk.priors)
        if logs is None:
            with np.errstate(divide="ignore"):
                logs = np.log10(table_fn(mk.priors, draws, w_r))
            cache[mk.priors] = logs
        cols.append(logs[:, mk.x_t, mk.x_r])
    return np.column_stack(cols)


def woe_integrate_mc(case, prior, w_r, rng, n_samples=1000):
    """(woe, mc_std_error)."""
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, None, w_r)
    draws = prior.sample(rng, n_samples)
    l1 = _per_marker_log10_matrix(case, draws, w_r, joint_table_h1)
    l2 = _per_marker_log10_matrix(case, draws, w_r, joint_table_h2)
    diff = l1 - l2
    woe = math.fsum(diff.ravel().tolist()) / n_samples
    per_draw = diff.sum(axis=1)
    se = float(np.std(per_draw, ddof=1) / math.sqrt(n_samples))
    return woe, se


def _quad_log10_mean(integrand, tol):
    value, abserr, info, *tail = quad(integrand, 0.0, 1.0, epsabs=0.5 * tol,
                                      epsrel=0.0, limit=200, full_output=1)
    ok = not tail and abserr <= tol
    return value, abserr, ok


def woe_integrate_quad(case, prior, w_r, tol=1e-8):
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, None, w_r)
    labels = {}
    for idx, mk in enumerate(markers(case)):
        labels.setdefault((mk.priors, mk.x_t, mk.x_r),
                          case.marker_label(idx))
    total_parts = []
    failures = []
    for priors, counts in group_counts(case):
        with np.errstate(divide="ignore"):
            log_mr = np.log10(trace_marginal(priors, w_r))
        for a in range(3):
            for b in range(3):
                n_ab = counts[a, b]
                if n_ab == 0.0:
                    continue

                def h1_at(v, _a=a, _b=b, _p=priors):
                    w = max(prior.quantile(v), _W_FLOOR)
                    return math.log10(joint_table_h1(_p, w, w_r)[_a, _b])

                def h2_trace_at(v, _a=a, _p=priors):
                    w = max(prior.quantile(v), _W_FLOOR)
                    return math.log10(trace_marginal(_p, w)[_a])

                i1, err1, ok1 = _quad_log10_mean(h1_at, tol)
                i2, err2, ok2 = _quad_log10_mean(h2_trace_at, tol)
                if not (ok1 and ok2):
                    failures.append((max(err1, err2), labels[(priors, a, b)]))
                    continue
                total_parts.append(n_ab * (i1 - (i2 + float(log_mr[b]))))
    if failures:
        worst_err, worst_label = max(failures)
        raise QuadratureError(
            f"quadrature failed to reach tol={tol!r} on {len(failures)} "
            f"marker pattern(s); worst at marker {worst_label} "
            f"with abserr {worst_err!r}"
        )
    return math.fsum(total_parts)


def _group_objective(groups, w, w_r, table_fn):
    total = np.zeros(np.shape(w))
    for priors, counts in groups:
        total = total + _counts_weighted_log10(counts, table_fn(priors, w, w_r))
    return total


def woe_profile(case, w_r, lower=0.0, upper=0.5):
    """(woe, w_hat_h1, w_hat_h2)."""
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, None, w_r)
    hi = min(upper, 0.5 - _HALF_OPEN_MARGIN)
    groups = group_counts(case)
    w1, v1 = maximize_on_interval(
        lambda w: _group_objective(groups, w, w_r, joint_table_h1), lower, hi)
    w2, v2 = maximize_on_interval(
        lambda w: _group_objective(groups, w, w_r, joint_table_h2), lower, hi)
    return v1 - v2, w1, w2


def _log_lik_terms(groups, w):
    total = np.zeros(np.shape(w))
    for priors, counts in groups:
        tbl = joint_table_h1(priors, w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(counts > 0, counts * np.log(tbl), 0.0)
        total = total + terms.sum(axis=(-2, -1))
    return total


def _maximize_groups(groups):
    w_hat, value = maximize_on_interval(lambda w: _log_lik_terms(groups, w),
                                        0.0, _W_UPPER)
    return WEstimate(w_hat, value, w_hat == 0.0 or w_hat == _W_UPPER)


def estimate_w_mle(table):
    return _maximize_groups([(table.priors, np.asarray(table.counts, dtype=float))])


def estimate_w_mle_per_marker(observations):
    groups = {}
    for mk in observations:
        tbl = groups.get(mk.priors)
        if tbl is None:
            tbl = np.zeros((3, 3))
            groups[mk.priors] = tbl
        tbl[mk.x_t, mk.x_r] += 1.0
    return _maximize_groups(list(groups.items()))
