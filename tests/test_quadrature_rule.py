"""The composite Gauss-Kronrod rule of ``integrate-quad`` and its adaptive
refinement against a 30-digit ``mpmath.quad`` reference
(``mpmath_reference``), row by row: on each hypothesis's rows and on the
log10 LR rows that ``integrate-quad`` integrates.

Rows are every observed pair at HWE priors with q in {0.05, 0.5, 0.9,
1 - 1e-7} and at the explicit zero priors, for w_r in {0, 1e-5, 1e-4}; the
priors on w_t are the published table, Beta(1, 1), Beta(0.5, 0.5) and the
near-point-mass priors of acceptance criterion 8. The reference takes
about 3 s per prior and is kept per prior for the module.
"""

import dataclasses
import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest

from conftest import digests_under_blas_threads
from mpmath_reference import PriorReference
from snpwoe import unknown_w
from snpwoe.evidence import CaseData, CaseKernel, _log_rows
from snpwoe.genotypes import hwe_prior_array, hwe_priors
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.unknown_w import (
    _PANEL_HALF,
    _QUAD_BLOCK,
    _QUAD_NODES,
    _WG,
    _WGK,
    _WK21,
    _XGK,
    _W_FLOOR,
    _integrand,
    _node_powers,
    quad,
    woe_integrate_quad,
)
from test_kernel_oracle import ZERO_PRIORS
from test_scaled_beta import PRIOR_TABLE

TOL = 1e-10
# (prior, error allowed on top of the reported error). The double-precision
# quantiles of the near-point-mass priors (shapes near 1e8) are smooth only
# to about 1e-13 relative between panels; the rule cannot see that input
# error, and the reference integrates it at other nodes.
PRIORS = ([(ScaledBeta.from_moments(mu, var), 0.0) for mu, var, *_ in PRIOR_TABLE]
          + [(ScaledBeta(1.0, 1.0), 0.0), (ScaledBeta(0.5, 0.5), 0.0)]
          + [(ScaledBeta.from_moments(w0, w0 * w0 * 1e-8), 2e-13) for w0 in (1e-4, 1e-3, 1e-2)])
# An LR row's integrand is one rounded log10 of a ratio of two rounded
# products; its reported error covers that rounding, a constant number of
# eps, so it gets no allowance on top.
GENOTYPE_PRIORS = [hwe_priors(q) for q in (0.05, 0.5, 0.9, 1.0 - 1e-7)] + list(ZERO_PRIORS)
W_R = (0.0, 1e-5, 1e-4)


def all_pairs_case(w_r):
    """Every (x_t, x_r) pair under every genotype prior that H2 allows at
    ``w_r``, one marker each."""
    x_t, x_r = np.divmod(np.arange(9), 3)
    priors = np.array([p.as_array() for p in GENOTYPE_PRIORS])
    case = CaseData.from_arrays(np.tile(x_t, len(priors)), np.tile(x_r, len(priors)),
                                np.repeat(priors, 9, axis=0))
    kernel = case.kernel(w_r)
    keep = np.isfinite(kernel.log10_mr)[kernel.inverse]
    return CaseData.from_arrays(case.x_t[keep], case.x_r[keep], case.priors[keep])


CASES = {w_r: all_pairs_case(w_r) for w_r in W_R}
PRIOR_IDS = [f"{p.alpha:.4g},{p.beta:.4g}" for p, _ in PRIORS]


@functools.cache
def reference(prior):
    return PriorReference(prior)


def refine(blocks, k, tol):
    """``quad`` on ``k`` rows a block at a time as ``integrate-quad`` takes
    them, ``blocks(start)`` giving a block's integrand and its values at the
    rule's nodes: values, error estimates and the number of rows over
    ``tol / 2`` at level 0; ``tol = inf`` stops at level 0, the composite
    rule itself."""
    values, errors, flagged = zip(*(quad(*blocks(start), tol) for start in range(0, k, _QUAD_BLOCK)))
    return np.concatenate(values), np.concatenate(errors), sum(flagged)


def log10_blocks(coeffs, prior):
    """The blocks of the per-row ``log10(coeffs[rows] @ (1, w, w**2))``."""
    def block(start):
        def f(v, rows):
            return _log_rows(coeffs[rows + start], np.maximum(prior.quantile(v), _W_FLOOR))
        return f, _log_rows(coeffs[start:start + _QUAD_BLOCK], _node_powers(prior)[1])
    return block


def lr_blocks(kernel, prior):
    """The blocks of the kernel's log10 LR rows, evaluated as
    ``integrate-quad`` evaluates them."""
    powers = _node_powers(prior)
    out = np.empty((2 * _QUAD_BLOCK, powers.shape[1]))
    return lambda start: (_integrand(kernel, prior, start, out),
                          kernel.log10_ratio(powers, slice(start, start + _QUAD_BLOCK), out))


def mc_node_terms(kernel, prior):
    """Monte Carlo's LR values, recorded as ``_mc_sums`` evaluates them a
    block of rows at a time, at 1000 draws set to the prior's quantiles at
    the rule's nodes (every node, then the first 13 again); and each draw's
    node."""
    index = np.arange(1000) % len(_QUAD_NODES)
    terms, log10_ratio = [], CaseKernel.log10_ratio

    def recorded(self, *args, **kwargs):
        term = log10_ratio(self, *args, **kwargs)
        terms.append(term.copy())
        return term

    with mock.patch.object(CaseKernel, "log10_ratio", recorded):
        unknown_w._mc_sums(kernel, prior.quantile(_QUAD_NODES)[index])
    assert {len(t) for t in terms[:-1]} <= {16}   # 16 rows a block at 1000 draws
    return np.concatenate(terms), index


def row_terms(kernel, ref, input_error):
    """(blocks of chosen rows under a prior, reference integrals, input
    errors) for the kernel's H1 and H2 rows, one integral per row, and for
    its log10 LR rows."""
    rows = np.concatenate((kernel.c_h1, kernel.c_t))
    pairs = zip(kernel.c_h1.tolist(), kernel.c_t.tolist())
    refs = [ref.mean_log10(row) for row in rows.tolist()], [ref.mean_log10_lr(*p) for p in pairs]
    want = []
    for values in refs:
        assert max(error for _, error in values) <= 1e-11
        want.append(np.array([value for value, _ in values]))

    def lr(chosen, prior):
        return lr_blocks(dataclasses.replace(kernel, c_h1=kernel.c_h1[chosen],
                                             c_t=kernel.c_t[chosen]), prior)
    return ((lambda chosen, prior: log10_blocks(rows[chosen], prior), want[0],
             np.full(len(rows), input_error)),
            (lr, want[1], np.full(len(kernel.c_h1), input_error)))


def check_level_zero(blocks, want, input_error, prior, w_r):
    """Each row's rule value is within TOL of the reference and within its
    reported error plus its input error; returns the reported errors."""
    values, errors, _ = refine(blocks(slice(None), prior), len(want), math.inf)
    for i, (got, reported) in enumerate(zip(values.tolist(), errors.tolist())):
        true_error = abs(got - want[i])
        assert true_error <= TOL, (w_r, i)
        assert true_error <= reported + input_error[i], (w_r, i, got, want[i], reported)
    return errors


def check_refined(blocks, want, input_error, prior, w_r):
    """The rows whose rule estimate exceeds TOL/2, refined at tol = TOL, are
    each within TOL of the reference and within their reported error;
    returns their number."""
    _, errors, _ = refine(blocks(slice(None), prior), len(want), math.inf)
    flagged = np.flatnonzero(errors > 0.5 * TOL)
    if len(flagged):
        values, reported, _ = refine(blocks(flagged, prior), len(flagged), TOL)
        assert reported.max() <= TOL
        for i, got, bound in zip(flagged.tolist(), values.tolist(), reported.tolist()):
            true_error = abs(got - want[i])
            assert true_error <= min(TOL, bound + input_error[i]), (w_r, i, got, bound)
    return len(flagged)


def test_constants_are_exact_for_polynomials():
    """K21 integrates degree 31 and G10 degree 19 exactly on [-1, 1]."""
    x = np.array([-v for v in _XGK[:-1]] + list(_XGK[::-1]))
    wk = np.array(_WGK[:-1] + _WGK[::-1])
    gauss = x[1:20:2]
    wg = np.array(_WG + _WG[::-1])
    for degree in range(32):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert math.isclose(wk @ x**degree, exact, abs_tol=1e-15)
        if degree < 20:
            assert math.isclose(wg @ gauss**degree, exact, abs_tol=1e-15)
    assert math.isclose(_PANEL_HALF.sum() * _WK21.sum(), 1.0, rel_tol=1e-15)
    assert np.all((_QUAD_NODES > 0.0) & (_QUAD_NODES < 1.0))


@pytest.mark.parametrize("prior,input_error", PRIORS, ids=PRIOR_IDS)
def test_rows_match_mpmath(prior, input_error):
    ref = reference(prior)
    for w_r, case in CASES.items():
        kernel = case.kernel(w_r)
        hypotheses, lr = row_terms(kernel, ref, input_error)
        check_level_zero(*hypotheses, prior, w_r)
        errors = check_level_zero(*lr, prior, w_r)
        # At the default tol every LR row stays on the rule.
        result = woe_integrate_quad(case, prior, w_r)
        assert result.quad_fallbacks == 0
        assert result.quad_abserr == errors.max()
        assert abs(result.woe - ref.woe(case, w_r)) <= TOL * case.m


@pytest.mark.parametrize("prior,input_error", PRIORS, ids=PRIOR_IDS)
def test_tight_tolerance_refines_within_tol(prior, input_error):
    """At tol = 1e-10 the rows whose rule estimate exceeds tol/2 are refined;
    each refined row is within tol of the reference and within its reported
    error, and no case raises."""
    ref = reference(prior)
    for w_r, case in CASES.items():
        kernel = case.kernel(w_r)
        hypotheses, lr = row_terms(kernel, ref, input_error)
        check_refined(*hypotheses, prior, w_r)
        flagged = check_refined(*lr, prior, w_r)
        result = woe_integrate_quad(case, prior, w_r, tol=TOL)
        assert result.quad_fallbacks == flagged
        assert result.quad_abserr <= TOL
        assert abs(result.woe - ref.woe(case, w_r)) <= TOL * case.m


def test_sharp_transition_row_is_refined_within_tol():
    """The H2 row of a trace heterozygote at q = 1 - 1e-12 is about
    (2e-12, 2, -2): its integrand turns from log-linear to flat near
    w = 1e-12. At tol = 1e-10 it is refined to within tol of the reference.
    The H1 row turns alike, so the marker's LR row is smooth and stays on
    the rule."""
    prior = ScaledBeta(0.6, 2.4)
    case = CaseData.from_arrays([1], [0], [hwe_priors(1.0 - 1e-12).as_array()])
    kernel = case.kernel(0.0)
    assert np.allclose(kernel.c_t, [[2e-12, 2.0, -2.0]], rtol=1e-3)
    ref = reference(prior)
    values, errors, flagged = refine(log10_blocks(kernel.c_t, prior), 1, TOL)
    assert flagged == 1
    assert errors[0] <= TOL
    assert abs(values[0] - ref.mean_log10(kernel.c_t[0])[0]) <= TOL
    result = woe_integrate_quad(case, prior, 0.0, tol=TOL)
    assert result.quad_fallbacks == 0
    assert result.quad_abserr <= TOL
    assert abs(result.woe - ref.woe(case, 0.0)) <= TOL


@pytest.mark.parametrize("prior", [ScaledBeta(0.6, 2.4), ScaledBeta.from_moments(1e-3, 1e-6)],
                         ids=["0.6,2.4", "mean1e-3"])
def test_level_zero_and_children_evaluate_alike(prior):
    """A refined row sums level-0 panels, evaluated on the nodes every row
    shares, and child panels, evaluated on per-row points through the
    block's integrand; at the rule's nodes the two give the same bits, for
    each hypothesis's rows and for the LR rows, the LR rows also when the
    children's product is taken in pieces of a few points. Monte Carlo's
    LR values at draws on the nodes are the same bits too."""
    rng = np.random.default_rng(7)
    q = rng.uniform(0.05, 0.95, 60)
    case = CaseData.from_arrays(rng.integers(0, 3, 60), rng.integers(0, 3, 60),
                                hwe_prior_array(q))
    kernel = case.kernel(1e-4)
    rows = np.concatenate((kernel.c_h1, kernel.c_t))
    f, level0 = log10_blocks(rows, prior)(0)
    assert np.array_equal(f(*rule_panels(len(rows))).reshape(level0.shape), level0)
    f, level0 = lr_blocks(kernel, prior)(0)
    level0 = level0.copy()
    for f in (f, _integrand(kernel, prior, 0, np.empty((2 * _QUAD_BLOCK, 4)))):
        assert np.array_equal(f(*rule_panels(len(level0))).reshape(level0.shape), level0)
    mc, index = mc_node_terms(kernel, prior)
    assert mc.tobytes() == level0[:, index].tobytes()


def rule_panels(k):
    """The rule's level-0 panels as child panels of each of ``k`` rows:
    ``quad``'s ``(v, rows)``."""
    panels = _QUAD_NODES.reshape(-1, 21)
    return np.tile(panels, (k, 1)), np.repeat(np.arange(k), len(panels))


def digests() -> str:
    """Digests of 400 rows' level-0 LR values in their first block, their
    values through the block's integrand on the rule's panels, and their
    integrals and error estimates at tol = TOL, which refines most of them
    at w_r = 0; a block's product is large enough for BLAS to thread. Also
    of Monte Carlo's LR values at draws on the nodes, checked to be the
    first block's level-0 values there."""
    rng = np.random.default_rng(2601)
    case = CaseData.from_arrays(rng.integers(0, 3, 400), rng.integers(0, 3, 400),
                                hwe_prior_array(rng.uniform(0.05, 0.95, 400)))
    kernel = case.kernel(0.0)
    blocks = lr_blocks(kernel, ScaledBeta(0.6, 2.4))
    f, level0 = blocks(0)
    level0 = level0.copy()
    children = f(*rule_panels(len(level0)))
    values, errors, flagged = refine(blocks, len(kernel.counts), TOL)
    assert flagged > 100
    mc, index = mc_node_terms(kernel, ScaledBeta(0.6, 2.4))
    assert mc[:len(level0)].tobytes() == level0[:, index].tobytes()
    return " ".join(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (level0, children, values, errors, mc))


def test_refined_rows_do_not_depend_on_blas_threads():
    """The same level-0 values, child values and refined integrals in fresh
    interpreters with one and two OpenBLAS threads, and in this one."""
    seen = digests_under_blas_threads("test_quadrature_rule")
    assert seen["1"] == seen["2"] == digests()
