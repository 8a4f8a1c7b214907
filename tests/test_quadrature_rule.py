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

import functools
import math

import numpy as np
import pytest

from mpmath_reference import PriorReference
from snpwoe.evidence import CaseData, _log_rows
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
    _integrand,
    _node_quantiles,
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
# An LR row's integrand is the difference of two rounded log10 values; its
# reported error covers that rounding, eps * (1 + |log10 h1| + |log10 h2|)
# integrated, so it gets no allowance on top.
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


def refine(term, k, prior, tol):
    """``quad`` on the ``k`` rows of the per-row ``term(w, rows)`` (values
    and rounding bound), a block at a time as ``integrate-quad`` takes
    them: values, error estimates and the number of rows over ``tol / 2``
    at level 0; ``tol = inf`` stops at level 0, the composite rule itself."""
    w = _node_quantiles(prior)
    blocks = [quad(_integrand(term, prior, start), term(w, slice(start, start + _QUAD_BLOCK)), tol)
              for start in range(0, k, _QUAD_BLOCK)]
    values, errors, flagged = zip(*blocks)
    return np.concatenate(values), np.concatenate(errors), sum(flagged)


def log10_term(coeffs):
    """The per-row term ``log10(coeffs[rows] @ (1, w, w**2))``, with a zero
    rounding bound: its reported error gets no input-rounding floor."""
    def term(w, rows):
        values = _log_rows(coeffs[rows], w)
        return values, np.zeros_like(values)
    return term


def row_terms(kernel, ref, input_error):
    """(term, reference integrals, input errors) for the kernel's H1 and H2
    rows, one integral per row, and for its log10 LR rows."""
    rows = np.concatenate((kernel.c_h1, kernel.c_t))
    pairs = zip(kernel.c_h1.tolist(), kernel.c_t.tolist())
    refs = [ref.mean_log10(row) for row in rows.tolist()], [ref.mean_log10_lr(*p) for p in pairs]
    want = []
    for values in refs:
        assert max(error for _, error in values) <= 1e-11
        want.append(np.array([value for value, _ in values]))
    return ((log10_term(rows), want[0], np.full(len(rows), input_error)),
            (kernel.log10_lr_err, want[1], np.full(len(kernel.c_h1), input_error)))


def check_level_zero(term, want, input_error, prior, w_r):
    """Each row's rule value is within TOL of the reference and within its
    reported error plus its input error; returns the reported errors."""
    values, errors, _ = refine(term, len(want), prior, math.inf)
    for i, (got, reported) in enumerate(zip(values.tolist(), errors.tolist())):
        true_error = abs(got - want[i])
        assert true_error <= TOL, (w_r, i)
        assert true_error <= reported + input_error[i], (w_r, i, got, want[i], reported)
    return errors


def check_refined(term, want, input_error, prior, w_r):
    """The rows whose rule estimate exceeds TOL/2, refined at tol = TOL, are
    each within TOL of the reference and within their reported error;
    returns their number."""
    _, errors, _ = refine(term, len(want), prior, math.inf)
    flagged = np.flatnonzero(errors > 0.5 * TOL)
    if len(flagged):
        values, reported, _ = refine(lambda w, rows: term(w, flagged[rows]), len(flagged),
                                     prior, TOL)
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
    values, errors, flagged = refine(log10_term(kernel.c_t), 1, prior, TOL)
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
    shares, and child panels, evaluated on per-row points through
    ``_integrand``; at the rule's nodes the two give the same bits, for each
    hypothesis's rows and for the LR rows."""
    rng = np.random.default_rng(7)
    q = rng.uniform(0.05, 0.95, 60)
    case = CaseData.from_arrays(rng.integers(0, 3, 60), rng.integers(0, 3, 60),
                                hwe_prior_array(q))
    kernel = case.kernel(1e-4)
    rows = np.concatenate((kernel.c_h1, kernel.c_t))
    w = _node_quantiles(prior)
    panels = _QUAD_NODES.reshape(-1, 21)
    for term, k in ((log10_term(rows), len(rows)),
                    (kernel.log10_lr_err, len(kernel.c_h1))):
        level0 = term(w, slice(None))
        children = _integrand(term, prior, 0)(np.tile(panels, (k, 1)),
                                              np.repeat(np.arange(k), len(panels)))
        for child, parent in zip(children, level0):
            assert np.array_equal(child.reshape(parent.shape), parent)
