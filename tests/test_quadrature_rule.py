"""The composite Gauss-Kronrod rule of ``integrate-quad`` and its adaptive
refinement against a 30-digit ``mpmath.quad`` reference
(``mpmath_reference``), row by row.

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
from snpwoe.evidence import CaseData
from snpwoe.genotypes import hwe_priors
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.unknown_w import (
    _QUAD_NODES,
    _QUAD_WEIGHTS,
    _W_FLOOR,
    _WG,
    _WGK,
    _XGK,
    _gk21_rows,
    _log10_integrand,
    _polyval_rows,
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
    assert math.isclose(_QUAD_WEIGHTS.sum(), 1.0, rel_tol=1e-15)
    assert np.all((_QUAD_NODES > 0.0) & (_QUAD_NODES < 1.0))


@pytest.mark.parametrize("prior,input_error", PRIORS, ids=PRIOR_IDS)
def test_rows_match_mpmath(prior, input_error):
    ref = reference(prior)
    w = np.maximum(prior.quantile(_QUAD_NODES), _W_FLOOR)
    for w_r, case in CASES.items():
        kernel = case.kernel(w_r)
        rows = np.concatenate((kernel.c_h1, kernel.c_t))
        values, errors = _gk21_rows(rows, w)
        for row, got, reported in zip(rows.tolist(), values.tolist(), errors.tolist()):
            want, ref_error = ref.mean_log10(row)
            assert ref_error <= 1e-11
            true_error = abs(got - want)
            assert true_error <= TOL, (w_r, row)
            assert true_error <= reported + input_error, (w_r, row, got, want, reported)
        # At the default tol every row stays on the rule.
        result = woe_integrate_quad(case, prior, w_r)
        assert result.quad_fallbacks == 0
        assert result.quad_abserr == errors.max()
        assert abs(result.woe - ref.woe(case, w_r)) <= TOL * len(rows)


@pytest.mark.parametrize("prior,input_error", PRIORS, ids=PRIOR_IDS)
def test_tight_tolerance_refines_within_tol(prior, input_error):
    """At tol = 1e-10 the rows whose rule estimate exceeds tol/2 are refined;
    each refined row is within tol of the reference and within its reported
    error, and no case raises."""
    ref = reference(prior)
    w = np.maximum(prior.quantile(_QUAD_NODES), _W_FLOOR)
    for w_r, case in CASES.items():
        kernel = case.kernel(w_r)
        rows = np.concatenate((kernel.c_h1, kernel.c_t))
        _, errors = _gk21_rows(rows, w)
        flagged = rows[errors > 0.5 * TOL]
        if len(flagged):
            f0 = np.log10(_polyval_rows(flagged, w))
            values, reported = quad(_log10_integrand(flagged, prior), f0, TOL)
            assert reported.max() <= TOL
            for row, got, bound in zip(flagged.tolist(), values.tolist(), reported.tolist()):
                true_error = abs(got - ref.mean_log10(row)[0])
                assert true_error <= min(TOL, bound + input_error), (w_r, row, got, bound)
        result = woe_integrate_quad(case, prior, w_r, tol=TOL)
        assert result.quad_fallbacks == len(flagged)
        assert result.quad_abserr <= TOL
        assert abs(result.woe - ref.woe(case, w_r)) <= TOL * len(rows)


def test_sharp_transition_row_is_refined_within_tol():
    """The H2 row of a trace heterozygote at q = 1 - 1e-12 is about
    (2e-12, 2, -2): its integrand turns from log-linear to flat near
    w = 1e-12. At tol = 1e-10 it is refined to within tol of the reference."""
    prior = ScaledBeta(0.6, 2.4)
    case = CaseData.from_arrays([1], [0], [hwe_priors(1.0 - 1e-12).as_array()])
    kernel = case.kernel(0.0)
    assert np.allclose(kernel.c_t, [[2e-12, 2.0, -2.0]], rtol=1e-3)
    ref = reference(prior)
    result = woe_integrate_quad(case, prior, 0.0, tol=TOL)
    assert result.quad_fallbacks >= 1
    assert result.quad_abserr <= TOL
    assert abs(result.woe - ref.woe(case, 0.0)) <= TOL
