"""The composite Gauss-Kronrod rule of ``integrate-quad`` against a 30-digit
``mpmath.quad`` reference (``mpmath_reference``), row by row.

Rows are every observed pair at HWE priors with q in {0.05, 0.5, 0.9,
1 - 1e-7} and at the explicit zero priors, for w_r in {0, 1e-5, 1e-4}; the
priors on w_t are the published table, Beta(1, 1), Beta(0.5, 0.5) and the
near-point-mass priors of acceptance criterion 8. The reference takes
about 3 s per prior.
"""

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


@pytest.mark.parametrize("prior,input_error", PRIORS,
                         ids=[f"{p.alpha:.4g},{p.beta:.4g}" for p, _ in PRIORS])
def test_rows_match_mpmath(prior, input_error):
    ref = PriorReference(prior)
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
