"""30-digit reference for the prior-CDF integrals of ``integrate-quad``.

:class:`PriorReference` gives ``E_prior[log10(c0 + w*(c1 + w*c2))]``, written
as an integral over ``u`` in (0, 1) with ``w = quantile(u)``, by
``mpmath.quad`` (tanh-sinh) at 30 significant digits with breakpoints at
``10**-k`` and ``1 - 10**-k``. The quantiles are the double-precision ones
the library integrates, floored at ``_W_FLOOR`` and clipped into the open
interval the same way, so the reference and the library integrate the same
function; everything after the quantile is 30-digit arithmetic under a
different quadrature rule.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath.libmp import from_float, mpf_add, mpf_log, mpf_mul

from snpwoe.unknown_w import _W_FLOOR

DPS = 30
BREAKPOINT_EXPONENTS = (1, 2, 4, 8, 16)
MAXDEGREE = 4
_TOP = float(np.nextafter(1.0, 0.0))
_TINY = float(np.finfo(float).tiny)


class PriorReference:
    """Reference integrals under one prior. Quantiles are kept per node,
    since every integral under the prior visits the same tanh-sinh nodes."""

    def __init__(self, prior):
        self.prior = prior
        self._w: dict = {}
        self._done: dict = {}
        with mpmath.workdps(DPS):
            tail = [mpmath.mpf(10) ** -k for k in reversed(BREAKPOINT_EXPONENTS)]
            self.points = [mpmath.mpf(0), *tail, *(1 - t for t in reversed(tail)), mpmath.mpf(1)]

    def _w_at(self, u):
        w = self._w.get(u)
        if w is None:
            v = min(max(float(u), _TINY), _TOP)
            w = self._w[u] = from_float(max(float(self.prior.quantile(v)), _W_FLOOR))
        return w

    def mean_log10(self, coeffs) -> tuple[float, float]:
        """(value, mpmath's error estimate) of one row's integral."""
        value, error = self._mean_log10(coeffs)
        return float(value), error

    def mean_log10_lr(self, h1, t) -> tuple[float, float]:
        """(value, error estimate) of the integral of ``log10(h1 / t)``, the
        difference of the two rows' integrals taken at 30 digits."""
        (v1, e1), (v2, e2) = self._mean_log10(h1), self._mean_log10(t)
        with mpmath.workdps(DPS):
            return float(v1 - v2), e1 + e2

    def _mean_log10(self, coeffs):
        key = tuple(float(c) for c in coeffs)
        if key not in self._done:
            self._done[key] = self._integrate(key)
        return self._done[key]

    def woe(self, case, w_r) -> float:
        """The integrate-quad WoE of ``case`` from the reference integrals."""
        kernel = case.kernel(w_r)
        return math.fsum(
            n * (self.mean_log10(h1)[0] - self.mean_log10(t)[0])
            for n, h1, t in zip(kernel.counts.tolist(), kernel.c_h1.tolist(), kernel.c_t.tolist()))

    def _integrate(self, coeffs) -> tuple[float, float]:
        with mpmath.workdps(DPS):
            prec = mpmath.mp.prec
            c0, c1, c2 = (from_float(c) for c in coeffs)
            make = mpmath.mp.make_mpf

            def ln_row(u):
                w = self._w_at(u)
                poly = mpf_add(c0, mpf_mul(w, mpf_add(c1, mpf_mul(w, c2, prec), prec), prec), prec)
                return make(mpf_log(poly, prec))

            value, error = mpmath.quad(ln_row, self.points, error=True, maxdegree=MAXDEGREE)
            ln10 = mpmath.ln(10)
            return value / ln10, float(error / ln10)

