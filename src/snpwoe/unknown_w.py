"""Case-level weight of evidence when the trace error probability is unknown.

The reference sample is genotyped under controlled conditions, so its error
probability ``w_r`` is treated as known throughout. The trace error
probability ``w_t`` is handled one of four ways:

- ``integrate-mc`` / ``integrate-quad``: average the per-hypothesis
  likelihood over a prior on ``w_t`` (Monte Carlo or deterministic
  quadrature of the same integral);
- ``profile``: maximize each hypothesis's likelihood separately over
  ``w_t`` and take the ratio of maxima;
- ``plug-in``: pretend the trace was genotyped as cleanly as the
  reference, i.e. evaluate at ``w_t = w_r``.

All methods return a :class:`WoEResult` so downstream code can treat them
uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .evidence import CaseData, check_h2_support, woe_known
from .genotypes import validate_error_prob
from .optimize import maximize_on_interval
from .scaled_beta import ScaledBeta

__all__ = [
    "METHOD_KNOWN",
    "METHOD_PLUGIN",
    "METHOD_INTEGRATE_MC",
    "METHOD_INTEGRATE_QUAD",
    "METHOD_PROFILE",
    "METHODS",
    "WoEResult",
    "QuadratureError",
    "woe_known_result",
    "woe_plugin",
    "woe_integrate_mc",
    "woe_integrate_quad",
    "woe_profile",
]

METHOD_KNOWN = "known"
METHOD_PLUGIN = "plug-in"
METHOD_INTEGRATE_MC = "integrate-mc"
METHOD_INTEGRATE_QUAD = "integrate-quad"
METHOD_PROFILE = "profile"
METHODS = (
    METHOD_KNOWN,
    METHOD_PLUGIN,
    METHOD_INTEGRATE_MC,
    METHOD_INTEGRATE_QUAD,
    METHOD_PROFILE,
)

# Evaluation points for the profile search never touch 1/2, where the error
# channel stops being identifiable.
_HALF_OPEN_MARGIN = 1e-12

# Quantiles this small contribute less than ~1e-80 to any integral here but
# would underflow squared-probability terms to an un-loggable 0.0.
_W_FLOOR = 1e-120


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class WoEResult:
    """Weight of evidence (log10 likelihood ratio) plus method metadata.

    ``w_hat_h1``/``w_hat_h2`` are the per-hypothesis maximizers and are
    present exactly for the profile method; ``mc_std_error`` is the Monte
    Carlo standard error and is present exactly for ``integrate-mc``.
    """

    woe: float
    method: str
    w_hat_h1: float | None = None
    w_hat_h2: float | None = None
    mc_std_error: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        has_hats = self.w_hat_h1 is not None or self.w_hat_h2 is not None
        if self.method == METHOD_PROFILE:
            if self.w_hat_h1 is None or self.w_hat_h2 is None:
                raise ValueError("profile results must carry both maximizers")
        elif has_hats:
            raise ValueError(f"method {self.method!r} must not carry maximizers")
        if (self.mc_std_error is not None) != (self.method == METHOD_INTEGRATE_MC):
            raise ValueError("mc_std_error is present exactly for integrate-mc results")
        if self.mc_std_error is not None and not self.mc_std_error >= 0.0:
            raise ValueError(f"mc_std_error must be nonnegative, got {self.mc_std_error!r}")
        woe = float(self.woe)
        if math.isnan(woe):
            raise ValueError("WoE must not be NaN")
        object.__setattr__(self, "woe", woe)


def woe_known_result(case: CaseData, w_t: float, w_r: float) -> WoEResult:
    """Known-``w_t`` evidence wrapped in the common result type."""
    return WoEResult(woe_known(case, w_t, w_r), METHOD_KNOWN)


def woe_plugin(case: CaseData, w_r: float) -> WoEResult:
    """Evaluate as if the trace were as clean as the reference (w_t = w_r)."""
    return WoEResult(woe_known(case, w_r, w_r), METHOD_PLUGIN)


def woe_integrate_mc(case: CaseData, prior: ScaledBeta, w_r: float,
                     rng: np.random.Generator, n_samples: int = 1000,
                     prior_h2: ScaledBeta | None = None) -> WoEResult:
    """Prior-predictive WoE by Monte Carlo over ``w_t``.

    One set of ``n_samples`` prior draws is shared across all markers and
    both hypotheses, so the two integrals are evaluated on common random
    numbers. The estimate is the exact mean (compensated summation) of the
    per-draw case-level log10 likelihood differences, which makes the
    result invariant to the marker/draw reduction order. The standard
    error of that mean over draws is reported alongside.

    ``prior_h2`` optionally gives H2 its own prior; the H1 draw vector is
    then generated first and an independent H2 vector second, so common
    random numbers no longer apply.
    """
    w_r = validate_error_prob(w_r, "w_r")
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    check_h2_support(case, None, w_r)
    kernel = case.kernel(w_r)
    draws = prior.sample(rng, n_samples)
    draws_h2 = draws if prior_h2 is None else prior_h2.sample(rng, n_samples)
    diff = kernel.log10_h1(draws) - kernel.log10_h2(draws_h2)   # (rows, draws)
    weighted = kernel.counts[:, None] * diff
    woe = math.fsum(weighted.ravel().tolist()) / n_samples
    per_draw = weighted.sum(axis=0)
    se = float(np.std(per_draw, ddof=1) / math.sqrt(n_samples))
    return WoEResult(woe, METHOD_INTEGRATE_MC, mc_std_error=se)


def _integrator(prior: ScaledBeta, tol: float):
    """``coeffs -> (value, abserr, ok)`` of ``E_prior[log10(c0 + w*(c1 +
    w*c2))]``, one quadrature per distinct coefficient triple. Quantiles are
    memoized per node, since the integrals visit mostly the same nodes."""
    quantiles: dict[float, float] = {}
    done: dict[tuple[float, float, float], tuple[float, float, bool]] = {}

    def integrate(coeffs: tuple[float, float, float]) -> tuple[float, float, bool]:
        if coeffs not in done:
            c0, c1, c2 = coeffs

            def log10_at(v: float) -> float:
                w = quantiles.get(v)
                if w is None:
                    w = quantiles[v] = max(prior.quantile(v), _W_FLOOR)
                return math.log10(c0 + w * (c1 + w * c2))

            # Integrate over (0, 1) in prior-CDF space.
            value, abserr, _, *tail = quad(log10_at, 0.0, 1.0, epsabs=0.5 * tol, epsrel=0.0,
                                           limit=200, full_output=1)
            done[coeffs] = (value, abserr, not tail and abserr <= tol)
        return done[coeffs]

    return integrate


def woe_integrate_quad(case: CaseData, prior: ScaledBeta, w_r: float,
                       tol: float = 1e-8,
                       prior_h2: ScaledBeta | None = None) -> WoEResult:
    """Prior-predictive WoE by deterministic quadrature over ``w_t``.

    Each marker contributes ``E_prior[log10 P(evidence | H, w_t)]`` per
    hypothesis. The integrals run in prior-CDF space (substituting
    ``w_t = quantile(v)``), which concentrates nodes where the prior has
    mass and keeps the endpoint behaviour integrable even for priors with
    unbounded density. Under H2 the trace and reference factors separate,
    so only the trace factor needs quadrature. Each distinct H1 and each
    distinct trace polynomial of the case kernel is integrated once.
    ``prior_h2``, when given, replaces the prior in the H2 integrals.
    """
    w_r = validate_error_prob(w_r, "w_r")
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    check_h2_support(case, None, w_r)
    kernel = case.kernel(w_r)
    integrate_h1 = _integrator(prior, tol)
    integrate_h2 = integrate_h1 if prior_h2 is None else _integrator(prior_h2, tol)
    total_parts: list[float] = []
    failures: list[tuple[float, str]] = []
    for i, (c_h1, c_t) in enumerate(zip(kernel.c_h1.tolist(), kernel.c_t.tolist())):
        i1, err1, ok1 = integrate_h1(tuple(c_h1))
        i2, err2, ok2 = integrate_h2(tuple(c_t))
        if not (ok1 and ok2):
            failures.append((max(err1, err2),
                             case.marker_label(int(kernel.first[i]))))
            continue
        total_parts.append(kernel.counts[i] * (i1 - (i2 + kernel.log10_mr[i])))
    if failures:
        worst_err, worst_label = max(failures)
        raise QuadratureError(
            f"quadrature failed to reach tol={tol!r} on {len(failures)} "
            f"marker pattern(s); worst at marker {worst_label} "
            f"with abserr {worst_err!r}"
        )
    return WoEResult(math.fsum(total_parts), METHOD_INTEGRATE_QUAD)


def woe_profile(case: CaseData, w_r: float, lower: float = 0.0,
                upper: float = 0.5) -> WoEResult:
    """WoE from per-hypothesis maximization over the trace error probability.

    Each hypothesis's case likelihood is maximized separately over ``w_t``
    in ``[lower, upper]`` intersected with [0, 1/2) (grid multistart plus
    bounded local refinement), and the WoE is the log10 ratio of the two
    maxima. The maximizers are reported in the result.
    """
    w_r = validate_error_prob(w_r, "w_r")
    lower = float(lower)
    upper = float(upper)
    if math.isnan(lower) or math.isnan(upper) or not 0.0 <= lower < upper <= 0.5:
        raise ValueError(
            f"need 0 <= lower < upper <= 0.5, got [{lower!r}, {upper!r}]"
        )
    check_h2_support(case, None, w_r)
    hi = min(upper, 0.5 - _HALF_OPEN_MARGIN)
    if not lower < hi:
        raise ValueError(f"search interval [{lower!r}, {upper!r}] collapses "
                         "after excluding 0.5")
    kernel = case.kernel(w_r)
    w1, v1 = maximize_on_interval(lambda w: kernel.total(kernel.log10_h1(w)), lower, hi)
    w2, v2 = maximize_on_interval(lambda w: kernel.total(kernel.log10_h2(w)), lower, hi)
    return WoEResult(v1 - v2, METHOD_PROFILE, w_hat_h1=w1, w_hat_h2=w2)

