"""Case-level weight of evidence when the trace error probability is unknown.

The reference sample is genotyped under controlled conditions, so its error
probability ``w_r`` is treated as known throughout. The trace error
probability ``w_t`` is handled one of four ways:

- ``integrate-mc`` / ``integrate-quad``: average each marker's
  log-likelihood ratio over a prior on ``w_t`` (Monte Carlo or
  deterministic quadrature of the same integral);
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

from .evidence import (_SUM_BLOCK, CaseData, CaseKernel, _exact_sum, _row_total,
                       _supported_kernel, woe_known)
from .genotypes import validate_error_prob, validate_integer, validate_positive, validate_real
from .optimize import HALF_OPEN_MARGIN, W_SEARCH_MAX, maximize_on_interval
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

# Quantiles this small contribute less than ~1e-80 to any integral here but
# would underflow squared-probability terms to an un-loggable 0.0.
_W_FLOOR = 1e-120


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# Each diagnostic and the method whose results carry it, nonnegative; other
# methods' results carry it as None.
_DIAGNOSTICS = {
    "w_hat_h1": METHOD_PROFILE, "w_hat_h2": METHOD_PROFILE,
    "mc_std_error": METHOD_INTEGRATE_MC, "mc_draws_at_floor": METHOD_INTEGRATE_MC,
    "quad_abserr": METHOD_INTEGRATE_QUAD, "quad_fallbacks": METHOD_INTEGRATE_QUAD,
}


@dataclass(frozen=True)
class WoEResult:
    """Weight of evidence (log10 likelihood ratio) plus method metadata.

    Each method's diagnostics are present exactly for its results: profile's
    per-hypothesis maximizers ``w_hat_h1``/``w_hat_h2``; integrate-mc's
    ``mc_std_error``, the standard error of the Monte Carlo mean, and
    ``mc_draws_at_floor``, the number of prior draws raised to the ``w_t``
    floor; integrate-quad's ``quad_abserr``, the largest per-row error
    estimate, and ``quad_fallbacks``, the number of row integrals refined by
    adaptive bisection.
    """

    woe: float
    method: str
    w_hat_h1: float | None = None
    w_hat_h2: float | None = None
    mc_std_error: float | None = None
    mc_draws_at_floor: int | None = None
    quad_abserr: float | None = None
    quad_fallbacks: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for name, method in _DIAGNOSTICS.items():
            value = getattr(self, name)
            if not (value is None if method != self.method else value is not None and value >= 0):
                raise ValueError(f"{name} is present, and nonnegative, exactly for {method} "
                                 f"results; got {value!r} for {self.method}")
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
                     rng: np.random.Generator, n_samples: int = 1000) -> WoEResult:
    """Prior-predictive WoE by Monte Carlo over ``w_t``.

    One set of ``n_samples`` prior draws, floored at ``_W_FLOOR`` as
    quadrature's nodes are, is shared across all markers and both
    hypotheses, so the two integrals are evaluated on common random numbers.
    Each draw's case-level log10 LR adds the kernel's rows in their sorted
    order, whatever the marker order; the estimate is the correctly rounded
    mean of these per-draw sums, and the standard error of that mean is
    reported alongside, with the number of draws raised to the floor. Rows
    are taken one block at a time, so memory does not grow with m, and a
    row's term (:meth:`~snpwoe.evidence.CaseKernel.log10_ratio`) moves with
    neither its block nor the BLAS thread count.
    """
    w_r = validate_error_prob(w_r, "w_r")
    n_samples = validate_integer(n_samples, "n_samples", 2)
    kernel = _supported_kernel(case, None, w_r)
    draws = prior.sample(rng, n_samples)
    per_draw = _mc_sums(kernel, draws)
    woe = math.fsum(per_draw.tolist()) / n_samples
    se = float(np.std(per_draw, ddof=1) / math.sqrt(n_samples))
    at_floor = int(np.count_nonzero(draws <= _W_FLOOR))
    return WoEResult(woe, METHOD_INTEGRATE_MC, mc_std_error=se, mc_draws_at_floor=at_floor)


def _powers(w: np.ndarray) -> np.ndarray:
    """The powers ``(1, w, w**2)`` of points ``w`` floored at ``_W_FLOOR``: the
    input of :meth:`~snpwoe.evidence.CaseKernel.log10_ratio` for MC's draws and
    quadrature's nodes and refined points alike, so a point has one set of bits."""
    w = np.maximum(w, _W_FLOOR)
    return np.stack((np.ones_like(w), w, w * w))


def _mc_sums(kernel: CaseKernel, draws: np.ndarray) -> np.ndarray:
    """Per draw, the count-weighted log10 LR of the kernel's rows, added in order."""
    step = max(1, _SUM_BLOCK // len(draws))
    powers = _powers(draws)
    # Row 0 of the buffer carries each draw's sum over the rows before the
    # block, so the per-draw sums add the rows one by one in order, as one
    # axis-0 sum over all rows does. The block's terms are evaluated in the
    # rows after it, and its H2 probabilities in the rows after those.
    buffer = np.zeros((2 * step + 1, len(draws)))
    for start in range(0, len(kernel.counts), step):
        rows = slice(start, start + step)
        term = kernel.log10_ratio(powers, rows, out=buffer[1:])
        term *= kernel.counts[rows, None]
        buffer[0] = buffer[:len(term) + 1].sum(axis=0)
    return buffer[0]


# QUADPACK's qk21 pair (Piessens et al. 1983): the 21-point Kronrod nodes on
# [-1, 1] (abscissae >= 0, descending), their weights, and the weights of
# the embedded 10-point Gauss rule, whose nodes are _XGK[1::2].
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


# The K21 nodes on [-1, 1] in ascending order, their weights and the G10
# weights on the same nodes (zero at the Kronrod-only ones).
_X21 = np.array([-v for v in _XGK[:-1]] + list(_XGK[::-1]))
_WK21 = np.array(_WGK[:-1] + _WGK[::-1])
_WG21 = np.zeros(21)
_WG21[1:10:2] = _WG
_WG21[11:20:2] = _WG[::-1]
_OPEN = (np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def _gk21_panels():
    """Nodes in (0, 1) (flat, panel-major) and the panels' centres and
    half-widths of a composite G10/K21 rule.

    Panel edges are ``0.2**k`` for ``k = 1..23`` from 0 and from 1
    (``0.2**23`` is about 1e-16), with one middle panel, so integrable
    endpoint singularities of the integrand in prior-CDF space are resolved
    geometrically. Right-hand panels mirror the left ones exactly; nodes
    that round to 1 are clipped into the open interval.
    """
    edges = np.concatenate(([0.0], 0.2 ** np.arange(23, 0, -1.0)))
    lo, hi = edges[:-1], edges[1:]
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    left = centre[:, None] + half[:, None] * _X21
    nodes = np.clip(np.concatenate((left, [0.5 + 0.3 * _X21], 1.0 - left[::-1, ::-1])), *_OPEN)
    centre = np.concatenate((centre, [0.5], 1.0 - centre[::-1]))
    half = np.concatenate((half, [0.3], half[::-1]))
    return nodes.ravel(), centre, half


_QUAD_NODES, _PANEL_CENTRE, _PANEL_HALF = _gk21_panels()
# Rows per block of the (rows x nodes) integrand matrix, about 1 MB each.
_QUAD_BLOCK = 128
# The rule's panels for a full block of rows, row by row: each panel's row,
# centre and half-width. ``quad`` takes a prefix, so a call pays no setup.
_BLOCK_PANELS = (np.repeat(np.arange(_QUAD_BLOCK), len(_PANEL_HALF)),
                 np.tile(_PANEL_CENTRE, _QUAD_BLOCK), np.tile(_PANEL_HALF, _QUAD_BLOCK))
_ROUNDOFF = 50.0 * np.finfo(float).eps
# An LR value's rounding: p_h1 and p_h2 are each within 2 eps * sum |c_j w**j|
# <= 18 eps * p (w < 1/2); with the division, (36 + 1/2) eps / ln 10 < 16 eps.
_LR_ROUNDING = 16.0 * np.finfo(float).eps


def _node_powers(prior: ScaledBeta) -> np.ndarray:
    """The powers ``(1, w, w**2)`` of the prior's quantiles at the nodes,
    floored at ``_W_FLOOR``; computed on first use and kept read-only on this
    prior instance, as ``CaseData.kernel`` keeps its kernels on the case."""
    powers = prior.__dict__.get("_node_powers")
    if powers is None:
        powers = prior.__dict__["_node_powers"] = _powers(prior.quantile(_QUAD_NODES))
        powers.flags.writeable = False
    return powers


# A flagged row's panels are bisected at most this many times over, and a
# row stops splitting its panels once it has this many, so refinement is
# bounded in time and in memory.
_QUAD_LEVELS = 16
_QUAD_LIMIT = 512


def _gk21(f: np.ndarray, half: np.ndarray):
    """Per panel, from the integrand at its 21 nodes (one panel a line) and
    its half-width: the K21 value, ``|K21 - G10|`` and the K21 integral of ``|f|``."""
    return half * (f @ _WK21), half * np.abs(f @ (_WK21 - _WG21)), half * (np.abs(f) @ _WK21)


def quad(f, f0: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Per row, an integral over (0, 1) and its error estimate by the
    composite rule and adaptive bisection of its panels, and the number of
    rows whose first estimate exceeded ``tol / 2``.

    ``f(v, rows)`` is the integrand at CDF points ``v`` of shape (panels,
    21), line ``i`` in row ``rows[i]``; ``f0`` holds it at the rule's nodes
    for at most ``_QUAD_BLOCK`` rows. A row's value sums its panels' K21
    values; its error sums their ``|K21 - G10|``, floored at the integrand's
    rounding ``_LR_ROUNDING`` plus ``_ROUNDOFF`` times the integral of ``|f|``.
    Level 0 is the rule's 47 panels. Each level bisects, in the rows over
    ``tol / 2``, the panels whose ``|K21 - G10|`` exceeds both the row's
    even share of ``tol / 2`` and the panel's own round-off level, with one
    call of ``f``: QUADPACK's qag (Piessens et al. 1983), level by level and
    vectorized over rows and panels as scipy's ``quad_vec`` is over panels.
    It stops when no row is over ``tol / 2`` or no panel splits, or after
    ``_QUAD_LEVELS`` levels, and stops splitting a row at ``_QUAD_LIMIT`` panels.
    """
    n = len(f0)
    row, centre, half = (a[:n * len(_PANEL_HALF)] for a in _BLOCK_PANELS)
    value, gap, size = _gk21(f0.reshape(-1, 21), half)
    for level in range(_QUAD_LEVELS + 1):
        error = np.maximum(np.bincount(row, gap, n),
                           _LR_ROUNDING + _ROUNDOFF * np.bincount(row, size, n))
        panels = np.bincount(row, minlength=n)
        open_rows = (error > 0.5 * tol) & (panels < _QUAD_LIMIT)
        if level == 0:
            flagged = int(np.count_nonzero(open_rows))
        if level == _QUAD_LEVELS or not open_rows.any():
            break
        share = np.where(open_rows, 0.5 * tol / panels, np.inf)
        split = gap > np.maximum(share[row], _ROUNDOFF * size)
        if not split.any():
            break
        keep = ~split
        quarter = 0.5 * half[split]
        new_centre = np.concatenate((centre[split] - quarter, centre[split] + quarter))
        new_half = np.tile(quarter, 2)
        new_row = np.tile(row[split], 2)
        v = np.clip(new_centre[:, None] + new_half[:, None] * _X21, *_OPEN)
        parts = _gk21(f(v, new_row), new_half)
        row, centre, half, value, gap, size = (
            np.concatenate((old[keep], new)) for old, new in
            zip((row, centre, half, value, gap, size), (new_row, new_centre, new_half, *parts)))
    return np.bincount(row, value, n), error, flagged


def _integrand(kernel: CaseKernel, prior: ScaledBeta, start: int, out: np.ndarray):
    """``quad``'s integrand for the block of kernel rows from ``start``: the
    rows' :meth:`~snpwoe.evidence.CaseKernel.log10_ratio` at the prior's
    quantiles of the distinct points, one product of the open rows taken in
    pieces of at most ``out.size`` entries (level 0's block), each panel's
    entries divided and logged: a point has the same bits as at level 0."""
    def f(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        points, column = np.unique(v, return_inverse=True)
        powers = _powers(prior.quantile(points))
        rows, slot = np.unique(rows + start, return_inverse=True)   # the open rows
        slot, column, k, n = np.repeat(slot, 21), column.ravel(), len(rows), len(points)
        pieces = -(-n // (out.size // (2 * k)))
        cuts = np.arange(pieces + 1) * n // pieces     # no piece of 1 point, which gemv takes
        values = np.empty(v.shape)
        for a, b in zip(cuts, cuts[1:]):
            inside = (column >= a) & (column < b)
            piece = out.reshape(-1)[:2 * k * (b - a)].reshape(-1, b - a)
            values.reshape(-1)[inside] = kernel.log10_ratio(
                powers[:, a:b], rows, piece, slot[inside] * (b - a) + column[inside] - a)
        return values
    return f


def woe_integrate_quad(case: CaseData, prior: ScaledBeta, w_r: float,
                       tol: float = 1e-8) -> WoEResult:
    """Prior-predictive WoE by deterministic quadrature over ``w_t``.

    Each marker contributes ``E_prior[log10 LR(w_t)]``, one integral per
    kernel row of the term :func:`~snpwoe.evidence.woe_known` sums. The
    integrals run in prior-CDF space (substituting ``w_t = quantile(v)``),
    which concentrates nodes where the prior has mass and keeps the endpoint
    behaviour integrable even for priors with unbounded density.

    The kernel's rows are integrated by :func:`quad`, ``_QUAD_BLOCK`` rows
    at a time: a composite Gauss-Kronrod 10/21 rule whose panels are
    bisected in the rows whose error estimate exceeds ``tol / 2``.
    ``QuadratureError`` is raised when a row still misses ``tol``. The
    result reports the largest per-row error estimate and the number of
    row integrals refined.
    """
    w_r = validate_error_prob(w_r, "w_r")
    tol = validate_positive(tol, "tol")
    kernel = _supported_kernel(case, None, w_r)
    powers = _node_powers(prior)
    m = len(kernel.counts)
    out = np.empty((2 * min(m, _QUAD_BLOCK), powers.shape[1]))
    values, errors = np.empty(m), np.empty(m)
    refined = 0
    for start in range(0, m, _QUAD_BLOCK):
        block = slice(start, start + _QUAD_BLOCK)
        values[block], errors[block], flagged = quad(
            _integrand(kernel, prior, start, out), kernel.log10_ratio(powers, block, out), tol)
        refined += flagged
    bad = np.flatnonzero(errors > tol)
    if bad.size:
        worst_err, worst_label = max((err, case.marker_label(int(kernel.first[i])))
                                     for i, err in zip(bad.tolist(), errors[bad].tolist()))
        raise QuadratureError(
            f"quadrature failed to reach tol={tol!r} on {len(bad)} "
            f"marker pattern(s); worst at marker {worst_label} "
            f"with abserr {worst_err!r}"
        )
    return WoEResult(_exact_sum(kernel.counts * values), METHOD_INTEGRATE_QUAD,
                     quad_abserr=float(errors.max()), quad_fallbacks=refined)


def validate_profile_interval(lower, upper,
                              names: tuple[str, str] = ("lower", "upper")) -> tuple[float, float]:
    """The profile search interval as floats: ``0 <= lower < upper <= 0.5``
    and ``lower < 0.5 - 1e-12``, since the search stops that far short of
    0.5; ``names`` name the two ends in the error message."""
    lower, upper = (validate_real(v, name) for v, name in zip((lower, upper), names))
    if not 0.0 <= lower < upper <= 0.5:
        raise ValueError(f"need 0 <= {names[0]} < {names[1]} <= 0.5, got [{lower!r}, {upper!r}]")
    if not lower < W_SEARCH_MAX:
        raise ValueError(f"need {names[0]} < 0.5 - {HALF_OPEN_MARGIN!r}, got [{lower!r}, "
                         f"{upper!r}]: the search interval collapses after excluding 0.5")
    return lower, upper


def woe_profile(case: CaseData, w_r: float, lower: float = 0.0,
                upper: float = 0.5) -> WoEResult:
    """WoE from per-hypothesis maximization over the trace error probability.

    Each hypothesis's case likelihood is maximized separately over ``w_t``
    in ``[lower, upper]`` intersected with [0, 1/2) (a grid, then Newton
    steps from each grid maximum), and the WoE is the log10 ratio of the two
    maxima. The maximizers are reported in the result.
    """
    w_r = validate_error_prob(w_r, "w_r")
    lower, upper = validate_profile_interval(lower, upper)
    kernel = _supported_kernel(case, None, w_r)
    hi = min(upper, W_SEARCH_MAX)
    w1, v1 = maximize_on_interval(lambda w: _row_total(kernel.counts, kernel.log10_h1, w),
                                  lower, hi, kernel.c_h1, kernel.counts)
    w2, v2 = maximize_on_interval(lambda w: _row_total(kernel.counts, kernel.log10_h2, w),
                                  lower, hi, kernel.c_t, kernel.counts)
    return WoEResult(v1 - v2, METHOD_PROFILE, w_hat_h1=w1, w_hat_h2=w2)

