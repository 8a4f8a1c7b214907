"""Bounded scalar maximization used by the profile method and the MLE.

The objectives here are log-likelihoods over an error probability ``w``,
``sum_i counts[i] * log p_i(w)`` with each ``p_i`` a polynomial. They are
smooth but can be multimodal, so a single local search is not safe. The
sum is taken on a coarse grid, in plain floating point, only to steer:
every local maximum of the grid is refined by safeguarded Newton steps on
the exact slope and curvature, summed over the rows for all peaks at once;
each peak's bracket, step and stop test are Python float arithmetic, the
IEEE operations of numpy's elementwise ones. The objective itself is
evaluated once, on the grid maximum, both ends and the refined points, and
the best of these is kept: the grid and the slopes only steer, the maximum
is the objective's own.
"""

from __future__ import annotations

import math

import numpy as np

from .evidence import _SUM_BLOCK, _polyval_rows

__all__ = ["maximize_on_interval"]

# Searches over an error probability stop this far short of 1/2, where the
# error channel stops being identifiable.
HALF_OPEN_MARGIN = 1e-12
W_SEARCH_MAX = 0.5 - HALF_OPEN_MARGIN
# Evenly spaced points of the coarse grid, enough that narrow interior
# modes are not missed, and the bracket width at which a refinement stops.
_N_GRID = 65
_XATOL = 1e-11
# A Newton step this small relative to its point is rounding: the point is
# the maximum. Bisection alone needs about 30 steps from a grid bracket.
_STEP_RTOL = 4.0 * float(np.finfo(float).eps)
_MAX_STEPS = 100


def _log_slopes(stacked, counts, w):
    """Slope and curvature at each point of the 1-D ``w`` of
    ``sum_i counts[i] * log p_i``, rows ``3i, 3i + 1, 3i + 2`` of ``stacked``
    holding ``p_i`` and its two derivatives; one block of rows at a time."""
    # numpy adds a (k, 1) block's rows pairwise but a C-contiguous (k, n >= 2)
    # block's in order: all active peaks share one call, on a C-contiguous
    # ``w``, as a call per peak would move its bits whenever another is active.
    step = max(1, _SUM_BLOCK // len(w))
    for start in range(0, len(counts), step):
        values = _polyval_rows(stacked[3 * start:3 * (start + step)], w)
        p, d1, d2 = values[0::3], values[1::3], values[2::3]
        r1 = d1 / p
        n = counts[start:start + step, None]
        sums = np.add.reduce(n * r1), np.add.reduce(n * (d2 / p - r1 * r1))
        slope, curve = sums if start == 0 else (slope + sums[0], curve + sums[1])
    return slope, curve


def maximize_on_interval(fn, lower: float, upper: float, coeffs: np.ndarray,
                         counts: np.ndarray) -> tuple[float, float]:
    """Maximize a vectorized log-likelihood on the closed interval.

    Parameters
    ----------
    fn : callable
        Maps an ndarray of points to an ndarray of objective values: up to
        a positive factor and an additive constant, ``sum_i counts[i] *
        log p_i(w)``. ``-inf`` values are tolerated (treated as never
        optimal when any finite value exists).
    lower, upper : float
        Interval endpoints with ``lower < upper``.
    coeffs : ndarray, shape (k, d + 1), d >= 2
        Each ``p_i``'s coefficients, lowest degree first; they steer the
        search through a plain sum on the grid and the slope and curvature
        of the sum.
    counts : ndarray, shape (k,)
        The weight of each ``log p_i``.

    A grid maximum at an end of the interval whose slope points outward is
    that end, exactly. ``fn`` is called once, on the grid maximum, both
    ends and the refined points; the first of them with the greatest value
    is returned.

    Returns
    -------
    (argmax, value)
    """
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower!r}, {upper!r}]")
    grid = np.linspace(lower, upper, _N_GRID)
    rows = _SUM_BLOCK // _N_GRID
    with np.errstate(all="ignore"):   # p = 0 at a point makes its slope inf: bisect
        # The steering grid: a plain float sum, one block of rows at a time.
        vals = sum(counts[i:i + rows] @ np.log(_polyval_rows(coeffs[i:i + rows], grid))
                   for i in range(0, len(counts), rows))
        best = int(np.argmax(vals))
        v, g = vals.tolist(), grid.tolist()
        # A non-finite grid maximum leaves no peak to refine; otherwise a peak
        # is above its left neighbour and at least its right one, -inf beyond.
        edged = [-math.inf, *v, -math.inf]
        peaks = [i for i, mid in enumerate(v)
                 if edged[i] < mid >= edged[i + 2] and math.isfinite(v[best])]
        # Each peak's bracket, narrowed to a point with rising slope (lo) and
        # one with falling slope (hi) as the steps go.
        x = [g[i] for i in peaks]
        lo = [g[max(i - 1, 0)] for i in peaks]
        hi = [g[min(i + 1, _N_GRID - 1)] for i in peaks]
        # Rows 3i, 3i + 1, 3i + 2: p_i and its two derivatives, zero-padded.
        width = coeffs.shape[1]
        stacked = np.zeros((3 * len(coeffs), width))
        stacked[0::3] = coeffs
        stacked[1::3, :-1] = coeffs[:, 1:] * np.arange(1, width)
        stacked[2::3, :-2] = stacked[1::3, 1:-1] * np.arange(1, width - 1)
        active = list(range(len(x)))
        for _ in range(_MAX_STEPS):
            if not active:
                break
            slopes, curves = _log_slopes(stacked, counts, np.array([x[j] for j in active]))
            still = []
            for j, slope, curve in zip(active, slopes.tolist(), curves.tolist()):
                xj = x[j]
                la = lo[j] = xj if slope > 0.0 else lo[j]
                ha = hi[j] = xj if slope < 0.0 else hi[j]
                # Newton only where the curve bends down: a NaN step fails both tests.
                step = -slope / curve if curve < 0.0 else math.nan
                if slope == 0.0 or ha - la <= _XATOL or abs(step) <= _STEP_RTOL * abs(xj):
                    continue
                newton = xj + step
                x[j] = newton if la < newton < ha else 0.5 * (la + ha)
                still.append(j)
            active = still

    points = np.array([g[best], g[0], g[-1], *x])
    exact = np.asarray(fn(points), dtype=float)
    if math.isnan(v[best]) or np.isnan(exact[:3]).any():   # argmax picks a NaN first
        raise ValueError("objective returned NaN on the search grid")
    best = int(np.argmax(np.fmax(exact, -np.inf)))   # the first of the greatest, NaN as -inf
    return float(points[best]), float(exact[best])
