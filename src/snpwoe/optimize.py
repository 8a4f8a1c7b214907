"""Bounded scalar maximization used by the profile method and the MLE.

The objectives here are log-likelihoods over an error probability ``w``,
``sum_i counts[i] * log p_i(w)`` with each ``p_i`` a polynomial. They are
smooth but can be multimodal, so a single local search is not safe. The
sum is taken on a coarse grid, in plain floating point, only to steer:
every local maximum of the grid is refined at once by safeguarded Newton
steps on the exact slope and curvature, which the polynomials' coefficients
give. The objective itself is evaluated once, on the grid maximum, both
ends and the refined points, and the best of these is kept: the grid and
the slopes only steer, the maximum is the objective's own.
"""

from __future__ import annotations

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
_STEP_RTOL = 4.0 * np.finfo(float).eps
_MAX_STEPS = 100


def _log_slopes(stacked, counts, w):
    """Slope and curvature at each point of the 1-D ``w`` of
    ``sum_i counts[i] * log p_i``, rows ``3i, 3i + 1, 3i + 2`` of ``stacked``
    holding ``p_i`` and its two derivatives; one block of rows at a time."""
    slope, curve = np.zeros((2, len(w)))
    step = max(1, _SUM_BLOCK // len(w))
    for start in range(0, len(counts), step):
        p, d1, d2 = _polyval_rows(stacked[3 * start:3 * (start + step)], w).reshape(
            -1, 3, len(w)).transpose(1, 0, 2)
        r1 = d1 / p
        n = counts[start:start + step, None]
        slope += (n * r1).sum(axis=0)
        curve += (n * (d2 / p - r1 * r1)).sum(axis=0)
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
        rising = np.concatenate(([True], vals[1:] > vals[:-1]))
        falling = np.concatenate((vals[:-1] >= vals[1:], [True]))
        # A non-finite grid maximum leaves no peak to refine.
        peaks = np.flatnonzero(np.isfinite(vals) & rising & falling & np.isfinite(vals[best]))
        # Each peak's bracket, narrowed to a point with rising slope (lo) and
        # one with falling slope (hi) as the steps go.
        x = grid[peaks]
        lo = grid[np.maximum(peaks - 1, 0)]
        hi = grid[np.minimum(peaks + 1, _N_GRID - 1)]
        # Rows 3i, 3i + 1, 3i + 2: p_i and its two derivatives, zero-padded.
        width = coeffs.shape[1]
        stacked = np.zeros((3 * len(coeffs), width))
        stacked[0::3] = coeffs
        stacked[1::3, :-1] = coeffs[:, 1:] * np.arange(1, width)
        stacked[2::3, :-2] = stacked[1::3, 1:-1] * np.arange(1, width - 1)
        active = np.arange(len(x))
        for _ in range(_MAX_STEPS):
            if not active.size:
                break
            xa = x[active]
            slope, curve = _log_slopes(stacked, counts, xa)
            la = lo[active] = np.where(slope > 0.0, xa, lo[active])
            ha = hi[active] = np.where(slope < 0.0, xa, hi[active])
            step = -slope / curve
            newton = xa + step
            done = ((slope == 0.0) | (ha - la <= _XATOL)
                    | ((curve < 0.0) & (np.abs(step) <= _STEP_RTOL * np.abs(xa))))
            use_newton = (curve < 0.0) & (newton > la) & (newton < ha)
            x[active] = np.where(done, xa, np.where(use_newton, newton, 0.5 * (la + ha)))
            active = active[~done]

    points = np.concatenate((grid[[best, 0, -1]], x))
    exact = np.asarray(fn(points), dtype=float)
    if np.isnan(vals[best]) or np.isnan(exact[:3]).any():   # argmax picks a NaN first
        raise ValueError("objective returned NaN on the search grid")
    best = int(np.argmax(np.fmax(exact, -np.inf)))   # the first of the greatest, NaN as -inf
    return float(points[best]), float(exact[best])
