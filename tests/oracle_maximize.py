"""Frozen reference: the maximizer that summed the objective exactly at
every point of its 65-point grid, before ``snpwoe.optimize`` steered on a
plain float sum and summed exactly only its candidates.

``fn`` is called twice: on the whole grid, whose exact values choose the
peaks Newton refines, and on the refined points. ``test_maximize_oracle.py``
holds the library's maximizers and values to this one bit for bit, but for
counted near-ties. Do not optimise this file; its value is that it stays
the old maximizer.
"""

from __future__ import annotations

import numpy as np

from snpwoe.evidence import _SUM_BLOCK, _polyval_rows

_N_GRID = 65
_XATOL = 1e-11
_STEP_RTOL = 4.0 * np.finfo(float).eps
_MAX_STEPS = 100


def _log_slopes(coeffs, d1, d2, counts, w):
    """Slope and curvature at each point of the 1-D ``w`` of
    ``sum_i counts[i] * log p_i``, ``p_i`` the polynomial ``coeffs[i]`` with
    derivatives ``d1[i]`` and ``d2[i]``; one block of rows at a time."""
    slope = np.zeros(len(w))
    curve = np.zeros(len(w))
    step = max(1, _SUM_BLOCK // len(w))
    for start in range(0, len(counts), step):
        rows = slice(start, start + step)
        p = _polyval_rows(coeffs[rows], w)
        r1 = _polyval_rows(d1[rows], w) / p
        r2 = _polyval_rows(d2[rows], w) / p
        n = counts[rows, None]
        slope += (n * r1).sum(axis=0)
        curve += (n * (r2 - r1 * r1)).sum(axis=0)
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
        search through the slope and curvature of the sum.
    counts : ndarray, shape (k,)
        The weight of each ``log p_i``.

    A grid maximum at an end of the interval whose slope points outward is
    that end, exactly. ``fn`` is called twice: on the grid and on the
    refined points.

    Returns
    -------
    (argmax, value)
    """
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower!r}, {upper!r}]")
    grid = np.linspace(lower, upper, _N_GRID)
    vals = np.asarray(fn(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("objective must return one value per grid point")
    if np.any(np.isnan(vals)):
        raise ValueError("objective returned NaN on the search grid")

    best_idx = int(np.argmax(vals))
    best_x = float(grid[best_idx])
    best_val = float(vals[best_idx])
    if not np.isfinite(best_val):
        # Degenerate objective, nothing to refine.
        return best_x, best_val

    rising = np.concatenate(([True], vals[1:] > vals[:-1]))
    falling = np.concatenate((vals[:-1] >= vals[1:], [True]))
    peaks = np.flatnonzero(np.isfinite(vals) & rising & falling)
    # Each peak's bracket, narrowed to a point with rising slope (lo) and
    # one with falling slope (hi) as the steps go.
    x = grid[peaks]
    lo = grid[np.maximum(peaks - 1, 0)]
    hi = grid[np.minimum(peaks + 1, _N_GRID - 1)]
    d1 = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    d2 = d1[:, 1:] * np.arange(1, d1.shape[1])
    active = np.arange(len(x))
    with np.errstate(all="ignore"):   # p = 0 at a point makes its slope inf: bisect
        for _ in range(_MAX_STEPS):
            xa = x[active]
            slope, curve = _log_slopes(coeffs, d1, d2, counts, xa)
            la = lo[active] = np.where(slope > 0.0, xa, lo[active])
            ha = hi[active] = np.where(slope < 0.0, xa, hi[active])
            step = -slope / curve
            newton = xa + step
            done = ((slope == 0.0) | (ha - la <= _XATOL)
                    | ((curve < 0.0) & (np.abs(step) <= _STEP_RTOL * np.abs(xa))))
            use_newton = (curve < 0.0) & (newton > la) & (newton < ha)
            x[active] = np.where(done, xa, np.where(use_newton, newton, 0.5 * (la + ha)))
            active = active[~done]
            if not active.size:
                break

    for cand_x, cand_val in zip(x.tolist(), np.asarray(fn(x), dtype=float).tolist()):
        if cand_val > best_val:
            best_x, best_val = cand_x, cand_val
    return best_x, best_val
