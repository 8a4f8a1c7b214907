"""Bounded scalar maximization used by the profile method and the MLE.

The objectives here (profile log-likelihoods over an error probability) are
smooth but can be multimodal, so a single local search is not safe. The
strategy is a coarse evaluation grid followed by a bounded derivative-free
refinement around every local maximum of the grid, keeping the best point
found overall.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

__all__ = ["maximize_on_interval"]

# Searches over an error probability stop this far short of 1/2, where the
# error channel stops being identifiable.
HALF_OPEN_MARGIN = 1e-12
W_SEARCH_MAX = 0.5 - HALF_OPEN_MARGIN
# Evenly spaced points of the coarse grid, enough that narrow interior
# modes are not missed, and the absolute tolerance on a refined argmax.
_N_GRID = 65
_XATOL = 1e-11


def maximize_on_interval(fn, lower: float, upper: float) -> tuple[float, float]:
    """Maximize a vectorized scalar function on the closed interval.

    Parameters
    ----------
    fn : callable
        Maps an ndarray of points to an ndarray of objective values;
        ``-inf`` values are tolerated (treated as never optimal when any
        finite value exists).
    lower, upper : float
        Interval endpoints with ``lower < upper``.

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

    def neg(x: float) -> float:
        return -float(fn(np.array([x]))[0])

    last = _N_GRID - 1
    for i in range(_N_GRID):
        if not np.isfinite(vals[i]):
            continue
        left_ok = i == 0 or vals[i] > vals[i - 1]
        right_ok = i == last or vals[i] >= vals[i + 1]
        if not (left_ok and right_ok):
            continue
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, last)]
        res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                              options={"xatol": _XATOL})
        cand_val = -float(res.fun)
        if cand_val > best_val:
            best_val = cand_val
            best_x = float(res.x)
    return best_x, best_val
