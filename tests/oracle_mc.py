"""Frozen reference: the Monte Carlo per-draw sums as ``woe_integrate_mc``
took them before its row terms became one matrix product per block and one
``log10`` of the likelihood ratio.

Each block of rows is evaluated by Horner's rule as (rows, 1) column
broadcasts, once per hypothesis, and the row term is ``log10 p_h1 -
log10 p_h2``. ``test_mc_oracle.py`` holds the library's per-draw sums to
these within 1e-12 relative. Do not optimise this file; its value is that
it stays the old loop.
"""

from __future__ import annotations

import numpy as np

from snpwoe.evidence import _SUM_BLOCK


def _log10_rows(coeffs, w, out):
    """log10 of each row's quadratic at the points ``w`` that the rows
    share, by Horner's rule in ``out``; -inf where the quadratic is 0."""
    np.multiply(coeffs[:, 2, None], w, out=out)
    out += coeffs[:, 1, None]
    out *= w
    out += coeffs[:, 0, None]
    with np.errstate(divide="ignore"):
        return np.log10(out, out=out)


def mc_sums(kernel, draws: np.ndarray) -> np.ndarray:
    """Per draw, the count-weighted sum of the kernel's rows' log10 LR at
    the draw, added row by row in the rows' order."""
    n_samples = len(draws)
    step = max(1, _SUM_BLOCK // n_samples)
    # Row 0 of the buffer carries each draw's sum over the rows before the
    # block, so the per-draw sums add the rows one by one in order.
    buffer = np.zeros((step + 1, n_samples))
    h2 = np.empty((step, n_samples))
    m = len(kernel.counts)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        k = min(step, m - start)
        diff = _log10_rows(kernel.c_h1[rows], draws, buffer[1:k + 1])
        diff -= _log10_rows(kernel.c_t[rows], draws, h2[:k])
        diff *= kernel.counts[rows, None]
        buffer[0] = buffer[:k + 1].sum(axis=0)
    return buffer[0]
