"""Maximum likelihood estimation of an error probability from duplicates.

Genotyping the same extract twice yields pairs of observed dosages that
share one latent genotype. Under the error channel both observations are
conditionally independent given that genotype, so the pair probabilities
are exactly the same-source joint table with ``w_t = w_r = w``. Counting
the nine observable pairs is sufficient, and one scalar likelihood search
over ``w`` gives the MLE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .evidence import (
    CaseData,
    MarkerObservation,
    _log_rows,
    _row_total,
)
from .genotypes import (
    CHANNEL_COEFFS,
    GenotypePriors,
    shown_integer,
    validate_error_prob,
    validate_integer,
    validate_priors,
)
from .optimize import W_SEARCH_MAX, maximize_on_interval

__all__ = [
    "PairCountTable",
    "WEstimate",
    "estimate_w_mle",
    "estimate_w_mle_per_marker",
]

# Relative gap below which an end point's log-likelihood counts as the
# maximum: a few hundred rounding errors of the summed log terms.
_FLAT = 1e-13
# Largest pair count: the MLE weighs rows by float counts, which are exact
# up to 2**53, and nine such counts still sum below 2**63.
_MAX_PAIR_COUNT = 2 ** 53


def _pair_count(n, a: int, b: int) -> int:
    """``n`` as the count of pair ``(a, b)``: an integer in [0, 2**53]."""
    n = validate_integer(n, f"pair count [{a}, {b}]", 0)
    if n > _MAX_PAIR_COUNT:
        raise ValueError(f"pair count [{a}, {b}] must be at most 2**53, "
                         f"got {shown_integer(n, 'a count')}")
    return n


@dataclass(frozen=True, eq=False)
class PairCountTable:
    """3x3 table of duplicate-pair counts, ``counts[a, b]`` for observed
    (first read, second read) dosages, under one shared genotype prior.
    Each count is an integer in [0, 2**53], and at least one is positive."""

    counts: np.ndarray
    priors: GenotypePriors

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.shape != (3, 3):
            raise ValueError(f"pair counts must be 3x3, got shape {counts.shape}")
        counts = np.array([[_pair_count(n, a, b) for b, n in enumerate(row)]
                           for a, row in enumerate(counts.tolist())], dtype=np.int64)
        if int(counts.sum()) < 1:
            raise ValueError("pair count table must contain at least one pair")
        validate_priors(self.priors)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class WEstimate:
    """MLE of the error probability with its optimum log-likelihood.

    ``log_likelihood`` is the natural-log likelihood at ``w``;
    ``at_boundary`` flags an optimum pinned to an end of the search
    interval (typically ``w = 0`` for fully concordant duplicates), where
    the usual interior-optimum asymptotics do not apply; an end whose
    log-likelihood matches the maximum to rounding counts as that optimum.
    """

    w: float
    log_likelihood: float
    at_boundary: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", validate_error_prob(self.w, "estimated w"))
        object.__setattr__(self, "log_likelihood", float(self.log_likelihood))
        object.__setattr__(self, "at_boundary", bool(self.at_boundary))


def _maximize_rows(priors: np.ndarray, a: np.ndarray, b: np.ndarray,
                   counts: np.ndarray) -> WEstimate:
    """MLE from ``counts[k]`` duplicate pairs ``(a[k], b[k])`` under
    genotype priors ``priors[k]``.

    A pair's probability is ``sum_z p_z T(w)[z, a] T(w)[z, b]``: the H1
    kernel at ``w_t = w_r = w``, a quartic in ``w``.
    """
    coef_a = CHANNEL_COEFFS[:, :, a]   # (i, z, k)
    coef_b = CHANNEL_COEFFS[:, :, b]   # (j, z, k)
    products = np.einsum("kz,izk,jzk->kij", priors, coef_a, coef_b)
    quartic = np.zeros((len(counts), 5))
    for i in range(3):
        for j in range(3):
            quartic[:, i + j] += products[:, i, j]

    seen: dict[float, float] = {}   # log_lik's value at each point it was given

    def log_lik(w: np.ndarray) -> np.ndarray:
        values = _row_total(counts, lambda x, rows: _log_rows(quartic[rows], x, np.log), w)
        seen.update(zip(w.tolist(), values.tolist()))
        return values

    w_hat, value = maximize_on_interval(log_lik, 0.0, W_SEARCH_MAX, quartic, counts)
    # Toward w = 1/2 the likelihood can be flat to rounding, and where
    # the search stops there is arbitrary: an end point whose value
    # matches the maximum to rounding is the estimate. Both ends are grid points.
    for end in (0.0, W_SEARCH_MAX):
        at_end = seen[end]
        if at_end >= value - _FLAT * max(1.0, abs(value)):
            return WEstimate(end, at_end, True)
    return WEstimate(w_hat, value, False)


def estimate_w_mle(table: PairCountTable) -> WEstimate:
    """MLE of ``w`` over [0, 1/2) from one pair-count table.

    The likelihood can sit on the boundary ``w = 0`` when all pairs are
    concordant; that is returned as a valid estimate with
    ``at_boundary=True`` rather than an error.
    """
    a, b = np.nonzero(table.counts)
    priors = np.tile(table.priors.as_array(), (len(a), 1))
    return _maximize_rows(priors, a, b, table.counts[a, b].astype(float))


def estimate_w_mle_per_marker(observations: Iterable[MarkerObservation]) -> WEstimate:
    """MLE of one shared ``w`` from duplicate pairs with per-pair priors.

    Accepts the pairs as marker observations (first read as ``x_t``,
    second as ``x_r``) so each duplicate can carry its own genotype prior;
    identical (priors, pair) observations are counted together internally.
    """
    observations = tuple(observations)
    if not observations:
        raise ValueError("need at least one duplicate pair")
    priors, a, b, counts, _, _ = CaseData(observations)._rows
    return _maximize_rows(priors, a, b, counts)
