"""Maximum likelihood estimation of an error probability from duplicates.

Genotyping the same extract twice yields pairs of observed dosages that
share one latent genotype. Under the error channel both observations are
conditionally independent given that genotype, so the pair probabilities
are exactly the same-source joint table with ``w_t = w_r = w``. Counting
the nine observable pairs is sufficient, and one scalar likelihood search
over ``w`` gives the MLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .evidence import (
    CaseData,
    MarkerObservation,
    _fsum_rows,
    _polyval_rows,
    joint_table_h1,
)
from .genotypes import CHANNEL_COEFFS, GenotypePriors, validate_error_prob
from .optimize import maximize_on_interval

__all__ = [
    "PairCountTable",
    "WEstimate",
    "pair_prob_same_source",
    "estimate_w_mle",
    "estimate_w_mle_per_marker",
]

# Upper end of the likelihood search; the channel is only identifiable
# below 1/2.
_W_UPPER = 0.5 - 1e-12


@dataclass(frozen=True, eq=False)
class PairCountTable:
    """3x3 table of duplicate-pair counts, ``counts[a, b]`` for observed
    (first read, second read) dosages, under one shared genotype prior."""

    counts: np.ndarray
    priors: GenotypePriors

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.shape != (3, 3):
            raise ValueError(f"pair counts must be 3x3, got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.rint(np.asarray(counts, dtype=float))
            if np.any(rounded != np.asarray(counts, dtype=float)):
                raise ValueError("pair counts must be integers")
            counts = rounded
        counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("pair counts must be nonnegative")
        if int(counts.sum()) < 1:
            raise ValueError("pair count table must contain at least one pair")
        if not isinstance(self.priors, GenotypePriors):
            raise TypeError(f"priors must be GenotypePriors, got {type(self.priors).__name__}")
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
    the usual interior-optimum asymptotics do not apply.
    """

    w: float
    log_likelihood: float
    at_boundary: bool

    def __post_init__(self) -> None:
        w = float(self.w)
        if math.isnan(w) or not 0.0 <= w < 0.5:
            raise ValueError(f"estimated w must lie in [0, 0.5), got {w!r}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "log_likelihood", float(self.log_likelihood))
        object.__setattr__(self, "at_boundary", bool(self.at_boundary))


def pair_prob_same_source(a, b, priors: GenotypePriors, w: float) -> float:
    """P(observing dosages (a, b)) for duplicate reads of one genotype."""
    w = validate_error_prob(w)
    tbl = joint_table_h1(priors, w, w)
    return float(tbl[int(a), int(b)])


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

    def log_lik(w: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return _fsum_rows(counts, np.log(_polyval_rows(quartic, w)))

    w_hat, value = maximize_on_interval(log_lik, 0.0, _W_UPPER)
    at_boundary = w_hat == 0.0 or w_hat == _W_UPPER
    return WEstimate(w_hat, value, at_boundary)


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
