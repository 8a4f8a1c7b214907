"""Genotype coding, population genotype priors, and the genotyping error channel.

Genotypes at a biallelic SNP are coded as the number of alternate alleles
carried, so the sample space is {0, 1, 2}. A genotyping pipeline observes a
noisy copy of the true genotype: each of the two allele calls flips
independently with a sample-specific probability ``w``. That choice fixes a
3x3 row-stochastic observation matrix which everything downstream shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Genotype",
    "GenotypePriors",
    "hwe_priors",
    "validate_error_prob",
    "channel_matrix",
]

DOSAGES = (0, 1, 2)

# Tolerance on sum-to-one checks for probability vectors built from floats.
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Genotype:
    """Count of alternate alleles at one biallelic SNP.

    Only the dosages 0, 1 and 2 exist; anything else is rejected at
    construction time so invalid genotypes cannot circulate.
    """

    dosage: int

    def __post_init__(self) -> None:
        d = self.dosage
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise TypeError(f"genotype dosage must be an integer, got {d!r}")
        if d not in DOSAGES:
            raise ValueError(f"genotype dosage must be 0, 1 or 2, got {d!r}")
        object.__setattr__(self, "dosage", int(d))

    def __index__(self) -> int:
        return self.dosage


@dataclass(frozen=True)
class GenotypePriors:
    """Population probabilities of the three dosages, in order (0, 1, 2).

    Entries must lie in [0, 1] and sum to one within a small float
    tolerance. Instances are immutable and hashable so they can key caches
    and group markers that share a prior.
    """

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        probs = []
        for name in ("p0", "p1", "p2"):
            p = float(getattr(self, name))
            if math.isnan(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
            object.__setattr__(self, name, p)
            probs.append(p)
        total = math.fsum(probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"genotype priors must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2])


def hwe_priors(q: float) -> GenotypePriors:
    """Genotype priors under Hardy-Weinberg equilibrium.

    Parameters
    ----------
    q : float
        Reference allele frequency in (0, 1]. With genotype = alternate
        allele count, dosage 0 has probability ``q**2``, dosage 1 has
        ``2*q*(1 - q)``, dosage 2 has ``(1 - q)**2``.
    """
    q = float(q)
    if math.isnan(q) or not 0.0 < q <= 1.0:
        raise ValueError(f"allele frequency q must lie in (0, 1], got {q!r}")
    return GenotypePriors(q * q, 2.0 * q * (1.0 - q), (1.0 - q) * (1.0 - q))


def validate_error_prob(w: float, name: str = "w") -> float:
    """Check that ``w`` is a usable per-allele error probability.

    The error model only identifies probabilities below 1/2, so the valid
    domain is [0, 0.5). Returns ``w`` as a plain float.
    """
    w = float(w)
    if math.isnan(w) or not 0.0 <= w < 0.5:
        raise ValueError(f"{name} must lie in [0, 0.5), got {w!r}")
    return w


def error_prob_array(w) -> np.ndarray:
    """``w`` as a float array, checked to lie in [0, 0.5) elementwise."""
    w = np.asarray(w, dtype=float)
    if w.size and (np.any(np.isnan(w)) or np.any(w < 0.0) or np.any(w >= 0.5)):
        raise ValueError("error probabilities must lie in [0, 0.5)")
    return w


def channel_matrix(w) -> np.ndarray:
    """Observation matrix of the error channel, ``t[z, x] = P(X = x | Z = z)``.

    Both allele calls flip independently with probability ``w``, so for a
    true dosage ``z`` the observed dosage ``x`` is ``z`` with two correct
    calls, moves by one with a single flip, and by two with a double flip.
    Rows sum to one and the matrix is doubly symmetric:
    ``t[z, x] == t[2 - z, 2 - x]``.

    Parameters
    ----------
    w : float or ndarray
        Error probabilities in [0, 0.5). An input of shape ``s`` yields an
        array of shape ``s + (3, 3)``; a scalar yields shape ``(3, 3)``.
    """
    w = error_prob_array(w)
    keep = 1.0 - w
    single = w * keep
    t = np.empty(w.shape + (3, 3))
    t[..., 0, 0] = keep * keep
    t[..., 0, 1] = 2.0 * single
    t[..., 0, 2] = w * w
    t[..., 1, 0] = single
    t[..., 1, 1] = keep * keep + w * w
    t[..., 1, 2] = single
    t[..., 2, 0] = w * w
    t[..., 2, 1] = 2.0 * single
    t[..., 2, 2] = keep * keep
    return t


# The channel is entrywise quadratic in ``w``:
# ``channel_matrix(w) == CHANNEL_COEFFS[0] + w * CHANNEL_COEFFS[1]
# + w**2 * CHANNEL_COEFFS[2]``. The constant term is the identity, so
# products with it keep exact zeros at ``w = 0``.
CHANNEL_COEFFS = np.array([
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[-2.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]],
    [[1.0, -2.0, 1.0], [-1.0, 2.0, -1.0], [1.0, -2.0, 1.0]],
])
CHANNEL_COEFFS.flags.writeable = False
