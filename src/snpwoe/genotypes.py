"""Genotype dosages, population genotype priors, and the genotyping error channel.

A genotype at a biallelic SNP is its dosage, the number of alternate
alleles carried, so the sample space is {0, 1, 2}. A genotyping pipeline
observes a noisy copy of the true genotype: each of the two allele calls
flips independently with a sample-specific probability ``w``. That choice
fixes a 3x3 row-stochastic observation matrix which everything downstream
shares.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GenotypePriors",
    "hwe_priors",
    "validate_dosage",
    "validate_error_prob",
    "channel_matrix",
]

# Tolerance on sum-to-one checks for probability vectors built from floats.
_SUM_TOL = 1e-12

# Decimal integer text: its sign and its digits without leading zeros.
_INTEGER_TEXT = re.compile(r"\s*([+-]?)0*(\d+)\s*")


@dataclass(frozen=True)
class GenotypePriors:
    """Population probabilities of the three dosages, in order (0, 1, 2).

    Entries must lie in [0, 1] and sum to one within a small float
    tolerance. Instances are immutable and hashable.
    """

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        probs = prior_array([(self.p0, self.p1, self.p2)])[0].tolist()
        for name, p in zip(("p0", "p1", "p2"), probs):
            object.__setattr__(self, name, p)

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2])


def validate_priors(priors) -> GenotypePriors:
    """``priors``, checked to be :class:`GenotypePriors` (not a tuple of masses)."""
    if not isinstance(priors, GenotypePriors):
        raise TypeError(f"priors must be GenotypePriors, got {type(priors).__name__}")
    return priors


def hwe_prior_array(q) -> np.ndarray:
    """Hardy-Weinberg genotype priors of allele frequencies ``q`` (unchecked),
    as an array of shape ``np.shape(q) + (3,)`` over dosages (0, 1, 2)."""
    q = np.asarray(q, dtype=float)
    return np.stack([q * q, 2.0 * q * (1.0 - q), (1.0 - q) * (1.0 - q)], axis=-1)


def hwe_priors(q: float) -> GenotypePriors:
    """Genotype priors under Hardy-Weinberg equilibrium.

    Parameters
    ----------
    q : float
        Reference allele frequency in (0, 1]. With genotype = alternate
        allele count, dosage 0 has probability ``q**2``, dosage 1 has
        ``2*q*(1 - q)``, dosage 2 has ``(1 - q)**2``.
    """
    return GenotypePriors(*hwe_prior_array(validate_allele_freq(q)).tolist())


def validate_allele_freq(q, name: str = "q") -> float:
    """``q`` as a float allele frequency in (0, 1]; at 1 the marker is
    monomorphic."""
    q = validate_real(q, name)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"allele frequency {name} must lie in (0, 1], got {q!r}")
    return q


def validate_dosage(d, name: str = "genotype dosage"):
    """Check that ``d`` holds genotype dosages, integers (not bools) 0, 1
    or 2. Returns a scalar as a plain int, an array as an int64 array."""
    x = np.asarray(d)
    if not np.issubdtype(x.dtype, np.integer):
        raise TypeError(f"{name} must be an integer, got {d if x.ndim == 0 else x.dtype!r}")
    bad = (x < 0) | (x > 2)
    if bad.any():
        raise ValueError(f"{name} must be 0, 1 or 2, got {x[bad][0].item()!r}")
    return int(x) if x.ndim == 0 else x.astype(np.int64)


def prior_array(priors) -> np.ndarray:
    """``priors`` as a float array of shape (m, 3), each row checked to hold
    probabilities of the dosages 0, 1, 2 that sum to one."""
    priors = np.array(priors, dtype=float)
    if priors.ndim != 2 or priors.shape[1] != 3:
        raise ValueError(f"priors must have shape (m, 3), got {priors.shape}")
    bad = np.isnan(priors) | (priors < 0.0) | (priors > 1.0)
    if bad.any():
        j, k = np.argwhere(bad)[0]
        raise ValueError(f"p{k} must lie in [0, 1], got {priors[j, k].item()!r}")
    # A float sum of three entries in [0, 1] is within 1e-15 of the exact
    # sum, so only rows near the tolerance need the exact one.
    near = np.abs(priors.sum(axis=1) - 1.0) > 0.5 * _SUM_TOL
    for total in map(math.fsum, priors[near].tolist()):
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"genotype priors must sum to 1, got {total!r}")
    return priors


def validate_real(x, name: str) -> float:
    """``x`` as a float. A bool or None is rejected; anything ``float()``
    parses is accepted, a numeric string too (YAML reads ``1e-4``, which
    has no decimal point, as a string)."""
    if not isinstance(x, (bool, np.bool_)) and x is not None:
        try:
            return float(x)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {x!r}")


def validate_integer(n, name: str, minimum: int) -> int:
    """``n`` as an int of at least ``minimum``. A fraction or an infinity
    is rejected, not truncated; integral floats and strings are accepted,
    and decimal integer text is read exactly, not through a float."""
    match = _INTEGER_TEXT.fullmatch(n) if isinstance(n, str) else None
    if isinstance(n, numbers.Integral) and not isinstance(n, bool):
        value = int(n)
    elif match:
        sign, digits = match.groups()
        try:
            value = int(sign + digits)
        except ValueError:   # past the interpreter's digit limit
            raise ValueError(f"{name} must be an integer of at most {sys.get_int_max_str_digits()}"
                             f" digits, got one of {len(digits)} digits") from None
    else:
        x = validate_real(n, name)
        if not x.is_integer():
            raise ValueError(f"{name} must be an integer, got {x!r}")
        value = int(x)
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {shown_integer(value)}")
    return value


def shown_integer(n: int, what: str = "an integer") -> str:
    """``n`` as an error message shows it: its digits, or past 20 digits,
    which Python may refuse to print, ``what`` named by its length."""
    return repr(n) if abs(n) < 10**20 else f"{what} of more than 20 digits"


def validate_positive(x, name: str) -> float:
    """``x`` as a positive float, such as a tolerance or a variance."""
    x = validate_real(x, name)
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


def validate_error_prob(w, name: str = "w") -> float:
    """Check that ``w`` is a usable per-allele error probability.

    The error model only identifies probabilities below 1/2, so the valid
    domain is [0, 0.5). Returns ``w`` as a plain float.
    """
    return float(error_prob_array(validate_real(w, name), name))


def error_prob_array(w, name: str = "w") -> np.ndarray:
    """``w`` as a float array, checked to lie in [0, 0.5) elementwise; a
    bool or None is not a number, as in :func:`validate_real`."""
    x = np.asarray(w)
    if w is None or x.dtype == bool:
        raise ValueError(f"{name} must be a number, got {w!r}")
    x = np.asarray(x, dtype=float)
    ok = (x >= 0.0) & (x < 0.5)
    if not ok.all():
        raise ValueError(f"{name} must lie in [0, 0.5), got {x[~ok][0].item()!r}")
    return x


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
