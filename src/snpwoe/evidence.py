"""Genotype-pair probabilities under the two source hypotheses and the
resulting weight of evidence.

The evidence at one marker is a pair of observed dosages: ``x_t`` from the
trace sample and ``x_r`` from the reference sample, read through error
channels with probabilities ``w_t`` and ``w_r`` respectively. Under H1 the
two observations descend from one latent genotype drawn from the population
priors; under H2 they descend from two independent draws. Markers are
independent, so case-level quantities are sums over markers.

Every method evaluates one per-case coefficient table, :class:`CaseKernel`.
The channel ``T(w)`` is entrywise quadratic in ``w``, so at a fixed ``w_r``
an observed pair's probability is ``c_h1 · (1, w, w²)`` under H1 and
``(c_t · (1, w, w²)) · mr`` under H2, ``mr`` being the reference marginal.
Markers with identical (priors, x_t, x_r) share one row with a count, so a
method costs O(distinct rows) per ``w``: at most 9 when all markers share a
prior, m when each has its own allele frequency. Row sums use
``math.fsum`` and do not depend on marker order. ``joint_table_h1``/``h2``
are the direct channel/prior contractions, kept as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .genotypes import (
    CHANNEL_COEFFS,
    Genotype,
    GenotypePriors,
    channel_matrix,
    error_prob_array,
    validate_error_prob,
)

__all__ = [
    "DegenerateCaseError",
    "MarkerObservation",
    "CaseData",
    "CaseKernel",
    "joint_table_h1",
    "joint_table_h2",
    "trace_marginal",
    "joint_prob_h1",
    "joint_prob_h2",
    "lr",
    "woe_known",
    "log10_lik_h1",
    "log10_lik_h2",
    "per_marker_log10_lr",
]


class DegenerateCaseError(ValueError):
    """An observed marker has probability zero under H2, so no likelihood
    ratio exists for the case."""


def _coerce_genotype(g) -> Genotype:
    return g if isinstance(g, Genotype) else Genotype(g)


@dataclass(frozen=True)
class MarkerObservation:
    """One marker's observed trace/reference dosage pair and its priors."""

    x_t: Genotype
    x_r: Genotype
    priors: GenotypePriors

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_t", _coerce_genotype(self.x_t))
        object.__setattr__(self, "x_r", _coerce_genotype(self.x_r))
        if not isinstance(self.priors, GenotypePriors):
            raise TypeError(f"priors must be GenotypePriors, got {type(self.priors).__name__}")


@dataclass(frozen=True)
class CaseData:
    """Ordered, nonempty collection of independent marker observations.

    ``ids`` optionally names the markers (same length, unique); positions
    are used in diagnostics when ids are absent.
    """

    markers: tuple[MarkerObservation, ...]
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        markers = tuple(self.markers)
        if not markers:
            raise ValueError("a case needs at least one marker")
        for mk in markers:
            if not isinstance(mk, MarkerObservation):
                raise TypeError(f"markers must be MarkerObservation, got {type(mk).__name__}")
        object.__setattr__(self, "markers", markers)
        if self.ids is not None:
            ids = tuple(str(i) for i in self.ids)
            if len(ids) != len(markers):
                raise ValueError(
                    f"got {len(ids)} marker ids for {len(markers)} markers"
                )
            if len(set(ids)) != len(ids):
                raise ValueError("marker ids must be unique")
            object.__setattr__(self, "ids", ids)

    @property
    def m(self) -> int:
        return len(self.markers)

    def marker_label(self, index: int) -> str:
        return self.ids[index] if self.ids is not None else str(index)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, ...]:
        """Markers collapsed on identical (priors, x_t, x_r), in order of
        first appearance: per row the priors (k, 3), x_t, x_r, the marker
        count and the first marker; then each marker's row."""
        index: dict[tuple[GenotypePriors, int, int], int] = {}
        keys = [(mk.priors, mk.x_t.dosage, mk.x_r.dosage) for mk in self.markers]
        inverse = np.array([index.setdefault(key, len(index)) for key in keys])
        _, first, counts = np.unique(inverse, return_index=True, return_counts=True)
        priors, x_t, x_r = zip(*index)
        return (np.array([(p.p0, p.p1, p.p2) for p in priors]), np.array(x_t),
                np.array(x_r), counts.astype(float), first, inverse)

    @cached_property
    def _kernels(self) -> dict[float, CaseKernel]:
        return {}

    def kernel(self, w_r: float) -> CaseKernel:
        """The case's likelihood coefficients at reference error probability
        ``w_r``; built once per ``w_r`` and kept on this instance."""
        w_r = validate_error_prob(w_r, "w_r")
        if w_r not in self._kernels:
            self._kernels[w_r] = CaseKernel.build(*self._rows, w_r)
        return self._kernels[w_r]


def _polyval_rows(coeffs: np.ndarray, w) -> np.ndarray:
    """Each row's polynomial (coefficients lowest degree first) at ``w`` by
    Horner's rule, elementwise so that a row's value does not depend on its
    position; scalar ``w`` gives shape (k,), shape ``s`` gives (k,) + s."""
    w = np.asarray(w, dtype=float)
    c = coeffs.reshape(coeffs.shape + (1,) * w.ndim)
    out = c[:, -1]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        out = c[:, j] + w * out
    return out


def _fsum_rows(counts: np.ndarray, terms: np.ndarray):
    """``sum_i counts[i] * terms[i]`` by ``math.fsum``: a float for terms of
    shape (k,), an array of shape s for terms of shape (k,) + s."""
    weighted = counts.reshape(counts.shape + (1,) * (terms.ndim - 1)) * terms
    sums = [math.fsum(col) for col in weighted.reshape(len(counts), -1).T.tolist()]
    return sums[0] if terms.ndim == 1 else np.array(sums).reshape(terms.shape[1:])


@dataclass(frozen=True, eq=False)
class CaseKernel:
    """A case's likelihood at a fixed ``w_r`` as polynomials in the trace
    error probability ``w``, which the methods take in [0, 0.5) unchecked.

    Row ``i`` stands for ``counts[i]`` markers with the observed pair
    ``(x_t[i], x_r[i])`` and one genotype prior, the first of them marker
    ``first[i]``; marker ``j`` is in row ``inverse[j]``. The row's
    probability is ``c_h1[i] @ (1, w, w**2)`` under H1 and
    ``(c_t[i] @ (1, w, w**2)) * 10**log10_mr[i]`` under H2.
    """

    x_t: np.ndarray
    x_r: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    inverse: np.ndarray
    c_h1: np.ndarray
    c_t: np.ndarray
    log10_mr: np.ndarray

    @classmethod
    def build(cls, priors, x_t, x_r, counts, first, inverse, w_r: float) -> CaseKernel:
        t_r = channel_matrix(w_r)[:, x_r]         # (z, k): T(w_r)[z, x_r]
        coef_t = CHANNEL_COEFFS[:, :, x_t]        # (j, z, k): A_j[z, x_t]
        c_t = np.einsum("kz,jzk->kj", priors, coef_t)
        c_h1 = np.einsum("kz,zk,jzk->kj", priors, t_r, coef_t)
        with np.errstate(divide="ignore"):  # -inf is rejected by check_h2_support
            log10_mr = np.log10(np.einsum("kz,zk->k", priors, t_r))
        return cls(x_t, x_r, counts, first, inverse, c_h1, c_t, log10_mr)

    def log10_h1(self, w) -> np.ndarray:
        """Per-row log10 P(x_t, x_r | H1, w, w_r); -inf at a hard exclusion."""
        with np.errstate(divide="ignore"):
            return np.log10(_polyval_rows(self.c_h1, w))

    def log10_h2(self, w) -> np.ndarray:
        """Per-row log10 P(x_t, x_r | H2, w, w_r)."""
        mr = self.log10_mr.reshape(self.log10_mr.shape + (1,) * np.ndim(w))
        with np.errstate(divide="ignore"):
            return np.log10(_polyval_rows(self.c_t, w)) + mr

    def total(self, terms: np.ndarray):
        """Sum over markers of per-row ``terms``, weighted by row counts."""
        return _fsum_rows(self.counts, terms)


def joint_table_h1(priors: GenotypePriors, w_t, w_r) -> np.ndarray:
    """P(X_t = a, X_r = b | same donor) as a table over (a, b).

    Both observations are noisy copies of one latent dosage z, so the
    table is ``sum_z p_z * T(w_t)[z, a] * T(w_r)[z, b]``. Either error
    probability may be an array; the broadcast shape becomes leading axes.
    """
    p = priors.as_array()
    tt = channel_matrix(w_t)
    tr = channel_matrix(w_r)
    return np.einsum("z,...za,...zb->...ab", p, tt, tr)


def joint_table_h2(priors: GenotypePriors, w_t, w_r) -> np.ndarray:
    """P(X_t = a, X_r = b | different donors): product of the two marginals."""
    p = priors.as_array()
    mt = np.einsum("z,...za->...a", p, channel_matrix(w_t))
    mr = np.einsum("z,...zb->...b", p, channel_matrix(w_r))
    return np.einsum("...a,...b->...ab", mt, mr)


def trace_marginal(priors: GenotypePriors, w) -> np.ndarray:
    """Marginal distribution of one observed dosage, ``p @ T(w)``."""
    return np.einsum("z,...za->...a", priors.as_array(), channel_matrix(w))


def joint_prob_h1(x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    a = _coerce_genotype(x_t).dosage
    b = _coerce_genotype(x_r).dosage
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    return float(joint_table_h1(priors, w_t, w_r)[a, b])


def joint_prob_h2(x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    a = _coerce_genotype(x_t).dosage
    b = _coerce_genotype(x_r).dosage
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    return float(joint_table_h2(priors, w_t, w_r)[a, b])


def lr(x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    """Single-marker likelihood ratio P(evidence | H1) / P(evidence | H2).

    Raises ``DegenerateCaseError`` when the denominator is zero, which can
    only happen at w = 0 with a prior that excludes an observed dosage.
    """
    num = joint_prob_h1(x_t, x_r, priors, w_t, w_r)
    den = joint_prob_h2(x_t, x_r, priors, w_t, w_r)
    if den == 0.0:
        raise DegenerateCaseError(
            f"observed pair ({_coerce_genotype(x_t).dosage}, {_coerce_genotype(x_r).dosage}) "
            "has probability zero under H2; likelihood ratio undefined"
        )
    return num / den


def log10_lik_h1(case: CaseData, w_t, w_r: float):
    """Case-level log10 P(evidence | H1, w_t, w_r); ``w_t`` may be an array."""
    kernel = case.kernel(w_r)
    return kernel.total(kernel.log10_h1(error_prob_array(w_t)))


def log10_lik_h2(case: CaseData, w_t, w_r: float):
    """Case-level log10 P(evidence | H2, w_t, w_r); ``w_t`` may be an array."""
    kernel = case.kernel(w_r)
    return kernel.total(kernel.log10_h2(error_prob_array(w_t)))


def check_h2_support(case: CaseData, w_t: float | None, w_r: float) -> None:
    """Raise ``DegenerateCaseError`` if any observed marker is impossible
    under H2, naming the first offending marker.

    With ``w_t=None`` only the reference side is checked; that suffices for
    methods that keep the trace error probability strictly inside (0, 1/2),
    where the trace marginal is everywhere positive.
    """
    kernel = case.kernel(w_r)
    bad = np.isneginf(kernel.log10_mr)
    if w_t is not None:
        bad |= _polyval_rows(kernel.c_t, w_t) == 0.0
    if bad.any():
        row = int(np.argmax(bad))   # rows are in first-appearance order
        raise DegenerateCaseError(
            f"marker {case.marker_label(int(kernel.first[row]))}: observed pair "
            f"({kernel.x_t[row]}, {kernel.x_r[row]}) has probability zero under H2"
        )


def woe_known(case: CaseData, w_t: float, w_r: float) -> float:
    """Weight of evidence with both error probabilities known.

    Sum over markers of log10 of the marker likelihood ratio. Returns
    ``-inf`` when some marker is possible under H2 but impossible under H1
    (a clean exclusion at zero error); raises ``DegenerateCaseError`` when
    a marker is impossible under H2.
    """
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, w_t, w_r)
    kernel = case.kernel(w_r)
    return kernel.total(kernel.log10_h1(w_t) - kernel.log10_h2(w_t))


def per_marker_log10_lr(case: CaseData, w_t: float, w_r: float) -> np.ndarray:
    """log10 likelihood ratio of each marker in case order."""
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    check_h2_support(case, w_t, w_r)
    kernel = case.kernel(w_r)
    return (kernel.log10_h1(w_t) - kernel.log10_h2(w_t))[kernel.inverse]
