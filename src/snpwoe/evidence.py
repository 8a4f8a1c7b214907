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
an observed pair's probability is ``(c_h1 · (1, w, w²)) · mr`` under H1 and
``(c_t · (1, w, w²)) · mr`` under H2, ``mr`` being the reference marginal and
``c_h1``, ``c_t`` the trace channel averaged over the genotype's posterior
given the reference read and over its prior; the LR is their ratio.
Markers with identical (priors, x_t, x_r) share one row with a count, so a
method costs O(distinct rows) per ``w``: at most 9 when all markers share a
prior, m when each has its own allele frequency. Rows are sorted by value.
Row sums are exact, equal to ``math.fsum`` of the weighted terms, and are
taken one block of rows at a time, so they depend on neither row nor marker
order and no (rows x points) matrix is built. MC's draws and quadrature's
nodes and panels share one LR evaluator, a matrix product per block of rows.
Two direct contractions remain as the reference the tests compare the
kernel against: ``joint_table_h1`` and ``trace_marginal``. ``joint_table_h2``
is the outer product of two marginals, and ``joint_prob_h1``/``h2`` are one
checked entry of a table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .genotypes import (
    CHANNEL_COEFFS,
    GenotypePriors,
    channel_matrix,
    error_prob_array,
    prior_array,
    validate_dosage,
    validate_error_prob,
    validate_priors,
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


@dataclass(frozen=True)
class MarkerObservation:
    """One marker's observed trace/reference dosage pair and its priors."""

    x_t: int
    x_r: int
    priors: GenotypePriors

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_t", validate_dosage(self.x_t))
        object.__setattr__(self, "x_r", validate_dosage(self.x_r))
        validate_priors(self.priors)


@dataclass(frozen=True, init=False, eq=False)
class CaseData:
    """Ordered, nonempty case of independent markers as read-only columns:
    int dosages ``x_t``, ``x_r`` of shape (m,) and ``priors`` of shape (m, 3),
    from :class:`MarkerObservation` records or :meth:`from_arrays`. ``ids``
    optionally names the markers (same length, unique); positions are used
    in diagnostics when ids are absent.
    """

    x_t: np.ndarray
    x_r: np.ndarray
    priors: np.ndarray
    ids: tuple[str, ...] | None

    def __init__(self, markers, ids=None) -> None:
        markers = tuple(markers)
        for mk in markers:
            if not isinstance(mk, MarkerObservation):
                raise TypeError(f"markers must be MarkerObservation, got {type(mk).__name__}")
        self._set_columns([mk.x_t for mk in markers], [mk.x_r for mk in markers],
                          [(mk.priors.p0, mk.priors.p1, mk.priors.p2) for mk in markers], ids)

    @classmethod
    def from_arrays(cls, x_t, x_r, priors, ids=None) -> CaseData:
        """A case from its columns: integer dosages ``x_t``, ``x_r`` of length
        m and genotype priors of shape (m, 3), each row in [0, 1] summing to 1."""
        case = cls.__new__(cls)
        case._set_columns(x_t, x_r, priors, ids)
        return case

    def _set_columns(self, x_t, x_r, priors, ids, checked: bool = False) -> None:
        """The one check both constructors run; stores read-only columns.
        Columns ``checked`` by the case-file parser keep their values; its ids are unique."""
        if not checked:
            if not np.size(x_t):
                raise ValueError("a case needs at least one marker")
            x_t, x_r = validate_dosage(x_t, "x_t"), validate_dosage(x_r, "x_r")
            priors = prior_array(priors)
        m = len(priors)
        if np.shape(x_t) != (m,) or np.shape(x_r) != (m,):
            raise ValueError(f"dosages x_t and x_r must have shape ({m},) to match {m} rows "
                             f"of priors, got {np.shape(x_t)} and {np.shape(x_r)}")
        if ids is not None:
            ids = tuple(ids if checked else map(str, ids))
            if len(ids) != m:
                raise ValueError(f"got {len(ids)} marker ids for {m} markers")
            if not checked and len(set(ids)) != len(ids):
                raise ValueError("marker ids must be unique")
        for name, column in (("x_t", x_t), ("x_r", x_r), ("priors", priors)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", ids)

    @property
    def m(self) -> int:
        return len(self.x_t)

    def marker_label(self, index: int) -> str:
        return self.ids[index] if self.ids is not None else str(index)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, ...]:
        """Markers collapsed on identical values of (priors, x_t, x_r), in
        sorted order of those values: per row the priors (k, 3), x_t, x_r,
        the marker count and the first marker; then each marker's row."""
        # Each marker's key is its row of bytes, with -0.0 made 0.0 so that
        # bytes agree exactly when values do (the priors hold no NaN).
        keys = np.ascontiguousarray(np.column_stack([self.priors + 0.0, self.x_t, self.x_r]))
        keys = keys.view(np.dtype((np.void, keys.strides[0]))).ravel()
        _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                              return_counts=True)
        return (self.priors[first], self.x_t[first], self.x_r[first],
                counts.astype(float), first, inverse)

    @cached_property
    def _kernels(self) -> dict[float, CaseKernel]:
        return {}

    def kernel(self, w_r: float) -> CaseKernel:
        """The case's likelihood coefficients at reference error probability
        ``w_r``; built once per ``w_r`` and kept on this instance."""
        return self._kernel(validate_error_prob(w_r, "w_r"))

    def _kernel(self, w_r: float) -> CaseKernel:
        if w_r not in self._kernels:
            self._kernels[w_r] = CaseKernel.build(*self._rows, w_r)
        return self._kernels[w_r]


def _polyval_rows(coeffs: np.ndarray, w) -> np.ndarray:
    """Each row's polynomial (coefficients lowest degree first) at ``w`` by
    Horner's rule, elementwise so that a value depends on neither its row's
    position nor the form of ``w``: scalar ``w`` gives shape (k,); 1-D ``w``
    of n points, shared by every row, gives (k, n); 2-D ``w`` of shape
    (k, n) gives row ``i`` its own points ``w[i]``. Above degree 0 the
    result is a new array, evaluated in place."""
    w = np.asarray(w, dtype=float)
    c = coeffs if w.ndim == 0 else coeffs[:, :, None]
    result = c[:, -1]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        result = result * w if j == coeffs.shape[1] - 2 else np.multiply(result, w, out=result)
        result += c[:, j]
    return result


# Values per block of an exact sum, 128 KB of float64: small enough that a
# block's temporaries are reused memory rather than fresh pages.
_SUM_BLOCK = 1 << 14
# A sum given as one block of fewer rows than this is taken column by
# column by math.fsum, which is faster there and rounds the same.
_FSUM_ROWS = 2048
# Bins are keyed by (exponent field, lane, column), with at least this many
# lanes per exponent so that neighbouring values add into different bins.
_LANES = 4
_EXPONENTS = 2048
_SIGN_UPPER = np.uint64((1 << 63) | ((1 << 52) - (1 << 26)))
_UPPER_EXPONENT = np.uint64(1049 << 52)   # 2**26 at the implicit bit
_LOWER = np.uint64((1 << 26) - 1)
_NEGATIVE_ZERO = np.uint64(1 << 63)


def _exact_sums(blocks) -> np.ndarray:
    """Column sums of all rows of ``blocks``, an iterable of nonempty float
    arrays of shape (n, c), each correctly rounded from the exact sum: equal
    to ``math.fsum`` of the column, whatever the order of its values or their
    split into blocks.

    A value is ``±(upper * 2**26 + lower) * 2**(e - 1075)``: ``e`` its
    exponent field (0 counts as 1, so subnormals stay exact) and ``upper``,
    ``lower`` the top 27 and bottom 26 bits of its 53-bit significand. For
    each piece of at most ``_SUM_BLOCK`` rows each signed half is added into
    float bins by ``np.bincount`` (exact: far fewer than 2**26 values a bin),
    then into int64 totals (exact below 2**36 values a column); the totals
    meet as Python ints and round once, in an integer division.

    A column holding inf or nan gets ``math.fsum``'s result for those
    values: nan, ±inf, or ``ValueError`` for inf + -inf. A column whose
    rounded sum overflows raises ``OverflowError`` as fsum does; a finite
    sum is returned even where fsum's partial sums overflow and it raises.
    """
    blocks = iter(blocks)
    first = next(blocks)
    if len(first) < _FSUM_ROWS:
        second = next(blocks, None)
        if second is None:
            try:
                return np.array([math.fsum(col) for col in first.T.tolist()])
            except OverflowError:   # in fsum's partial sums, maybe not in the sum
                pass
        else:
            blocks = itertools.chain((second,), blocks)
    columns = first.shape[1]
    lanes = -(-_LANES // columns)
    slot = np.arange(0)
    upper_bins = np.zeros((_EXPONENTS, columns), dtype=np.int64)
    lower_bins = np.zeros((_EXPONENTS, columns), dtype=np.int64)
    special = np.zeros((3, columns), dtype=bool)        # holds +inf, -inf, nan
    negative_zeros = np.ones(columns, dtype=bool)       # every value is -0.0
    pieces = (block[i:i + _SUM_BLOCK] for block in itertools.chain((first,), blocks)
              for i in range(0, len(block), _SUM_BLOCK))
    for block in pieces:
        block = np.ascontiguousarray(block, dtype=float)
        values = block.ravel()
        bits = values.view(np.uint64)
        key = (bits >> np.uint64(52)).view(np.intp)
        key &= _EXPONENTS - 1
        low, high = int(key.min()), int(key.max())
        if high == _EXPONENTS - 1:
            special |= [(block == np.inf).any(axis=0), (block == -np.inf).any(axis=0),
                        np.isnan(block).any(axis=0)]
        upper = ((bits & _SIGN_UPPER) | _UPPER_EXPONENT).view(float)
        if low == 0:   # zeros and subnormals have no implicit bit
            tiny = key == 0
            upper[tiny] -= np.copysign(2.0 ** 26, upper[tiny])
            negative_zeros &= (bits.reshape(block.shape) == _NEGATIVE_ZERO).all(axis=0)
        else:
            negative_zeros[:] = False
        lower = np.copysign((bits & _LOWER).astype(float), values)
        if len(slot) < len(key):
            slot = np.arange(len(key)) % (lanes * columns)
        key -= low
        key *= lanes * columns
        key += slot[:len(key)]
        for half, bins in ((upper, upper_bins), (lower, lower_bins)):
            binned = np.bincount(key, half, (high - low + 1) * lanes * columns)
            bins[low:high + 1] += binned.reshape(-1, lanes, columns).sum(axis=1).astype(np.int64)
    used = np.flatnonzero((upper_bins != 0).any(axis=1) | (lower_bins != 0).any(axis=1))
    shifts = [max(e - 1, 0) for e in used.tolist()]
    sums = np.empty(columns)
    for j, (ups, lows) in enumerate(zip(upper_bins[used].T.tolist(), lower_bins[used].T.tolist())):
        if special[:, j].any():
            sums[j] = math.fsum(v for v, has in zip((math.inf, -math.inf, math.nan), special[:, j])
                                if has)
            continue
        exact = sum(((u << 26) + v) << s for u, v, s in zip(ups, lows, shifts))
        # A column of -0.0 only gets the zero this Python's fsum gives it.
        sums[j] = math.fsum([-0.0]) if exact == 0 and negative_zeros[j] else exact / (1 << 1074)
    return sums


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float array."""
    return float(_exact_sums((values[:, None],))[0])


def _row_total(counts: np.ndarray, term, w):
    """``sum_i counts[i] * term(w, rows)[i]``, the per-row terms at ``w``
    evaluated for one block of rows at a time and summed exactly: a float
    for scalar ``w``, an array of ``w``'s shape otherwise."""
    w = np.asarray(w, dtype=float)
    if not w.size:
        return np.empty(w.shape)
    step = max(1, _SUM_BLOCK // w.size)
    # A 2-D ``w`` would give each row its own points, so flatten one; a
    # scalar stays a scalar, whose evaluation is cheaper than a 1-point array's.
    points = w.ravel() if w.ndim > 1 else w

    def block(rows: slice) -> np.ndarray:
        return counts[rows, None] * term(points, rows).reshape(-1, w.size)

    sums = _exact_sums(block(slice(i, i + step)) for i in range(0, len(counts), step))
    return float(sums[0]) if w.ndim == 0 else sums.reshape(w.shape)


def _log_rows(coeffs: np.ndarray, w, log=np.log10) -> np.ndarray:
    """Per row, ``log(coeffs @ (1, w, w**2, ...))``, -inf where that is 0."""
    p = _polyval_rows(coeffs, w)
    with np.errstate(divide="ignore"):
        return log(p, out=p)


@dataclass(frozen=True, eq=False)
class CaseKernel:
    """A case's likelihood at a fixed ``w_r`` as polynomials in the trace
    error probability ``w``, which the methods take in [0, 0.5) unchecked.

    Row ``i`` stands for ``counts[i]`` markers with the observed pair
    ``(x_t[i], x_r[i])`` and one genotype prior, the first of them marker
    ``first[i]``; marker ``j`` is in row ``inverse[j]``. Given the reference
    read, of probability ``10**log10_mr[i]`` under both hypotheses, the trace
    read has probability ``c_h1[i] @ (1, w, w**2)`` under H1 and
    ``c_t[i] @ (1, w, w**2)`` under H2. A prior that puts all mass on one
    dosage is its own posterior bit for bit, so its row's ``c_h1`` equals
    its ``c_t``: a likelihood ratio of exactly 1 at every ``w``.

    The per-row methods take ``rows``, a slice or an index array, to
    evaluate only those rows, and ``w`` in any form :func:`_polyval_rows`
    takes; :meth:`log10_ratio` takes the powers of points every row shares.
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
        post = priors * channel_matrix(w_r)[:, x_r].T    # (k, z): p_z T(w_r)[z, x_r]
        mr = post.sum(axis=1)
        # Divided in place into the genotype's posterior given the reference
        # read; where that read is impossible the row is already 0.
        np.divide(post, mr[:, None], out=post, where=mr[:, None] > 0.0)
        coef_t = CHANNEL_COEFFS[:, :, x_t]               # (j, z, k): A_j[z, x_t]
        c_h1 = np.einsum("kz,jzk->kj", post, coef_t)
        c_t = np.einsum("kz,jzk->kj", priors, coef_t)
        with np.errstate(divide="ignore"):
            log10_mr = np.log10(mr)
        return cls(x_t, x_r, counts, first, inverse, c_h1, c_t, log10_mr)

    def log10_h1(self, w, rows=slice(None)) -> np.ndarray:
        """Per-row log10 P(x_t | x_r, H1, w, w_r), conditional on the
        reference read; -inf at a hard exclusion."""
        return _log_rows(self.c_h1[rows], w)

    def log10_h2(self, w, rows=slice(None)) -> np.ndarray:
        """Per-row log10 P(x_t | x_r, H2, w, w_r), conditional on the reference read."""
        return _log_rows(self.c_t[rows], w)

    def log10_lr(self, w, rows=slice(None), w_h2=None) -> np.ndarray:
        """Per-row log10 likelihood ratio, :meth:`log10_h1` at ``w`` less
        :meth:`log10_h2` at ``w_h2`` (``w`` when not given)."""
        lr = self.log10_h1(w, rows)
        lr -= self.log10_h2(w if w_h2 is None else w_h2, rows)
        return lr

    def log10_ratio(self, powers: np.ndarray, rows, out: np.ndarray, at=None) -> np.ndarray:
        """Per-row ``log10(p_h1 / p_h2)`` at n points in [1e-120, 1/2) shared by
        the rows, whose powers ``(1, w, w**2)`` are the (3, n) ``powers``, in the
        first k of 2k or more rows of ``out``; or at ``at``, flat indices of
        those k x n, only there. The rows' ``c_h1`` over their ``c_t`` make one
        gemm of 2 rows or more (numpy sends 1 row to gemv, which rounds
        otherwise), so no value depends on other rows, points or BLAS threads;
        MC and quad take every LR value here. Channel entries are at least
        ``w**2`` for w < 1/2, so a ratio in [1e-240, 1] needs no guard."""
        coeffs = np.concatenate((self.c_h1[rows], self.c_t[rows]))
        k = len(coeffs) // 2
        p = np.matmul(coeffs, powers, out=out[:2 * k])
        h1, h2 = (p[:k], p[k:]) if at is None else (p.take(at), p.take(at + p[:k].size))
        return np.log10(np.divide(h1, h2, out=h1), out=h1)


def joint_table_h1(priors: GenotypePriors, w_t, w_r) -> np.ndarray:
    """P(X_t = a, X_r = b | same donor) as a table over (a, b).

    Both observations are noisy copies of one latent dosage z, so the
    table is ``sum_z p_z * T(w_t)[z, a] * T(w_r)[z, b]``. Either error
    probability may be an array; the broadcast shape becomes leading axes.
    """
    return np.einsum("z,...za,...zb->...ab", validate_priors(priors).as_array(),
                     channel_matrix(w_t), channel_matrix(w_r))


def trace_marginal(priors: GenotypePriors, w) -> np.ndarray:
    """Marginal distribution of one observed dosage, ``p @ T(w)``."""
    return np.einsum("z,...za->...a", validate_priors(priors).as_array(), channel_matrix(w))


def joint_table_h2(priors: GenotypePriors, w_t, w_r) -> np.ndarray:
    """P(X_t = a, X_r = b | different donors): product of the two marginals."""
    return np.einsum("...a,...b->...ab", trace_marginal(priors, w_t), trace_marginal(priors, w_r))


def _joint_prob(table, x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    a, b = validate_dosage(x_t), validate_dosage(x_r)
    w_t, w_r = validate_error_prob(w_t, "w_t"), validate_error_prob(w_r, "w_r")
    return float(table(priors, w_t, w_r)[a, b])


def joint_prob_h1(x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    return _joint_prob(joint_table_h1, x_t, x_r, priors, w_t, w_r)


def joint_prob_h2(x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    return _joint_prob(joint_table_h2, x_t, x_r, priors, w_t, w_r)


def lr(x_t, x_r, priors: GenotypePriors, w_t: float, w_r: float) -> float:
    """Single-marker likelihood ratio P(evidence | H1) / P(evidence | H2).

    Raises ``DegenerateCaseError`` when the denominator is zero, which can
    only happen at w = 0 with a prior that excludes an observed dosage.
    """
    num = joint_prob_h1(x_t, x_r, priors, w_t, w_r)
    den = joint_prob_h2(x_t, x_r, priors, w_t, w_r)
    if den == 0.0:
        raise DegenerateCaseError(
            f"observed pair ({x_t}, {x_r}) "
            "has probability zero under H2; likelihood ratio undefined"
        )
    return num / den


def log10_lik_h1(case: CaseData, w_t, w_r: float):
    """Case-level log10 P(evidence | H1, w_t, w_r); ``w_t`` may be an array."""
    kernel = case.kernel(w_r)
    return (_row_total(kernel.counts, kernel.log10_h1, error_prob_array(w_t, "w_t"))
            + _exact_sum(kernel.counts * kernel.log10_mr))


def log10_lik_h2(case: CaseData, w_t, w_r: float):
    """Case-level log10 P(evidence | H2, w_t, w_r); ``w_t`` may be an array."""
    kernel = case.kernel(w_r)
    return (_row_total(kernel.counts, kernel.log10_h2, error_prob_array(w_t, "w_t"))
            + _exact_sum(kernel.counts * kernel.log10_mr))


def _supported_kernel(case: CaseData, w_t: float | None, w_r: float) -> CaseKernel:
    """The case's kernel at ``w_r``, once no observed marker is impossible
    under H2; else ``DegenerateCaseError`` naming the first offending marker.
    Both error probabilities are floats its public callers have checked.

    With ``w_t=None`` only the reference side is checked. That suffices for
    MC, quadrature and profile: every H2 row is positive at each ``w`` in
    (0, 1/2), where MC's draws and quadrature's nodes lie, and profile's
    interval always holds such points, so its H2 maximum is finite even
    where its grid's ``w = 0`` gives an H2 row of 0.
    """
    kernel = case._kernel(w_r)
    bad = np.isneginf(kernel.log10_mr)
    if w_t is not None:
        bad |= _polyval_rows(kernel.c_t, w_t) == 0.0
    if bad.any():
        row = np.flatnonzero(bad)[np.argmin(kernel.first[bad])]
        raise DegenerateCaseError(
            f"marker {case.marker_label(int(kernel.first[row]))}: observed pair "
            f"({kernel.x_t[row]}, {kernel.x_r[row]}) has probability zero under H2"
        )
    return kernel


def woe_known(case: CaseData, w_t: float, w_r: float) -> float:
    """Weight of evidence with both error probabilities known.

    Sum over markers of log10 of the marker likelihood ratio. Returns
    ``-inf`` when some marker is possible under H2 but impossible under H1
    (a clean exclusion at zero error); raises ``DegenerateCaseError`` when
    a marker is impossible under H2.
    """
    w_r = validate_error_prob(w_r, "w_r")   # first, so woe_plugin's errors name w_r
    w_t = validate_error_prob(w_t, "w_t")
    kernel = _supported_kernel(case, w_t, w_r)
    return _row_total(kernel.counts, kernel.log10_lr, w_t)


def per_marker_log10_lr(case: CaseData, w_t: float, w_r: float,
                        w_t_h2: float | None = None) -> np.ndarray:
    """log10 likelihood ratio of each marker in case order, with H1 at
    ``w_t`` and H2 at ``w_t_h2`` (``w_t`` when not given). At profile's two
    maximizers the values sum to its WoE."""
    w_t = validate_error_prob(w_t, "w_t")
    w_r = validate_error_prob(w_r, "w_r")
    w_h2 = w_t if w_t_h2 is None else validate_error_prob(w_t_h2, "w_t_h2")
    kernel = _supported_kernel(case, w_h2, w_r)
    return kernel.log10_lr(w_t, w_h2=w_h2)[kernel.inverse]
