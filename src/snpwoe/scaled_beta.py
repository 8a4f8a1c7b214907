"""Beta distribution rescaled to the open interval (0, 1/2).

Error probabilities live on (0, 1/2), so priors over them are expressed as
one half of a Beta(alpha, beta) variable. The class below carries the exact
density/CDF/quantile transforms of that rescaling and a moment-matching
constructor, mirroring the usual mean/concentration reparameterisation of
the beta family. ``scipy.special`` is imported by the methods that use it,
so importing the package does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genotypes import validate_integer, validate_positive, validate_real

__all__ = ["ScaledBeta"]

# The least and greatest floats inside the support (0, 1/2).
_OPEN_SUPPORT = (np.nextafter(0.0, 1.0), np.nextafter(0.5, 0.0))


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class ScaledBeta:
    """Distribution of ``U / 2`` where ``U ~ Beta(alpha, beta)``.

    The support is the open interval (0, 1/2); the mean is
    ``alpha / (alpha + beta) / 2`` and the variance is the beta variance
    divided by 4.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = validate_real(getattr(self, name), f"shape {name}")
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"shape {name} must be a finite positive number, got {v!r}")
            object.__setattr__(self, name, v)

    def __getstate__(self) -> dict:
        # Pickles and copies carry the shapes only, not what quadrature keeps
        # on the instance.
        return {"alpha": self.alpha, "beta": self.beta}

    @classmethod
    def from_moments(cls, mean: float, variance: float) -> "ScaledBeta":
        """Solve the shapes so the scaled variable has the given moments.

        With ``m = 2 * mean`` and ``s2 = 4 * variance`` (the moments of the
        unscaled beta variable), the solution is
        ``nu = m * (1 - m) / s2 - 1``, ``alpha = m * nu``,
        ``beta = (1 - m) * nu``. The variance must satisfy
        ``variance < mean * (1/2 - mean)``; at or beyond that bound no
        beta distribution has the requested moments.
        """
        mean = validate_real(mean, "mean")
        if not 0.0 < mean < 0.5:
            raise ValueError(f"mean must lie in (0, 0.5), got {mean!r}")
        variance = validate_positive(variance, "variance")
        m = 2.0 * mean
        s2 = 4.0 * variance
        if s2 >= m * (1.0 - m):
            raise ValueError(
                f"variance {variance!r} is too large for mean {mean!r}; "
                f"require variance < {m * (1.0 - m) / 4.0!r}"
            )
        nu = m * (1.0 - m) / s2 - 1.0
        return cls(m * nu, (1.0 - m) * nu)

    @property
    def mean(self) -> float:
        return 0.5 * self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        s = self.alpha + self.beta
        return 0.25 * self.alpha * self.beta / (s * s * (s + 1.0))

    def pdf(self, w):
        """Density at ``w``; zero outside (0, 1/2), vectorized."""
        from scipy import special
        arr, scalar = _as_float_array(w)
        u = 2.0 * arr
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(arr)
        lognorm = special.betaln(self.alpha, self.beta)
        ui = u[inside]
        out[inside] = 2.0 * np.exp(
            (self.alpha - 1.0) * np.log(ui)
            + (self.beta - 1.0) * np.log1p(-ui)
            - lognorm
        )
        return float(out) if scalar else out

    def cdf(self, w):
        """P(W <= w), vectorized; clamps to {0, 1} outside the support."""
        from scipy import special
        arr, scalar = _as_float_array(w)
        u = np.clip(2.0 * arr, 0.0, 1.0)
        out = special.betainc(self.alpha, self.beta, u)
        return float(out) if scalar else out

    def quantile(self, p):
        """Inverse CDF for probabilities strictly inside (0, 1), vectorized."""
        from scipy import special
        arr, scalar = _as_float_array(p)
        if arr.size and (np.any(np.isnan(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0)):
            raise ValueError("quantile probabilities must lie in (0, 1)")
        out = 0.5 * special.betaincinv(self.alpha, self.beta, arr)
        return float(out) if scalar else out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. values, all strictly inside (0, 1/2).

        A draw is half a beta draw, clipped into [smallest positive float,
        ``nextafter(0.5, 0)``]. At extreme shapes a beta draw can be exactly
        0 or 1, or its half underflow to 0; such a draw becomes the nearest
        float inside the support. It is not redrawn: redrawing would replace
        genuine draws below 5e-324 with typical ones, and at tiny first
        shapes, where nearly every draw is 0, could run without end.
        """
        n = validate_integer(n, "n", 1)
        return np.clip(0.5 * rng.beta(self.alpha, self.beta, size=n), *_OPEN_SUPPORT)
