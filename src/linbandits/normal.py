"""Standard-normal primitives shared across the package.

The inverse CDF is a rational approximation (Acklam's coefficients) followed
by one Halley refinement step, which brings the absolute error to well below
1e-9 everywhere we evaluate it. Quantiles feed directly into arm-selection
scores, so this accuracy is load-bearing.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational-approximation coefficients (central region / tails).
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)

_P_LOW = 0.02425


def norm_pdf(x):
    """Standard normal density, elementwise. A Python float skips the array
    conversion (quadrature calls this once per point); the exponential is
    numpy's on both paths, so the two agree to the last bit."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x):
    """Standard normal CDF, elementwise; erfc keeps tail accuracy."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * scipy.special.erfc(-x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def _rational_ppf_lower(p: np.ndarray) -> np.ndarray:
    """Rational approximation on the lower half p <= 0.5 (result <= 0)."""
    z = np.empty_like(p)
    lo = p < _P_LOW
    mid = ~lo
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        z[mid] = q * num / den
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(p[lo]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        z[lo] = num / den
    return z


def norm_ppf(p):
    """Standard normal quantile for p strictly inside (0, 1).

    Evaluated on the lower half and mirrored (1 - p is exact there), so the
    tail keeps full relative accuracy. Raises ValueError outside the open
    interval; callers own the boundary semantics of their quantile levels.
    Scalar float levels are memoised: policies ask for the same level every
    step.
    """
    if isinstance(p, float):
        return _scalar_ppf(p)
    return _ppf(p)


def _ppf(p):
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float)
    upper = flat > 0.5
    q = np.where(upper, 1.0 - flat, flat)
    z = _rational_ppf_lower(q)

    # One Halley step; skipped where the density underflows (|z| > ~38).
    # With z <= 0 the erfc argument is positive, so the CDF keeps relative
    # accuracy and the correction stays meaningful deep in the tail.
    pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    safe = pdf > 1e-300
    if np.any(safe):
        err = 0.5 * scipy.special.erfc(-z[safe] / _SQRT2) - q[safe]
        u = err / pdf[safe]
        z[safe] = z[safe] - u / (1.0 + 0.5 * z[safe] * u)
    z = np.where(upper, -z, z)
    return float(z[0]) if scalar else z


_scalar_ppf = lru_cache(maxsize=256)(_ppf)
