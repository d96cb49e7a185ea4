"""Standard-normal primitives shared across the package.

The quantile and the CDF are SciPy's ``ndtri`` and ``ndtr``. Quantiles feed
directly into arm-selection scores, so these bits are load-bearing: the
pinned outputs depend on ``ndtri`` at the policies' levels (tests pin them).
The density stays on numpy's ``exp``, because it is the quadrature integrand
of the certified LinTS adversary, whose results are pinned to the bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    """Standard normal density, elementwise. A Python float skips the array
    conversion (quadrature calls this once per point); the exponential is
    numpy's on both paths, so the two agree to the last bit."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x):
    """Standard normal CDF, elementwise (``scipy.special.ndtr``)."""
    out = scipy.special.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_ppf(p):
    """Standard normal quantile (``scipy.special.ndtri``) for p strictly
    inside (0, 1).

    Raises ValueError outside the open interval; callers own the boundary
    semantics of their quantile levels. Scalar float levels are memoised:
    policies ask for the same level every step.
    """
    if isinstance(p, float):
        return _scalar_ppf(p)
    return _ppf(p)


def _ppf(p):
    arr = np.asarray(p, dtype=float)
    if not np.isfinite(arr).all() or (arr <= 0.0).any() or (arr >= 1.0).any():
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    z = scipy.special.ndtri(arr)
    return float(z) if z.ndim == 0 else z


_scalar_ppf = lru_cache(maxsize=256)(_ppf)
