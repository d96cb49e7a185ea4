"""Reference formulas the tests check the package against."""

import math

import numpy as np


def weighted_norm(weight, x) -> float:
    """Weighted L2 norm ``sqrt(x^T W x)`` for a (d, d) weight ``W`` or its
    diagonal; raises ValueError when the form is clearly negative."""
    v = np.asarray(x, dtype=float)
    w = np.asarray(weight, dtype=float)
    q = float(np.sum(w * v * v)) if w.ndim == 1 else float(v @ w @ v)
    if q < -1e-10:
        raise ValueError("weight is not positive semi-definite on this input")
    return math.sqrt(max(q, 0.0))


def quad_alpha_divergence(p1, p2, alpha, base1, base2, cuts=()) -> tuple[float, float]:
    """The 1-d divergence quadrature as ``scipy.integrate.quad`` runs it on
    a scalar integrand: ``(value, error estimate)`` over the bases' means
    -+ 12 base sds, QAGP at the ``cuts`` inside. ``base1`` and ``base2`` are
    the laws' (base mean, base sd); each point's log-density is its
    one-point array's."""
    from scipy.integrate import quad

    (mu1, sd1), (mu2, sd2) = base1, base2
    lo = min(mu1 - 12.0 * sd1, mu2 - 12.0 * sd2)
    hi = max(mu1 + 12.0 * sd1, mu2 + 12.0 * sd2)
    pts = sorted(c for c in cuts if lo < c < hi)

    def log1(x):
        return float(p1.logpdf([x])[0])

    def log2(x):
        return float(p2.logpdf([x])[0])

    opts = dict(epsabs=1e-10, epsrel=1e-12, limit=300, points=pts or None)
    if alpha in (0.0, 1.0):
        ref, other = (log1, log2) if alpha == 1.0 else (log2, log1)

        def kl(x):
            la = ref(x)
            return math.exp(la) * (la - other(x))

        return quad(kl, lo, hi, **opts)

    cross, err = quad(lambda x: math.exp(alpha * log1(x) + (1.0 - alpha) * log2(x)), lo, hi, **opts)
    denom = alpha * (alpha - 1.0)
    return (cross - 1.0) / denom, err / abs(denom)
