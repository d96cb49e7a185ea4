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
