"""Standard-normal primitives shared across the package.

Quantiles feed directly into arm-selection scores, so their bits are
load-bearing: the pinned outputs depend on the quantile at the policies'
levels (tests pin them). A scalar quantile (a Python float, which is what
every policy and adversary asks for) is a port of the cephes ``ndtri`` that
SciPy's ``scipy.special.ndtri`` runs, evaluated with ``math.log`` and
``math.sqrt`` and pinned bit for bit to SciPy; so a bandit run never loads
``scipy.special``. Arrays of levels and the CDF use SciPy's ``ndtri`` and
``ndtr``. The density stays on numpy's ``exp``: it is the integrand of
``quadpack.qags_many`` for the certified LinTS adversary's region masses,
pinned bit for bit to ``scipy.integrate.quad``. The port evaluates it on
arrays of nodes and ``quad`` on one float at a time, which goes through the
same array path as a 0-d array, so the two agree to the last bit. (The
port's other caller, the divergence quadrature, exponentiates with
``math.exp``: its values are pinned to ``quad`` on a scalar integrand.)
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    """Standard normal density, elementwise, on numpy's ``exp``."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x):
    """Standard normal CDF, elementwise (``scipy.special.ndtr``)."""
    out = scipy.special.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_ppf(p):
    """Standard normal quantile for p strictly inside (0, 1): ``_ndtri`` for
    a float, ``scipy.special.ndtri`` for anything else; the two agree bit for
    bit.

    Raises ValueError outside the open interval; callers own the boundary
    semantics of their quantile levels. Scalar float levels are memoised:
    policies ask for the same level every step.
    """
    if isinstance(p, float):
        return _scalar_ppf(p)
    arr = np.asarray(p, dtype=float)
    if not np.isfinite(arr).all() or (arr <= 0.0).any() or (arr >= 1.0).any():
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    z = scipy.special.ndtri(arr)
    return float(z) if z.ndim == 0 else z


@lru_cache(maxsize=256)
def _scalar_ppf(p):
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    return _ndtri(float(p))


# cephes ndtri (Moshier): a rational approximation in y - 1/2 on the centre
# |y - 1/2| <= 1/2 - exp(-2), and in 1/z, z = sqrt(-2 log y), on the tails,
# one for z < 8 (y > exp(-32)) and one beyond. Denominators have an implied
# leading 1.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef, ans=0.0):
    """Horner's rule, cephes ``polevl``; ``ans=1.0`` is ``p1evl``."""
    for c in coef:
        ans = ans * x + c
    return ans


def _ndtri(y):
    """cephes ``ndtri`` for a float y strictly inside (0, 1), in the same
    operation order."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, 1.0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = (x - math.log(x) / x) - z * _polevl(z, p) / _polevl(z, q, 1.0)
    return x if upper else -x
