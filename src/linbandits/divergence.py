"""Tsallis alpha-divergences, the constant-degradation maps that turn exact
posterior constants into approximate-inference constants, and evaluators for
the resulting regret upper bounds.

``D_alpha(P1, P2) = (int p1^a p2^(1-a) - 1) / (a (a - 1))`` with the KL
divergences as the ``a in {0, 1}`` limit cases, and the symmetry
``D_a(P1, P2) = D_{1-a}(P2, P1)``. Gaussian pairs and piecewise-reweighted
Gaussians sharing one base admit closed forms; other univariate pairs go
through adaptive quadrature over their bases' +-12 sd span, everything else
through Monte Carlo (black-box samplers). Both univariate routes read a law
as one view, ``_univariate``: its Gaussian base, cuts and weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy

from .linalg import ConfidenceParams, beta
from .normal import norm_cdf, norm_ppf
from .posterior import _LOG_SQRT_2PI, GaussianPosterior, _check_int

DEFAULT_MC_SAMPLES = 100_000
# absolute tolerance of the divergence quadrature, and the allowance of an
# affine-invariance check beyond its Monte-Carlo error
_QUAD_TOLERANCE = 1e-10
_INVARIANCE_TOLERANCE = 1e-6
_TAIL_SDS = 12.0  # the quadrature truncates each law at its base mean -+ this many base sds


# ---------------------------------------------------------------------------
# Distribution descriptors (``posterior.GaussianPosterior`` is the Gaussian one)


class ReweightedGaussian1D:
    """Univariate Gaussian with piecewise-constant density reweighting.

    The density is ``w_k * phi((x - mu) / sd) / sd`` on the k-th interval of
    the partition induced by ``cuts``; the weights must renormalize the base
    mass to one. This is the family produced by the budgeted adversarial
    reweightings, and the one used to exercise the quantile-shift bounds.
    """

    def __init__(self, base_mean: float, base_sd: float, cuts, weights):
        if not math.isfinite(base_mean):
            raise ValueError("base_mean must be finite")
        if not (0.0 < base_sd < math.inf):
            raise ValueError("base_sd must be finite and positive")
        cuts = tuple(float(c) for c in cuts)
        weights = tuple(float(w) for w in weights)
        if not all(math.isfinite(c) for c in cuts):
            raise ValueError("cuts must be finite")
        if sorted(cuts) != list(cuts):
            raise ValueError("cuts must be ascending")
        if len(weights) != len(cuts) + 1:
            raise ValueError("need exactly one weight per interval")
        if not all(0.0 < w < math.inf for w in weights):
            raise ValueError("weights must be finite and strictly positive")
        self.base_mean = float(base_mean)
        self.base_sd = float(base_sd)
        self.cuts = cuts
        self.weights = np.asarray(weights)
        edges = np.concatenate(([-np.inf], cuts, [np.inf]))
        z = (edges - self.base_mean) / self.base_sd
        cdf_edges = np.concatenate(([0.0], norm_cdf(z[1:-1]).reshape(-1), [1.0]))
        self._base_masses = np.diff(cdf_edges)
        self._cdf_edges = cdf_edges
        total = float(np.sum(self.weights * self._base_masses))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights do not normalize the density (mass {total})")
        self._cum = np.concatenate(([0.0], np.cumsum(self.weights * self._base_masses)))

    @property
    def dim(self) -> int:
        return 1

    def _interval_of(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.cuts), x, side="right")

    def logpdf(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float).reshape(-1)
        z = (pts - self.base_mean) / self.base_sd
        base = -0.5 * z * z - math.log(self.base_sd) - _LOG_SQRT_2PI
        return base + np.log(self.weights[self._interval_of(pts)])

    def cdf(self, x: float) -> float:
        k = int(self._interval_of(np.asarray([x]))[0])
        z = (x - self.base_mean) / self.base_sd
        below = float(norm_cdf(z)) - self._cdf_edges[k]
        return float(self._cum[k] + self.weights[k] * below)

    def _ppf_array(self, gamma: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self._cum[1:-1], gamma, side="left")
        inner = self._cdf_edges[k] + (gamma - self._cum[k]) / self.weights[k]
        inner = np.clip(inner, 1e-300, 1.0 - 1e-16)
        return self.base_mean + self.base_sd * np.atleast_1d(norm_ppf(inner))

    def ppf(self, gamma: float) -> float:
        if not (0.0 < gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        return float(self._ppf_array(np.asarray([gamma]))[0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._ppf_array(rng.random(n)).reshape(n, 1)

    def affine(self, shift: float, scale: float) -> "ReweightedGaussian1D":
        b = float(np.asarray(scale).reshape(()))
        a = float(np.asarray(shift).reshape(()))
        if b == 0.0:
            raise ValueError("affine scale must be invertible")
        cuts = [a + b * c for c in self.cuts]
        weights = list(self.weights)
        if b < 0.0:
            cuts = cuts[::-1]
            weights = weights[::-1]
        return ReweightedGaussian1D(
            a + b * self.base_mean, abs(b) * self.base_sd, cuts, weights
        )


def two_region_reweight(
    base_mean: float, base_sd: float, cut: float, lower_weight: float
) -> ReweightedGaussian1D:
    """Reweight the base mass below ``cut`` by ``lower_weight``; the upper
    weight is solved from normalization."""
    z = (cut - base_mean) / base_sd
    lower_mass = float(norm_cdf(z))
    upper_mass = 1.0 - lower_mass
    if lower_mass <= 0.0 or upper_mass <= 0.0:
        raise ValueError("cut leaves an empty region")
    upper_weight = (1.0 - lower_weight * lower_mass) / upper_mass
    return ReweightedGaussian1D(base_mean, base_sd, [cut], [lower_weight, upper_weight])


def _univariate(p) -> tuple[float, float, tuple[float, ...], np.ndarray] | None:
    """``(base mean, base sd, cuts, weights)`` of a univariate law: a 1-d
    Gaussian is its own base, with no cuts and weight 1. None for any other
    descriptor, which neither the shared-base closed form nor the quadrature
    takes."""
    if isinstance(p, ReweightedGaussian1D):
        return p.base_mean, p.base_sd, p.cuts, p.weights
    if isinstance(p, GaussianPosterior) and p.dim == 1:
        return (*p._scalar, (), np.ones(1))
    return None


# ---------------------------------------------------------------------------
# Divergence computation


class Method(str, enum.Enum):
    AUTO = "auto"
    CLOSED_FORM_GAUSSIAN = "closed_form_gaussian"
    QUADRATURE_1D = "quadrature_1d"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class DivergenceResult:
    """A divergence value with its order, computation route, and error size."""

    alpha: float
    value: float
    method: Method
    error_estimate: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _gaussian_cross_log_integral(
    p1: GaussianPosterior, p2: GaussianPosterior, alpha: float
) -> float | None:
    """log of int p1^a p2^(1-a); None when the blended precision loses
    positive definiteness (the divergence is infinite)."""
    prec1 = np.linalg.inv(p1.covariance)
    prec2 = np.linalg.inv(p2.covariance)
    blended = alpha * prec1 + (1.0 - alpha) * prec2
    try:
        chol = np.linalg.cholesky(blended)
    except np.linalg.LinAlgError:
        return None
    logdet_blend = 2.0 * float(np.sum(np.log(np.diag(chol))))
    b = alpha * prec1 @ p1.mean + (1.0 - alpha) * prec2 @ p2.mean
    c = alpha * float(p1.mean @ prec1 @ p1.mean) + (1.0 - alpha) * float(
        p2.mean @ prec2 @ p2.mean
    )
    sol = np.linalg.solve(chol, b)
    quad = float(sol @ sol)
    return (
        -0.5 * alpha * p1._logdet
        - 0.5 * (1.0 - alpha) * p2._logdet
        - 0.5 * logdet_blend
        + 0.5 * (quad - c)
    )


def _gaussian_kl(p1: GaussianPosterior, p2: GaussianPosterior) -> float:
    """KL(p1 || p2) for Gaussian descriptors."""
    sol = np.linalg.solve(p2.covariance, p1.covariance)
    diff = p2.mean - p1.mean
    maha = float(diff @ np.linalg.solve(p2.covariance, diff))
    return 0.5 * (float(np.trace(sol)) + maha - p1.dim + p2._logdet - p1._logdet)


def _closed_form(p1, p2, alpha: float, views) -> float | None:
    """Exact divergence, or None when no closed form applies; ``views`` are
    the two ``_univariate`` views."""
    if isinstance(p1, GaussianPosterior) and isinstance(p2, GaussianPosterior):
        if alpha == 1.0:
            return _gaussian_kl(p1, p2)
        if alpha == 0.0:
            return _gaussian_kl(p2, p1)
        log_i = _gaussian_cross_log_integral(p1, p2, alpha)
        if log_i is None:
            return math.inf
        return math.expm1(log_i) / (alpha * (alpha - 1.0))

    # Not both Gaussian, so two views mean at least one reweighted law.
    if None in views:
        return None
    (mu, sd, cuts1, _), (mu2, sd2, cuts2, _) = views
    if abs(mu2 - mu) > 1e-12 or abs(sd2 - sd) > 1e-12:
        return None
    # Shared base: the cross integral reduces to a sum over the refined
    # partition of weight products times base interval masses.
    cuts = sorted(set(cuts1) | set(cuts2))
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    z = (edges[1:-1] - mu) / sd
    cdf_edges = np.concatenate(([0.0], np.atleast_1d(norm_cdf(z)), [1.0]))
    masses = np.diff(cdf_edges)
    # each law's weight on the refined interval that starts at each edge
    w1, w2 = (ws[np.searchsorted(cs, edges[:-1], side="right")] for *_, cs, ws in views)
    if alpha == 0.0:  # KL(p2 || p1): the alpha = 1 sum on the swapped weights
        w1, w2, alpha = w2, w1, 1.0
    if alpha == 1.0:
        return float(np.sum(w1 * np.log(w1 / w2) * masses))
    cross = float(np.sum(w1**alpha * w2 ** (1.0 - alpha) * masses))
    return (cross - 1.0) / (alpha * (alpha - 1.0))


def _point_logpdf(p) -> Callable[[float], float]:
    """One-point log-density for the quadrature integrands: a univariate
    Gaussian takes the float path of its ``logpdf``."""
    if isinstance(p, GaussianPosterior):
        return p.logpdf
    return lambda x: float(p.logpdf([x])[0])


def _quadrature(p1, p2, alpha: float, views) -> tuple[float, float]:
    (mu1, sd1, cuts1, _), (mu2, sd2, cuts2, _) = views
    lo = min(mu1 - _TAIL_SDS * sd1, mu2 - _TAIL_SDS * sd2)
    hi = max(mu1 + _TAIL_SDS * sd1, mu2 + _TAIL_SDS * sd2)
    pts = sorted(c for c in (*cuts1, *cuts2) if lo < c < hi)
    log1, log2 = _point_logpdf(p1), _point_logpdf(p2)

    if alpha in (0.0, 1.0):
        ref, other = (log1, log2) if alpha == 1.0 else (log2, log1)

        def integrand(x: float) -> float:
            la = ref(x)
            lb = other(x)
            return math.exp(la) * (la - lb)

        val, err = scipy.integrate.quad(
            integrand, lo, hi, epsabs=_QUAD_TOLERANCE, epsrel=1e-12, limit=300, points=pts or None
        )
        return val, err

    def integrand(x: float) -> float:
        return math.exp(alpha * log1(x) + (1.0 - alpha) * log2(x))

    cross, err = scipy.integrate.quad(
        integrand, lo, hi, epsabs=_QUAD_TOLERANCE, epsrel=1e-12, limit=300, points=pts or None
    )
    denom = alpha * (alpha - 1.0)
    return (cross - 1.0) / denom, err / abs(denom)


def _monte_carlo(
    p1, p2, alpha: float, n: int, rng: np.random.Generator
) -> tuple[float, float]:
    # log-ratios in place, in the operand order of the plain expressions;
    # KL(p2 || p1) at alpha = 0 is the alpha = 1 route on the swapped pair
    if alpha == 0.0:
        p1, p2, alpha = p2, p1, 1.0
    draws = p1.sample(n, rng)
    if alpha == 1.0:
        vals = p1.logpdf(draws)
        vals -= p2.logpdf(draws)
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n))
    ratios = p2.logpdf(draws)
    ratios -= p1.logpdf(draws)
    ratios *= 1.0 - alpha
    np.exp(ratios, out=ratios)
    denom = alpha * (alpha - 1.0)
    mean = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1) / math.sqrt(n))
    return (mean - 1.0) / denom, se / abs(denom)


def alpha_divergence(
    p1,
    p2,
    alpha: float,
    method: Method | str = Method.AUTO,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> DivergenceResult:
    """Divergence of order ``alpha`` between two descriptors.

    A non-finite ``alpha`` raises ValueError. ``alpha`` of 0 or 1 dispatches to the corresponding KL divergence. The
    closed-form route covers Gaussian pairs (finite whenever the alpha-blended
    precision stays positive definite, infinite otherwise, flagged rather than
    raised) and reweightings of one shared Gaussian base. The Monte-Carlo
    route raises ValueError, before drawing, unless ``mc_samples`` is an
    integer >= 2.
    """
    alpha = float(alpha)
    _check_finite(alpha=alpha)
    method = Method(method)
    views = _univariate(p1), _univariate(p2)

    if method in (Method.AUTO, Method.CLOSED_FORM_GAUSSIAN):
        exact = _closed_form(p1, p2, alpha, views)
        if exact is not None:
            return DivergenceResult(
                alpha=alpha,
                value=exact,
                method=Method.CLOSED_FORM_GAUSSIAN,
                error_estimate=0.0 if math.isfinite(exact) else math.inf,
            )
        if method is Method.CLOSED_FORM_GAUSSIAN:
            raise ValueError("no closed form for this descriptor pair")

    univariate = None not in views
    if method is Method.QUADRATURE_1D or (method is Method.AUTO and univariate):
        if not univariate:
            raise ValueError("quadrature requires univariate descriptors with densities")
        value, err = _quadrature(p1, p2, alpha, views)
        return DivergenceResult(alpha, value, Method.QUADRATURE_1D, err)

    # the standard error needs two draws
    mc_samples = _check_int("mc_samples", mc_samples, 2)
    rng = np.random.default_rng() if rng is None else rng
    value, se = _monte_carlo(p1, p2, alpha, mc_samples, rng)
    return DivergenceResult(alpha, value, Method.MONTE_CARLO, se)


# ---------------------------------------------------------------------------
# Constant degradation under a bounded inference error


def _check_finite(**values: float) -> None:
    """Reject a NaN or infinite input, by name."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_epsilon(epsilon: float) -> None:
    _check_finite(epsilon=epsilon)
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")


def degrade_anti_concentration(kappa1: float, epsilon: float, alpha1: float) -> float:
    """Anti-concentration constant after an order-``alpha1`` budget of
    ``epsilon``: ``(eps a (a-1) + 1)^(1/(1-a)) * kappa1^(a/(a-1))``.

    Contracts even at zero budget; the exponent on ``kappa1`` exceeds one.
    """
    if not (0.0 < kappa1 < 1.0):
        raise ValueError("kappa1 must lie in (0, 1)")
    _check_epsilon(epsilon)
    _check_finite(alpha1=alpha1)
    if alpha1 <= 1.0:
        raise ValueError("alpha1 must exceed 1")
    lead = (epsilon * alpha1 * (alpha1 - 1.0) + 1.0) ** (1.0 / (1.0 - alpha1))
    return lead * kappa1 ** (alpha1 / (alpha1 - 1.0))


def degrade_concentration_type1(
    c1: float, c1p: float, epsilon: float, alpha2: float
) -> tuple[float, float]:
    """Norm-containment constants after an order-``alpha2 < 0`` budget; ``c2p``
    is +inf once the divisor ``(eps a (a-1) + 1)^a`` rounds to 0."""
    _check_finite(c1=c1, c1p=c1p, alpha2=alpha2)
    if alpha2 >= 0.0:
        raise ValueError("alpha2 must be negative")
    _check_epsilon(epsilon)
    c2 = c1 + (alpha2 - 1.0) / alpha2
    shrink = (epsilon * alpha2 * (alpha2 - 1.0) + 1.0) ** alpha2
    return c2, c1p / shrink if shrink > 0.0 else math.inf


def degrade_concentration_type2(
    c_hat1: Callable[[float], float], epsilon: float, alpha2: float, delta: float
) -> float:
    """Directional-containment table after an order-``alpha2 < 0`` budget:
    evaluates the exact table at ``delta^((a-1)/a) * (eps a (a-1) + 1)^a``."""
    _check_finite(alpha2=alpha2)
    if alpha2 >= 0.0:
        raise ValueError("alpha2 must be negative")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    _check_epsilon(epsilon)
    shifted = delta ** ((alpha2 - 1.0) / alpha2) * (
        epsilon * alpha2 * (alpha2 - 1.0) + 1.0
    ) ** alpha2
    if not (0.0 < shifted < 1.0):
        raise ValueError(
            f"transformed level {shifted} falls outside (0, 1); "
            f"budget too large for delta={delta}"
        )
    return float(c_hat1(shifted))


def quantile_shift_bound(gamma: float, epsilon: float, alpha: float) -> float:
    """One-sided bound on the quantile-level shift between two distributions
    with divergence at most ``epsilon``.

    Evaluates ``1 - g - (eps a (a-1) + 1)^(1/(1-a)) * (1-g)^(a/(a-1))``; an
    upper bound on the shift for ``alpha > 1`` and a lower bound for
    ``alpha < 0``. Orders inside [0, 1] give no control and are rejected.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    _check_epsilon(epsilon)
    _check_finite(alpha=alpha)
    if 0.0 <= alpha <= 1.0:
        raise ValueError("orders in [0, 1] cannot control the quantile shift")
    lead = (epsilon * alpha * (alpha - 1.0) + 1.0) ** (1.0 / (1.0 - alpha))
    return 1.0 - gamma - lead * (1.0 - gamma) ** (alpha / (alpha - 1.0))


def standard_normal_quantile_table(delta: float) -> float:
    """The directional-containment table of the standard normal law."""
    return norm_ppf(1.0 - delta)


# Mass of N(0,1) beyond one sd, norm_cdf(-1.0) written out (0x1.44ed0bb7cb20cp-3)
# so that importing the package does not load scipy.special.
DEFAULT_KAPPA1 = 0.15865525393145707


@dataclass(frozen=True)
class BoundConstants:
    """Exact-inference constants plus their degraded counterparts.

    ``c_hat1`` is a callable table ``delta -> c``; the degraded table is
    exposed through :meth:`c_hat2`.
    """

    epsilon: float
    alpha1: float
    alpha2: float
    kappa1: float
    kappa2: float
    c1: float
    c1p: float
    c2: float
    c2p: float
    c_hat1: Callable[[float], float]

    def __post_init__(self) -> None:
        _check_finite(
            epsilon=self.epsilon, alpha1=self.alpha1, alpha2=self.alpha2,
            kappa1=self.kappa1, kappa2=self.kappa2, c1=self.c1, c1p=self.c1p,
            c2=self.c2, c2p=self.c2p,
        )
        if self.kappa2 > self.kappa1 + 1e-12:
            raise ValueError("degraded kappa must not exceed the exact one")
        if self.c2 < self.c1 - 1e-12 or self.c2p < self.c1p - 1e-12:
            raise ValueError("degraded containment constants must not shrink")

    def c_hat2(self, delta: float) -> float:
        return degrade_concentration_type2(self.c_hat1, self.epsilon, self.alpha2, delta)


def derive_bound_constants(
    epsilon: float,
    alpha1: float = 2.0,
    alpha2: float = -1.0,
    kappa1: float = DEFAULT_KAPPA1,
    c1: float = 4.0,
    c1p: float = 4.0,
    c_hat1: Callable[[float], float] = standard_normal_quantile_table,
) -> BoundConstants:
    """Run every degradation map on a set of exact-inference constants."""
    kappa2 = degrade_anti_concentration(kappa1, epsilon, alpha1)
    c2, c2p = degrade_concentration_type1(c1, c1p, epsilon, alpha2)
    return BoundConstants(
        epsilon=epsilon,
        alpha1=alpha1,
        alpha2=alpha2,
        kappa1=kappa1,
        kappa2=kappa2,
        c1=c1,
        c1p=c1p,
        c2=c2,
        c2p=c2p,
        c_hat1=c_hat1,
    )


# ---------------------------------------------------------------------------
# Regret-bound evaluators


def lints_regret_bound(
    params: ConfidenceParams, constants: BoundConstants, horizon: int, dim: int
) -> float:
    """High-probability regret bound for posterior-sampling selection under a
    bounded inference error, evaluated at the union level ``delta / (4 T)``;
    +inf (vacuous) once the degraded ``kappa2`` underflows to 0."""
    if horizon < 1 or dim < 1:
        raise ValueError("horizon and dim must be positive")
    if constants.kappa2 == 0.0:
        return math.inf
    t = int(horizon)
    delta_prime = params.delta / (4.0 * t)
    beta_t = beta(replace(params, delta=delta_prime), t, dim)
    gamma_hat = beta_t * math.sqrt(
        constants.c2 * dim * math.log(constants.c2p * dim / delta_prime)
    )
    elliptic = math.sqrt(2.0 * t * dim * math.log(1.0 + t / params.lam))
    main = (beta_t + gamma_hat * (1.0 + 4.0 / constants.kappa2)) * elliptic
    slack = (4.0 * gamma_hat / constants.kappa2) * math.sqrt(
        (8.0 * t / params.lam) * math.log(4.0 / params.delta)
    )
    return main + slack


def linbucb_regret_bound(
    params: ConfidenceParams,
    constants: BoundConstants,
    gamma: float,
    horizon: int,
    dim: int,
    assumption: str = "type1",
    inference: str = "exact",
) -> float:
    """High-probability regret bound for quantile-index selection.

    ``assumption`` picks the containment property (norm-based ``type1`` or
    directional ``type2``); ``inference`` picks exact or degraded constants.
    The quantile level must clear ``1 - kappa`` for the matching kappa.
    """
    if horizon < 1 or dim < 1:
        raise ValueError("horizon and dim must be positive")
    if assumption not in ("type1", "type2"):
        raise ValueError("assumption must be 'type1' or 'type2'")
    if inference not in ("exact", "approximate"):
        raise ValueError("inference must be 'exact' or 'approximate'")
    if math.isnan(gamma):
        raise ValueError("gamma must be a number, got nan")
    kappa = constants.kappa1 if inference == "exact" else constants.kappa2
    threshold = 1.0 - kappa
    if gamma < threshold:
        raise ValueError(
            f"gamma={gamma} is below the admissible threshold {threshold:.6f}"
        )
    if gamma >= 1.0:
        raise ValueError("gamma must be below 1")

    t = int(horizon)
    beta_t = beta(params, t, dim)
    if assumption == "type1":
        c, cp = (
            (constants.c1, constants.c1p)
            if inference == "exact"
            else (constants.c2, constants.c2p)
        )
        factor = math.sqrt(c * dim * math.log(cp * dim / (1.0 - gamma))) + 1.0
    else:
        table = (
            constants.c_hat1(1.0 - gamma)
            if inference == "exact"
            else constants.c_hat2(1.0 - gamma)
        )
        factor = table + 1.0
    return beta_t * factor * math.sqrt(2.0 * t * dim * math.log(1.0 + t / params.lam))


# ---------------------------------------------------------------------------
# Invariance and data-processing checks


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of an affine-invariance and projection-contraction check."""

    passed: bool
    joint_value: float
    transformed_value: float
    residual: float
    combined_error: float
    projection_values: tuple[float, ...]
    projections_ok: bool


def verify_invariance(
    p1,
    p2,
    shift,
    matrix,
    alpha: float,
    rng: np.random.Generator | None = None,
    mc_samples: int = DEFAULT_MC_SAMPLES,
) -> InvarianceReport:
    """Check that an invertible affine map leaves the divergence unchanged and
    that scalar projections can only shrink it.

    Gaussian pairs are checked in closed form; reweighted univariate pairs are
    checked by Monte Carlo, with the residual compared against the combined
    error (3 standard errors per side plus ``_INVARIANCE_TOLERANCE``).
    """
    t1 = p1.affine(shift, matrix)
    t2 = p2.affine(shift, matrix)

    gaussian_pair = isinstance(p1, GaussianPosterior) and isinstance(p2, GaussianPosterior)
    if gaussian_pair:
        base = alpha_divergence(p1, p2, alpha, Method.CLOSED_FORM_GAUSSIAN)
        moved = alpha_divergence(t1, t2, alpha, Method.CLOSED_FORM_GAUSSIAN)
        combined = _INVARIANCE_TOLERANCE
    else:
        rng = np.random.default_rng() if rng is None else rng
        base = alpha_divergence(p1, p2, alpha, Method.MONTE_CARLO, rng=rng, mc_samples=mc_samples)
        moved = alpha_divergence(t1, t2, alpha, Method.MONTE_CARLO, rng=rng, mc_samples=mc_samples)
        combined = 3.0 * (base.error_estimate + moved.error_estimate) + _INVARIANCE_TOLERANCE
    if not base.finite and not moved.finite:
        # an invertible map cannot change an infinite divergence
        residual = 0.0
    else:
        residual = abs(base.value - moved.value)

    projections: list[float] = []
    projections_ok = True
    if gaussian_pair and p1.dim > 1:
        dim = p1.dim
        probes = list(np.eye(dim))
        probes.append(np.ones(dim) / math.sqrt(dim))
        for u in probes:
            proj = alpha_divergence(
                p1.project(u), p2.project(u), alpha, Method.CLOSED_FORM_GAUSSIAN
            )
            projections.append(proj.value)
            if proj.value > base.value + _INVARIANCE_TOLERANCE:
                projections_ok = False

    return InvarianceReport(
        passed=residual <= combined and projections_ok,
        joint_value=base.value,
        transformed_value=moved.value,
        residual=residual,
        combined_error=combined,
        projection_values=tuple(projections),
        projections_ok=projections_ok,
    )
