"""Budgeted adversarial posteriors on the two-arm instance.

Both constructions reweight the exact Gaussian posterior over the two arm
coordinates while keeping the divergence to it below a chosen budget, and
each has its own law:

* the sampling adversary (``wrap_ts`` -> ``RegionReweighting``) squashes the
  region where the better arm wins by a factor ``1/r`` and boosts the
  complementary region, so one posterior draw prefers the worse arm with
  probability at least ``1 - 1/r`` while the exact mass ``f_t`` of the
  worse arm's region stays at least ``_DEGENERACY_BAND`` (1e-6); below it
  the draw keeps to the better arm's region;
* the quantile adversary (``wrap_bucb`` -> ``ConditionalReweighting``)
  reweights the conditional law of the second coordinate around the
  level-``gamma`` quantile of the first marginal, which it leaves exactly
  intact, so the worse arm's quantile index always wins.

Episodes step an exact-inference policy from ``algorithms``: the adversary
reweights the law ``algorithms.posterior_params`` describes, the policy picks
its arm from that reweighting, and the reward goes in through
``algorithms.update``. Only the sampling adversary builds a
``GaussianPosterior`` (and so factorises the covariance), because it draws
from it; the quantile adversary reads the moments straight off
``posterior_params``. The quantile adversary's pick needs no quantile: the
first quantile is the cut itself, so one reweighted CDF value at the cut
ranks the two (``bucb_adversary_choice``). Each step's divergence is
certified numerically: the sampling adversary's from the region mass, which
``quadpack.qags_many`` integrates (a port of the QUADPACK routine behind
``scipy.integrate.quad``, with the same bits, so the certified LinTS
adversary does not load ``scipy.integrate``), and the quantile adversary's
by Gauss-Hermite quadrature over the first coordinate, on nodes built at its
first call. A certificate feeds nothing back into the episode, so a LinTS
episode certifies its steps ``_CERTIFY_BLOCK`` at a time, with one density
call per bisection round of the whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy

from . import algorithms
from .algorithms import Inference, Kind, PolicyConfig
from .environments import RegretTrace
from .linalg import ConfidenceParams
# Not called here: perfbench/tracer.py patches these two names on this module.
from .linalg import beta, rls_update  # noqa: F401
from .normal import norm_cdf, norm_pdf, norm_ppf
from .posterior import GaussianPosterior, _checked
from .quadpack import qags_many

_DEGENERACY_BAND = 1e-6
# choose_r's reweighting factor when the budget bounds it by nothing
_R_CAP = 1e6
_HERMITE_NODES = 96
# LinTS steps whose certificates one quadrature pass computes
_CERTIFY_BLOCK = 64
_GH_NORM = 1.0 / math.sqrt(math.pi)


@cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, built on the first quantile-adversary
    call: importing ``numpy.polynomial`` and the eigensolve cost about 15 ms,
    which no other command should pay. Read-only, since every caller shares
    them."""
    nodes, weights = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class DegenerateRegionError(RuntimeError):
    """Raised when region-restricted rejection sampling finds no draw in a
    region the posterior cannot reach."""


@dataclass(frozen=True)
class RegionReweighting:
    """The sampling adversary's law: the exact posterior ``pi`` with the
    region where the first coordinate wins squashed by ``1/r``.

    ``gap`` and ``sd`` are the mean and sd of ``x1 - x2`` under ``pi``, and
    ``f_t`` is the exact mass of the region ``{x1 < x2}`` where the second
    coordinate wins.
    """

    pi: GaussianPosterior
    r: float
    gap: float
    sd: float
    f_t: float


@dataclass(frozen=True)
class ConditionalReweighting:
    """The quantile adversary's law: the exact posterior ``N(mean,
    covariance)`` with the conditional law of the second coordinate squashed
    by ``1/r`` below the cut ``b_t``, the level-``gamma`` quantile of the
    first marginal, and boosted above it."""

    mean: np.ndarray
    covariance: np.ndarray
    r: float
    gamma: float
    b_t: float

    @cached_property
    def conditional_law(self) -> tuple[float, float, float, float, float]:
        """Marginal of x1 and the conditional slope/sd of x2 given x1."""
        mean, cov = self.mean, self.covariance
        m1, m2 = float(mean[0]), float(mean[1])
        sd1 = math.sqrt(float(cov[0, 0]))
        slope = float(cov[0, 1] / cov[0, 0])
        cond_var = float(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])
        return m1, m2, sd1, slope, math.sqrt(max(cond_var, 1e-300))

    @cached_property
    def cut_nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Conditional means of x2 at the Gauss-Hermite nodes of x1, and the
        cut survival P(x2 > b_t | x1) there in log and linear form; log-space
        keeps the deep tail exact. None of it depends on the value a CDF is
        evaluated at, so a law computes it once."""
        m1, m2, sd1, slope, cond_sd = self.conditional_law
        x1 = m1 + math.sqrt(2.0) * sd1 * _hermite_rule()[0]
        mu = m2 + slope * (x1 - m1)
        log_sf = scipy.special.log_ndtr(-(self.b_t - mu) / cond_sd)
        return mu, log_sf, np.exp(log_sf)


def wrap_ts(pi: GaussianPosterior, r: float) -> RegionReweighting:
    if pi.dim != 2:
        raise ValueError("construction lives on the two-arm coordinates")
    if r < 1.0:
        raise ValueError("reweighting factor must be at least 1")
    cov_shape = pi.cov if pi.cov.ndim == 2 else np.diag(pi.cov)
    var = pi.scale**2 * float(cov_shape[0, 0] - 2.0 * cov_shape[0, 1] + cov_shape[1, 1])
    gap, sd = float(pi.mean[0] - pi.mean[1]), math.sqrt(max(var, 0.0))
    if sd == 0.0:
        f_t = 0.0 if gap >= 0.0 else 1.0
    else:
        f_t = float(norm_cdf(-gap / sd))
    return RegionReweighting(pi=pi, r=float(r), gap=gap, sd=sd, f_t=f_t)


def wrap_bucb(mean, scale: float, cov, r: float, gamma: float) -> ConditionalReweighting:
    """The conditional reweighting of ``N(mean, scale^2 * cov)``, from the
    ``(mean, scale, cov)`` that ``algorithms.posterior_params`` returns;
    ``cov`` is a (2, 2) matrix or a positive (2,) diagonal. Nothing is
    factorised."""
    mean, scale, cov = _checked(mean, scale, cov)
    if mean.shape[0] != 2:
        raise ValueError("construction lives on the two-arm coordinates")
    if r < 1.0:
        raise ValueError("reweighting factor must be at least 1")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    cov = cov if cov.ndim == 2 else np.diag(cov)
    sd1 = scale * math.sqrt(float(cov[0, 0]))
    return ConditionalReweighting(
        mean=mean,
        covariance=scale**2 * cov,
        r=float(r),
        gamma=float(gamma),
        b_t=float(mean[0]) + sd1 * norm_ppf(gamma),
    )


def check_budget(alpha: float, epsilon: float) -> None:
    """Reject a divergence budget whose order or size is not finite and positive."""
    for name, value in (("alpha", alpha), ("epsilon", epsilon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value <= 0.0:
            raise ValueError(f"{name} must be positive")


def choose_r(alpha: float, epsilon: float, gamma: float | None = None) -> float:
    """Midpoint of the feasible reweighting interval for a given budget.

    The interval is ``(1, (eps a (a-1) + 1)^(1/(a-1)))`` for ``a != 1`` (upper
    endpoint replaced by ``_R_CAP`` when the base is non-positive) and
    ``(1, e^eps)`` for ``a = 1``; the quantile construction raises the lower
    endpoint to ``1 / gamma``. A budget whose interval is empty is rejected.
    """
    check_budget(alpha, epsilon)
    if gamma is not None and not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    lower = 1.0 if gamma is None else 1.0 / gamma
    if alpha == 1.0:
        upper = math.exp(epsilon)
    else:
        base = epsilon * alpha * (alpha - 1.0) + 1.0
        if base <= 0.0:  # unbounded regime, only reachable for alpha in (0, 1)
            return max(_R_CAP, lower + 1.0)
        upper = base ** (1.0 / (alpha - 1.0))
    if upper <= lower:
        if gamma is None:  # the interval (1, upper) rounded away
            raise ValueError(f"budget epsilon={epsilon} is too small at alpha={alpha}")
        raise ValueError(
            f"budget epsilon={epsilon} infeasible for gamma={gamma}; "
            f"needs epsilon > {analytic_budget_bound(lower, alpha):.6g}"
        )
    return 0.5 * (lower + min(upper, _R_CAP))


def ts_adversary_sample(law: RegionReweighting, rng: np.random.Generator) -> np.ndarray:
    """One draw from the region-reweighted law.

    The winning region keeps mass ``(1/r)(1 - f_t)``; the complementary region
    absorbs the rest. One uniform picks the region, or, when ``f_t`` is
    within ``_DEGENERACY_BAND`` of 0 or 1, the dominant one (the episode is
    already decided). Rejection then restricts the exact posterior to it and
    gives up only after ``64/p`` proposals, p the region's base mass: a
    region the posterior reaches is missed with probability about e^-64.
    """
    f = law.f_t
    if _DEGENERACY_BAND <= f <= 1.0 - _DEGENERACY_BAND:
        second = rng.random() >= (1.0 - f) / law.r
    else:
        second = f > 0.5
    mass = f if second else 1.0 - f
    proposals = 0
    while True:
        batch = law.pi.sample(128, rng)
        proposals += batch.shape[0]
        mask = batch[:, 0] < batch[:, 1] if second else batch[:, 0] >= batch[:, 1]
        if np.any(mask):
            return batch[np.argmax(mask)]
        if not proposals * mass < 64.0:  # a NaN mass gives up as well
            raise DegenerateRegionError(
                f"no draw in a region of base mass {mass:.3g} after {proposals} "
                "proposals: the posterior does not reach it"
            )


def _gaussian_masses_below_quad(z0s: list[float]) -> list[float]:
    """Standard-normal lower-tail mass below each ``z0`` by adaptive
    quadrature: ``qags_many``, the QUADPACK port that gives
    ``scipy.integrate.quad``'s bits at these arguments."""
    ends = [(max(-38.0, z0 - 24.0), z0) for z0 in z0s if z0 > -38.0]
    masses = iter(qags_many(norm_pdf, ends, epsabs=1e-12, epsrel=1.49e-8, limit=200))
    return [next(masses)[0] if z0 > -38.0 else 0.0 for z0 in z0s]


def region_divergence(r: float, alpha: float, mass: float) -> float:
    """Divergence from a law to its two-region reweighting that squashes the
    region of mass ``1 - mass`` by ``1/r`` and boosts the region of mass
    ``mass`` to renormalise: ``(sum_i mass_i w_i^(1-a) - 1)/(a(a-1))``,
    ``sum_i mass_i log(1/w_i)`` at the KL order a = 1 and ``sum_i mass_i w_i
    log w_i`` at the reverse KL order a = 0. A mass outside [0, 1] is clipped
    to it.

    At an order a <= 0 the boosted term grows without bound as the mass
    shrinks, so for ``r > 1`` the divergence is +inf at mass 0, and at a < 0
    also wherever it passes the float range. At ``r = 1`` the reweighting is
    the identity and the divergence is exactly 0 at every order and mass."""
    if r == 1.0:
        return 0.0
    mass = min(max(mass, 0.0), 1.0)
    boost = (1.0 - (1.0 - mass) / r) / mass if mass > 0.0 else 1.0
    if alpha == 1.0:
        return math.log(1.0 / boost) * mass + math.log(r) * (1.0 - mass)
    if alpha <= 0.0 and r > 1.0 and mass == 0.0:
        return math.inf
    if alpha == 0.0:
        # mass w log w with mass w = held and log w a difference of logs,
        # which a subnormal mass cannot overflow
        held = 1.0 - (1.0 - mass) / r
        boosted = held * (math.log(held) - math.log(mass)) if held > 0.0 else 0.0
        return boosted - (1.0 - mass) * math.log(r) / r
    try:
        lifted = boost ** (1.0 - alpha) * mass
    except OverflowError:  # only a negative order lifts past the float range
        return math.inf
    cross = lifted + r ** (alpha - 1.0) * (1.0 - mass)
    return (cross - 1.0) / (alpha * (alpha - 1.0))


def ts_divergences(laws: list[RegionReweighting], alpha: float) -> list[float]:
    """Certified divergence of each region reweighting.

    The cross integral collapses to region masses; the only numeric quantity
    is the winning-region mass, integrated from the difference law, for all
    the laws in one quadrature pass.
    """
    z0s = [-law.gap / law.sd for law in laws if law.sd > 0.0]
    masses = iter(_gaussian_masses_below_quad(z0s))
    return [
        region_divergence(law.r, alpha, next(masses) if law.sd > 0.0 else law.f_t)
        for law in laws
    ]


def ts_divergence(law: RegionReweighting, alpha: float) -> float:
    """Certified divergence of one region reweighting (``ts_divergences``)."""
    return ts_divergences([law], alpha)[0]


def analytic_budget_bound(r: float, alpha: float) -> float:
    """Divergence bound both constructions satisfy, the region divergence at
    mass 0: ``(r^(a-1) - 1)/(a(a-1))`` for positive ``a != 1``, ``log r`` at
    the KL order, and +inf at an order <= 0 (no bound) when ``r > 1``."""
    return region_divergence(r, alpha, 0.0)


def _bucb_cdf_from_nodes(law: ConditionalReweighting, value: float) -> np.ndarray:
    """Per-node conditional CDF of x2 under the reweighting, evaluated so that
    the boosted band above the cut never suffers catastrophic cancellation:
    the boosted mass is (r-1+S_b)/r * (1 - S_v/S_b) with the S_b ratio taken
    in log space."""
    *_, cond_sd = law.conditional_law
    mu, log_sf_cut, sf_cut = law.cut_nodes
    r = law.r
    if value <= law.b_t:
        f_val = norm_cdf((value - mu) / cond_sd)
        return f_val / r
    log_sf_val = scipy.special.log_ndtr(-(value - mu) / cond_sd)
    boosted_mass = (r - 1.0 + sf_cut) / r * (-np.expm1(log_sf_val - log_sf_cut))
    return (1.0 - sf_cut) / r + boosted_mass


def bucb_second_marginal_cdf(law: ConditionalReweighting, value: float) -> float:
    """CDF of the second coordinate under the conditional reweighting,
    integrated over the first marginal with Gauss-Hermite nodes.

    The episodes' posteriors are diagonal (the arms are the coordinate axes),
    so the conditional slope is 0 and the sum integrates a constant exactly.
    Strongly correlated laws are not certified: on 20,000 random 2-d laws the
    value at the cut was up to 0.053 off the exact ``Phi((b - m2)/sd2)/r``.
    """
    return float(np.dot(_hermite_rule()[1], _bucb_cdf_from_nodes(law, value)) * _GH_NORM)


def bucb_adversary_choice(law: ConditionalReweighting) -> int:
    """The arm whose quantile at level ``gamma`` under the reweighted law is
    the larger, ties to arm 0: the comparison of
    ``bucb_adversary_quantiles`` without finding the second quantile.

    The first quantile is the cut ``b`` exactly, and the reweighted second
    marginal ``F2`` is continuous and nondecreasing, so ``q1 >= q2`` holds
    exactly when ``F2(b) >= gamma``: one CDF value at the cut decides.

    The root-found reference agrees. When ``F2(b) >= gamma`` it brackets the
    root in ``[., b]`` and cannot return more than ``b``. Otherwise the true
    quantile lies strictly above ``b``, and ``brentq`` could return ``b``
    itself only if the root sat within its ``xtol`` (about
    ``1e-14 * max(|b|, sd2, 1)``) of ``b``. ``F2`` would then have to climb
    from ``F2(b) <= 1/r`` to ``gamma`` over that width. Just above the cut it
    climbs at about ``(1 - 1/r) z / sd`` per unit, for a conditional sd
    ``sd`` and a cut ``z`` such sds above the conditional mean. With the
    factor ``choose_r`` picks (``gamma - 1/r`` is 0.035 at alpha=2,
    epsilon=0.1, gamma=0.9) that takes ``sd`` near ``1e-7``, or about
    ``1e14`` pulls of the second arm. A given ``r`` just above ``1/gamma``
    narrows the margin; the tests replay whole episodes and compare every
    step.
    """
    return 0 if bucb_second_marginal_cdf(law, law.b_t) >= law.gamma else 1


def bucb_adversary_quantiles(law: ConditionalReweighting) -> tuple[float, float]:
    """Quantiles at level ``gamma`` of the two arm values under the
    reweighted law; the reference the episode's choice
    (``bucb_adversary_choice``) is tested against.

    The first marginal is preserved by construction, so the first quantile is
    the recorded cut exactly; the second is root-found on the reweighted
    marginal CDF (above the cut whenever the squashed mass stays below gamma,
    which the feasible reweighting factor guarantees).
    """
    gamma = law.gamma
    _, m2, sd1, slope, cond_sd = law.conditional_law
    sd2 = math.sqrt(float(law.covariance[1, 1]))
    b = law.b_t

    at_cut = bucb_second_marginal_cdf(law, b)
    if at_cut < gamma:
        width = cond_sd + sd2 + abs(slope) * sd1
        lo, hi = b, b + 0.5 * width
        while bucb_second_marginal_cdf(law, hi) < gamma:
            lo = hi
            hi += width
            width *= 2.0
    else:
        width = 4.0 * sd2
        lo, hi = m2 - 9.0 * sd2, b
        while bucb_second_marginal_cdf(law, lo) > gamma:
            lo -= width
            width *= 2.0
    second = scipy.optimize.brentq(
        lambda v: bucb_second_marginal_cdf(law, v) - gamma,
        lo,
        hi,
        xtol=1e-14 * max(abs(b), sd2, 1.0),
        rtol=8.9e-16,
    )
    return b, float(second)


def bucb_divergence(law: ConditionalReweighting, alpha: float) -> float:
    """Certified divergence of the conditional reweighting via Gauss-Hermite
    quadrature over the first coordinate, on the nodes of ``cut_nodes``.

    The boosted-region term ``w^(1-a) * S_b`` is evaluated as
    ``((r-1+S_b)/r)^(1-a) * S_b^a`` so it degrades to zero instead of
    overflowing when the cut sits deep in the conditional tail; at a negative
    order it grows there instead, and reads +inf past the float range.

    At the reverse KL order a = 0 the per-node term is ``sum_i mass_i w_i
    log w_i``, with the boosted ``log w`` a difference of logs and ``log
    S_b`` from the log-survival values, like ``region_divergence`` there.

    Like ``bucb_second_marginal_cdf``, the sum is exact on the diagonal
    posteriors the episodes reweight and is not certified on strongly
    correlated laws: on the worst of 20,000 random ones
    (``|slope * sd1 / cond_sd|`` about 50-470) it gave 0.01221 at alpha=2
    against 0.01353 from an 8e6-point reference.

    At ``r = 1`` the reweighting is the identity and the divergence is
    exactly 0 at every order, as in ``region_divergence``.
    """
    if law.r == 1.0:
        return 0.0
    _, log_sf, sf = law.cut_nodes
    weights = _hermite_rule()[1]
    r = law.r
    if alpha == 1.0:
        # S_b * log(1/w) with w = (r-1+S_b)/(r S_b); the S_b log is taken
        # from the stable log-survival values.
        squashed = math.log(r) * (1.0 - sf)
        boosted = sf * (math.log(r) + log_sf - np.log(r - 1.0 + sf))
        return float(np.dot(weights, squashed + boosted) / math.sqrt(math.pi))
    if alpha == 0.0:
        held = (r - 1.0 + sf) / r
        terms = -(1.0 - sf) * math.log(r) / r + held * (
            np.log(r - 1.0 + sf) - math.log(r) - log_sf
        )
        return float(np.dot(weights, terms) / math.sqrt(math.pi))
    with np.errstate(over="ignore"):  # S_b^a past the float range is +inf
        lifted = ((r - 1.0 + sf) / r) ** (1.0 - alpha) * np.exp(alpha * log_sf)
    inner = r ** (alpha - 1.0) * (1.0 - sf) + lifted
    cross = float(np.dot(weights, inner) / math.sqrt(math.pi))
    return (cross - 1.0) / (alpha * (alpha - 1.0))


@dataclass(frozen=True)
class AdversarialEpisode:
    """One adversarial run: regret trace, per-step certificates, parameters."""

    trace: RegretTrace
    divergences: np.ndarray
    chosen: np.ndarray
    r: float
    alpha: float
    analytic_bound: float


def check_episode(
    policy: str,
    mu: tuple[float, float],
    alpha: float,
    epsilon: float,
    gamma: float,
    r: float | None = None,
    noise_sd: float = 0.5,
) -> float:
    """Reject an episode's inputs before any work runs, and return the
    reweighting ratio it runs with.

    The instance needs a strictly better first arm and arm means of finite
    norm (the norm bound of the confidence radius), the noise a finite sd
    ``>= 0``, and LinBUCB a level ``gamma`` in (0, 1), the control included.
    The ratio is ``r`` when given (``r=1`` is the exact-inference control),
    else ``choose_r``'s midpoint, which LinBUCB's quantile construction
    bounds below by ``1 / gamma``. A given ``r`` must be finite and at least
    1. The budget is checked either way, so a control never records a bad
    one."""
    if policy not in ("lints", "linbucb"):
        raise ValueError("policy must be 'lints' or 'linbucb'")
    mu1, mu2 = float(mu[0]), float(mu[1])
    if not math.isfinite(math.hypot(mu1, mu2)):
        raise ValueError(f"arm means must have a finite norm, got ({mu1}, {mu2})")
    if not mu1 > mu2:
        raise ValueError("the first arm must be strictly better")
    if not (noise_sd >= 0.0 and math.isfinite(noise_sd)):
        raise ValueError(f"noise_sd must be finite and non-negative, got {noise_sd}")
    if policy == "linbucb" and not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if r is None:
        return choose_r(alpha, epsilon, gamma if policy == "linbucb" else None)
    check_budget(alpha, epsilon)
    if not math.isfinite(r):
        raise ValueError(f"reweighting factor must be finite, got {r}")
    if r < 1.0:
        raise ValueError("reweighting factor must be at least 1")
    return r


def run_adversarial_episode(
    policy: str,
    mu: tuple[float, float],
    alpha: float,
    epsilon: float,
    horizon: int,
    rng: np.random.Generator,
    gamma: float = 0.9,
    r: float | None = None,
    noise_sd: float = 0.5,
) -> AdversarialEpisode:
    """Run one policy against its adversarial construction on the fixed
    two-arm instance with ground truth ``mu``.

    ``r=1`` is the exact-inference control (no reweighting, zero budget).
    The inputs go through ``check_episode`` first. LinTS picks the larger
    coordinate of one draw from the region reweighting; LinBUCB picks the
    larger reweighted quantile with ``bucb_adversary_choice``, one CDF value
    per step. The per-step certificate is the quadrature divergence between
    the exact posterior and its reweighting; LinTS certifies its steps in
    blocks (``ts_divergences``), with the same values.
    """
    r = check_episode(policy, mu, alpha, epsilon, gamma, r, noise_sd)
    mu1, mu2 = float(mu[0]), float(mu[1])
    config = PolicyConfig(
        kind=Kind(policy),
        inference=Inference.EXACT,
        confidence=ConfidenceParams(
            nu=noise_sd if noise_sd > 0 else 0.5,
            lam=1.0,
            s_bound=math.hypot(mu1, mu2),
            delta=0.05,
        ),
        horizon=horizon,
        gamma=gamma,
    )
    state = algorithms.init_policy(config, 2)

    arms = np.eye(2)
    theta = np.array([mu1, mu2])
    gap = mu1 - mu2
    inst = np.zeros(horizon)
    divs = np.zeros(horizon)
    chosen = np.zeros(horizon, dtype=np.int64)
    uncertified = []  # LinTS laws since the last certified block
    for t in range(horizon):
        if r == 1.0:
            idx = algorithms.select_arm(state, config, arms, rng)
        elif policy == "lints":
            law = wrap_ts(GaussianPosterior(*algorithms.posterior_params(state, config)), r)
            draw = ts_adversary_sample(law, rng)
            uncertified.append(law)
            if len(uncertified) == _CERTIFY_BLOCK or t == horizon - 1:
                divs[t + 1 - len(uncertified):t + 1] = ts_divergences(uncertified, alpha)
                uncertified = []
            idx = 0 if draw[0] >= draw[1] else 1
        else:
            law = wrap_bucb(*algorithms.posterior_params(state, config), r, gamma)
            idx = bucb_adversary_choice(law)
            divs[t] = bucb_divergence(law, alpha)

        chosen[t] = idx
        inst[t] = 0.0 if idx == 0 else gap
        observed = float(theta[idx])
        if noise_sd > 0.0:
            observed += noise_sd * float(rng.standard_normal())
        state = algorithms.update(state, arms[idx], observed)

    return AdversarialEpisode(
        trace=RegretTrace.from_instantaneous(inst),
        divergences=divs,
        chosen=chosen,
        r=float(r),
        alpha=float(alpha),
        analytic_bound=analytic_budget_bound(r, alpha) if r > 1.0 else 0.0,
    )
