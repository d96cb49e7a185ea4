"""Numeric verification suites for the analytical machinery.

Each suite turns one family of analytical statements into concrete numeric
checks: divergence computation routes against one another and invariance
under affine maps, worst-case quantile shifts against their one-sided bounds,
and the degraded anti-concentration / concentration constants against samples
from explicitly reweighted distributions whose budgets are certified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversarial import analytic_budget_bound, region_divergence
from .divergence import (
    DEFAULT_KAPPA1,
    Method,
    alpha_divergence,
    degrade_anti_concentration,
    degrade_concentration_type1,
    degrade_concentration_type2,
    quantile_shift_bound,
    standard_normal_quantile_table,
    two_region_reweight,
    verify_invariance,
)
from .normal import norm_pdf, norm_ppf
from .posterior import (
    GaussianPosterior,
    certify_anti_concentration,
    certify_concentration_type1,
    certify_concentration_type2,
    standard_normal_sampler,
)

SUITES = ("divergence", "concentration", "quantile-shift")

# Family-wise false-alarm rate of the Monte-Carlo route comparison: each of
# its m two-sided comparisons is held to level _MC_FAMILY_LEVEL / m
# (Bonferroni), so correct estimators fail the whole check at most this often.
_MC_FAMILY_LEVEL = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_gaussian_pair_1d(
    rng: np.random.Generator,
) -> tuple[GaussianPosterior, GaussianPosterior]:
    # Means and scale ratios stay close so the Monte-Carlo importance weights
    # are light-tailed at every order checked below; heavy-tailed weights make
    # the sample standard error an underestimate and the standard-error
    # comparison meaningless.
    m1, m2 = rng.uniform(-0.175, 0.175, size=2)
    s1, s2 = rng.uniform(0.96, 1.05, size=2)
    return GaussianPosterior([m1], 1.0, [[s1**2]]), GaussianPosterior([m2], 1.0, [[s2**2]])


def suite_divergence(seed: int = 99) -> list[CheckResult]:
    """Cross-check divergence routes and affine/projection behaviour."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    # Route agreement on random univariate Gaussian pairs.
    alphas = (-1.0, 2.0, 3.0)
    worst_quad = 0.0
    worst_mc = 0.0
    n_mc = 0
    worst_sym = 0.0
    for _ in range(100):
        p1, p2 = _random_gaussian_pair_1d(rng)
        for alpha in alphas:
            exact = alpha_divergence(p1, p2, alpha, Method.CLOSED_FORM_GAUSSIAN)
            if not exact.finite:
                continue
            quad = alpha_divergence(p1, p2, alpha, Method.QUADRATURE_1D)
            worst_quad = max(worst_quad, abs(quad.value - exact.value))
            mc = alpha_divergence(
                p1, p2, alpha, Method.MONTE_CARLO, rng=rng, mc_samples=80_000
            )
            gap = abs(mc.value - exact.value)
            worst_mc = max(worst_mc, gap / max(mc.error_estimate, 1e-300))
            n_mc += 1
            mirror = alpha_divergence(p2, p1, 1.0 - alpha, Method.CLOSED_FORM_GAUSSIAN)
            worst_sym = max(worst_sym, abs(mirror.value - exact.value))
    checks.append(
        CheckResult(
            "quadrature matches closed form",
            worst_quad < 1e-6,
            f"worst residual {worst_quad:.3e} (tolerance 1e-6)",
        )
    )
    z_crit = norm_ppf(1.0 - _MC_FAMILY_LEVEL / (2.0 * max(n_mc, 1)))
    checks.append(
        CheckResult(
            "monte carlo within corrected standard errors",
            worst_mc <= z_crit,
            f"worst |gap| / se = {worst_mc:.3f} over {n_mc} comparisons; Bonferroni "
            f"threshold {z_crit:.3f} (family-wise false-alarm level {_MC_FAMILY_LEVEL:g})",
        )
    )
    checks.append(
        CheckResult(
            "order-reflection symmetry",
            worst_sym < 1e-9,
            f"worst residual {worst_sym:.3e} (tolerance 1e-9)",
        )
    )

    # Affine invariance and projection contraction, closed-form cases. The
    # second covariance dominates half the first so the order-2 blended
    # precision stays well conditioned and the residual check is meaningful.
    worst_res = 0.0
    dp_ok = True
    for _ in range(50):
        mean1, mean2 = rng.normal(0.0, 0.35, size=(2, 2))
        base1 = rng.normal(0.0, 0.6, size=(2, 2))
        spread = rng.normal(0.0, 0.3, size=(2, 2))
        cov1 = base1 @ base1.T + 0.4 * np.eye(2)
        cov2 = rng.uniform(0.75, 1.3) * cov1 + spread @ spread.T
        p1 = GaussianPosterior(mean1, 1.0, cov1)
        p2 = GaussianPosterior(mean2, 1.0, cov2)
        while True:
            mat = rng.normal(0.0, 1.0, size=(2, 2))
            if abs(np.linalg.det(mat)) > 0.2:
                break
        report = verify_invariance(p1, p2, rng.normal(size=2), mat, alpha=2.0)
        worst_res = max(worst_res, report.residual)
        dp_ok = dp_ok and report.projections_ok
    checks.append(
        CheckResult(
            "affine invariance (closed form)",
            worst_res < 1e-6,
            f"worst residual {worst_res:.3e} over 50 random maps",
        )
    )
    checks.append(
        CheckResult(
            "projection can only shrink the divergence",
            dp_ok,
            "scalar projections stayed below the joint divergence",
        )
    )

    # Affine invariance for reweighted laws, Monte-Carlo cases.
    mc_ok = True
    worst_sigma = 0.0
    for _ in range(8):
        q1 = two_region_reweight(0.0, 1.0, rng.normal(0.0, 0.5), rng.uniform(0.55, 0.95))
        q2 = two_region_reweight(0.0, 1.0, rng.normal(0.0, 0.5), rng.uniform(0.55, 0.95))
        shift, scale = rng.normal(), rng.uniform(0.5, 2.0)
        report = verify_invariance(q1, q2, shift, scale, alpha=2.0, rng=rng, mc_samples=60_000)
        mc_ok = mc_ok and report.passed
        worst_sigma = max(worst_sigma, report.residual / max(report.combined_error, 1e-300))
    checks.append(
        CheckResult(
            "affine invariance (monte carlo)",
            mc_ok,
            f"worst residual / allowance = {worst_sigma:.3f}",
        )
    )
    return checks


def _measured_shift(p1, p2, gamma: float) -> float:
    """delta such that the gamma-quantile of p1 is the (gamma+delta)-quantile of p2."""
    return p2.cdf(p1.ppf(gamma)) - gamma


def suite_quantile_shift(seed: int = 20240902) -> list[CheckResult]:
    """Measured quantile shifts of budgeted reweightings against the bounds."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    gammas = (0.5, 0.8, 0.9, 0.95)

    worst_upper = -math.inf
    worst_lower = math.inf
    budget_ok = True
    for _ in range(50):
        base_mean = float(rng.normal(0.0, 0.5))
        base_sd = float(rng.uniform(0.7, 1.5))
        cut = base_mean + base_sd * float(rng.normal(0.0, 0.8))
        lower_weight = float(rng.uniform(0.6, 0.98))
        pi = GaussianPosterior([base_mean], 1.0, [[base_sd**2]])
        q = two_region_reweight(base_mean, base_sd, cut, lower_weight)

        for alpha, is_upper in ((2.0, True), (-1.0, False)):
            eps = alpha_divergence(pi, q, alpha, Method.CLOSED_FORM_GAUSSIAN).value
            budget_ok = budget_ok and eps >= 0.0
            for gamma in gammas:
                shift = _measured_shift(pi, q, gamma)
                bound = quantile_shift_bound(gamma, eps, alpha)
                if is_upper:
                    worst_upper = max(worst_upper, shift - bound)
                else:
                    worst_lower = min(worst_lower, shift - bound)
    checks.append(
        CheckResult(
            "upper shift bound never violated",
            worst_upper <= 1e-9,
            f"max(shift - bound) = {worst_upper:.3e} over 50 pairs x 4 levels",
        )
    )
    checks.append(
        CheckResult(
            "lower shift bound never violated",
            worst_lower >= -1e-9,
            f"min(shift - bound) = {worst_lower:.3e}",
        )
    )
    checks.append(
        CheckResult("budgets are valid divergences", budget_ok, "all budgets non-negative")
    )

    # The analytic reweighting bound dominates the exact divergence at every
    # positive order (the negative orders have no such bound).
    dominated = True
    pi = GaussianPosterior([0.0], 1.0, [[1.0]])
    for r in (1.05, 1.1, 1.3, 2.0):
        q = two_region_reweight(0.0, 1.0, 0.3, 1.0 / r)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            eps = alpha_divergence(pi, q, alpha, Method.CLOSED_FORM_GAUSSIAN).value
            if eps > analytic_budget_bound(r, alpha) + 1e-12:
                dominated = False
    checks.append(
        CheckResult(
            "analytic reweighting budget dominates",
            dominated,
            "exact divergences stayed below (r^(a-1)-1)/(a(a-1))",
        )
    )
    return checks


def _reweighted_standard_normal_sampler(r: float):
    """Sampler for the two-region reweighting of N(0, I_2) that squashes the
    half-plane {x1 >= x2} by 1/r; region masses are exactly 0.5 each under
    the base."""

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        mass_squashed = 0.5 / r
        pick_squashed = rng.random(n) < mass_squashed
        out = np.empty((n, 2))
        for want_squashed in (True, False):
            idx = np.flatnonzero(pick_squashed == want_squashed)
            filled = 0
            while filled < idx.size:
                batch = rng.standard_normal((max(64, 2 * (idx.size - filled)), 2))
                mask = batch[:, 0] >= batch[:, 1] if want_squashed else batch[:, 0] < batch[:, 1]
                accepted = batch[mask]
                take = min(accepted.shape[0], idx.size - filled)
                out[idx[filled : filled + take]] = accepted[:take]
                filled += take
        return out

    return draw


def suite_concentration(seed: int = 20240903) -> list[CheckResult]:
    """Certify the standard normal and check the degraded constants against a
    reweighted distribution with an exactly computed budget."""
    rng = np.random.default_rng(seed)
    samples, directions = 200_000, 64
    checks: list[CheckResult] = []
    kappa_true = DEFAULT_KAPPA1

    cert = certify_anti_concentration(
        standard_normal_sampler(5), directions, samples, rng
    )
    gap = abs(cert.kappa1_hat - kappa_true)
    checks.append(
        CheckResult(
            "anti-concentration of the standard normal",
            gap <= 3.0 * cert.ci_halfwidth,
            f"min direction estimate {cert.kappa1_hat:.5f} vs {kappa_true:.5f} "
            f"(ci {cert.ci_halfwidth:.5f})",
        )
    )

    # Directional containment is dimension-free for the standard normal.
    delta = 0.05
    estimates = {
        d: certify_concentration_type2(
            standard_normal_sampler(d), delta, directions, samples, rng
        )
        for d in (2, 20, 200)
    }
    se = math.sqrt(delta * (1 - delta) / samples) / float(norm_pdf(norm_ppf(1 - delta)))
    spread = max(estimates.values()) - min(estimates.values())
    checks.append(
        CheckResult(
            "directional containment is dimension-free",
            spread <= 3.0 * math.sqrt(2.0) * se,
            f"estimates {[round(v, 4) for v in estimates.values()]}, spread {spread:.4f}",
        )
    )

    # Degraded constants hold for a budgeted reweighting of N(0, I_2); each
    # half-plane has mass 1/2.
    alpha1, alpha2 = 2.0, -1.0
    r = 1.25
    eps = max(region_divergence(r, alpha1, 0.5), region_divergence(r, alpha2, 0.5))
    sampler = _reweighted_standard_normal_sampler(r)

    kappa2 = degrade_anti_concentration(kappa_true, eps, alpha1)
    cert_q = certify_anti_concentration(sampler, directions, samples, rng)
    checks.append(
        CheckResult(
            "degraded anti-concentration holds",
            cert_q.kappa1_hat + 3.0 * cert_q.ci_halfwidth >= kappa2,
            f"worst direction {cert_q.kappa1_hat:.5f} >= kappa2 {kappa2:.5f}",
        )
    )

    delta_grid = (0.02, 0.05, 0.1, 0.25)
    feas = certify_concentration_type1(standard_normal_sampler(2), delta_grid, samples, rng)
    if feas.feasible:
        c2, c2p = degrade_concentration_type1(feas.c1, feas.c1p, eps, alpha2)
        feas_q = certify_concentration_type1(
            sampler, delta_grid, samples, rng, c1_candidates=(c2,), c1p_candidates=(c2p,)
        )
        checks.append(
            CheckResult(
                "degraded norm containment holds",
                feas_q.feasible,
                f"(c1, c1p)=({feas.c1}, {feas.c1p}) degraded to "
                f"({c2:.3f}, {c2p:.3f}) stays feasible on the reweighted law",
            )
        )
    else:
        checks.append(
            CheckResult("degraded norm containment holds", False, "no feasible base pair")
        )

    type2_ok = True
    detail_parts = []
    for delta in (0.05, 0.1, 0.25):
        chat2 = degrade_concentration_type2(standard_normal_quantile_table, eps, alpha2, delta)
        est = certify_concentration_type2(sampler, delta, directions, samples, rng)
        type2_ok = type2_ok and est <= chat2 + 0.02
        detail_parts.append(f"delta={delta}: {est:.3f} <= {chat2:.3f}")
    checks.append(
        CheckResult(
            "degraded directional containment holds", type2_ok, "; ".join(detail_parts)
        )
    )
    return checks


def run_suite(name: str, seed: int | None = None) -> list[CheckResult]:
    """The suite ``name`` at ``seed``, or at its built-in seed."""
    suites = dict(zip(SUITES, (suite_divergence, suite_concentration, suite_quantile_shift)))
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}; valid: {SUITES}")
    return suites[name]() if seed is None else suites[name](seed)
