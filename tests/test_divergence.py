import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st

from linbandits.divergence import (
    DEFAULT_KAPPA1,
    BoundConstants,
    Method,
    ReweightedGaussian1D,
    alpha_divergence,
    degrade_anti_concentration,
    degrade_concentration_type1,
    degrade_concentration_type2,
    derive_bound_constants,
    linbucb_regret_bound,
    lints_regret_bound,
    quantile_shift_bound,
    standard_normal_quantile_table,
    two_region_reweight,
    verify_invariance,
)
from linbandits import verify
from linbandits.posterior import GaussianPosterior
from linbandits.linalg import ConfidenceParams
from linbandits.normal import norm_cdf


def test_identical_distributions_have_zero_divergence():
    g = GaussianPosterior([0.3, -1.0], 1.0, [[1.0, 0.2], [0.2, 0.8]])
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
        res = alpha_divergence(g, g, alpha)
        assert res.value == pytest.approx(0.0, abs=1e-12)


def test_equal_variance_gaussian_closed_form():
    # oracle: cross integral exp(a(a-1) d^2 / (2 s^2)) for equal variances
    g1, g2 = GaussianPosterior([0.0], 1.0, [[1.0]]), GaussianPosterior([1.0], 1.0, [[1.0]])
    res = alpha_divergence(g1, g2, 2.0)
    assert res.method is Method.CLOSED_FORM_GAUSSIAN
    assert res.value == pytest.approx((math.e - 1.0) / 2.0, abs=1e-12)


def test_symmetry_identity_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g1 = GaussianPosterior([rng.normal()], 1.0, [[rng.uniform(0.5, 2.0) ** 2]])
        g2 = GaussianPosterior([rng.normal()], 1.0, [[rng.uniform(0.5, 2.0) ** 2]])
        a = alpha_divergence(g1, g2, 2.0)
        b = alpha_divergence(g2, g1, -1.0)
        if a.finite and b.finite:
            assert a.value == pytest.approx(b.value, abs=1e-9)


def test_kl_limits_match_gaussian_formula():
    g1 = GaussianPosterior([0.5, 0.0], 1.0, [[1.5, 0.2], [0.2, 0.7]])
    g2 = GaussianPosterior([-0.3, 0.4], 1.0, [[1.0, 0.0], [0.0, 1.0]])

    def kl(a, b):
        # oracle: direct Gaussian KL formula
        ca, cb = a.cov, b.cov
        diff = b.mean - a.mean
        return 0.5 * (
            np.trace(np.linalg.solve(cb, ca))
            + diff @ np.linalg.solve(cb, diff)
            - a.dim
            + math.log(np.linalg.det(cb) / np.linalg.det(ca))
        )

    assert alpha_divergence(g1, g2, 1.0).value == pytest.approx(kl(g1, g2), abs=1e-10)
    assert alpha_divergence(g1, g2, 0.0).value == pytest.approx(kl(g2, g1), abs=1e-10)


def _closed_form_logpdf(x, mean, cov):
    # oracle: explicit inverse and log-determinant, no Cholesky factor
    x, mean, cov = np.atleast_2d(x), np.asarray(mean), np.asarray(cov)
    diff = x - mean
    maha = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * maha - 0.5 * logdet - 0.5 * mean.size * math.log(2.0 * math.pi)


def test_univariate_logpdf_float_and_array_paths():
    mean, sd = 0.37, 1.9
    g = GaussianPosterior([mean], 1.0, [[sd**2]])
    xs = np.array([-25.0, -3.1, -0.2, 0.0, 0.37, 1.0, 4.4, 30.0])
    exact = _closed_form_logpdf(xs.reshape(-1, 1), [mean], [[sd**2]])
    flat = g.logpdf(xs)
    column = g.logpdf(xs.reshape(-1, 1))
    np.testing.assert_allclose(flat, exact, rtol=1e-12)
    np.testing.assert_array_equal(column, flat)
    for x, want in zip(xs.tolist(), exact):
        got = g.logpdf(x)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-12)
        assert got == g.logpdf([x])[0]  # bit-identical to a one-point array


def test_univariate_logpdf_does_not_depend_on_batching():
    g = GaussianPosterior([-0.41], 1.0, [[2.7]])
    xs = np.random.default_rng(22).normal(0.0, 3.0, size=2000)
    batched = g.logpdf(xs)
    singles = np.array([g.logpdf(x) for x in xs.tolist()])
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(g.logpdf(xs[:7].reshape(-1, 1)), singles[:7])
    np.testing.assert_array_equal(g.logpdf(xs[:1]), singles[:1])
    with pytest.raises(ValueError):
        g.logpdf(xs[:6].reshape(2, 3))


def test_logpdf_with_steep_cholesky_factor():
    # A below-diagonal entry larger than its diagonal: partial pivoting would
    # swap rows of this factor, a triangular solve does not.
    chol = np.array([[0.5, 0.0, 0.0], [2.0, 0.3, 0.0], [-1.5, 1.2, 0.4]])
    cov = chol @ chol.T
    mean = np.array([0.2, -1.0, 0.5])
    g = GaussianPosterior(mean, 1.0, cov)
    assert abs(g._chol[1, 0]) > g._chol[0, 0]
    pts = np.random.default_rng(21).normal(0.0, 2.0, size=(50, 3))
    np.testing.assert_allclose(g.logpdf(pts), _closed_form_logpdf(pts, mean, cov), rtol=1e-12)
    np.testing.assert_allclose(
        g.logpdf(pts[0]), _closed_form_logpdf(pts[0], mean, cov), rtol=1e-12
    )


def test_kl_quadrature_agrees_with_closed_form():
    g1 = GaussianPosterior([0.5], 1.0, [[1.3]])
    g2 = GaussianPosterior([-0.2], 1.0, [[0.9]])
    exact = alpha_divergence(g1, g2, 1.0)
    quad = alpha_divergence(g1, g2, 1.0, Method.QUADRATURE_1D)
    assert quad.value == pytest.approx(exact.value, abs=1e-8)


def test_nonpositive_blend_is_flagged_infinite():
    # alpha=2 with p1 much wider than p2 blows the blended precision
    g1, g2 = GaussianPosterior([0.0], 1.0, [[4.0]]), GaussianPosterior([0.0], 1.0, [[1.0]])
    res = alpha_divergence(g1, g2, 2.0)
    assert not res.finite
    assert res.value == math.inf


def test_quadrature_tracks_closed_form():
    # scales near one keep every order's blended precision comfortably
    # positive definite, so the truncated integral captures all the mass
    rng = np.random.default_rng(2)
    for _ in range(20):
        g1 = GaussianPosterior([rng.uniform(-0.75, 0.75)], 1.0, [[rng.uniform(0.96, 1.05) ** 2]])
        g2 = GaussianPosterior([rng.uniform(-0.75, 0.75)], 1.0, [[rng.uniform(0.96, 1.05) ** 2]])
        for alpha in (-1.0, 2.0, 3.0):
            exact = alpha_divergence(g1, g2, alpha)
            quad = alpha_divergence(g1, g2, alpha, Method.QUADRATURE_1D)
            assert quad.value == pytest.approx(exact.value, abs=1e-6)


def test_monte_carlo_tracks_closed_form():
    rng = np.random.default_rng(3)
    g1 = GaussianPosterior([0.3], 1.0, [[1.0]])
    g2 = GaussianPosterior([-0.2], 1.0, [[1.1]])
    for alpha in (-1.0, 2.0):
        exact = alpha_divergence(g1, g2, alpha)
        mc = alpha_divergence(g1, g2, alpha, Method.MONTE_CARLO, rng=rng, mc_samples=200_000)
        assert abs(mc.value - exact.value) < 3 * mc.error_estimate


def _plain_monte_carlo(p1, p2, alpha, n, rng):
    """The Monte-Carlo estimate as plain expressions, each one a new array."""
    if alpha in (0.0, 1.0):
        p, q = (p2, p1) if alpha == 0.0 else (p1, p2)
        draws = p.sample(n, rng)
        vals = p.logpdf(draws) - q.logpdf(draws)
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n))
    draws = p1.sample(n, rng)
    ratios = np.exp((1.0 - alpha) * (p2.logpdf(draws) - p1.logpdf(draws)))
    denom = alpha * (alpha - 1.0)
    se = float(np.std(ratios, ddof=1) / math.sqrt(n))
    return (float(np.mean(ratios)) - 1.0) / denom, se / abs(denom)


@pytest.mark.parametrize("dim", [1, 3])
def test_monte_carlo_keeps_the_bits_of_the_plain_expressions(dim):
    rng = np.random.default_rng(31)
    base = rng.standard_normal((dim, dim))
    g1 = GaussianPosterior(rng.standard_normal(dim), 1.3, base @ base.T + np.eye(dim))
    g2 = GaussianPosterior(rng.standard_normal(dim), 0.8, rng.random(dim) + 0.5)
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
        got = alpha_divergence(
            g1, g2, alpha, Method.MONTE_CARLO, rng=np.random.default_rng(32), mc_samples=5_000
        )
        want = _plain_monte_carlo(g1, g2, alpha, 5_000, np.random.default_rng(32))
        assert (got.value.hex(), got.error_estimate.hex()) == tuple(x.hex() for x in want)


@pytest.mark.parametrize("mc_samples", [0, 1, 1000.5, -5])
def test_monte_carlo_rejects_bad_sample_count_before_drawing(mc_samples):
    # 0 draws gave value nan and 1 draw error_estimate nan, without a word
    g1 = GaussianPosterior([0.3], 1.0, [[1.0]])
    g2 = GaussianPosterior([-0.2], 1.0, [[1.1]])
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="mc_samples must be an integer >= 2"):
        alpha_divergence(g1, g2, 2.0, Method.MONTE_CARLO, rng=rng, mc_samples=mc_samples)
    assert rng.bit_generator.state == before
    assert math.isfinite(
        alpha_divergence(g1, g2, 2.0, Method.MONTE_CARLO, rng=rng, mc_samples=2).error_estimate
    )


def test_reweighted_descriptor_is_normalized_and_invertible():
    q = two_region_reweight(0.2, 1.1, 0.5, 0.8)
    xs = np.linspace(-12, 13, 400)
    for gamma in (0.05, 0.3, 0.5, 0.9, 0.99):
        assert q.cdf(q.ppf(gamma)) == pytest.approx(gamma, abs=1e-10)
    # density integrates to one (quadrature oracle)
    from scipy.integrate import quad

    total, _ = quad(lambda x: float(np.exp(q.logpdf([x]))[0]), -12, 13, points=[0.5], limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        ReweightedGaussian1D(0.0, 1.0, [0.0], [0.5, 0.5])  # does not normalize


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_order_is_rejected_on_every_route(method, alpha):
    g1, g2 = GaussianPosterior([0.3], 1.0, [[1.21]]), GaussianPosterior([-0.2], 1.0, [[0.81]])
    with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
        alpha_divergence(g1, g2, alpha, method)


def test_route_choice():
    flat = GaussianPosterior([0.2], 1.0, [[1.44]])
    uncut = ReweightedGaussian1D(0.2, 1.2, [], [1.0])
    # a reweighting with no cuts still shares its base with the Gaussian
    assert alpha_divergence(flat, uncut, 2.0).method is Method.CLOSED_FORM_GAUSSIAN
    p = two_region_reweight(0.2, 1.2, 0.5, 0.8)
    q = two_region_reweight(-0.1, 0.9, 0.3, 1.1)
    assert alpha_divergence(p, q, 2.0).method is Method.QUADRATURE_1D
    with pytest.raises(ValueError, match="no closed form for this descriptor pair"):
        alpha_divergence(p, q, 2.0, Method.CLOSED_FORM_GAUSSIAN)
    wide = GaussianPosterior([0.0, 0.1], 1.0, [[1.0, 0.2], [0.2, 0.5]])
    with pytest.raises(ValueError, match="quadrature requires univariate descriptors"):
        alpha_divergence(wide, wide, 2.0, Method.QUADRATURE_1D)


def test_reweighted_closed_form_matches_quadrature():
    pi = GaussianPosterior([0.2], 1.0, [[1.21]])
    q = two_region_reweight(0.2, 1.1, -0.3, 0.7)
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
        exact = alpha_divergence(pi, q, alpha)
        assert exact.method is Method.CLOSED_FORM_GAUSSIAN
        quad = alpha_divergence(pi, q, alpha, Method.QUADRATURE_1D)
        assert quad.value == pytest.approx(exact.value, abs=1e-7)
        assert exact.value >= 0.0


def test_reweighted_sampling_matches_cdf():
    q = two_region_reweight(0.0, 1.0, 0.4, 0.75)
    rng = np.random.default_rng(5)
    draws = q.sample(20_000, rng).ravel()
    for x in (-1.0, 0.0, 0.4, 1.0):
        emp = float(np.mean(draws <= x))
        se = math.sqrt(q.cdf(x) * (1 - q.cdf(x)) / draws.size)
        assert abs(emp - q.cdf(x)) < 4 * max(se, 1e-4)


# ---------------------------------------------------------------------------
# Degradation maps


def test_degrade_anti_concentration_examples():
    k1 = 0.15866
    assert degrade_anti_concentration(k1, 0.0, 2.0) == pytest.approx(k1**2, abs=1e-12)
    assert degrade_anti_concentration(k1, 0.1, 2.0) == pytest.approx(k1**2 / 1.2, abs=1e-9)
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = rng.uniform(0.01, 0.99)
        eps = rng.uniform(1e-6, 5.0)
        a1 = rng.uniform(1.01, 6.0)
        assert degrade_anti_concentration(k, eps, a1) < k
    with pytest.raises(ValueError):
        degrade_anti_concentration(k1, 0.1, 1.0)


def test_degrade_type1_examples():
    c2, c2p = degrade_concentration_type1(1.0, 1.0, 0.5, -1.0)
    assert c2 == pytest.approx(3.0)  # (a-1)/a = 2 at a=-1
    c2, c2p = degrade_concentration_type1(1.0, 8.0, 0.1, -1.0)
    assert c2p == pytest.approx(9.6)
    _, c2p_zero = degrade_concentration_type1(1.0, 8.0, 0.0, -1.0)
    assert c2p_zero == pytest.approx(8.0)
    with pytest.raises(ValueError):
        degrade_concentration_type1(1.0, 1.0, 0.1, 0.5)


@pytest.mark.parametrize("epsilon,alpha2", [(1e308, -1.0), (1e200, -3.0)])
def test_degrade_type1_reads_inf_where_its_divisor_underflows(epsilon, alpha2):
    # (eps a (a-1) + 1)^a is 0.0 in floats: overflow to inf at 1e308,
    # underflow of 1.2e201^-3 at 1e200
    c2, c2p = degrade_concentration_type1(4.0, 4.0, epsilon, alpha2)
    assert c2 == 4.0 + (alpha2 - 1.0) / alpha2
    assert c2p == math.inf
    with pytest.raises(ValueError, match="c2p must be finite"):
        derive_bound_constants(epsilon, alpha2=alpha2)


def test_degrade_type2_examples():
    # oracle: inverse normal CDF at the shifted level 0.05^2 / 1.2
    shifted = 0.05**2 / 1.2
    expected = st.norm.ppf(1.0 - shifted)
    got = degrade_concentration_type2(standard_normal_quantile_table, 0.1, -1.0, 0.05)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(2.8653, abs=2e-4)
    for delta in (0.01, 0.1, 0.3, 0.7):
        degraded = degrade_concentration_type2(
            standard_normal_quantile_table, 0.2, -2.0, delta
        )
        assert degraded >= standard_normal_quantile_table(delta)
    with pytest.raises(ValueError):
        degrade_concentration_type2(standard_normal_quantile_table, 0.1, 1.0, 0.05)


def test_quantile_shift_bound_examples():
    assert quantile_shift_bound(0.9, 0.0, 2.0) == pytest.approx(0.09, abs=1e-12)
    assert quantile_shift_bound(0.9, 0.1, 2.0) == pytest.approx(0.1 - 0.01 / 1.2, abs=1e-12)
    assert quantile_shift_bound(1.0 - 1e-9, 0.3, 2.0) == pytest.approx(0.0, abs=1e-8)
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError):
            quantile_shift_bound(0.9, 0.1, alpha)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name,degrade",
    [
        # each takes the budget and one more input, named by ``name``
        ("alpha1", lambda eps, x=2.0: degrade_anti_concentration(0.15866, eps, x)),
        ("alpha2", lambda eps, x=-1.0: degrade_concentration_type1(4.0, 4.0, eps, x)),
        (
            "alpha2",
            lambda eps, x=-1.0: degrade_concentration_type2(
                standard_normal_quantile_table, eps, x, 0.05
            ),
        ),
        ("alpha", lambda eps, x=2.0: quantile_shift_bound(0.9, eps, x)),
        ("alpha1", lambda eps, x=2.0: derive_bound_constants(eps, alpha1=x)),
        ("c1", lambda eps, x=4.0: degrade_concentration_type1(x, 4.0, eps, -1.0)),
        ("c1p", lambda eps, x=4.0: degrade_concentration_type1(4.0, x, eps, -1.0)),
        ("alpha2", lambda eps, x=-1.0: derive_bound_constants(eps, alpha2=x)),
    ],
    ids=[
        "anti_concentration", "type1", "type2", "quantile_shift", "bound_constants",
        "type1_c1", "type1_c1p", "bound_constants_alpha2",
    ],
)
def test_degradation_rejects_a_non_finite_budget(name, degrade, epsilon):
    with pytest.raises(ValueError, match=f"epsilon must be finite, got {epsilon}"):
        degrade(epsilon)
    with pytest.raises(ValueError, match="epsilon must be non-negative"):
        degrade(-0.1)
    # the order or exact constant at the same values: a NaN order gave a NaN
    # result and type 2 blamed the budget; c1 = nan gave c2 = nan
    with pytest.raises(ValueError, match=f"{name} must be finite, got {epsilon}"):
        degrade(0.1, epsilon)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field", ["epsilon", "alpha1", "alpha2", "kappa1", "kappa2", "c1", "c1p", "c2", "c2p"]
)
def test_bound_constants_reject_a_non_finite_constant(field, value):
    # a NaN kappa2 or c2 slipped past the ordering checks, which are false
    # for NaN, and lints_regret_bound then returned NaN
    good = dict(
        epsilon=0.1, alpha1=2.0, alpha2=-1.0, kappa1=0.15, kappa2=0.1, c1=4.0, c1p=4.0,
        c2=4.8, c2p=4.8, c_hat1=standard_normal_quantile_table,
    )
    BoundConstants(**good)
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        BoundConstants(**{**good, field: value})


def test_bound_constants_reject_the_nan_pair_that_gave_a_nan_bound():
    with pytest.raises(ValueError, match="kappa2 must be finite, got nan"):
        BoundConstants(
            epsilon=0.1, alpha1=2, alpha2=-1, kappa1=0.15, kappa2=math.nan, c1=4, c1p=4,
            c2=math.nan, c2p=4.8, c_hat1=standard_normal_quantile_table,
        )


# ---------------------------------------------------------------------------
# Regret-bound evaluators


def _params(dim: int) -> ConfidenceParams:
    return ConfidenceParams(nu=0.5, lam=1.0, s_bound=math.sqrt(dim), delta=0.05)


def test_lints_bound_finite_and_monotone_in_budget():
    constants = derive_bound_constants(epsilon=0.1)
    value = lints_regret_bound(_params(20), constants, 1000, 20)
    assert math.isfinite(value) and value > 0.0
    larger = lints_regret_bound(_params(20), derive_bound_constants(epsilon=0.5), 1000, 20)
    assert larger > value


def test_lints_bound_is_vacuous_where_kappa2_underflows():
    # kappa1^10001 underflows to 0 at alpha1 = 1.0001
    constants = derive_bound_constants(0.1, alpha1=1.0001)
    assert constants.kappa2 == 0.0
    assert lints_regret_bound(_params(5), constants, 100, 5) == math.inf


def test_lints_bound_rate_check():
    constants = derive_bound_constants(epsilon=0.1)
    ratios = []
    for horizon in (1_000, 10_000, 100_000):
        bound = lints_regret_bound(_params(20), constants, horizon, 20)
        ratios.append(bound / (20**1.5 * math.sqrt(horizon)))
    # ratio may grow, but slower than the squared log-factor growth
    log_growth = (math.log(100_000) / math.log(1_000)) ** 2
    assert ratios[2] / ratios[0] < log_growth


def test_linbucb_bound_type2_factor():
    constants = derive_bound_constants(epsilon=0.1, kappa1=0.1587)
    gamma = 0.8413
    bound = linbucb_regret_bound(_params(20), constants, gamma, 1000, 20, "type2", "exact")
    envelope = math.sqrt(2 * 1000 * 20 * math.log(1 + 1000 / 1.0))
    from linbandits.linalg import beta

    factor = bound / (beta(_params(20), 1000, 20) * envelope)
    assert factor == pytest.approx(2.0, abs=5e-4)


def test_linbucb_bound_dimension_scaling():
    constants = derive_bound_constants(epsilon=0.1)
    gamma = 0.9

    def ratio(dim):
        t2 = linbucb_regret_bound(_params(dim), constants, gamma, 1000, dim, "type2", "exact")
        t1 = linbucb_regret_bound(_params(dim), constants, gamma, 1000, dim, "type1", "exact")
        return t2 / t1

    assert ratio(200) <= ratio(20) / math.sqrt(10.0)


def test_linbucb_bound_gamma_thresholds():
    constants = derive_bound_constants(epsilon=0.1)
    with pytest.raises(ValueError, match="threshold"):
        linbucb_regret_bound(_params(5), constants, 0.5, 100, 5, "type1", "exact")
    # approximate inference demands a higher level
    threshold_exact = 1.0 - constants.kappa1
    threshold_approx = 1.0 - constants.kappa2
    assert threshold_approx > threshold_exact
    mid = 0.5 * (threshold_exact + threshold_approx)
    linbucb_regret_bound(_params(5), constants, mid, 100, 5, "type1", "exact")
    with pytest.raises(ValueError):
        linbucb_regret_bound(_params(5), constants, mid, 100, 5, "type1", "approximate")
    for inference in ("exact", "approximate"):
        with pytest.raises(ValueError, match="gamma must be a number, got nan"):
            linbucb_regret_bound(_params(5), constants, math.nan, 100, 5, "type1", inference)
    # near-one levels blow up the type1 bound
    big = linbucb_regret_bound(_params(5), constants, 1 - 1e-12, 100, 5, "type1", "exact")
    ref = linbucb_regret_bound(_params(5), constants, 0.9, 100, 5, "type1", "exact")
    assert big > 2 * ref


def test_bound_constants_monotone_structure():
    constants = derive_bound_constants(epsilon=0.1)
    assert constants.kappa2 <= constants.kappa1
    assert constants.c2 >= constants.c1
    assert constants.c2p >= constants.c1p
    assert constants.c_hat2(0.05) >= constants.c_hat1(0.05)
    assert constants.kappa1 == pytest.approx(DEFAULT_KAPPA1)


def test_default_kappa1_is_the_one_sd_tail_mass_bit_for_bit():
    # written out as a literal so that import loads no scipy submodule
    assert DEFAULT_KAPPA1.hex() == float(norm_cdf(-1.0)).hex() == "0x1.44ed0bb7cb20cp-3"


# ---------------------------------------------------------------------------
# Invariance


def test_invariance_identity_transform():
    g1 = GaussianPosterior([0.0, 1.0], 1.0, np.eye(2))
    g2 = GaussianPosterior([0.5, 0.0], 1.0, [[1.0, 0.3], [0.3, 2.0]])
    report = verify_invariance(g1, g2, np.zeros(2), np.eye(2), alpha=2.0)
    assert report.passed
    assert report.residual == pytest.approx(0.0, abs=1e-14)


def test_invariance_random_affine_and_projections():
    rng = np.random.default_rng(7)
    for _ in range(10):
        base = rng.normal(size=(2, 2))
        g1 = GaussianPosterior(rng.normal(size=2), 1.0, base @ base.T + 0.5 * np.eye(2))
        base2 = rng.normal(size=(2, 2))
        g2 = GaussianPosterior(rng.normal(size=2), 1.0, base2 @ base2.T + 0.5 * np.eye(2))
        mat = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        report = verify_invariance(g1, g2, rng.normal(size=2), mat, alpha=2.0)
        assert report.residual < 1e-6
        assert report.projections_ok
        assert all(v <= report.joint_value + 1e-9 for v in report.projection_values)


def test_invariance_monte_carlo_for_reweighted_laws():
    rng = np.random.default_rng(8)
    q1 = two_region_reweight(0.0, 1.0, 0.2, 0.8)
    q2 = two_region_reweight(0.0, 1.0, -0.1, 0.9)
    report = verify_invariance(q1, q2, 0.7, 1.4, alpha=2.0, rng=rng, mc_samples=60_000)
    assert report.passed


_MC_CHECK = "monte carlo within corrected standard errors"


@pytest.mark.parametrize("seed", range(8))
def test_divergence_suite_passes_across_seeds(seed):
    # about 300 Monte-Carlo comparisons per run: an uncorrected 3-se band
    # fails correct estimators at roughly half of these seeds
    failed = [c for c in verify.suite_divergence(seed=seed) if not c.passed]
    assert not failed, failed


def test_divergence_suite_flags_biased_monte_carlo(monkeypatch):
    def biased(p1, p2, alpha, method, **kwargs):
        res = alpha_divergence(p1, p2, alpha, method, **kwargs)
        if method is Method.MONTE_CARLO:
            return replace(res, value=res.value + 5.0 * res.error_estimate)
        return res

    monkeypatch.setattr(verify, "alpha_divergence", biased)
    checks = {c.name: c for c in verify.suite_divergence(seed=0)}
    assert not checks[_MC_CHECK].passed
    assert "family-wise" in checks[_MC_CHECK].detail


# Float bits of the univariate and bivariate Gaussian descriptor, recorded
# while ``divergence`` still had a Gaussian class of its own; every route and
# transform must still give them through ``GaussianPosterior(mean, 1.0, cov)``.
# The reweighted law's cell masses come from ``norm_cdf``; its entries were
# re-recorded when that became ``scipy.special.ndtr``.
_DESCRIPTOR_GOLDEN = {
    "affine_cov": (
        "0x1.e000000000000p+0", "0x1.8f5c28f5c28f6p-1", "0x1.8f5c28f5c28f5p-1",
        "0x1.5999999999999p+1",
    ),
    "affine_logpdf": ("-0x1.68732bc675361p+1", "-0x1.f1feebfa52cb8p+1"),
    "affine_mean": ("0x1.999999999999ap-1", "-0x1.999999999999ap-3"),
    "closed_d1_-1.0": ("0x1.e686e3860f514p-4",),
    "closed_d1_0.0": ("0x1.1c080c28f2ab2p-3",),
    "closed_d1_0.5": ("0x1.489d82618b7cep-3",),
    "closed_d1_1.0": ("0x1.9ac13b47146f8p-3",),
    "closed_d1_2.0": ("0x1.1db1ae64a935fp-1",),
    "closed_d2_-1.0": ("inf",),
    "closed_d2_0.0": ("0x1.b71f5d58970dep-1",),
    "closed_d2_0.5": ("0x1.44bcc72b0da73p-1",),
    "closed_d2_1.0": ("0x1.5daed0c41c7a6p-1",),
    "closed_d2_2.0": ("0x1.c335f668d6935p+1",),
    "closed_reweighted_-1.0": ("0x1.b62c532fb4dc0p-6",),
    "closed_reweighted_0.0": ("0x1.b053b9c389b78p-6",),
    "closed_reweighted_0.5": ("0x1.aedb404794700p-6",),
    "closed_reweighted_1.0": ("0x1.ae56a6d0c0b0cp-6",),
    "closed_reweighted_2.0": ("0x1.b024dc62a4b80p-6",),
    "invariance": (
        "0x1.c335f668d6935p+1", "0x1.c335f668d694ep+1", "0x1.9000000000000p-47",
        "0x1.9396dfe5f4418p+0", "0x1.866d6ae00e1bcp-3", "0x1.3eb740b9df50ep-5",
    ),
    "logpdf_array_d1": ("-0x1.1492c32848d90p+0", "-0x1.093a923d6602cp+1", "-0x1.40c4178772b47p+1"),
    "logpdf_array_d2": ("-0x1.f19fa6a790316p+0", "-0x1.7a7597826b540p+1", "-0x1.63a5c0105c1ecp+1"),
    "logpdf_column_d1": ("-0x1.1492c32848d90p+0", "-0x1.093a923d6602cp+1"),
    "logpdf_float_d1": ("-0x1.1492c32848d90p+0",),
    "logpdf_point_d2": ("-0x1.f19fa6a790315p+0",),
    "mc_d1_-1.0": ("0x1.c23fca7db0dd0p-4", "0x1.b0425a8af2553p-8"),
    "mc_d1_0.0": ("0x1.1635b341ca539p-3", "0x1.95cf275a9b053p-8"),
    "mc_d1_0.5": ("0x1.61effb26bf660p-3", "0x1.01dcbd7975fe3p-6"),
    "mc_d1_1.0": ("0x1.a583efac5284ap-3", "0x1.60888aa7185dbp-7"),
    "mc_d1_2.0": ("0x1.1df9f79635384p-1", "0x1.e264151d47f6ap-5"),
    "mc_d2_-1.0": ("0x1.834bb26e66c2dp+2", "0x1.189ccc9769b18p+2"),
    "mc_d2_0.0": ("0x1.b0c70d8ef0ef8p-1", "0x1.998307e048aa2p-6"),
    "mc_d2_0.5": ("0x1.5cbb0da3b052cp-1", "0x1.ee0d8fd6bad8cp-6"),
    "mc_d2_1.0": ("0x1.6f9b0ccd19abcp-1", "0x1.21b22a7c83573p-6"),
    "mc_d2_2.0": ("0x1.d926de25c3c74p+1", "0x1.22c0d741a1d1dp-1"),
    "project_cov": ("0x1.2e147ae147ae1p+0",),
    "project_mean": ("0x1.3333333333333p-2",),
    "project_ppf_cdf": (
        "0x1.b12edd2065c1ap+0", "0x1.12c6e8c5b3cb0p-1", "-0x1.9787e0996656bp+3",
        "0x1.aabb13cc9989fp+3",
    ),
    "quad_d1_-1.0": ("0x1.e686e3860f510p-4", "0x1.bf84423800000p-38"),
    "quad_d1_0.0": ("0x1.1c080c28f2aacp-3", "0x1.6eee79189c000p-38"),
    "quad_d1_0.5": ("0x1.489d82618b7c0p-3", "0x1.22ca989240000p-38"),
    "quad_d1_1.0": ("0x1.9ac13b47146fbp-3", "0x1.275a8d4d80000p-40"),
    "quad_d1_2.0": ("0x1.1db1ae64a92ccp-1", "0x1.5612782400000p-36"),
    "quad_reweighted_-1.0": ("0x1.fb0871683c5f6p-1", "0x1.8ae50fe080000p-35"),
    "quad_reweighted_0.0": ("0x1.705ddaa19277dp-2", "0x1.750efd6690000p-40"),
    "quad_reweighted_0.5": ("0x1.2cf77d74b8578p-2", "0x1.b58074aea0000p-38"),
    "quad_reweighted_1.0": ("0x1.0ba19bc2cd3bep-2", "0x1.43a2217d00000p-38"),
    "quad_reweighted_2.0": ("0x1.ef0c82ec0dd44p-3", "0x1.551f9c58e8000p-35"),
    "sample_d1": (
        "0x1.3495ecd055662p-2", "0x1.41da7e1b22756p-1", "-0x1.96c0dba7de100p-10",
        "-0x1.5bfb3805cdab6p-1",
    ),
    "sample_d2": (
        "0x1.00c579e9bfae9p-1", "0x1.f675f65b2f293p-3", "0x1.5062dd1d15f4ep-3",
        "-0x1.8d1600db71861p-1", "-0x1.d1c3121ee1a40p-5", "-0x1.c6a2ec7971a10p-1",
        "0x1.25b6d68c3e758p-1", "0x1.1c0c25fec823ep+0", "-0x1.a52e5a7e8d368p-4",
        "-0x1.2dd57c96f9338p-1",
    ),
}


def _descriptor_bits() -> dict[str, list[str]]:
    def hx(v):
        return [float(x).hex() for x in np.asarray(v, dtype=float).reshape(-1)]

    g1 = GaussianPosterior([0.3], 1.0, [[1.21]])
    g2 = GaussianPosterior([-0.2], 1.0, [[0.81]])
    big1 = GaussianPosterior([0.5, 0.0], 1.0, [[1.5, 0.2], [0.2, 0.7]])
    big2 = GaussianPosterior([-0.3, 0.4], 1.0, [[1.0, 0.3], [0.3, 2.0]])
    point = g1.logpdf(0.7)
    assert isinstance(point, float)
    out = {
        "logpdf_float_d1": hx(point),
        "logpdf_array_d1": hx(g1.logpdf([0.7, -1.3, 2.2])),
        "logpdf_column_d1": hx(g1.logpdf(np.array([[0.7], [-1.3]]))),
        "logpdf_array_d2": hx(big1.logpdf([[0.1, 0.2], [-1.0, 0.5], [2.0, -0.3]])),
        "logpdf_point_d2": hx(big1.logpdf([0.1, 0.2])),
        "sample_d1": hx(g1.sample(4, np.random.default_rng(7))),
        "sample_d2": hx(big1.sample(5, np.random.default_rng(7))),
    }
    moved = big1.affine([0.3, -0.1], [[1.0, 0.5], [-0.2, 2.0]])
    out["affine_mean"] = hx(moved.mean)
    out["affine_cov"] = hx(moved.covariance)
    out["affine_logpdf"] = hx(moved.logpdf([[0.1, 0.2], [-1.0, 0.5]]))
    proj = big1.project([0.6, 0.8])
    out["project_mean"] = hx(proj.mean)
    out["project_cov"] = hx(proj.covariance)
    # the quadrature interval of a univariate law: its mean -+ 12 sds
    mu, sd = float(proj.mean[0]), math.sqrt(float(proj.covariance[0, 0]))
    out["project_ppf_cdf"] = hx([proj.ppf(0.9), proj.cdf(0.4), mu - 12.0 * sd, mu + 12.0 * sd])
    q = two_region_reweight(0.3, 1.1, 0.5, 0.8)
    for a in (-1.0, 0.0, 0.5, 1.0, 2.0):
        closed = Method.CLOSED_FORM_GAUSSIAN
        out[f"closed_d1_{a}"] = hx(alpha_divergence(g1, g2, a, closed).value)
        out[f"closed_d2_{a}"] = hx(alpha_divergence(big1, big2, a, closed).value)
        out[f"closed_reweighted_{a}"] = hx(alpha_divergence(g1, q, a, closed).value)
        for key, p1, p2 in (("quad_d1", g1, g2), ("quad_reweighted", g2, q)):
            res = alpha_divergence(p1, p2, a, Method.QUADRATURE_1D)
            out[f"{key}_{a}"] = hx([res.value, res.error_estimate])
        for key, p1, p2 in (("mc_d1", g1, g2), ("mc_d2", big1, big2)):
            res = alpha_divergence(
                p1, p2, a, Method.MONTE_CARLO, mc_samples=5000, rng=np.random.default_rng(11)
            )
            out[f"{key}_{a}"] = hx([res.value, res.error_estimate])
    rep = verify_invariance(big1, big2, [0.3, -0.1], [[1.0, 0.5], [-0.2, 2.0]], alpha=2.0)
    out["invariance"] = hx(
        [rep.joint_value, rep.transformed_value, rep.residual, *rep.projection_values]
    )
    return out


def test_gaussian_descriptor_bits_are_pinned():
    got = _descriptor_bits()
    assert got.keys() == _DESCRIPTOR_GOLDEN.keys()
    for key, want in _DESCRIPTOR_GOLDEN.items():
        assert tuple(got[key]) == want, key


def test_diagonal_and_scaled_law_match_the_dense_unit_law():
    mean = np.array([0.4, -0.7])
    diag = GaussianPosterior(mean, 1.5, np.array([0.8, 0.3]))
    dense = GaussianPosterior(mean, 1.0, np.diag(2.25 * np.array([0.8, 0.3])))
    assert np.array_equal(diag.covariance, dense.covariance)
    pts = np.array([[0.1, 0.2], [-1.0, 0.5]])
    assert np.allclose(diag.logpdf(pts), dense.logpdf(pts), rtol=0.0, atol=1e-14)
    assert alpha_divergence(diag, dense, 2.0).value == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "args,detail",
    [
        ((math.nan, 1.0, [0.0], [0.5, 1.5]), "base_mean must be finite"),
        ((0.0, math.nan, [0.0], [0.5, 1.5]), "base_sd must be finite and positive"),
        ((0.0, math.inf, [0.0], [0.5, 1.5]), "base_sd must be finite and positive"),
        ((0.0, 1.0, [math.inf], [1.0, 2.0]), "cuts must be finite"),
        ((0.0, 1.0, [math.nan], [0.5, 1.5]), "cuts must be finite"),
        ((0.0, 1.0, [0.0], [math.nan, 1.0]), "weights must be finite and strictly positive"),
        ((0.0, 1.0, [0.0], [0.5, math.inf]), "weights must be finite and strictly positive"),
    ],
)
def test_reweighted_law_rejects_non_finite_parameters(args, detail):
    with pytest.raises(ValueError, match=detail):
        ReweightedGaussian1D(*args)
