import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats as st
from scipy import integrate

from linbandits import adversarial
from linbandits.adversarial import (
    RegionReweighting,
    analytic_budget_bound,
    bucb_adversary_choice,
    bucb_adversary_quantiles,
    bucb_divergence,
    bucb_second_marginal_cdf,
    choose_r,
    region_divergence,
    run_adversarial_episode,
    ts_adversary_sample,
    ts_divergence,
    wrap_bucb,
    wrap_ts,
)
from linbandits.divergence import (
    Method,
    ReweightedGaussian1D,
    alpha_divergence,
    two_region_reweight,
)
from linbandits.linalg import REINVERT_PERIOD
from linbandits.normal import norm_cdf, norm_pdf, norm_ppf
from linbandits.posterior import GaussianPosterior


def _params(mean=(1.0, 0.0), scale=1.0, cov=None) -> tuple[np.ndarray, float, np.ndarray]:
    cov = np.eye(2) if cov is None else np.asarray(cov, dtype=float)
    return np.asarray(mean, dtype=float), scale, cov


def _posterior(**params) -> GaussianPosterior:
    return GaussianPosterior(*_params(**params))


def test_choose_r_examples():
    assert choose_r(2.0, 0.1) == pytest.approx(1.1)
    assert choose_r(1.0, 0.1) == pytest.approx(0.5 * (1 + math.exp(0.1)), abs=1e-9)
    # unbounded regime at orders inside (0, 1): the cap is returned
    assert choose_r(0.5, 5.0) == 1e6
    # quantile variant raises the lower endpoint to 1/gamma
    assert choose_r(2.0, 0.1, gamma=0.9) == pytest.approx(0.5 * (1 / 0.9 + 1.2))
    with pytest.raises(ValueError, match="needs epsilon"):
        choose_r(2.0, 0.05, gamma=0.9)
    with pytest.raises(ValueError):
        choose_r(-1.0, 0.1)
    with pytest.raises(ValueError):
        choose_r(2.0, 0.0)


def test_region_mass_example():
    # oracle: x1 - x2 is normal with mean 1 and variance 2
    pair = wrap_ts(_posterior(), 1.1)
    assert pair.f_t == pytest.approx(st.norm.cdf(-1 / math.sqrt(2)), abs=1e-12)
    assert (1 - pair.f_t) / 1.1 == pytest.approx(0.69113, abs=1e-5)


def test_ts_sampler_region_frequencies():
    pi = _posterior()
    pair = wrap_ts(pi, 1.1)
    rng = np.random.default_rng(0)
    n = 20_000
    draws = np.array([ts_adversary_sample(pair, rng) for _ in range(n)])
    p_hat = float(np.mean(draws[:, 0] >= draws[:, 1]))
    target = (1 - pair.f_t) / pair.r
    assert abs(p_hat - target) < 4 * math.sqrt(target * (1 - target) / n)


def test_ts_sampler_unit_reweight_recovers_exact_posterior():
    pi = _posterior()
    pair = wrap_ts(pi, 1.0)
    rng = np.random.default_rng(1)
    n = 20_000
    draws = np.array([ts_adversary_sample(pair, rng) for _ in range(n)])
    p_hat = float(np.mean(draws[:, 0] >= draws[:, 1]))
    target = 1 - pair.f_t
    assert abs(p_hat - target) < 4 * math.sqrt(target * (1 - target) / n)


def test_ts_sampler_short_circuits_when_pinned():
    pinned = _posterior(mean=(50.0, 0.0), scale=0.1)
    pair = wrap_ts(pinned, 1.1)
    assert pair.f_t < 1e-6
    rng = np.random.default_rng(2)
    draw = ts_adversary_sample(pair, rng)
    assert draw[0] >= draw[1]


def test_ts_divergence_certificate_and_analytic_bound():
    pi = _posterior(mean=(0.7, 0.2), scale=1.4, cov=[[0.9, 0.2], [0.2, 1.2]])
    # oracle: x1 - x2 is N(0.5, 1.96 * 1.7), and the reweighting acts on it
    # alone, so the divergence is the closed form of the 1-d difference law
    # against its reweighting at the cut x1 - x2 = 0
    gap, var = 0.5, 1.96 * 1.7
    base = GaussianPosterior([gap], 1.0, [[var]])
    mass = st.norm.cdf(-gap / math.sqrt(var))
    for alpha in (0.5, 1.0, 2.0, 3.0):
        r = choose_r(alpha, 0.1)
        pair = wrap_ts(pi, r)
        value = ts_divergence(pair, alpha)
        assert value <= 0.1 + 1e-9
        assert value <= analytic_budget_bound(r, alpha) + 1e-6
        boost = (1.0 - (1.0 - mass) / r) / mass
        reweighted = two_region_reweight(gap, math.sqrt(var), 0.0, boost)
        assert reweighted.weights[1] == pytest.approx(1.0 / r, rel=1e-12)
        oracle = alpha_divergence(base, reweighted, alpha, Method.CLOSED_FORM_GAUSSIAN)
        assert value == pytest.approx(oracle.value, abs=1e-9)


def test_ts_normalization_by_nested_quadrature():
    # total mass of the reweighted density, with the winning-region mass
    # computed by an independent nested integral over the conditional law
    pi = _posterior(mean=(0.4, -0.1), scale=1.2, cov=[[1.0, 0.3], [0.3, 0.8]])
    r = 1.15
    pair = wrap_ts(pi, r)
    mean, cov = pi.mean, pi.covariance
    sd1 = math.sqrt(cov[0, 0])
    slope = cov[0, 1] / cov[0, 0]
    cond_sd = math.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])

    def second_wins_given_first(x1):
        mu = mean[1] + slope * (x1 - mean[0])
        return st.norm.sf((x1 - mu) / cond_sd)  # P(x2 > x1 | x1)

    mass_second, err = integrate.quad(
        lambda x1: st.norm.pdf((x1 - mean[0]) / sd1) / sd1 * second_wins_given_first(x1),
        mean[0] - 10 * sd1,
        mean[0] + 10 * sd1,
        epsabs=1e-12,
    )
    w_boost = (1.0 - (1.0 - mass_second) / r) / mass_second
    total = w_boost * mass_second + (1.0 - mass_second) / r
    assert total == pytest.approx(1.0, abs=1e-9)
    assert mass_second == pytest.approx(pair.f_t, abs=1e-9)


def test_bucb_marginal_preservation_by_quadrature():
    pair = wrap_bucb(*_params(mean=(0.6, 0.1), scale=1.1, cov=[[0.8, 0.25], [0.25, 0.9]]), 1.15, 0.9)
    mean, cov = pair.mean, pair.covariance
    slope = cov[0, 1] / cov[0, 0]
    cond_sd = math.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])
    r, b = pair.r, pair.b_t

    def reweighted_density(x2, x1):
        mu = mean[1] + slope * (x1 - mean[0])
        base = st.norm.pdf((x2 - mu) / cond_sd) / cond_sd
        f_cut = st.norm.cdf((b - mu) / cond_sd)
        boost = (1.0 - f_cut / r) / (1.0 - f_cut)
        return base / r if x2 < b else base * boost

    for x1 in (-0.5, 0.3, 0.6, 1.4):
        total, err = integrate.quad(
            reweighted_density,
            mean[1] - 12 * cond_sd + slope * (x1 - mean[0]),
            mean[1] + 12 * cond_sd + slope * (x1 - mean[0]),
            args=(x1,),
            points=[b],
            epsabs=1e-12,
            limit=300,
        )
        # conditional mass integrates back to one, so the first marginal of
        # the reweighted law equals the exact posterior marginal
        assert total == pytest.approx(1.0, abs=1e-9)


def test_bucb_quantiles_order_and_unit_reweight():
    pi = _posterior(mean=(0.8, 0.1), scale=1.3, cov=[[0.5, 0.1], [0.1, 0.7]])
    gamma = 0.9
    r = choose_r(2.0, 0.1, gamma)
    pair = wrap_bucb(pi.mean, pi.scale, pi.cov, r, gamma)
    q1, q2 = bucb_adversary_quantiles(pair)
    assert q1 == pair.b_t  # marginal preserved exactly
    assert bucb_second_marginal_cdf(pair, pair.b_t) <= 1.0 / r + 1e-9
    assert 1.0 / r < gamma
    assert q2 > q1

    near_unit = wrap_bucb(pi.mean, pi.scale, pi.cov, 1.0 + 1e-9, gamma)
    q1u, q2u = bucb_adversary_quantiles(near_unit)
    exact_q2 = pi.arm_value_quantiles(np.array([[0.0, 1.0]]), gamma)[0]
    assert q2u == pytest.approx(exact_q2, abs=1e-6)


def test_bucb_divergence_certificate():
    gamma = 0.9
    r = choose_r(2.0, 0.1, gamma)
    pair = wrap_bucb(*_params(mean=(0.8, 0.1), scale=1.3, cov=[[0.5, 0.1], [0.1, 0.7]]), r, gamma)
    for alpha in (0.5, 1.0, 2.0):
        value = bucb_divergence(pair, alpha)
        assert 0.0 <= value <= analytic_budget_bound(r, alpha) + 1e-9
    value = bucb_divergence(pair, 2.0)
    assert value <= 0.1


def test_bucb_deep_tail_quantile_stays_above_cut():
    # mid-episode shape: second coordinate tightly resolved, cut far into
    # its tail; the reweighted quantile must still clear the cut
    gamma = 0.9
    pair = wrap_bucb(*_params(mean=(0.0, 0.02), scale=1.0, cov=[[1.0, 0.0], [0.0, 0.0004]]), 1.15, gamma)
    q1, q2 = bucb_adversary_quantiles(pair)
    assert pair.b_t > 1.0  # cut sits ~64 conditional sds above the mean
    assert q2 > q1


def test_bucb_divergence_at_a_negative_order_is_inf_without_a_warning():
    # the same deep-tail law: the boosted term S_b^a at a = -1 is about
    # e^2000, past the float range
    pair = wrap_bucb(*_params(mean=(0.0, 0.02), scale=1.0, cov=[[1.0, 0.0], [0.0, 0.0004]]), 1.15, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bucb_divergence(pair, -1.0) == math.inf
        assert 0.0 < bucb_divergence(pair, 2.0) <= analytic_budget_bound(1.15, 2.0)


@pytest.mark.parametrize("mass", [1e-200, 0.0, 1e-310])
def test_region_divergence_at_a_negative_order_is_inf_where_the_boost_blows_up(mass):
    # the boosted term mass * w^2 grows like 1/mass at a = -1: infinite at
    # mass 0, past the float range at 1e-200 (w^2 alone overflows) and at
    # 1e-310 (w itself overflows)
    assert region_divergence(1.1, -1.0, mass) == math.inf
    assert region_divergence(1.0, -1.0, mass) == 0.0


def test_region_divergence_at_a_negative_order_matches_the_closed_form():
    r, mass = 1.1, 1e-3
    boost = (1.0 - (1.0 - mass) / r) / mass
    base = GaussianPosterior([0.0], 1.0, [[1.0]])
    reweighted = two_region_reweight(0.0, 1.0, norm_ppf(mass), boost)
    oracle = alpha_divergence(base, reweighted, -1.0, Method.CLOSED_FORM_GAUSSIAN)
    assert region_divergence(r, -1.0, mass) == pytest.approx(oracle.value, rel=1e-9)
    # no finite bound at the negative orders
    assert analytic_budget_bound(r, -1.0) == math.inf


@pytest.mark.parametrize("r", [1.05, 1.1, 1.5, 3.0])
@pytest.mark.parametrize("cut", [-3.0, -0.5, 0.0, 1.2, 4.0])
def test_region_divergence_at_the_reverse_kl_order_matches_the_closed_form(r, cut):
    # a = 0 is KL(reweighting || law) = sum_i mass_i w_i log w_i
    mass = float(norm_cdf(cut))
    boost = (1.0 - (1.0 - mass) / r) / mass
    base = GaussianPosterior([0.0], 1.0, [[1.0]])
    reweighted = ReweightedGaussian1D(0.0, 1.0, [cut], [boost, 1.0 / r])
    oracle = alpha_divergence(base, reweighted, 0.0)
    assert oracle.method is Method.CLOSED_FORM_GAUSSIAN
    assert region_divergence(r, 0.0, mass) == pytest.approx(oracle.value, rel=1e-6, abs=1e-15)


def test_region_divergence_at_the_reverse_kl_order_is_inf_at_mass_zero():
    assert region_divergence(1.1, 0.0, 0.0) == math.inf
    assert analytic_budget_bound(1.1, 0.0) == math.inf
    assert region_divergence(1.0, 0.0, 0.0) == 0.0
    # a subnormal mass leaves w itself past the float range, not the divergence
    assert math.isfinite(region_divergence(1.1, 0.0, 1e-310))


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("mass", [0.0, 1e-310, 1e-17, 0.3, 0.5, 1.0])
def test_region_divergence_at_r_one_is_exactly_zero(alpha, mass):
    # r = 1 is the identity reweighting. The general formula divided by a
    # boost that rounds to 0 below a mass of about 1e-16 (at the KL and
    # chi-square orders) and read -5.55e-17 at alpha 2, mass 0.3.
    assert region_divergence(1.0, alpha, mass) == 0.0


def test_bucb_divergence_at_the_reverse_kl_order_is_finite():
    # this law used to raise ZeroDivisionError at alpha = 0
    law = wrap_bucb(*_params(mean=(0.8, 0.1), scale=1.3, cov=[[0.5, 0.1], [0.1, 0.7]]), 1.15, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = bucb_divergence(law, 0.0)
    assert 0.0 < value < math.inf


@pytest.mark.parametrize("r", [1.0, 1.15, 1.5, 3.0])
@pytest.mark.parametrize("mean2", [-2.0, 0.1, 1.0, 3.0])
def test_bucb_divergence_at_the_reverse_kl_order_matches_the_region_divergence(r, mean2):
    # on a diagonal law the cut survival S_b is the same at every node, so
    # the Gauss-Hermite sum is the two-region divergence at mass S_b
    law = wrap_bucb(*_params(mean=(0.8, mean2), scale=1.3, cov=[0.5, 0.7]), r, 0.9)
    sf = law.cut_nodes[2]
    assert np.all(sf == sf[0])
    expected = region_divergence(r, 0.0, float(sf[0]))
    assert bucb_divergence(law, 0.0) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_bucb_divergence_at_r_one_is_exactly_zero(alpha):
    # r = 1 is the identity reweighting. The general sums read +-3.4e-57
    # on the correlated law, and on the deep-tail law, where S_b underflows
    # to 0, NaN at the reverse KL order and a divide warning at a = -1.
    for mean, cov in (((0.8, 0.1), [[0.5, 0.1], [0.1, 0.7]]),
                      ((0.0, 0.02), [[1.0, 0.0], [0.0, 0.0004]])):
        law = wrap_bucb(*_params(mean=mean, scale=1.3, cov=cov), 1.0, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bucb_divergence(law, alpha) == 0.0


def test_certified_linbucb_posteriors_are_diagonal(monkeypatch):
    # the arms are the coordinate axes, so the design and its inverse stay
    # diagonal through every rank-1 update and dense re-inversion: the
    # conditional slope is 0 and the Gauss-Hermite sums integrate a constant
    horizon = 2000
    assert horizon > 4 * REINVERT_PERIOD
    off_diagonals = []
    wrap = adversarial.wrap_bucb

    def recording(mean, scale, cov, r, gamma):
        off_diagonals.append((cov[0, 1], cov[1, 0]))
        return wrap(mean, scale, cov, r, gamma)

    monkeypatch.setattr(adversarial, "wrap_bucb", recording)
    run_adversarial_episode("linbucb", (1.0, 0.0), 2.0, 0.1, horizon, np.random.default_rng(0))
    assert len(off_diagonals) == horizon
    assert all(a == 0.0 and b == 0.0 for a, b in off_diagonals)


def _quantile_choice(pair) -> int:
    q1, q2 = bucb_adversary_quantiles(pair)
    return 0 if q1 >= q2 else 1


@pytest.mark.parametrize("gamma,r", [(0.85, None), (0.9, None), (0.9, 1.05)])
def test_bucb_choice_matches_the_quantile_comparison_over_episodes(monkeypatch, gamma, r):
    # r=None is the certified adversary (arm 1 at every step); r=1.05 sits
    # below 1/gamma, so the reweighted CDF at the cut crosses gamma and both
    # arms are chosen, some steps within 1e-5 of the level
    chosen = []

    def checked(pair):
        assert pair.gamma == gamma
        idx = bucb_adversary_choice(pair)
        assert idx == _quantile_choice(pair)
        chosen.append(idx)
        return idx

    monkeypatch.setattr(adversarial, "bucb_adversary_choice", checked)
    for seed in (0, 1, 2):
        run_adversarial_episode(
            "linbucb", (1.0, 0.0), 2.0, 0.1, 2000, np.random.default_rng(seed),
            gamma=gamma, r=r,
        )
    assert len(chosen) == 3 * 2000
    assert set(chosen) == ({1} if r is None else {0, 1})


def test_bucb_choice_when_the_cut_already_holds_the_level():
    # 1/r > gamma and the second coordinate sits far below the cut, so
    # F2(b) >= gamma: the reference brackets its root below the cut
    pair = wrap_bucb(*_params(mean=(0.0, -3.0)), 1.05, 0.9)
    assert bucb_second_marginal_cdf(pair, pair.b_t) >= 0.9
    q1, q2 = bucb_adversary_quantiles(pair)
    assert q2 < q1 == pair.b_t
    assert bucb_adversary_choice(pair) == 0

    above = wrap_bucb(*_params(mean=(0.0, 3.0)), 1.05, 0.9)
    assert bucb_second_marginal_cdf(above, above.b_t) < 0.9
    assert bucb_adversary_choice(above) == _quantile_choice(above) == 1


def test_bucb_choice_reads_the_cut_once_and_ties_to_the_first_arm(monkeypatch):
    pair = wrap_bucb(*_params(mean=(0.8, 0.1), cov=[[0.5, 0.1], [0.1, 0.7]]), 1.2, 0.9)
    evaluated = []

    def level_at_cut(p, value):
        # continuous and nondecreasing, exactly gamma at the cut
        evaluated.append(value)
        return min(max(0.9 + 0.1 * (value - p.b_t), 0.0), 1.0)

    monkeypatch.setattr(adversarial, "bucb_second_marginal_cdf", level_at_cut)
    assert bucb_adversary_choice(pair) == 0
    assert evaluated == [pair.b_t]
    assert bucb_adversary_quantiles(pair) == (pair.b_t, pair.b_t)


def test_wrap_validation():
    pi = _posterior()
    with pytest.raises(ValueError):
        wrap_ts(pi, 0.9)
    with pytest.raises(ValueError):
        wrap_bucb(pi.mean, pi.scale, pi.cov, 1.1, 1.0)
    with pytest.raises(ValueError):
        wrap_ts(GaussianPosterior(np.zeros(3), 1.0, np.eye(3)), 1.1)
    assert isinstance(wrap_ts(pi, 1.1), RegionReweighting)

    bad = [
        ((np.zeros(3), 1.0, np.eye(3), 1.1, 0.9), "two-arm coordinates"),
        ((np.array([0.0, math.nan]), 1.0, np.eye(2), 1.1, 0.9), "must be finite"),
        ((np.zeros(2), 1.0, np.array([[1.0, math.inf], [0.0, 1.0]]), 1.1, 0.9), "must be finite"),
        ((np.zeros(2), math.nan, np.eye(2), 1.1, 0.9), "scale must be"),
        ((np.zeros(2), 1.0, np.eye(2), 0.9, 0.9), "at least 1"),
        ((np.zeros(2), 1.0, np.eye(2), 1.1, 0.0), "gamma must lie in"),
        ((np.zeros(2), 1.0, np.eye(2), 1.1, math.nan), "gamma must lie in"),
    ]
    for args, detail in bad:
        with pytest.raises(ValueError, match=detail):
            wrap_bucb(*args)


def test_conditional_reweighting_holds_the_posterior_moments():
    # the law built from posterior_params' (mean, scale, cov) holds the
    # GaussianPosterior's covariance bit for bit, dense or diagonal
    for cov in ([[0.8, 0.25], [0.25, 0.9]], [0.8, 0.9]):
        params = _params(mean=(0.6, 0.1), scale=1.1, cov=cov)
        law, pi = wrap_bucb(*params, 1.15, 0.9), GaussianPosterior(*params)
        assert law.covariance.tobytes() == pi.covariance.tobytes()
        assert law.mean.tobytes() == pi.mean.tobytes()
        assert law.b_t == pytest.approx(0.6 + 1.1 * math.sqrt(0.8) * st.norm.ppf(0.9), rel=1e-14)


@pytest.mark.parametrize("policy,per_step", [("linbucb", 0), ("lints", 1)])
def test_only_the_sampling_adversary_factorises(monkeypatch, policy, per_step):
    # the quantile adversary reads posterior_params' moments; only the LinTS
    # draw builds a GaussianPosterior and so needs its Cholesky factor
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    horizon = 50
    run_adversarial_episode(policy, (1.0, 0.0), 2.0, 0.1, horizon, np.random.default_rng(0))
    assert calls == [(2, 2)] * (per_step * horizon)


def test_short_episodes():
    rng = np.random.default_rng(3)
    ep = run_adversarial_episode("lints", (1.0, 0.0), 2.0, 0.1, 300, rng)
    floor = (1.0 - 1.0 / ep.r) * 300
    assert ep.trace.final >= 0.7 * floor  # single-run slack
    assert float(np.max(ep.divergences)) <= 0.1 + 1e-9

    ep = run_adversarial_episode("linbucb", (1.0, 0.0), 2.0, 0.1, 300, rng, gamma=0.9)
    assert ep.trace.final == pytest.approx(300.0)
    assert np.all(ep.chosen == 1)
    assert float(np.max(ep.divergences)) <= 0.1 + 1e-9

    control = run_adversarial_episode("lints", (1.0, 0.0), 2.0, 0.1, 300, rng, r=1.0)
    assert control.trace.final < 100.0
    assert float(np.max(control.divergences)) == 0.0

    with pytest.raises(ValueError):
        run_adversarial_episode("lints", (0.0, 1.0), 2.0, 0.1, 10, rng)
    with pytest.raises(ValueError):
        run_adversarial_episode("ucb", (1.0, 0.0), 2.0, 0.1, 10, rng)


def test_noiseless_episode_observes_the_arm_means():
    ep = run_adversarial_episode(
        "linbucb", (1.0, 0.0), 2.0, 0.1, 20, np.random.default_rng(0), noise_sd=0.0
    )
    assert ep.trace.final == pytest.approx(20.0)


@pytest.mark.parametrize(
    "policy,mu,gamma,noise_sd,detail",
    [
        ("lints", (1.0, 1.0), 0.9, 0.5, "the first arm must be strictly better"),
        ("lints", (math.inf, 0.0), 0.9, 0.5, "arm means must have a finite norm"),
        ("linbucb", (1.0, math.nan), 0.9, 0.5, "arm means must have a finite norm"),
        ("lints", (1.5e308, -1.5e308), 0.9, 0.5, "arm means must have a finite norm"),
        ("linbucb", (1.0, 0.0), 1.5, 0.5, "gamma must lie in"),
        ("linbucb", (1.0, 0.0), math.nan, 0.5, "gamma must lie in"),
        ("lints", (1.0, 0.0), 0.9, -1.0, "noise_sd must be finite and non-negative"),
        ("linbucb", (1.0, 0.0), 0.9, -1e-300, "noise_sd must be finite and non-negative"),
        ("lints", (1.0, 0.0), 0.9, math.nan, "noise_sd must be finite and non-negative"),
        ("linbucb", (1.0, 0.0), 0.9, math.inf, "noise_sd must be finite and non-negative"),
    ],
)
def test_episode_inputs_are_checked_before_any_step(policy, mu, gamma, noise_sd, detail):
    for r in (None, 1.0):
        with pytest.raises(ValueError, match=detail):
            adversarial.check_episode(policy, mu, 2.0, 0.1, gamma, r, noise_sd)
        with pytest.raises(ValueError, match=detail):
            run_adversarial_episode(
                policy, mu, 2.0, 0.1, 5, np.random.default_rng(0), gamma=gamma, r=r,
                noise_sd=noise_sd,
            )


@pytest.mark.parametrize("r", [0.5, 0.0, -2.0, math.nan, math.inf, -math.inf])
def test_given_reweighting_factor_must_be_finite_and_at_least_one(r):
    with pytest.raises(ValueError, match="reweighting factor must be"):
        adversarial.check_episode("lints", (1.0, 0.0), 2.0, 0.1, 0.9, r)
    for policy in ("lints", "linbucb"):
        with pytest.raises(ValueError, match="reweighting factor must be"):
            run_adversarial_episode(
                policy, (1.0, 0.0), 2.0, 0.1, 5, np.random.default_rng(0), r=r
            )


# SHA-256 of the choices, certificates and cumulative regret of short
# certified episodes (alpha=2, epsilon=0.1, T=300), recorded before the
# per-pair node cache, the memoised quantile and the float density path went
# in. Those are pure refactors: a digest that moves means an output bit moved.
# (policy, rng seed, r) -> digests of (chosen, divergences, cumulative) for a
# T=300 episode at gamma=0.9; r=None is the certified adversary and r=1.0 the
# exact-inference control.
_EPISODE_DIGESTS = {
    ("lints", 0, None): (
        "ede92e92a4c92ad7bf832fbfb2b3fcd198e5059e1a3d08cf8c61bd2f60541527",
        "59192108a1af5cc9f78fbaca5dbe10980ea953dd08d8fb498eaed031d08fc1d7",
        "26f5975120e218ddb22a1c966d3941bf3465459d354e60b6b76286d5bcab457c",
    ),
    ("lints", 1, None): (
        "b435ac01acbcd917aaf2139c2d738e4b55a74c6798f9d265bb93d2a4633885b0",
        "1e42184e9c4c7a715d305162f16414249547ef283b68e4cb65208e545b2fb992",
        "28de07394e27e5207c4f67764d9be8b28335e4dc1433a9e358ecdca7eceb6b62",
    ),
    ("linbucb", 0, None): (
        "1ba3f0cd46e5a90512e901ce94c0e58ddd0c5e8b2d5e1269abca28c7d975c2ef",
        "a8744396f488306e6cd869b5e7ec67a1b0021ca74097e63d644ab004c595d1a9",
        "ceef0682e62f7490533704c4e4edfef865f49d07ab2343605eb79a9b737f767b",
    ),
    ("linbucb", 1, None): (
        "1ba3f0cd46e5a90512e901ce94c0e58ddd0c5e8b2d5e1269abca28c7d975c2ef",
        "7518a817c048af66140b27203a41634ed4e30f5dab80912ea5aa81f689571dbb",
        "ceef0682e62f7490533704c4e4edfef865f49d07ab2343605eb79a9b737f767b",
    ),
    ("lints", 0, 1.0): (
        "5dfeb00d83c16b296f59e7b423c07b819119ebe44b1a588643f89804c80d5335",
        "a0ee989ed2a0a2e3626520afa4032e06144865c8c8f6357293c9f4cd2069eaf2",
        "851a68a8a123e503f2e0d429e154a2f67f2089b0abc0bd11d821c158ac4f5acf",
    ),
    ("lints", 1, 1.0): (
        "8a242e9348aa0b1b050637ffd436ae0b95fab8061ac94eb2f2dc6e3ac2a25ab3",
        "a0ee989ed2a0a2e3626520afa4032e06144865c8c8f6357293c9f4cd2069eaf2",
        "d942e315f4fc7deb063e1edda96106a03f718c44d3f8a7bbf0515a25a8e53b16",
    ),
    ("linbucb", 0, 1.0): (
        "d04cde1702dac84e0e290219a6b9db1677ddc180035295c341a52f0656c5a613",
        "a0ee989ed2a0a2e3626520afa4032e06144865c8c8f6357293c9f4cd2069eaf2",
        "3947fce28128825f89e10cf4a4de663eb5fc9922e936411ca054accbe0cc0fdc",
    ),
    ("linbucb", 1, 1.0): (
        "9bb6a4f8ef167d16d1549ea3ad1a00ca3d70f5a31f69e0cc86c59ac2847471b8",
        "a0ee989ed2a0a2e3626520afa4032e06144865c8c8f6357293c9f4cd2069eaf2",
        "d9512424f0f24e547f13703aaa22fc36cd97e094ef4ea4aee6611fb18876e3a6",
    ),
}


def _sha256(arr, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def _check_episode_digests(policy, seed, r):
    ep = run_adversarial_episode(
        policy, (1.0, 0.0), 2.0, 0.1, 300, np.random.default_rng(seed), gamma=0.9, r=r
    )
    digests = (
        _sha256(ep.chosen, np.int64),
        _sha256(ep.divergences, np.float64),
        _sha256(ep.trace.cumulative, np.float64),
    )
    assert digests == _EPISODE_DIGESTS[(policy, seed, r)]


def _episode_cases(r):
    return sorted((policy, seed) for policy, seed, rr in _EPISODE_DIGESTS if rr == r)


@pytest.mark.parametrize("policy,seed", _episode_cases(None))
def test_certified_episode_outputs_are_bit_stable(policy, seed):
    _check_episode_digests(policy, seed, None)


@pytest.mark.parametrize("policy,seed", _episode_cases(1.0))
def test_control_episode_outputs_are_bit_stable(policy, seed):
    _check_episode_digests(policy, seed, 1.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_float_and_array_normal_paths_agree_bitwise(monkeypatch):
    # the points adaptive quadrature visits during one certified TS step: the
    # QUADPACK port passes the density arrays of nodes, 22 a rule (one spare):
    # the rules on [a, b] and on its pieces at b, 7 in all, then the two
    # halves of any other bisection; scipy.integrate.quad passes one float
    nodes = []

    def recording_pdf(z):
        nodes.append(z)
        return norm_pdf(z)

    monkeypatch.setattr(adversarial, "norm_pdf", recording_pdf)
    pi = _posterior(mean=(0.7, 0.2), scale=1.4, cov=[[0.9, 0.2], [0.2, 1.2]])
    ts_divergence(wrap_ts(pi, choose_r(2.0, 0.1)), 2.0)
    assert nodes and type(nodes[0]) is np.ndarray and nodes[0].shape == (154,)
    assert all(type(z) is np.ndarray and z.shape == (44,) for z in nodes[1:])

    grid = np.concatenate([*nodes, np.linspace(-40.0, 40.0, 4001), [-0.0, 1e-300, 37.5]])
    assert _bits([norm_pdf(float(z)) for z in grid]) == _bits(norm_pdf(grid))

    levels = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), [1e-300, 0.6, 0.9, 0.975]])
    assert _bits([norm_ppf(float(p)) for p in levels]) == _bits(norm_ppf(levels))
    # a second pass is served by the memo and must not differ either
    assert _bits([norm_ppf(float(p)) for p in levels]) == _bits(norm_ppf(levels))
    for bad in (0.0, 1.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            norm_ppf(bad)
