from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st

from linbandits.algorithms import (
    Inference,
    Kind,
    PolicyConfig,
    PolicyState,
    ScaleMode,
    init_policy,
    select_arm,
    update,
)
from linbandits.linalg import ConfidenceParams, EstimateMode, RlsState


def _conf(**kw) -> ConfidenceParams:
    base = dict(nu=0.5, lam=1.0, s_bound=1.0, delta=0.05)
    base.update(kw)
    return ConfidenceParams(**base)


def _lints(**kw) -> PolicyConfig:
    args = dict(kind=Kind.LINTS, inference=Inference.EXACT, confidence=_conf(), horizon=100)
    args.update(kw)
    return PolicyConfig(**args)


def _linbucb(gamma=0.6, **kw) -> PolicyConfig:
    args = dict(
        kind=Kind.LINBUCB,
        inference=Inference.EXACT,
        confidence=_conf(),
        horizon=100,
        gamma=gamma,
    )
    args.update(kw)
    return PolicyConfig(**args)


def test_single_arm_always_selected():
    rng = np.random.default_rng(0)
    for config in (_lints(), _linbucb()):
        state = init_policy(config, 3)
        assert select_arm(state, config, [[0.2, 0.1, 0.0]], rng) == 0


def test_empty_arm_set_rejected():
    config = _lints()
    state = init_policy(config, 2)
    with pytest.raises(ValueError):
        select_arm(state, config, np.empty((0, 2)), np.random.default_rng(0))


def test_linbucb_median_level_is_greedy():
    config = _linbucb(gamma=0.5)
    state = init_policy(config, 2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        arms = rng.standard_normal((6, 2))
        arms /= np.maximum(1.0, np.linalg.norm(arms, axis=1, keepdims=True))
        idx = select_arm(state, config, arms, rng)
        mean = state.rls.estimate
        assert idx == int(np.argmax(arms @ mean))
        chosen = arms[idx]
        state = update(state, config, chosen, float(rng.normal()))


def test_linbucb_quantile_scores_worked_example():
    # beta = nu * 0 + sqrt(lam) * s = 1 with nu=0, so scores are
    # mean value + z(0.9) * weighted norm; oracle via scipy's quantile
    config = _linbucb(gamma=0.9, confidence=_conf(nu=0.0, s_bound=1.0))
    eye = np.eye(2)
    state = PolicyState(
        step=0,
        rls=RlsState(
            dim=2,
            lam=1.0,
            step=0,
            design=eye,
            design_inv=eye,
            moment=np.array([1.0, 0.0]),
            estimate=np.array([1.0, 0.0]),
        ),
    )
    arms = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx = select_arm(state, config, arms, np.random.default_rng(0))
    assert idx == 0
    z = st.norm.ppf(0.9)
    scores = arms @ state.rls.estimate + z * 1.0
    assert scores[0] == pytest.approx(1.0 + z)
    assert scores[1] == pytest.approx(z)


def test_first_update_builds_identity_plus_outer():
    config = _lints()
    state = init_policy(config, 2)
    arm = np.array([0.6, -0.3])
    state = update(state, config, arm, 0.7)
    assert np.allclose(state.rls.design, np.eye(2) + np.outer(arm, arm))


def test_exact_and_approximate_share_design_diagonal():
    exact = _lints()
    approx = _lints(inference=Inference.APPROXIMATE)
    se, sa = init_policy(exact, 3), init_policy(approx, 3)
    rng = np.random.default_rng(2)
    for _ in range(30):
        arm = rng.standard_normal(3)
        arm /= max(1.0, np.linalg.norm(arm))
        r = float(rng.normal())
        se = update(se, exact, arm, r)
        sa = update(sa, approx, arm, r)
    assert np.array_equal(sa.diag.diag, np.diag(se.rls.design))


def test_cov_only_mode_keeps_exact_mean():
    config = _lints(inference=Inference.APPROXIMATE, approx_mode=EstimateMode.COV_ONLY)
    state = init_policy(config, 2)
    assert state.rls is not None and state.diag is not None
    rng = np.random.default_rng(3)
    for _ in range(10):
        arm = rng.standard_normal(2)
        arm /= max(1.0, np.linalg.norm(arm))
        state = update(state, config, arm, float(rng.normal()))
    assert state.rls.step == state.diag.step == 10


def test_nan_reward_rejected():
    config = _lints()
    state = init_policy(config, 2)
    with pytest.raises(ValueError):
        update(state, config, [0.5, 0.0], float("nan"))


def test_determinism_across_replays():
    config = _lints(horizon=50)
    arms_rng = np.random.default_rng(4)
    arm_sets = [arms_rng.standard_normal((5, 3)) for _ in range(50)]
    arm_sets = [a / np.maximum(1.0, np.linalg.norm(a, axis=1, keepdims=True)) for a in arm_sets]

    def run():
        state = init_policy(config, 3)
        rng = np.random.default_rng(99)
        noise = np.random.default_rng(100)
        chosen = []
        for arms in arm_sets:
            idx = select_arm(state, config, arms, rng)
            chosen.append(idx)
            state = update(state, config, arms[idx], float(noise.normal()))
        return chosen

    assert run() == run()


def test_scale_invariance_of_first_step_argmax():
    config = _linbucb(gamma=0.8)
    state = init_policy(config, 3)
    rng = np.random.default_rng(5)
    arms = rng.standard_normal((6, 3))
    arms /= np.maximum(1.0, np.linalg.norm(arms, axis=1, keepdims=True))
    base = select_arm(state, config, arms, rng)
    for c in (0.9, 0.5, 0.1):
        assert select_arm(state, config, c * arms, rng) == base


def test_sampling_selection_frequencies_match_dense_integration():
    # fixed posterior, two arms, d=2: exact selection probability of arm 0 by
    # brute-force grid integration of the posterior density over the
    # half-plane where arm 0 wins
    mean = np.array([0.4, 0.1])
    cov = np.array([[0.8, 0.25], [0.25, 0.5]])
    scale = 1.3
    arms = np.array([[0.9, 0.1], [0.2, 0.8]])

    full_cov = scale**2 * cov
    grid = np.linspace(-8, 8, 1201)
    xx, yy = np.meshgrid(mean[0] + grid, mean[1] + grid, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    dens = st.multivariate_normal(mean, full_cov).pdf(pts)
    wins = (pts @ arms[0]) > (pts @ arms[1])
    cell = (grid[1] - grid[0]) ** 2
    p_exact = float(np.sum(dens * wins) * cell)

    config = _lints(confidence=_conf(nu=0.0, s_bound=1.0), horizon=100)
    state = PolicyState(
        step=0,
        rls=RlsState(
            dim=2,
            lam=1.0,
            step=0,
            design=np.linalg.inv(cov),
            design_inv=cov,
            moment=np.linalg.inv(cov) @ mean,
            estimate=mean.copy(),
        ),
    )
    # beta = sqrt(lam) * s_bound = scale with nu=0
    config = _lints(confidence=_conf(nu=0.0, s_bound=scale), horizon=100)

    rng = np.random.default_rng(6)
    n = 100_000
    picks = np.zeros(n, dtype=int)
    # batch equivalent of select_arm: one posterior draw, then argmax
    from linbandits.posterior import GaussianPosterior

    post = GaussianPosterior(mean, scale, cov)
    draws = post.sample(n, rng)
    scores = draws @ arms.T
    picks = np.argmax(scores, axis=1)
    p_hat = float(np.mean(picks == 0))
    se = np.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(p_hat - p_exact) < 3 * se

    # spot-check that select_arm realizes exactly this draw-then-argmax rule
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    for _ in range(200):
        idx = select_arm(state, config, arms, rng_a)
        manual = int(np.argmax(arms @ post.sample(1, rng_b)[0]))
        assert idx == manual


def test_greedy_equivalence_of_zero_scale_sampling_and_median_quantile():
    ts = _lints(confidence=_conf(nu=0.0, s_bound=1e-12), horizon=60)
    bucb = _linbucb(gamma=0.5, confidence=_conf(), horizon=60)
    st_ts, st_bu = init_policy(ts, 3), init_policy(bucb, 3)
    rng_arms = np.random.default_rng(8)
    rng_ts = np.random.default_rng(9)
    rng_bu = np.random.default_rng(9)
    noise = np.random.default_rng(10)
    for _ in range(60):
        arms = rng_arms.standard_normal((5, 3))
        arms /= np.maximum(1.0, np.linalg.norm(arms, axis=1, keepdims=True))
        i_ts = select_arm(st_ts, ts, arms, rng_ts)
        i_bu = select_arm(st_bu, bucb, arms, rng_bu)
        assert i_ts == i_bu
        r = float(noise.normal())
        st_ts = update(st_ts, ts, arms[i_ts], r)
        st_bu = update(st_bu, bucb, arms[i_bu], r)


def test_unit_scale_mode_uses_plain_posterior():
    config = _lints(scale_mode=ScaleMode.UNIT, confidence=_conf(nu=123.0, s_bound=456.0))
    state = init_policy(config, 2)
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    arms = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx = select_arm(state, config, arms, rng1)
    # with unit scale the enormous confidence constants must not matter
    from linbandits.posterior import GaussianPosterior

    post = GaussianPosterior(state.rls.estimate, 1.0, state.rls.design_inv)
    assert idx == int(np.argmax(arms @ post.sample(1, rng2)[0]))


def test_linbucb_rejects_negative_variance_at_an_offered_arm():
    # an indefinite design inverse, which the exact LinTS path would reject
    # at its Cholesky factorisation; quantile selection never factorises, so
    # it must reject the arm whose quadratic form is certainly negative
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for config in (_linbucb(), _linbucb(scale_mode=ScaleMode.UNIT)):
        state = init_policy(config, 2)
        state = PolicyState(step=0, rls=replace(state.rls, design_inv=indefinite))
        arms = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="arm 1 has quadratic form -2"):
            select_arm(state, config, arms, np.random.default_rng(0))
        # positive at every offered arm: the law is usable there
        assert select_arm(state, config, arms[[0, 2]], np.random.default_rng(0)) == 0


def test_linbucb_requires_gamma():
    with pytest.raises(ValueError):
        PolicyConfig(
            kind=Kind.LINBUCB, inference=Inference.EXACT, confidence=_conf(), horizon=10
        )


def test_low_gamma_warning_logged(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="linbandits.algorithms"):
        _linbucb(gamma=0.6, kappa=0.1587)
    assert any("admissible" in rec.message for rec in caplog.records)
