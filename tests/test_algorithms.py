import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st

from linbandits.algorithms import (
    Inference,
    Kind,
    PolicyConfig,
    ScaleMode,
    init_policy,
    posterior_params,
    select_arm,
    update,
)
from linbandits.harness import ExperimentConfig, run_experiment, write_traces_csv
from linbandits.linalg import (
    ConfidenceParams,
    DiagonalApproxState,
    EstimateMode,
    RlsState,
    diag_init,
    diag_update,
)


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
        mean = state.estimate
        assert idx == int(np.argmax(arms @ mean))
        chosen = arms[idx]
        state = update(state, chosen, float(rng.normal()))


def test_linbucb_quantile_scores_worked_example():
    # beta = nu * 0 + sqrt(lam) * s = 1 with nu=0, so scores are
    # mean value + z(0.9) * weighted norm; oracle via scipy's quantile
    config = _linbucb(gamma=0.9, confidence=_conf(nu=0.0, s_bound=1.0))
    eye = np.eye(2)
    state = RlsState(
        dim=2,
        step=0,
        design=eye,
        design_inv=eye,
        moment=np.array([1.0, 0.0]),
        estimate=np.array([1.0, 0.0]),
    )
    arms = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx = select_arm(state, config, arms, np.random.default_rng(0))
    assert idx == 0
    z = st.norm.ppf(0.9)
    scores = arms @ state.estimate + z * 1.0
    assert scores[0] == pytest.approx(1.0 + z)
    assert scores[1] == pytest.approx(z)


def test_first_update_builds_identity_plus_outer():
    config = _lints()
    state = init_policy(config, 2)
    arm = np.array([0.6, -0.3])
    state = update(state, arm, 0.7)
    assert np.allclose(state.design, np.eye(2) + np.outer(arm, arm))


def test_exact_and_approximate_share_design_diagonal():
    exact = _lints()
    approx = _lints(inference=Inference.APPROXIMATE, approx_mode=EstimateMode.MEAN_AND_COV)
    se, sa = init_policy(exact, 3), init_policy(approx, 3)
    assert isinstance(sa, DiagonalApproxState)
    rng = np.random.default_rng(2)
    for _ in range(30):
        arm = rng.standard_normal(3)
        arm /= max(1.0, np.linalg.norm(arm))
        r = float(rng.normal())
        se = update(se, arm, r)
        sa = update(sa, arm, r)
    assert np.array_equal(sa.diag, np.diag(se.design))


def test_cov_only_mode_keeps_exact_mean():
    # one design state: the exact mean, with the covariance read off the
    # design diagonal bit for bit as a replayed diagonal-state chain has it
    exact = _lints()
    config = _lints(inference=Inference.APPROXIMATE, approx_mode=EstimateMode.COV_ONLY)
    se, state = init_policy(exact, 2), init_policy(config, 2)
    assert isinstance(state, RlsState)
    diag = diag_init(2, config.confidence.lam)
    rng = np.random.default_rng(3)
    for _ in range(10):
        arm = rng.standard_normal(2)
        arm /= max(1.0, np.linalg.norm(arm))
        r = float(rng.normal())
        se, state, diag = update(se, arm, r), update(state, arm, r), diag_update(diag, arm, r)
    assert state.step == 10
    mean, scale, cov = posterior_params(state, config)
    exact_mean, exact_scale, _ = posterior_params(se, exact)
    assert np.array_equal(mean, exact_mean) and scale == exact_scale
    assert cov.tobytes() == diag.diag_inv.tobytes()


def test_nan_reward_rejected():
    config = _lints()
    state = init_policy(config, 2)
    with pytest.raises(ValueError):
        update(state, [0.5, 0.0], float("nan"))


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
            state = update(state, arms[idx], float(noise.normal()))
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
    state = RlsState(
        dim=2,
        step=0,
        design=np.linalg.inv(cov),
        design_inv=cov,
        moment=np.linalg.inv(cov) @ mean,
        estimate=mean.copy(),
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
        st_ts = update(st_ts, arms[i_ts], r)
        st_bu = update(st_bu, arms[i_bu], r)


def test_unit_scale_mode_uses_plain_posterior():
    config = _lints(scale_mode=ScaleMode.UNIT, confidence=_conf(nu=123.0, s_bound=456.0))
    state = init_policy(config, 2)
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    arms = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx = select_arm(state, config, arms, rng1)
    # with unit scale the enormous confidence constants must not matter
    from linbandits.posterior import GaussianPosterior

    post = GaussianPosterior(state.estimate, 1.0, state.design_inv)
    assert idx == int(np.argmax(arms @ post.sample(1, rng2)[0]))


def test_linbucb_rejects_negative_variance_at_an_offered_arm():
    # an indefinite design inverse, which the exact LinTS path would reject
    # at its Cholesky factorisation; quantile selection never factorises, so
    # it must reject the arm whose quadratic form is certainly negative
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for config in (_linbucb(), _linbucb(scale_mode=ScaleMode.UNIT)):
        state = replace(init_policy(config, 2), design_inv=indefinite)
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


def test_arm_dimension_checked_against_the_state():
    approx = dict(inference=Inference.APPROXIMATE, approx_mode=EstimateMode.MEAN_AND_COV)
    for config in (_lints(), _linbucb(), _lints(**approx)):
        state = init_policy(config, 3)
        with pytest.raises(ValueError, match="arms have dimension 2, expected 3"):
            select_arm(state, config, np.ones((4, 2)), np.random.default_rng(0))


# SHA-256 of traces.csv for P3, d=200, K=50, T=300, all four policies,
# recorded while the rank-1 update built its outer products with
# np.multiply.outer. T=300 crosses the step-256 re-inversion. The traces
# pin the chosen arms and regrets, not the last bits of the state;
# tests/test_linalg.py compares the state bytes.
_HIGHDIM_ALL_POLICIES_TRACES = "bc072a492a0bf4a2e51af8f488dc3bd53770ecc866c7c5716ea005f545253067"


def test_highdim_all_policy_traces_are_bit_stable(tmp_path):
    config = ExperimentConfig(
        family="P3",
        dim=200,
        n_arms=50,
        horizon=300,
        n_runs=1,
        base_seed=20240601,
        instance_seed=7,
        policies=("lints", "lints_approx", "linbucb", "linbucb_approx"),
    )
    path = tmp_path / "traces.csv"
    write_traces_csv(run_experiment(config).traces, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _HIGHDIM_ALL_POLICIES_TRACES
