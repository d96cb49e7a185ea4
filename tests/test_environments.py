import math

import numpy as np
import pytest
import scipy.stats as st

from linbandits.environments import (
    RegretTrace,
    make_instance,
    reward,
    sample_arm_set,
    sublinearity_ratio,
)


def test_alternating_family():
    inst = make_instance("P1", 6, 10)
    assert np.array_equal(inst.theta_star, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert inst.theta_norm == pytest.approx(math.sqrt(6.0))


def test_sine_family_uses_radians():
    inst = make_instance("P2", 4, 10)
    assert np.allclose(inst.theta_star, [math.sin(1), math.sin(2), math.sin(3), math.sin(4)])


def test_uniform_family_is_seed_stable():
    a = make_instance("P3", 8, 10, seed=42)
    b = make_instance("P3", 8, 10, seed=42)
    c = make_instance("P3", 8, 10, seed=43)
    assert np.array_equal(a.theta_star, b.theta_star)
    assert not np.array_equal(a.theta_star, c.theta_star)
    assert np.all((a.theta_star >= 0.0) & (a.theta_star <= 1.0))
    with pytest.raises(ValueError):
        make_instance("P3", 8, 10)


def test_custom_family():
    inst = make_instance("custom", 2, 2, theta=[1.0, 0.5])
    assert np.array_equal(inst.theta_star, [1.0, 0.5])
    with pytest.raises(ValueError):
        make_instance("custom", 2, 2)


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -0.5])
def test_noise_sd_must_be_finite_and_non_negative(noise_sd):
    with pytest.raises(ValueError, match="noise_sd must be finite and non-negative"):
        make_instance("P1", 2, 2, noise_sd=noise_sd)


def test_arm_sets_live_in_unit_ball():
    rng = np.random.default_rng(0)
    arms = sample_arm_set(3, 200, rng)
    assert np.all(np.linalg.norm(arms, axis=1) <= 1.0 + 1e-12)


def test_high_dimension_arms_sit_on_the_boundary():
    # oracle: a chi(20) variable is below 1 with negligible probability
    assert st.chi2(df=20).cdf(1.0) < 1e-9
    rng = np.random.default_rng(1)
    arms = sample_arm_set(20, 500, rng)
    on_boundary = np.mean(np.abs(np.linalg.norm(arms, axis=1) - 1.0) < 1e-12)
    assert on_boundary == 1.0


def test_sphere_mode_normalizes_everything():
    rng = np.random.default_rng(2)
    arms = sample_arm_set(2, 300, rng, scaling="sphere")
    assert np.allclose(np.linalg.norm(arms, axis=1), 1.0)


def test_arm_stream_is_seed_deterministic():
    a = sample_arm_set(4, 7, np.random.default_rng(123))
    b = sample_arm_set(4, 7, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_reward_noiseless_and_noisy():
    inst = make_instance("custom", 2, 2, noise_sd=0.0, theta=[1.0, 0.5])
    rng = np.random.default_rng(3)
    assert reward(inst, [0.0, 1.0], rng) == pytest.approx(0.5)

    noisy = make_instance("custom", 2, 2, noise_sd=0.5, theta=[1.0, 0.5])
    arm = np.array([0.6, -0.2])
    target = float(arm @ noisy.theta_star)
    draws = np.array([reward(noisy, arm, rng) for _ in range(100_000)])
    assert abs(draws.mean() - target) < 3 * 0.5 / math.sqrt(draws.size)
    assert draws.std() == pytest.approx(0.5, rel=0.02)


def test_regret_trace_invariants():
    trace = RegretTrace.from_instantaneous([0.5, 0.0, 0.25])
    assert np.allclose(trace.cumulative, [0.5, 0.5, 0.75])
    assert np.all(np.diff(trace.cumulative) >= 0.0)
    assert trace.final == pytest.approx(0.75)
    for bad in ([0.5, -0.1], [0.1, math.nan]):
        with pytest.raises(ValueError, match="non-negative"):
            RegretTrace.from_instantaneous(bad)


@pytest.mark.parametrize("dim,n_arms", [(0, 3), (-1, 3), (3, 0)])
def test_arm_set_needs_a_positive_dimension_and_arm_count(dim, n_arms):
    # as make_instance does; dim=0 used to give a (3, 0) arm set
    with pytest.raises(ValueError, match="dim and n_arms must be positive"):
        sample_arm_set(dim, n_arms, np.random.default_rng(0))


def test_sublinearity_ratio_shapes():
    t = np.arange(1, 1001, dtype=float)
    assert sublinearity_ratio(np.sqrt(t)) == pytest.approx(0.5, abs=1e-3)
    assert sublinearity_ratio(t) == pytest.approx(1.0)
    assert sublinearity_ratio(np.zeros(100)) == 0.0
