"""Exactness of quantile arm selection.

``posterior.best_quantile_arm`` filters arms with a BLAS product and a
rounding-error bound, then rescores the survivors with the einsum of
``arm_value_quantiles``. These tests pin that it returns exactly the argmax
of those scores, the two bit-level facts the filter relies on, and that
quantile selection never factorises the covariance. The chosen arm must not
depend on the BLAS summation order, so CI also runs this file with
single-threaded BLAS.
"""

import hashlib
import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linbandits.algorithms import init_policy, select_arm, update
from linbandits.environments import sample_arm_set
from linbandits.harness import ExperimentConfig, run_experiment, write_traces_csv
from linbandits.normal import norm_ppf
from linbandits.posterior import GaussianPosterior, _candidates, best_quantile_arm


def _argmax_of_scores(post, arms, gamma) -> int:
    return int(np.argmax(post.arm_value_quantiles(arms, gamma)))


def _best(post, arms, gamma) -> int:
    return best_quantile_arm(post.mean, post.scale, post.cov, arms, gamma)


def _random_subsets(rng, k, count):
    sizes = rng.integers(1, k + 1, size=count)
    return [np.sort(rng.choice(k, size=int(n), replace=False)) for n in sizes]


def test_einsum_on_row_subset_equals_full_rows_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 7), (5, 1), (9, 3), (13, 17), (8, 64), (31, 99), (50, 200)]
    for k, d in shapes:
        # rows of a larger buffer at an odd row offset, as the harness's
        # per-step arm sets are
        buffer = rng.standard_normal((2 * k + 1, d))
        arms = buffer[1 : k + 1]
        g = rng.standard_normal((d, d))
        cov = g @ g.T / d + np.eye(d)
        full = np.einsum("ij,jk,ik->i", arms, cov, arms)
        for rows in _random_subsets(rng, k, 20):
            sub = np.einsum("ij,jk,ik->i", arms[rows], cov, arms[rows])
            np.testing.assert_array_equal(sub, full[rows])


def test_matvec_on_row_subset_can_round_differently():
    # Why best_quantile_arm takes the centers from the full product: the
    # same rows of a smaller BLAS product are not always the same bits.
    rng = np.random.default_rng(12)
    differ = compared = 0
    for _ in range(200):
        k, d = int(rng.integers(2, 80)), int(rng.integers(2, 250))
        arms = rng.standard_normal((k, d))
        mean = rng.standard_normal(d)
        full = arms @ mean
        rows = _random_subsets(rng, k, 1)[0]
        differ += int(np.count_nonzero(arms[rows] @ mean != full[rows]))
        compared += rows.size
    assert differ > 0, f"all {compared} sampled rows agreed"


def _dense_spd(rng, d, magnitude):
    g = rng.standard_normal((d, d))
    return (g @ g.T / d + 0.05 * np.eye(d)) * magnitude


def _arm_rows(rng, k, d, mode):
    arms = rng.standard_normal((k, d)) / math.sqrt(d)
    if mode == "duplicates":  # exact ties
        arms = arms[rng.integers(0, max(1, k // 2), size=k)]
    elif mode == "ulp":  # one base row, each copy nudged by one ulp in one entry
        arms = np.repeat(arms[:1], k, axis=0)
        for i in range(1, k):
            j = int(rng.integers(d))
            arms[i, j] = np.nextafter(arms[i, j], math.inf if rng.random() < 0.5 else -math.inf)
    return arms


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 24),
    d=st.integers(1, 40),
    gamma=st.sampled_from([0.02, 0.3, 0.5, 0.6, 0.97]) | st.floats(0.001, 0.999),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 7.5]),
    magnitude=st.sampled_from([1e-6, 1.0, 1e4]),
    mean_size=st.sampled_from([0.0, 1e-9, 1.0]),
    mode=st.sampled_from(["random", "duplicates", "ulp"]),
)
def test_best_quantile_arm_is_argmax_of_scores(
    seed, k, d, gamma, scale, magnitude, mean_size, mode
):
    rng = np.random.default_rng(seed)
    post = GaussianPosterior(
        rng.standard_normal(d) * mean_size, scale, _dense_spd(rng, d, magnitude)
    )
    arms = _arm_rows(rng, k, d, mode)
    diagonal = GaussianPosterior(post.mean, scale, np.diag(post.cov).copy())
    for law in (post, diagonal):
        want = _argmax_of_scores(law, arms, gamma)
        assert best_quantile_arm(law.mean, scale, law.cov, arms, gamma) == want


def test_step_one_all_ties_keep_every_arm():
    # d=200 ball-projected arms all have norm 1 to within one ulp, so at the
    # first step (mean 0, C = I) every score ties and rounding picks the arm.
    rng = np.random.default_rng(20240601)
    post = GaussianPosterior(np.zeros(200), 2.3, np.eye(200))
    for _ in range(4):
        arms = sample_arm_set(200, 50, rng, "ball")
        assert _best(post, arms, 0.6) == _argmax_of_scores(post, arms, 0.6)
        assert _candidates(post.cov, post.scale, arms, arms @ post.mean, norm_ppf(0.6)).size == 50


def test_filter_rules_out_clearly_worse_arms():
    rng = np.random.default_rng(5)
    post = GaussianPosterior(rng.standard_normal(30), 0.8, _dense_spd(rng, 30, 1.0))
    arms = _arm_rows(rng, 40, 30, "random")
    rows = _candidates(post.cov, post.scale, arms, arms @ post.mean, norm_ppf(0.6))
    assert rows.tolist() == [_argmax_of_scores(post, arms, 0.6)]


def test_layouts_and_non_finite_arms_score_every_row():
    # einsum's summation order follows the memory layout, so a Fortran-order
    # arm matrix can pick another arm than its C-order copy
    layout_picks = 0
    for seed in range(5, 15):
        rng = np.random.default_rng(seed)
        post = GaussianPosterior(np.zeros(120), 1.0, _dense_spd(rng, 120, 1.0))
        arms = np.asfortranarray(_arm_rows(rng, 30, 120, "ulp"))
        want = _argmax_of_scores(post, arms, 0.6)
        assert _best(post, arms, 0.6) == want
        layout_picks += want != _argmax_of_scores(post, np.ascontiguousarray(arms), 0.6)
    assert layout_picks > 0

    rng = np.random.default_rng(6)
    post = GaussianPosterior(rng.standard_normal(9), 1.1, _dense_spd(rng, 9, 1.0))
    arms = _arm_rows(rng, 12, 18, "duplicates")
    for view in (np.asfortranarray(arms[:, :9]), arms[:, ::2], arms[::2, 3:12]):
        assert not view.flags.c_contiguous
        assert _best(post, view, 0.7) == _argmax_of_scores(post, view, 0.7)
    for bad in (math.nan, math.inf, -math.inf):
        broken = arms[:, :9].copy()
        broken[4, 2] = bad
        with np.errstate(invalid="ignore"):
            assert _best(post, broken, 0.7) == _argmax_of_scores(post, broken, 0.7)


def test_only_exact_sampling_factorises(monkeypatch):
    # quantile selection scores straight from V^-1; only an exact LinTS
    # draw needs its Cholesky factor
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    d, k, horizon = 30, 10, 50
    config = ExperimentConfig(
        family="P3", dim=d, n_arms=k, horizon=horizon, n_runs=1, base_seed=1, instance_seed=3,
        policies=("linbucb", "linbucb_approx", "lints"),
    )
    theta = config.instance().theta_star
    expected = {"linbucb": 0, "linbucb_approx": 0, "lints": 1}
    for pcfg in config.policy_configs():
        rng = np.random.default_rng(17)
        state = init_policy(pcfg, d)
        per_call = []
        for _ in range(horizon):
            arms = sample_arm_set(d, k, rng, "ball")
            before = len(calls)
            idx = select_arm(state, pcfg, arms, rng)
            per_call.append(len(calls) - before)
            state = update(state, arms[idx], float(arms[idx] @ theta + rng.normal()))
        assert per_call == [expected[pcfg.name]] * horizon, pcfg.name
    assert set(calls) == {(d, d)}


# SHA-256 of traces.csv for P3, d=200, K=50, T=60, linbucb and
# linbucb_approx, recorded before arm selection used the BLAS filter.
_HIGHDIM_TRACES_SHA256 = "1d37ab02526c2b86d84f34d412d10ef0973a09d7aea6e58f4946ae64d809c0e5"


def test_highdim_linbucb_traces_are_bit_stable(tmp_path):
    config = ExperimentConfig(
        family="P3",
        dim=200,
        n_arms=50,
        horizon=60,
        n_runs=1,
        base_seed=20240601,
        instance_seed=7,
        policies=("linbucb", "linbucb_approx"),
    )
    path = os.path.join(tmp_path, "traces.csv")
    write_traces_csv(run_experiment(config).traces, path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == _HIGHDIM_TRACES_SHA256
