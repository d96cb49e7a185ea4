import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from linbandits import posterior
from linbandits.normal import norm_cdf, norm_ppf
from linbandits.posterior import (
    GaussianPosterior,
    certify_anti_concentration,
    certify_concentration_type1,
    certify_concentration_type2,
    certify_well_behaved,
    standard_normal_sampler,
)
from reference import weighted_norm


def test_norm_ppf_matches_reference_within_1e9():
    grid = np.concatenate(
        [
            np.linspace(1e-10, 1e-3, 2000),
            np.linspace(1e-3, 1 - 1e-3, 20000),
            np.linspace(1 - 1e-3, 1 - 1e-10, 2000),
        ]
    )
    assert np.max(np.abs(norm_ppf(grid) - st.norm.ppf(grid))) < 1e-9
    with pytest.raises(ValueError):
        norm_ppf(0.0)
    with pytest.raises(ValueError):
        norm_ppf(1.0)


def test_norm_cdf_matches_reference():
    grid = np.linspace(-8, 8, 5001)
    assert np.max(np.abs(norm_cdf(grid) - st.norm.cdf(grid))) < 1e-14


def test_scale_zero_sample_is_mean():
    post = GaussianPosterior(np.array([1.0, -2.0]), 0.0, np.eye(2))
    rng = np.random.default_rng(0)
    assert np.array_equal(post.sample(1, rng)[0], np.array([1.0, -2.0]))


def test_sample_moments_standard():
    post = GaussianPosterior(np.zeros(3), 1.0, np.eye(3))
    rng = np.random.default_rng(5)
    draws = post.sample(100_000, rng)
    assert np.max(np.abs(draws.mean(axis=0))) < 0.02
    cov = np.cov(draws.T)
    assert np.max(np.abs(cov - np.eye(3))) < 0.05


def test_sample_diagonal_scaling():
    post = GaussianPosterior(np.zeros(2), 2.0, np.array([0.25, 1.0]))
    rng = np.random.default_rng(6)
    draws = post.sample(100_000, rng)
    sds = draws.std(axis=0)
    assert sds[0] == pytest.approx(1.0, rel=0.02)
    assert sds[1] == pytest.approx(2.0, rel=0.02)


def test_sample_standardization_invariant():
    # scale^-1 V^(1/2) (draw - mean) should be standard normal
    rng = np.random.default_rng(7)
    base = rng.standard_normal((3, 3))
    v = base @ base.T + 3.0 * np.eye(3)
    post = GaussianPosterior(np.array([1.0, 2.0, 3.0]), 1.7, np.linalg.inv(v))
    draws = post.sample(100_000, rng)
    vals, vecs = np.linalg.eigh(v)
    v_half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    eta = (draws - post.mean) @ v_half.T / post.scale
    assert np.max(np.abs(eta.mean(axis=0))) < 0.02
    assert np.max(np.abs(np.cov(eta.T) - np.eye(3))) < 0.05


def test_non_spd_covariance_fails_at_construction():
    with pytest.raises(ValueError):
        GaussianPosterior(np.zeros(2), 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianPosterior(np.zeros(2), 1.0, np.array([1.0, 0.0]))


def test_laws_compare_and_hash_by_identity():
    law = GaussianPosterior(np.zeros(2), 1.0, np.eye(2))
    twin = GaussianPosterior(law.mean, law.scale, law.cov)
    assert law == law
    assert law != twin
    assert {law: "law", twin: "twin"}[law] == "law"


def _quantile(post, arm, gamma):
    """The gamma-quantile score of one arm, through the (K, d) scorer."""
    return post.arm_value_quantiles(np.asarray(arm, dtype=float)[None], gamma)[0]


def test_arm_value_quantile_examples():
    post = GaussianPosterior(np.array([1.0, 0.0]), 1.0, np.eye(2))
    assert _quantile(post, [1.0, 0.0], 0.5) == pytest.approx(1.0)
    # oracle: inverse normal CDF at 0.9
    assert _quantile(post, [1.0, 0.0], 0.9) == pytest.approx(
        1.0 + st.norm.ppf(0.9), abs=1e-9
    )
    assert _quantile(post, [0.0, 0.0], 0.37) == 0.0
    with pytest.raises(ValueError):
        _quantile(post, [1.0, 0.0], 1.0)


def test_arm_value_quantile_increasing_in_gamma():
    post = GaussianPosterior(np.array([0.3, -0.4]), 0.8, np.array([[2.0, 0.3], [0.3, 1.0]]))
    arm = np.array([0.6, -0.2])
    values = [_quantile(post, arm, g) for g in np.linspace(0.01, 0.99, 33)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_quantile_matches_empirical_quantile():
    post = GaussianPosterior(np.array([0.5, 1.0, -0.3]), 1.2, np.array([0.8, 0.4, 1.5]))
    arm = np.array([0.5, -0.7, 0.2])
    rng = np.random.default_rng(8)
    draws = post.sample(1_000_000, rng) @ arm
    for gamma in (0.2, 0.5, 0.9):
        exact = _quantile(post, arm, gamma)
        empirical = float(np.quantile(draws, gamma))
        # quantile standard error from the exact normal density at the quantile
        spread = post.scale * weighted_norm(post.cov, arm)
        dens = st.norm.pdf((exact - draws.mean() * 0) * 0 + st.norm.ppf(gamma)) / spread
        se = math.sqrt(gamma * (1 - gamma) / draws.size) / dens
        assert abs(empirical - exact) < 3 * se


def test_anti_concentration_links_to_quantile():
    # the (1 - kappa1)-quantile of the arm value sits at or above
    # mean + scale * weighted norm, with kappa1 the unit normal tail mass
    post = GaussianPosterior(np.array([0.2, -0.1]), 1.5, np.array([[1.0, 0.2], [0.2, 0.5]]))
    arm = np.array([0.7, 0.3])
    kappa1 = 1.0 - st.norm.cdf(1.0)
    exact = _quantile(post, arm, 1.0 - kappa1)
    floor = float(arm @ post.mean) + post.scale * weighted_norm(post.cov, arm)
    assert exact >= floor - 1e-12
    rng = np.random.default_rng(9)
    draws = post.sample(200_000, rng) @ arm
    empirical = float(np.quantile(draws, 1.0 - kappa1))
    spread = post.scale * weighted_norm(post.cov, arm)
    se = math.sqrt(kappa1 * (1 - kappa1) / draws.size) / (st.norm.pdf(1.0) / spread)
    assert empirical >= floor - 3 * se


def test_certify_anti_concentration_standard_normal():
    rng = np.random.default_rng(10)
    cert = certify_anti_concentration(standard_normal_sampler(4), 32, 100_000, rng)
    truth = 1.0 - st.norm.cdf(1.0)
    assert abs(cert.kappa1_hat - truth) <= cert.ci_halfwidth
    assert cert.samples == 100_000


def test_certify_anti_concentration_degenerate_cases():
    rng = np.random.default_rng(11)
    direction = np.array([1.0, 0.0, 0.0])

    def shifted(n, r):
        return r.standard_normal((n, 3)) + 10.0 * direction

    # along the shift direction essentially all mass clears the threshold
    draws = shifted(20_000, rng)
    assert float(np.mean(draws @ direction >= 1.0)) == pytest.approx(1.0, abs=1e-3)
    # but the direction minimum collapses (the mirrored direction is empty)
    cert = certify_anti_concentration(shifted, 16, 20_000, rng)
    assert cert.kappa1_hat < 0.01

    def concentrated(n, r):
        return 0.01 * r.standard_normal((n, 3))

    cert = certify_anti_concentration(concentrated, 8, 20_000, rng)
    assert cert.kappa1_hat == pytest.approx(0.0, abs=1e-4)


def test_certification_requires_budget():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        certify_anti_concentration(standard_normal_sampler(2), 8, 999, rng)
    with pytest.raises(ValueError):
        certify_concentration_type2(standard_normal_sampler(2), 0.05, 8, 10, rng)


def test_certify_type2_quantiles():
    rng = np.random.default_rng(13)
    est = certify_concentration_type2(standard_normal_sampler(3), 0.5, 16, 50_000, rng)
    assert abs(est) < 0.03
    est = certify_concentration_type2(standard_normal_sampler(3), 0.1587, 16, 200_000, rng)
    assert est == pytest.approx(1.0, abs=0.03)


def test_certify_type2_dimension_free():
    rng = np.random.default_rng(14)
    estimates = [
        certify_concentration_type2(standard_normal_sampler(d), 0.05, 64, 200_000, rng)
        for d in (2, 20, 200)
    ]
    target = st.norm.ppf(0.95)
    se = math.sqrt(0.05 * 0.95 / 200_000) / st.norm.pdf(target)
    for est in estimates:
        assert abs(est - target) < 4 * se  # max over 64 directions biases slightly up
    assert max(estimates) - min(estimates) < 3 * math.sqrt(2) * se


def _type2_samples_by_directions(sampler, delta, directions, samples, rng):
    # Reference in the transposed layout: a (samples, directions) array
    # filled with eta @ u.T and reduced column-wise. Order statistics do not
    # depend on the layout, so both must agree bit for bit.
    dim = sampler(1, rng).shape[1]
    u = rng.standard_normal((directions, dim))
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    projections = np.empty((samples, directions))
    drawn = 0
    while drawn < samples:
        n = min(posterior._CHUNK, samples - drawn)
        projections[drawn : drawn + n] = sampler(n, rng) @ u.T
        drawn += n
    return float(np.max(np.quantile(projections, 1.0 - delta, axis=0)))


@pytest.mark.parametrize("dim", [2, 20, 200])
def test_certify_type2_matches_samples_by_directions_layout(monkeypatch, dim):
    monkeypatch.setattr(posterior, "_CHUNK", 700)  # five chunks, the last one partial
    for delta in (0.05, 0.25):
        args = (standard_normal_sampler(dim), delta, 64, 3_100)
        got = certify_concentration_type2(*args, np.random.default_rng(dim))
        want = _type2_samples_by_directions(*args, np.random.default_rng(dim))
        assert got == want


# Recorded before the certificate took its maximum without partitioning every
# row: the returned float must not move by one bit.
_TYPE2_GOLDEN = {
    (2, 0.05): "0x1.a783e1563495ep+0",
    (2, 0.25): "0x1.5c4827284286fp-1",
    (20, 0.05): "0x1.a6f891633ef7fp+0",
    (20, 0.25): "0x1.5ce3797c7a302p-1",
    (200, 0.05): "0x1.a7d96db0ee9dep+0",
    (200, 0.25): "0x1.5c7c60ac0e72ep-1",
}


@pytest.mark.parametrize("dim", [2, 20, 200])
def test_certify_type2_golden_at_default_budget(dim):
    for delta in (0.05, 0.25):
        got = certify_concentration_type2(
            standard_normal_sampler(dim), delta, 64, 200_000, np.random.default_rng(dim)
        )
        assert got.hex() == _TYPE2_GOLDEN[dim, delta]


_TIES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0)


@hst.composite
def _rows_and_level(draw):
    m = draw(hst.integers(1, 8))
    n = draw(hst.integers(1, 300))
    value = hst.one_of(
        hst.sampled_from(_TIES),  # many ties, signed zeros included
        hst.sampled_from((np.nan, np.inf, -np.inf)),
        hst.floats(allow_nan=True, allow_infinity=True),
    )
    # arrays() draws a fill value and then overwrites a few entries, so
    # most rows are long runs of ties
    rows = draw(arrays(np.float64, (m, n), elements=value))
    for i in range(m):
        if draw(hst.booleans()):
            rows[i] = draw(hst.sampled_from(_TIES))  # a constant row
    level = draw(
        hst.one_of(
            hst.sampled_from((0.5, 0.95, 0.999, 1.0 - 1e-9, 1.0 - 2.0**-53)),
            hst.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        )
    )
    return rows, level


@settings(max_examples=400, deadline=None)
@given(_rows_and_level())
# row 1 has no entry near row 0's quantile, so only its NaN can matter
@example((np.array([[5.0] * 10, [0.0] * 9 + [np.nan]]), 0.5))
def test_max_row_quantile_matches_numpy_bit_for_bit(case):
    rows, level = case
    with np.errstate(all="ignore"):
        want = float(np.max(np.quantile(rows, level, axis=1)))
        got = posterior._max_row_quantile(rows.copy(), level)
    assert got.hex() == want.hex()


def test_certify_type1_feasibility():
    rng = np.random.default_rng(15)
    feas = certify_concentration_type1(
        standard_normal_sampler(2), [0.1], 100_000, rng, c1_candidates=(4.0,), c1p_candidates=(8.0,)
    )
    assert feas.feasible and (feas.c1, feas.c1p) == (4.0, 8.0)
    # oracle: chi(2) quantile at 0.9 is sqrt(-2 ln 0.1) ~ 2.146, bound ~ 6.37
    assert feas.quantiles[0] == pytest.approx(math.sqrt(-2 * math.log(0.1)), abs=0.03)

    infeasible = certify_concentration_type1(
        standard_normal_sampler(2), [0.01], 100_000, rng, c1_candidates=(0.01,), c1p_candidates=(1.0,)
    )
    assert not infeasible.feasible

    # delta near one: the bound degenerates gracefully and stays defined
    near_one = certify_concentration_type1(
        standard_normal_sampler(2), [0.999], 10_000, rng
    )
    assert near_one.feasible


def test_ci_halfwidth_shrinks_with_root_n():
    rng = np.random.default_rng(17)
    small = certify_anti_concentration(standard_normal_sampler(2), 8, 10_000, rng)
    large = certify_anti_concentration(standard_normal_sampler(2), 8, 160_000, rng)
    shrink = small.ci_halfwidth / large.ci_halfwidth
    assert shrink == pytest.approx(4.0, rel=0.15)


def test_certify_well_behaved_bundle():
    rng = np.random.default_rng(16)
    cert = certify_well_behaved(
        standard_normal_sampler(2), delta_grid=(0.1, 0.5), directions=16, samples=20_000, rng=rng
    )
    assert cert.concentration1 is not None
    assert set(cert.c_hat1) == {0.1, 0.5}
    assert cert.ci_halfwidth < 0.02
