import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy
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
from linbandits.verify import _reweighted_standard_normal_sampler
from reference import weighted_norm


def test_norm_ppf_matches_reference_within_1e9():
    grid = np.concatenate(
        [
            np.linspace(1e-10, 1e-3, 2000),
            np.linspace(1e-3, 1 - 1e-3, 20000),
            np.linspace(1 - 1e-3, 1 - 1e-10, 2000),
        ]
    )
    assert norm_ppf(grid).tobytes() == scipy.special.ndtri(grid).tobytes()
    # a float takes the cephes port, not SciPy: check it at the grid, at each
    # branch edge and one ulp either side, at the extremes and on the tails
    edges = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)])
    tails = 10.0 ** np.random.default_rng(0).uniform(-300.0, -1.0, 10_000)
    scalars = np.concatenate(
        [
            grid,
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            [5e-324, 1e-300, 1.0 - 2.0**-53],
            tails,
            1.0 - tails[tails > 1e-16],
        ]
    )
    want = scipy.special.ndtri(scalars)
    for p, z in zip(scalars.tolist(), want.tolist()):
        assert norm_ppf(p).hex() == z.hex(), p
    # the levels behind the pinned outputs; a SciPy whose ndtri moves one of
    # them fails here, naming the level, before any digest does
    pinned = {
        0.5: "0x0.0p+0",
        0.6: "0x1.036d6c4a04b59p-2",
        0.7: "0x1.0c7e39582c5fap-1",
        0.9: "0x1.4813c36e26d32p+0",
    }
    for level, want in pinned.items():
        assert norm_ppf(level).hex() == want, level
    with pytest.raises(ValueError):
        norm_ppf(0.0)
    with pytest.raises(ValueError):
        norm_ppf(1.0)
    with pytest.raises(ValueError):
        norm_ppf(math.nan)


@settings(max_examples=500, deadline=None)
@given(hst.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(5e-324)
def test_scalar_norm_ppf_is_scipy_ndtri_bit_for_bit(p):
    assert norm_ppf(p).hex() == float(scipy.special.ndtri(p)).hex()


def test_norm_cdf_matches_reference():
    grid = np.linspace(-8, 8, 5001)
    assert norm_cdf(grid).tobytes() == scipy.special.ndtr(grid).tobytes()


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


@pytest.mark.parametrize("dim", [1, 3])
def test_draws_and_densities_keep_the_bits_of_the_plain_expressions(dim):
    rng = np.random.default_rng(30)
    base = rng.standard_normal((dim, dim))
    for cov in (base @ base.T + np.eye(dim), rng.random(dim) + 0.5):
        law = GaussianPosterior(rng.standard_normal(dim), 1.7, cov)
        z = np.random.default_rng(31).standard_normal((1_000, dim))
        if law.is_diagonal:
            plain = law.mean + law.scale * z * law._sqrt
        else:
            plain = law.mean + law.scale * (z @ law._sqrt.T)
        draws = law.sample(1_000, np.random.default_rng(31))
        assert draws.tobytes() == plain.tobytes()
        if dim == 1:
            mu, sd = law._scalar
            std = (draws[:, 0] - mu) / sd
            plain = -0.5 * (std * std) - 0.5 * law._logdet - posterior._LOG_SQRT_2PI
            assert [law.logpdf(float(x))[0] for x in draws[:5, 0]] == list(plain[:5])
        else:
            sol = scipy.linalg.solve_triangular(law._chol, (draws - law.mean).T, lower=True)
            quad = np.sum(sol * sol, axis=0)
            plain = -0.5 * quad - 0.5 * law._logdet - dim * posterior._LOG_SQRT_2PI
        assert law.logpdf(draws).tobytes() == plain.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_univariate_draws_keep_the_bits_of_the_matrix_product(seed):
    # a dense 1 x 1 law multiplies by its square root; the K=1 product it
    # replaces rounds each entry once too
    rng = np.random.default_rng(seed)
    for scale in (0.0, 1.0, 1.7, 1e-300):
        for mean in (0.0, -0.0, 3.25, -1e10, float(rng.standard_normal())):
            law = GaussianPosterior([mean], scale, [[float(rng.random()) + 0.1]])
            z = np.random.default_rng(seed).standard_normal((2_000, 1))
            product = z @ law._sqrt.T
            product *= scale
            product += law.mean
            draws = law.sample(2_000, np.random.default_rng(seed))
            assert draws.tobytes() == product.tobytes(), (scale, mean)


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


_DIRECTIONS = "directions must be an integer >= 1"
_SAMPLES = "samples must be an integer >= 1000"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s, r: certify_anti_concentration(s, 0, 2_000, r), _DIRECTIONS),
        (lambda s, r: certify_concentration_type2(s, 0.1, 0, 2_000, r), _DIRECTIONS),
        (lambda s, r: certify_concentration_type2(s, 0.1, 2.0, 2_000, r), _DIRECTIONS),
        (lambda s, r: certify_well_behaved(s, (0.1,), 0, 2_000, r), _DIRECTIONS),
        (lambda s, r: certify_well_behaved(s, (0.0,), 4, 2_000, r), "delta_grid entries"),
        (lambda s, r: certify_anti_concentration(s, 4, 1000.5, r), _SAMPLES),
        (lambda s, r: certify_concentration_type2(s, 0.1, 4, 1000.5, r), _SAMPLES),
        (lambda s, r: certify_concentration_type1(s, (0.1,), 1000.5, r), _SAMPLES),
    ],
)
def test_certificates_reject_bad_arguments_before_drawing(call, message):
    calls = []

    def sampler(n, r):
        calls.append(n)
        return r.standard_normal((n, 2))

    rng = np.random.default_rng(19)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        call(sampler, rng)
    assert calls == [] and rng.bit_generator.state == before


@pytest.mark.parametrize(
    "certify",
    [
        lambda s, r: certify_anti_concentration(s, 4, 2_000, r),
        lambda s, r: certify_concentration_type2(s, 0.1, 4, 2_000, r),
        lambda s, r: certify_concentration_type1(s, (0.1,), 2_000, r),
    ],
)
def test_certificates_reject_malformed_draws(certify):
    rng = np.random.default_rng(20)
    # the probe draw must be an (n, dim) array with dim >= 1
    for probe in (lambda n, r: r.standard_normal(n), lambda n, r: np.empty((n, 0))):
        with pytest.raises(ValueError, match="sampler must return an"):
            certify(probe, rng)
    # a chunk of the wrong width fails before the next draw
    calls = []

    def widens(n, r):
        calls.append(n)
        return r.standard_normal((n, 2 if n == 1 else 3))

    with pytest.raises(ValueError, match=r"sampler returned shape \(2000, 3\)"):
        certify(widens, rng)
    assert calls == [1, 2_000]


@pytest.mark.parametrize("dim", [0, -1, 2.0])
def test_standard_normal_sampler_needs_a_positive_integer_dim(dim):
    # a dim-0 sampler certified kappa1 = 0 and a feasible Type-I pair
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        standard_normal_sampler(dim)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificates_hold_one_byte_budget_of_temporaries():
    budget = 2 * posterior._CHUNK_BYTES
    rng = np.random.default_rng(21)
    # Type II keeps each direction's m largest projections in a buffer of
    # m + max(block, m // 2), beside one block of projections and a chunk
    n = 200_000
    m = n - math.floor((n - 1) * 0.95)
    block = posterior._block_rows(200, 8 * 64)[1]
    tails = 8 * 64 * (min(n, m + max(block, m // 2)) + block)
    peak = _traced_peak(
        lambda: certify_concentration_type2(standard_normal_sampler(200), 0.05, 64, n, rng)
    )
    assert peak <= tails + budget
    # d=2, delta=0.25: the rows would take 38.4 MB, so the call holds its
    # 3.2 MB of draws and keeps at most _CHUNK_BYTES of rows at a time
    block = posterior._block_rows(2, 8 * 64)[1]
    held = 8 * n * 2 + posterior._CHUNK_BYTES + 8 * 64 * block
    peak = _traced_peak(
        lambda: certify_concentration_type2(standard_normal_sampler(2), 0.25, 64, n, rng)
    )
    assert peak <= held + budget
    for dim in (5, 200):
        peak = _traced_peak(
            lambda: certify_anti_concentration(standard_normal_sampler(dim), 64, 200_000, rng)
        )
        assert peak <= budget, dim
    peak = _traced_peak(
        lambda: certify_concentration_type1(standard_normal_sampler(200), (0.05,), 200_000, rng)
    )
    assert peak <= budget


def _certificate_bits(dim, samples, seed):
    sampler = standard_normal_sampler(dim)
    anti = certify_anti_concentration(sampler, 64, samples, np.random.default_rng(seed))
    type1 = certify_concentration_type1(sampler, (0.05, 0.25), samples, np.random.default_rng(seed))
    type2 = certify_concentration_type2(sampler, 0.05, 64, samples, np.random.default_rng(seed))
    return [x.hex() for x in (anti.kappa1_hat, anti.ci_halfwidth, *type1.quantiles, type2)]


# d=5: 50,000-row chunks whose projections are counted and kept in blocks;
# d=200: chunks of 5,232 rows, the last of 4,896
@pytest.mark.parametrize("dim", [5, 200])
def test_certificates_keep_their_bits_under_the_byte_budget(monkeypatch, dim):
    projections = []
    add = posterior._UpperTails.add

    def keep_blocks(tails, values):
        projections[-1].append(values.copy())
        add(tails, values)

    monkeypatch.setattr(posterior._UpperTails, "add", keep_blocks)
    projections.append([])
    capped = _certificate_bits(dim, 120_000, 22)
    monkeypatch.setattr(posterior, "_CHUNK_BYTES", 1 << 40)  # one block per 50,000 rows
    projections.append([])
    assert _certificate_bits(dim, 120_000, 22) == capped
    # every Type-II projection, not only the order statistics returned
    assert np.array_equal(*(np.concatenate(blocks, axis=1) for blocks in projections))


@pytest.mark.parametrize("seed", [9, 12, 17])
def test_certificates_keep_their_bits_over_a_short_tail(monkeypatch, seed):
    # d=200: two 512-row chunks and a 17-row tail, or one chunk of 1,041
    # rows; OpenBLAS rounds a 17-row product unlike the same rows of a
    # longer one, so every product is padded to the block shape
    def bits():
        sampler = standard_normal_sampler(200)
        anti = certify_anti_concentration(sampler, 64, 1_041, np.random.default_rng(seed))
        type1 = certify_concentration_type1(sampler, (0.05, 0.5), 1_041, np.random.default_rng(seed))
        type2 = [
            certify_concentration_type2(sampler, delta, 64, 1_041, np.random.default_rng(seed))
            for delta in (0.05, 0.25, 0.5)
        ]
        return [x.hex() for x in (anti.kappa1_hat, *type1.quantiles, *type2)]

    monkeypatch.setattr(posterior, "_CHUNK_BYTES", 8 * 200 * 512)
    tail = bits()
    monkeypatch.setattr(posterior, "_CHUNK_BYTES", 1 << 40)
    assert bits() == tail


@pytest.mark.parametrize("dim, rows", [(2, 50_000), (20, 50_000), (200, 5_232)])
def test_certificates_draw_whole_chunks(dim, rows):
    # 50,000 rows at every dim <= 20, as before the byte budget: samplers
    # whose output depends on how the draw is split see the same calls
    samples = 120_000
    want = [1] + [rows] * (samples // rows) + [samples % rows]
    for certify in (
        lambda s: certify_anti_concentration(s, 8, samples, np.random.default_rng(23)),
        lambda s: certify_concentration_type1(s, (0.1,), samples, np.random.default_rng(23)),
        lambda s: certify_concentration_type2(s, 0.1, 8, samples, np.random.default_rng(23)),
    ):
        calls = []

        def sampler(n, r):
            calls.append(n)
            return r.standard_normal((n, dim))

        certify(sampler)
        assert calls == want


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
    for delta in (0.05, 0.25, 0.5, 0.9):
        args = (standard_normal_sampler(dim), delta, 64, 3_100)
        got = certify_concentration_type2(*args, np.random.default_rng(dim))
        want = _type2_samples_by_directions(*args, np.random.default_rng(dim))
        assert got.hex() == want.hex()


def _type2_calls(sampler, delta, directions, samples, seed):
    """A Type-II result's hex, the sampler's row counts and the rng's final
    state."""
    calls = []

    def counted(n, r):
        calls.append(n)
        return sampler(n, r)

    rng = np.random.default_rng(seed)
    got = certify_concentration_type2(counted, delta, directions, samples, rng)
    return got.hex(), calls, rng.bit_generator.state


@pytest.mark.parametrize("directions", [1, 7, 64])
@pytest.mark.parametrize(
    "dim, sampler",
    [
        (1, standard_normal_sampler(1)),
        (2, standard_normal_sampler(2)),
        (5, standard_normal_sampler(5)),
        (2, _reweighted_standard_normal_sampler(1.25)),
    ],
)
def test_certify_type2_keeps_its_bits_over_direction_groups(monkeypatch, dim, sampler, directions):
    # 1,041 rows as chunks of 512, 512 and 17 (a padded short block); a
    # budget of exactly the draws holds them and keeps the directions in
    # groups, a lifted one keeps every direction in one pass
    samples = 1_041
    monkeypatch.setattr(posterior, "_CHUNK", 512)
    passes = []
    quantiles = posterior._UpperTails.quantiles

    def counted(tails):
        passes[-1] += 1
        return quantiles(tails)

    monkeypatch.setattr(posterior._UpperTails, "quantiles", counted)
    for delta in (0.01, 0.05, 0.25, 0.5, 0.9):
        monkeypatch.setattr(posterior, "_CHUNK_BYTES", 8 * samples * dim)
        passes.append(0)
        grouped = _type2_calls(sampler, delta, directions, samples, 40 + dim)
        monkeypatch.setattr(posterior, "_CHUNK_BYTES", 1 << 40)
        passes.append(0)
        assert _type2_calls(sampler, delta, directions, samples, 40 + dim) == grouped, delta
        assert passes[-1] == 1
    if directions > 1:
        assert max(passes) > 1  # the grouped path ran


def test_certify_type2_returns_nan_from_the_last_group(monkeypatch):
    # one draw of (inf, inf) projects to NaN only on the last direction,
    # the one of mixed signs; the other directions' maximum is +inf
    u = np.array([[0.6, 0.8]] * 6 + [[0.6, -0.8]])
    monkeypatch.setattr(posterior, "_unit_directions", lambda dim, directions, rng: u)

    def sampler(n, rng):
        eta = rng.standard_normal((n, 2))
        eta[n // 2] = np.inf
        return eta

    monkeypatch.setattr(posterior, "_CHUNK_BYTES", 8 * 1_041 * 2)
    passes = []
    quantiles = posterior._UpperTails.quantiles

    def kept(tails):
        passes.append(quantiles(tails))
        return passes[-1]

    monkeypatch.setattr(posterior._UpperTails, "quantiles", kept)
    with np.errstate(invalid="ignore"):
        got = certify_concentration_type2(sampler, 0.5, 7, 1_041, np.random.default_rng(5))
    assert len(passes) > 1
    assert not np.isnan(passes[0]).any() and np.isnan(passes[-1]).all()
    assert math.isnan(got)


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


def _mixed_zeros(rows: np.ndarray) -> bool:
    """Whether some row holds both +0.0 and -0.0."""
    zero = rows == 0.0
    negative = np.any(zero & np.signbit(rows), axis=1)
    return bool(np.any(negative & np.any(zero & ~np.signbit(rows), axis=1)))


@settings(max_examples=400, deadline=None)
@given(_rows_and_level(), hst.randoms(use_true_random=False))
# row 1 has no entry near row 0's quantile, so only its NaN can matter
@example((np.array([[5.0] * 10, [0.0] * 9 + [np.nan]]), 0.5), random.Random(0))
def test_upper_tails_match_numpy_bit_for_bit(case, split):
    rows, level = case
    m, n = rows.shape
    cuts = sorted(split.sample(range(1, n), split.randint(0, min(n - 1, 6))))
    blocks = np.split(rows, cuts, axis=1)
    # rows in consecutive groups through one reused buffer, as the grouped
    # Type-II certificate feeds them
    bounds = [0, *sorted(split.sample(range(1, m), split.randint(0, m - 1))), m]
    tails = posterior._UpperTails(
        max(np.diff(bounds)), n, level, max(b.shape[1] for b in blocks)
    )
    quantiles = []
    with np.errstate(all="ignore"):
        want = float(np.max(np.quantile(rows, level, axis=1)))
        for g0, g1 in zip(bounds, bounds[1:]):
            tails.reset(g1 - g0)
            for block in blocks:
                tails.add(block[g0:g1])
            quantiles.append(tails.quantiles())
        got = float(np.max(np.concatenate(quantiles)))
    if want == 0.0 and _mixed_zeros(rows):
        # the sign is whichever tied zero numpy's partition leaves in place:
        # np.quantile([0.0, -0.0, -0.0], 0.75) is -0.0, of [-0.0, -0.0, 0.0] +0.0
        assert got == 0.0
    else:
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
