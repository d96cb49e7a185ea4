import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linbandits.linalg import (
    REINVERT_PERIOD,
    ConfidenceParams,
    beta,
    diag_init,
    diag_update,
    rls_init,
    rls_update,
)
from reference import weighted_norm


def test_single_update_matches_direct_inversion():
    state = rls_update(rls_init(2, 1.0), [1.0, 0.0], 1.0)
    # oracle: direct 2x2 inversion of the updated design
    direct = np.linalg.inv(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(state.design, np.diag([2.0, 1.0]))
    assert np.allclose(state.design_inv, direct)
    assert np.allclose(state.estimate, [0.5, 0.0])
    assert state.step == 1


def test_zero_arm_changes_nothing_but_step():
    state = rls_update(rls_init(3, 2.0), [0.3, 0.1, -0.2], 1.5)
    after = rls_update(state, np.zeros(3), 42.0)
    assert after.step == state.step + 1
    assert np.array_equal(after.design, state.design)
    assert np.array_equal(after.design_inv, state.design_inv)
    assert np.array_equal(after.estimate, state.estimate)


def test_incremental_inverse_tracks_dense_inverse():
    rng = np.random.default_rng(3)
    state = rls_init(5, 1.0)
    for _ in range(50):
        arm = rng.standard_normal(5)
        arm /= max(1.0, np.linalg.norm(arm))
        state = rls_update(state, arm, rng.normal())
    dense = np.linalg.inv(state.design)
    assert np.max(np.abs(state.design_inv - dense)) < 1e-8


def _reference_rls_update(state, x, r):
    # the rank-1 update as plain expressions, one temporary per operation
    design = state.design + np.outer(x, x)
    vx = state.design_inv @ x
    design_inv = state.design_inv - np.outer(vx, vx) / (1.0 + float(x @ vx))
    if (state.step + 1) % REINVERT_PERIOD == 0:
        design_inv = np.linalg.inv(design)
        design_inv = 0.5 * (design_inv + design_inv.T)
    moment = state.moment + r * x
    return design, design_inv, moment, design_inv @ moment


@pytest.mark.parametrize("dim", [1, 20, 200])
def test_rls_update_matches_plain_expressions_bitwise(dim):
    rng = np.random.default_rng(dim)
    state = rls_init(dim, 1.0)
    for _ in range(REINVERT_PERIOD + 40):
        arm = rng.standard_normal(dim) / math.sqrt(dim)
        reward = float(rng.normal())
        before = (state.design.copy(), state.design_inv.copy(), state.moment.copy())
        expected = _reference_rls_update(state, arm, reward)
        new = rls_update(state, arm, reward)
        for got, want in zip((new.design, new.design_inv, new.moment, new.estimate), expected):
            np.testing.assert_array_equal(got, want)
        # the previous state is never written
        for got, want in zip((state.design, state.design_inv, state.moment), before):
            np.testing.assert_array_equal(got, want)
        state = new


def test_rejects_non_finite_inputs():
    state = rls_init(2, 1.0)
    with pytest.raises(ValueError):
        rls_update(state, [np.nan, 0.0], 1.0)
    with pytest.raises(ValueError):
        rls_update(state, [1.0, 0.0], math.inf)
    with pytest.raises(ValueError):
        diag_update(diag_init(2, 1.0), [0.0, np.inf], 0.0)


def test_diag_update_examples():
    state = diag_update(diag_init(2, 1.0), [1.0, 0.0], 1.0)
    assert np.allclose(state.diag, [2.0, 1.0])
    assert np.allclose(state.diag_inv, [0.5, 1.0])
    unchanged = diag_update(state, [0.0, 0.0], 9.0)
    assert unchanged.step == state.step + 1
    assert np.array_equal(unchanged.diag, state.diag)
    assert np.array_equal(unchanged.moment, state.moment)


def test_diag_matches_exact_design_diagonal_bitwise():
    rng = np.random.default_rng(11)
    full = rls_init(4, 1.5)
    diag = diag_init(4, 1.5)
    for _ in range(50):
        arm = rng.standard_normal(4)
        arm /= max(1.0, np.linalg.norm(arm))
        r = rng.normal()
        full = rls_update(full, arm, r)
        diag = diag_update(diag, arm, r)
    # same arithmetic stream per coordinate, so equality is exact
    assert np.array_equal(diag.diag, np.diag(full.design))
    assert np.array_equal(diag.moment, full.moment)
    assert np.allclose(diag.diag_inv * diag.diag, 1.0, atol=1e-12)


def test_diag_estimate_mode_flag():
    state = diag_update(diag_init(3, 1.0), [0.5, 0.0, 0.0], 2.0)
    assert np.allclose(state.estimate, state.diag_inv * state.moment)


def test_beta_examples():
    near_one = ConfidenceParams(nu=0.5, lam=1.0, s_bound=1.0, delta=1.0 - 1e-12)
    assert beta(near_one, 0, 2) == pytest.approx(1.0, abs=1e-5)
    params = ConfidenceParams(nu=0.5, lam=1.0, s_bound=1.0, delta=0.1)
    # oracle: 0.5 * sqrt(2 ln 10) + 1
    assert beta(params, 0, 2) == pytest.approx(0.5 * math.sqrt(2 * math.log(10)) + 1, abs=1e-9)
    values = [beta(params, t, 2) for t in (0, 10, 100)]
    assert values[0] < values[1] < values[2]


@settings(max_examples=60, deadline=None)
@given(
    t1=st.integers(min_value=0, max_value=10_000),
    t2=st.integers(min_value=0, max_value=10_000),
    d1=st.integers(min_value=1, max_value=50),
    d2=st.integers(min_value=1, max_value=50),
    delta1=st.floats(min_value=0.01, max_value=0.99),
    delta2=st.floats(min_value=0.01, max_value=0.99),
)
def test_beta_monotonicity(t1, t2, d1, d2, delta1, delta2):
    params = ConfidenceParams(nu=0.7, lam=1.3, s_bound=2.0, delta=delta1)
    if t1 <= t2:
        assert beta(params, t1, 5) <= beta(params, t2, 5)
    if d1 <= d2:
        assert beta(params, 17, d1) <= beta(params, 17, d2)
    lo, hi = sorted((delta1, delta2))
    assert beta(
        ConfidenceParams(nu=0.7, lam=1.3, s_bound=2.0, delta=lo), 17, 5
    ) >= beta(ConfidenceParams(nu=0.7, lam=1.3, s_bound=2.0, delta=hi), 17, 5)


def test_confidence_params_validation():
    with pytest.raises(ValueError):
        ConfidenceParams(nu=0.5, lam=1.0, s_bound=1.0, delta=1.0)
    with pytest.raises(ValueError):
        ConfidenceParams(nu=0.5, lam=0.0, s_bound=1.0, delta=0.1)
    with pytest.raises(ValueError):
        ConfidenceParams(nu=-0.5, lam=1.0, s_bound=1.0, delta=0.1)
    with pytest.raises(ValueError):
        ConfidenceParams(nu=0.5, lam=1.0, s_bound=0.0, delta=0.1)


def test_weighted_norm_examples():
    assert weighted_norm(np.eye(2), [3.0, 4.0]) == pytest.approx(5.0)
    # norm defined by the inverse of diag(4, 1)
    assert weighted_norm(np.diag([0.25, 1.0]), [2.0, 0.0]) == pytest.approx(1.0)
    assert weighted_norm(np.array([0.25, 1.0]), [2.0, 0.0]) == pytest.approx(1.0)
    assert weighted_norm(np.eye(3), np.zeros(3)) == 0.0


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_elliptic_potential_bound(lam):
    rng = np.random.default_rng(23)
    for _ in range(5):
        d = int(rng.integers(2, 8))
        t_max = int(rng.integers(50, 400))
        state = rls_init(d, lam)
        potential = 0.0
        for _ in range(t_max):
            arm = rng.standard_normal(d)
            arm /= max(1.0, np.linalg.norm(arm))
            potential += weighted_norm(state.design_inv, arm) ** 2
            state = rls_update(state, arm, rng.normal())
        assert potential <= 2.0 * d * math.log(1.0 + t_max / lam) + 1e-9
