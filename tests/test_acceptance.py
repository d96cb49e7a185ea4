"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from linbandits.adversarial import run_adversarial_episode
from linbandits.divergence import Method, alpha_divergence
from linbandits.environments import sublinearity_ratio
from linbandits.harness import (
    ExperimentConfig,
    emit_outputs,
    load_config,
    run_experiment,
    save_config,
    sensitivity_sweep,
)
from linbandits.linalg import rls_init, rls_update
from linbandits.posterior import GaussianPosterior
from linbandits.verify import run_suite
from reference import weighted_norm

POLICIES = ("lints", "lints_approx", "linbucb", "linbucb_approx")
SUBLINEAR_RATIO = 0.6


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def family_results():
    """Shared 10-run experiments for every family at the reference scale."""
    results = {}
    timings = {}
    for family, instance_seed in (("P1", None), ("P2", None), ("P3", 7)):
        config = ExperimentConfig(
            family=family,
            dim=20,
            n_arms=10,
            horizon=1000,
            n_runs=10,
            base_seed=20240601,
            instance_seed=instance_seed,
            noise_sd=0.5,
            lam=1.0,
            gamma=0.6,
            policies=POLICIES,
        )
        start = time.perf_counter()
        results[family] = run_experiment(config).aggregates()
        timings[family] = time.perf_counter() - start
    return results, timings


def test_criterion_1_positive_regime(family_results):
    results, timings = family_results
    aggs = results["P3"]
    ratios = {label: sublinearity_ratio(aggs[label].mean_cumulative) for label in POLICIES}
    runtime = timings["P3"]
    passed = all(r <= SUBLINEAR_RATIO for r in ratios.values()) and runtime < 300.0
    detail = (
        "P3 d=20 K=10 T=1000, 10 runs: late/early ratios "
        + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
        + f" (threshold {SUBLINEAR_RATIO}); runtime {runtime:.1f}s < 300s"
    )
    _report("criterion 1 (positive-regime sublinearity)", passed, detail)


def test_criterion_2_ordering(family_results):
    results, _ = family_results
    wins = {}
    for family, aggs in results.items():
        bucb = float(np.mean(aggs["linbucb"].per_run_final))
        ts = float(np.mean(aggs["lints"].per_run_final))
        wins[family] = bucb <= ts
    passed = sum(wins.values()) >= 2
    detail = "quantile selection at gamma=0.6 beats sampling on " + ", ".join(
        f"{fam}:{'yes' if ok else 'no'}" for fam, ok in wins.items()
    )
    _report("criterion 2 (ordering)", passed, detail)


def test_criterion_3_approximation_preservation(family_results):
    results, _ = family_results
    lines = []
    passed = True
    for family, aggs in results.items():
        for kind in ("lints", "linbucb"):
            exact = float(np.mean(aggs[kind].per_run_final))
            approx = float(np.mean(aggs[f"{kind}_approx"].per_run_final))
            ratio = sublinearity_ratio(aggs[f"{kind}_approx"].mean_cumulative)
            factor = approx / exact
            ok = factor <= 2.0 and ratio <= SUBLINEAR_RATIO
            passed = passed and ok
            lines.append(f"{family}/{kind}: factor {factor:.2f}, ratio {ratio:.2f}")
    _report("criterion 3 (approximate preservation)", passed, "; ".join(lines))


def test_criterion_4_adversarial_linear_regret():
    alpha, epsilon, horizon, mu = 2.0, 0.1, 2000, (1.0, 0.0)
    n_runs = 10

    def episodes(policy, r=None):
        out = []
        for run_idx in range(n_runs):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=4242, spawn_key=(run_idx,))
            )
            out.append(
                run_adversarial_episode(
                    policy, mu, alpha, epsilon, horizon, rng, gamma=0.9, r=r
                )
            )
        return out

    ts_eps = episodes("lints")
    r = ts_eps[0].r
    ts_mean = float(np.mean([ep.trace.final for ep in ts_eps]))
    ts_floor = 0.9 * (1.0 - 1.0 / r) * horizon
    ts_ok = ts_mean >= ts_floor
    budget_ok = all(float(np.max(ep.divergences)) <= epsilon + 1e-9 for ep in ts_eps)

    bucb_eps = episodes("linbucb")
    bucb_exact = all(ep.trace.final == pytest.approx(float(horizon)) for ep in bucb_eps)
    budget_ok = budget_ok and all(
        float(np.max(ep.divergences)) <= epsilon + 1e-9 for ep in bucb_eps
    )

    controls_ok = True
    control_ratios = {}
    for policy in ("lints", "linbucb"):
        ctrl = episodes(policy, r=1.0)
        mean_curve = np.mean(np.stack([ep.trace.cumulative for ep in ctrl]), axis=0)
        control_ratios[policy] = sublinearity_ratio(mean_curve)
        controls_ok = controls_ok and control_ratios[policy] <= SUBLINEAR_RATIO

    passed = ts_ok and bucb_exact and budget_ok and controls_ok
    detail = (
        f"sampling adversary mean R(T)={ts_mean:.1f} >= {ts_floor:.1f} (r={r:.3f}); "
        f"quantile adversary R(T)=T exactly on {n_runs}/{n_runs} runs; "
        f"budgets certified <= {epsilon}; control ratios "
        + ", ".join(f"{k}={v:.3f}" for k, v in control_ratios.items())
    )
    _report("criterion 4 (adversarial linear regret)", passed, detail)


def test_criterion_5_divergence_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_quad = 0.0
    worst_mc = 0.0
    worst_sym = 0.0
    for _ in range(100):
        m1, m2 = rng.uniform(-0.175, 0.175, size=2)
        s1, s2 = rng.uniform(0.96, 1.05, size=2)
        p1, p2 = GaussianPosterior([m1], 1.0, [[s1**2]]), GaussianPosterior([m2], 1.0, [[s2**2]])
        for alpha in (-1.0, 2.0, 3.0):
            exact = alpha_divergence(p1, p2, alpha, Method.CLOSED_FORM_GAUSSIAN)
            quad = alpha_divergence(p1, p2, alpha, Method.QUADRATURE_1D)
            mc = alpha_divergence(
                p1, p2, alpha, Method.MONTE_CARLO, rng=rng, mc_samples=80_000
            )
            mirror = alpha_divergence(p2, p1, 1.0 - alpha, Method.CLOSED_FORM_GAUSSIAN)
            worst_quad = max(worst_quad, abs(quad.value - exact.value))
            worst_mc = max(
                worst_mc, abs(mc.value - exact.value) / (3.0 * mc.error_estimate)
            )
            worst_sym = max(worst_sym, abs(mirror.value - exact.value))
    runtime = time.perf_counter() - start
    passed = (
        worst_quad < 1e-6 and worst_mc <= 1.0 and worst_sym < 1e-9 and runtime < 60.0
    )
    detail = (
        f"100 pairs x alpha in {{-1,2,3}}: quad residual {worst_quad:.2e} < 1e-6, "
        f"MC gap/(3 se) {worst_mc:.3f} <= 1, symmetry residual {worst_sym:.2e} < 1e-9, "
        f"runtime {runtime:.1f}s < 60s"
    )
    _report("criterion 5 (divergence oracle agreement)", passed, detail)


def test_criterion_6_verification_suites():
    lines = []
    passed = True
    for suite in ("divergence", "quantile-shift", "concentration"):
        checks = run_suite(suite)
        ok = all(c.passed for c in checks)
        passed = passed and ok
        lines.append(f"{suite}: {sum(c.passed for c in checks)}/{len(checks)}")
    _report("criterion 6 (numeric verification suites)", passed, "; ".join(lines))


def test_criterion_7_linear_algebra_oracle():
    lines = []
    passed = True
    for dim in (5, 50):
        rng = np.random.default_rng(1000 + dim)
        state = rls_init(dim, 1.0)
        potential = 0.0
        worst = 0.0
        n_updates = 10_000
        for t in range(n_updates):
            arm = rng.standard_normal(dim)
            arm /= max(1.0, np.linalg.norm(arm))
            potential += weighted_norm(state.design_inv, arm) ** 2
            state = rls_update(state, arm, float(rng.normal()))
            if (t + 1) % 500 == 0 or t + 1 == n_updates:
                dense = np.linalg.inv(state.design)
                worst = max(worst, float(np.max(np.abs(state.design_inv - dense))))
        bound = 2.0 * dim * math.log(1.0 + n_updates / 1.0)
        ok = worst < 1e-8 and potential <= bound + 1e-9
        passed = passed and ok
        lines.append(
            f"d={dim}: max inverse gap {worst:.2e} < 1e-8, "
            f"potential {potential:.1f} <= {bound:.1f}"
        )
    _report("criterion 7 (linear-algebra oracle)", passed, "; ".join(lines))


def test_criterion_8_gamma_sensitivity():
    config = ExperimentConfig(
        family="P3",
        dim=20,
        n_arms=10,
        horizon=1000,
        n_runs=5,
        base_seed=20240601,
        instance_seed=7,
        policies=("linbucb", "linbucb_approx"),
    )
    grid = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
    rows = sensitivity_sweep(config, grid)
    lines = []
    passed = True
    for label in ("linbucb", "linbucb_approx"):
        sub = {row.gamma: row.mean_final for row in rows if row.label == label}
        best = min(sub, key=sub.get)
        ok = 0.5 <= best <= 0.7
        passed = passed and ok
        lines.append(f"{label}: argmin gamma={best:.2f} (regret {sub[best]:.1f})")
    _report("criterion 8 (gamma sensitivity)", passed, "; ".join(lines))


def test_criterion_9_determinism(tmp_path):
    base = ExperimentConfig(
        family="P3",
        dim=6,
        n_arms=5,
        horizon=250,
        n_runs=6,
        base_seed=31,
        instance_seed=4,
        policies=POLICIES,
        output_dir=str(tmp_path / "first"),
    )
    first = emit_outputs(run_experiment(base), base.output_dir)
    manifest = load_config(first["manifest"])
    second = emit_outputs(run_experiment(manifest), str(tmp_path / "second"))

    from dataclasses import replace

    parallel = replace(base, workers=3, output_dir=str(tmp_path / "parallel"))
    third = emit_outputs(run_experiment(parallel), parallel.output_dir)

    same_serial = all(
        open(first[k], "rb").read() == open(second[k], "rb").read()
        for k in ("traces", "aggregate", "plot")
    )
    same_parallel = all(
        open(first[k], "rb").read() == open(third[k], "rb").read()
        for k in ("traces", "aggregate", "plot")
    )
    passed = same_serial and same_parallel
    detail = (
        f"manifest re-run byte-identical: {same_serial}; "
        f"3-worker schedule byte-identical: {same_parallel}"
    )
    _report("criterion 9 (determinism)", passed, detail)
