"""Quickstart: drive the four policies by hand on one random instance.

Shows the lowest-level loop the harness automates: sample an arm set, ask a
policy for an index, observe a noisy reward, feed the pair back in. Run with
``python demos/quickstart_policies.py``.
"""

import numpy as np

from linbandits import (
    ConfidenceParams,
    Inference,
    Kind,
    PolicyConfig,
    init_policy,
    make_instance,
    reward,
    sample_arm_set,
    select_arm,
    update,
)

DIM, N_ARMS, HORIZON = 8, 6, 400

instance = make_instance("P3", DIM, N_ARMS, noise_sd=0.5, seed=12)
confidence = ConfidenceParams(nu=0.5, lam=1.0, s_bound=instance.theta_norm, delta=0.05)

policies = {
    "sampling (exact)": PolicyConfig(
        kind=Kind.LINTS, inference=Inference.EXACT, confidence=confidence, horizon=HORIZON
    ),
    "sampling (diagonal)": PolicyConfig(
        kind=Kind.LINTS, inference=Inference.COV_ONLY, confidence=confidence, horizon=HORIZON
    ),
    "quantile (exact)": PolicyConfig(
        kind=Kind.LINBUCB,
        inference=Inference.EXACT,
        confidence=confidence,
        horizon=HORIZON,
        gamma=0.6,
    ),
    "quantile (diagonal)": PolicyConfig(
        kind=Kind.LINBUCB,
        inference=Inference.COV_ONLY,
        confidence=confidence,
        horizon=HORIZON,
        gamma=0.6,
    ),
}

print(f"instance: {instance.family}, d={DIM}, K={N_ARMS}, ||theta*|| = {instance.theta_norm:.3f}")
print("(policy objects default to the analysis scaling, which explores hard;")
print(" the experiment harness runs the sampling policies at unit scale)")
print(f"{'policy':22s} {'cumulative regret':>18s}")

for name, config in policies.items():
    # every policy sees the same arm and noise streams (paired comparison)
    arm_rng = np.random.default_rng(1001)
    noise_rng = np.random.default_rng(1002)
    policy_rng = np.random.default_rng(1003)

    state = init_policy(config, DIM)
    total = 0.0
    for t in range(HORIZON):
        arms = sample_arm_set(DIM, N_ARMS, arm_rng)
        idx = select_arm(state, config, arms, policy_rng)
        values = arms @ instance.theta_star
        total += float(values.max() - values[idx])
        observed = reward(instance, arms[idx], noise_rng)
        state = update(state, arms[idx], observed)
    print(f"{name:22s} {total:18.2f}")
