"""Worst-case constructions: a single bounded divergence is not enough.

Both policies run against reweighted posteriors whose divergence from the
exact posterior is certified below the budget at every step, yet the sampling
policy keeps a constant misselection rate and the quantile policy picks the
worse arm at every single step. Controls with the reweighting switched off
(r = 1) converge normally.
"""

import numpy as np

from linbandits.adversarial import run_adversarial_episode
from linbandits.environments import sublinearity_ratio

ALPHA, EPSILON, HORIZON = 2.0, 0.1, 1000


def episode(policy, r=None, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(seed,)))
    return run_adversarial_episode(
        policy, (1.0, 0.0), ALPHA, EPSILON, HORIZON, rng, gamma=0.9, r=r
    )


print(f"two arms, truth (1.0, 0.0), budget epsilon={EPSILON} at order alpha={ALPHA}\n")

ep = episode("lints")
floor = (1.0 - 1.0 / ep.r) * HORIZON
print("sampling policy under the region reweighting:")
print(f"  r = {ep.r:.3f}; guaranteed misselection rate >= {1 - 1/ep.r:.3f}")
print(f"  final regret {ep.trace.final:.0f} (lower bound {floor:.0f})")
print(f"  per-step certified divergence: max {ep.divergences.max():.4f} <= {EPSILON}")
print(f"  analytic reweighting bound: {ep.analytic_bound:.4f}\n")

ep = episode("linbucb")
print("quantile policy under the conditional reweighting:")
print(f"  r = {ep.r:.3f}; worse arm chosen at every step: {bool(np.all(ep.chosen == 1))}")
print(f"  final regret {ep.trace.final:.0f} = horizon (linear, by construction)")
print(f"  per-step certified divergence: max {ep.divergences.max():.4f} <= {EPSILON}\n")

print("controls with the reweighting off (r = 1):")
for policy in ("lints", "linbucb"):
    ctrl = episode(policy, r=1.0)
    print(
        f"  {policy:8s} final regret {ctrl.trace.final:6.1f}, "
        f"late/early ratio {sublinearity_ratio(ctrl.trace.cumulative):.3f}"
    )
