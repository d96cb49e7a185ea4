"""Quantile-level sensitivity for the quantile-selection policies.

Sweeps the level over a grid with shared arm/noise streams per seed, so the
comparison across levels is paired. Expect a flat valley around 0.55-0.7 with
a visible over-conservative rise toward 0.95 for the exact policy.
"""

from linbandits.harness import ExperimentConfig, sensitivity_sweep

config = ExperimentConfig(
    family="P3",
    dim=10,
    n_arms=10,
    horizon=500,
    n_runs=5,
    base_seed=20240601,
    instance_seed=7,
    policies=("linbucb", "linbucb_approx"),
)

grid = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
rows = sensitivity_sweep(config, grid)

print(f"P3, d={config.dim}, T={config.horizon}, {config.n_runs} paired runs\n")
print(f"{'gamma':>6s}  {'policy':16s} {'mean final':>10s} {'stderr':>8s}")
for row in rows:
    print(f"{row.gamma:6.2f}  {row.label:16s} {row.mean_final:10.2f} {row.stderr_final:8.2f}")

for label in ("linbucb", "linbucb_approx"):
    sub = {row.gamma: row.mean_final for row in rows if row.label == label}
    best = min(sub, key=sub.get)
    print(f"\n{label}: best level on this grid = {best:.2f} (regret {sub[best]:.1f})")
