"""Regret-curve reproduction: all four policies on the three built-in
parameter families, averaged over paired runs, with CSV/SVG outputs.

This is the scripted equivalent of ``linbandits run <config>``; at the full
reference scale (d=20, T=1000, 10 runs) it takes a couple of minutes, so the
demo defaults to a lighter setting. Outputs land in ``demo_out/curves-<fam>``.
"""

import numpy as np

from linbandits.environments import sublinearity_ratio
from linbandits.harness import ExperimentConfig, emit_outputs, run_experiment

DIM, HORIZON, RUNS = 10, 500, 5

for family, instance_seed in (("P1", None), ("P2", None), ("P3", 7)):
    config = ExperimentConfig(
        family=family,
        dim=DIM,
        n_arms=10,
        horizon=HORIZON,
        n_runs=RUNS,
        base_seed=20240601,
        instance_seed=instance_seed,
        policies=("lints", "lints_approx", "linbucb", "linbucb_approx"),
        name=f"curves-{family}",
        output_dir=f"demo_out/curves-{family}",
    )
    result = run_experiment(config)
    paths = emit_outputs(result, config.output_dir)
    print(f"--- {family} (d={DIM}, T={HORIZON}, {RUNS} paired runs)")
    for label, agg in result.aggregates().items():
        final = float(np.mean(agg.per_run_final))
        ratio = sublinearity_ratio(agg.mean_cumulative)
        print(f"  {label:16s} final regret {final:8.2f}   late/early ratio {ratio:.3f}")
    print(f"  plot: {paths['plot']}")

print(
    "\nA late/early ratio well below 1 is the flattening-curve signature; "
    "the diagonal-approximate variants should track their exact counterparts."
)
