"""Command-line entry point.

Subcommands: ``run`` (full experiment from a config file), ``sweep-gamma``
(quantile-level sensitivity), ``adversarial`` (budgeted worst-case episodes),
``verify`` (numeric verification suites), and ``bounds`` (regret-bound
evaluation for a named preset).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import adversarial, harness, verify
from .divergence import derive_bound_constants, linbucb_regret_bound, lints_regret_bound
from .environments import sublinearity_ratio
from .linalg import ConfidenceParams

_BOUND_PRESETS: dict[str, dict] = {
    # gamma must clear 1 - kappa2 so the approximate-inference bounds are
    # admissible at the preset's budget
    "default": dict(dim=20, horizon=1000, nu=0.5, lam=1.0, s_bound=math.sqrt(20.0),
                    delta=0.05, epsilon=0.1, alpha1=2.0, alpha2=-1.0, gamma=0.99),
    "small": dict(dim=5, horizon=500, nu=0.5, lam=1.0, s_bound=math.sqrt(5.0),
                  delta=0.05, epsilon=0.1, alpha1=2.0, alpha2=-1.0, gamma=0.99),
    "highdim": dict(dim=200, horizon=100_000, nu=0.5, lam=1.0, s_bound=math.sqrt(200.0),
                    delta=0.01, epsilon=0.25, alpha1=2.0, alpha2=-1.0, gamma=0.99),
}


def _cmd_run(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    harness.check_output_dir(config.output_dir)
    result = harness.run_experiment(config)
    paths = harness.emit_outputs(result, config.output_dir)
    print(f"experiment {config.name}: {config.n_runs} runs x {config.horizon} steps")
    for label, agg in result.aggregates().items():
        ratio = sublinearity_ratio(agg.mean_cumulative)
        print(
            f"  {label:16s} mean final regret {float(np.mean(agg.per_run_final)):10.2f}"
            f"  late/early ratio {ratio:.3f}"
        )
    for kind, path in paths.items():
        print(f"  wrote {kind}: {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    if args.grid is not None:
        _, parse_grid = harness.CONFIG_KEYS["sweep", "gamma_grid"]
        grid = parse_grid(args.grid)
    elif config.gamma_grid:
        grid = config.gamma_grid
    else:
        raise ValueError("no gamma grid: pass --grid or set [sweep] gamma_grid")
    sweep = harness.sweep_config(config, grid)
    harness.check_output_dir(config.output_dir)
    rows = harness.sensitivity_sweep(sweep, sweep.gamma_grid)
    # the manifest names the grid that ran, so it re-runs this sweep
    manifest = replace(config, gamma_grid=sweep.gamma_grid)
    paths = harness.emit_sweep_outputs(rows, manifest, config.output_dir)
    print("gamma      policy            mean final    stderr")
    for row in rows:
        print(f"{row.gamma:<10.4g} {row.label:16s} {row.mean_final:12.2f} {row.stderr_final:9.2f}")
    for kind, path in paths.items():
        print(f"  wrote {kind}: {path}")
    return 0


def _cmd_adversarial(args: argparse.Namespace) -> int:
    # bad inputs leave no directory, and an unusable directory runs no episode
    r = adversarial.check_episode(
        args.policy, (args.mu1, args.mu2), args.alpha, args.epsilon, args.gamma,
        1.0 if args.control else None,
    )
    if args.output_dir:
        harness.check_output_dir(args.output_dir)
    episodes = []
    for run_idx in range(args.runs):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=args.seed, spawn_key=(run_idx,))
        )
        episodes.append(
            adversarial.run_adversarial_episode(
                policy=args.policy,
                mu=(args.mu1, args.mu2),
                alpha=args.alpha,
                epsilon=args.epsilon,
                horizon=args.horizon,
                rng=rng,
                gamma=args.gamma,
                r=r,
            )
        )
    finals = np.array([ep.trace.final for ep in episodes])
    mean_cum = np.mean(np.stack([ep.trace.cumulative for ep in episodes]), axis=0)
    label = f"{args.policy}_{'control' if args.control else 'adversarial'}"
    print(f"{label}: alpha={args.alpha} epsilon={args.epsilon} horizon={args.horizon}")
    print(f"  r = {episodes[0].r:.6g}  analytic budget bound = {episodes[0].analytic_bound:.6g}")
    print(f"  mean final regret over {args.runs} runs: {float(np.mean(finals)):.2f}")
    print(f"  late/early ratio: {sublinearity_ratio(mean_cum):.3f}")
    if not args.control:
        worst = max(float(np.max(ep.divergences)) for ep in episodes)
        print(f"  worst per-step certified divergence: {worst:.6g} (budget {args.epsilon})")

    if args.output_dir:
        trace_path = os.path.join(args.output_dir, "adversarial_traces.csv")
        harness.write_traces_csv({label: [ep.trace for ep in episodes]}, trace_path)
        budget_path = os.path.join(args.output_dir, "adversarial_budget.csv")
        rows = (
            f"{t},{float(ep.alpha)!r},{float(div)!r},{float(ep.analytic_bound)!r},{run_idx}"
            for run_idx, ep in enumerate(episodes)
            for t, div in enumerate(ep.divergences, 1)
        )
        harness.write_csv(budget_path, "step,alpha,divergence,bound,seed", rows)
        print(f"  wrote traces: {trace_path}")
        print(f"  wrote budget: {budget_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = verify.run_suite(args.suite, seed=args.seed)
    width = max(len(c.name) for c in checks)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failures += 0 if check.passed else 1
        print(f"{status}  {check.name:<{width}}  {check.detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    preset = _BOUND_PRESETS[args.preset]
    params = ConfidenceParams(
        nu=preset["nu"], lam=preset["lam"], s_bound=preset["s_bound"], delta=preset["delta"]
    )
    constants = derive_bound_constants(
        epsilon=preset["epsilon"], alpha1=preset["alpha1"], alpha2=preset["alpha2"]
    )
    t, d, g = preset["horizon"], preset["dim"], preset["gamma"]
    print(f"preset {args.preset}: d={d} T={t} nu={params.nu} lambda={params.lam} "
          f"S={params.s_bound:.4g} delta={params.delta}")
    print(f"  budget epsilon={constants.epsilon} alpha1={constants.alpha1} alpha2={constants.alpha2}")
    print(f"  kappa1={constants.kappa1:.6f} -> kappa2={constants.kappa2:.6f}")
    print(f"  (c1, c1') = ({constants.c1}, {constants.c1p}) -> "
          f"(c2, c2') = ({constants.c2:.4f}, {constants.c2p:.4f})")
    print(f"  sampling-selection bound (approximate inference): "
          f"{lints_regret_bound(params, constants, t, d):.4g}")
    for assumption in ("type1", "type2"):
        for inference in ("exact", "approximate"):
            value = linbucb_regret_bound(params, constants, g, t, d, assumption, inference)
            print(f"  quantile-selection bound ({assumption}, {inference}, gamma={g}): {value:.4g}")
    return 0


def _int_at_least(raw: str, low: int, kind: str) -> int:
    """argparse type: a usage error, not a failure mid-way."""
    try:
        value = int(raw)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {raw!r}")
    return value


def _positive_int(raw: str) -> int:
    return _int_at_least(raw, 1, "positive")


def _non_negative_int(raw: str) -> int:
    return _int_at_least(raw, 0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linbandits",
        description="linear contextual bandit experiments with exact and approximate inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-gamma", help="quantile-level sensitivity sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", help="comma-separated gamma values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_adv = sub.add_parser("adversarial", help="budgeted worst-case episodes")
    p_adv.add_argument("--policy", choices=("lints", "linbucb"), required=True)
    p_adv.add_argument("--alpha", type=float, required=True)
    p_adv.add_argument("--epsilon", type=float, required=True)
    p_adv.add_argument("--horizon", type=_positive_int, required=True)
    p_adv.add_argument("--runs", type=_positive_int, default=1)
    p_adv.add_argument("--seed", type=_non_negative_int, default=20240601)
    p_adv.add_argument("--gamma", type=float, default=0.9)
    p_adv.add_argument("--mu1", type=float, default=1.0)
    p_adv.add_argument("--mu2", type=float, default=0.0)
    p_adv.add_argument("--control", action="store_true", help="run with r=1 (no reweighting)")
    p_adv.add_argument("--output-dir")
    p_adv.set_defaults(func=_cmd_adversarial)

    p_verify = sub.add_parser("verify", help="numeric verification suites")
    p_verify.add_argument("--suite", choices=verify.SUITES, required=True)
    p_verify.add_argument("--seed", type=_non_negative_int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="evaluate regret bounds for a preset")
    p_bounds.add_argument("--preset", choices=sorted(_BOUND_PRESETS), default="default")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A ``ValueError`` (bad config, grid or option) or
    an ``OSError`` (a config file that cannot be read, an output directory
    that cannot be written) prints one line to stderr and returns 2, as an
    argparse usage error does; any other failure, such as a run that fails
    mid-way, propagates with its traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
