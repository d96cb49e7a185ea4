"""Stochastic linear contextual bandits with exact and approximate Bayesian
inference: posterior-sampling and posterior-quantile policies, alpha-divergence
error budgets with their regret-bound constants, explicit budgeted adversaries,
and a reproducible experiment harness."""

__version__ = "0.1.0"
