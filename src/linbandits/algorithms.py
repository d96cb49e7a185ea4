"""The four bandit policies behind one interface: posterior-sampling and
posterior-quantile selection, each with exact or diagonal-approximate
inference.

Sampling selection perturbs the point estimate with one posterior draw at the
inflated union confidence level ``delta / (4 T)``; quantile selection scores
every arm by a closed-form posterior quantile at level ``gamma`` and needs no
randomness. Ties break to the lowest index so replays are exact.

Only sampling selection builds a ``GaussianPosterior``, whose construction
factorises the covariance; quantile selection scores the arms straight from
the posterior parameters with ``posterior.best_quantile_arm``.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    ConfidenceParams,
    DiagonalApproxState,
    EstimateMode,
    RlsState,
    beta,
    diag_init,
    diag_update,
    rls_init,
    rls_update,
)
from .posterior import GaussianPosterior, best_quantile_arm

logger = logging.getLogger(__name__)


class Kind(str, enum.Enum):
    LINTS = "lints"
    LINBUCB = "linbucb"


class Inference(str, enum.Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"


class ScaleMode(str, enum.Enum):
    """How the posterior spread is scaled relative to the design inverse.

    ``CONFIDENCE_RADIUS`` multiplies by the confidence-ellipsoid radius (the
    scaling the regret analysis is stated for); ``UNIT`` uses the plain
    conjugate posterior ``N(estimate, V^-1)``, the variant a unit Gaussian
    prior at ridge 1 produces and the one the reference experiments run.
    """

    CONFIDENCE_RADIUS = "confidence_radius"
    UNIT = "unit"


@dataclass(frozen=True)
class PolicyConfig:
    """Static policy description: selection rule, inference mode, parameters.

    ``kappa`` is the anti-concentration constant of the standardized posterior
    when known; quantile selection logs a warning when ``gamma`` sits below
    the admissible level ``1 - kappa`` (any constant level above it keeps the
    guarantees, which softens not knowing kappa exactly).
    """

    kind: Kind
    inference: Inference
    confidence: ConfidenceParams
    horizon: int
    gamma: float | None = None
    approx_mode: EstimateMode = EstimateMode.MEAN_AND_COV
    scale_mode: ScaleMode = ScaleMode.CONFIDENCE_RADIUS
    kappa: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.kind is Kind.LINBUCB:
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ValueError("quantile selection requires gamma in (0, 1)")
            if self.kappa is not None and self.gamma < 1.0 - self.kappa:
                logger.warning(
                    "gamma=%.4f is below the admissible level %.4f; regret "
                    "guarantees hold only for constant levels above it",
                    self.gamma,
                    1.0 - self.kappa,
                )

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        suffix = "" if self.inference is Inference.EXACT else "_approx"
        return f"{self.kind.value}{suffix}"


@dataclass(frozen=True)
class PolicyState:
    """Mutable-by-replacement run state: the inference backends plus a step count.

    Exact inference keeps the full design state; the default approximate mode
    keeps only the diagonal state; the covariance-only ablation keeps both so
    the mean can stay exact while sampling uses the diagonal.
    """

    step: int
    rls: RlsState | None = None
    diag: DiagonalApproxState | None = None


def init_policy(config: PolicyConfig, dim: int) -> PolicyState:
    lam = config.confidence.lam
    if config.inference is Inference.EXACT:
        return PolicyState(step=0, rls=rls_init(dim, lam))
    if config.approx_mode is EstimateMode.MEAN_AND_COV:
        return PolicyState(step=0, diag=diag_init(dim, lam, config.approx_mode))
    return PolicyState(
        step=0, rls=rls_init(dim, lam), diag=diag_init(dim, lam, config.approx_mode)
    )


def _posterior_params(
    state: PolicyState, config: PolicyConfig, dim: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """``(mean, scale, cov)`` of the posterior law the policy selects from;
    ``cov`` is the design inverse or its diagonal."""
    conf = config.confidence
    if config.scale_mode is ScaleMode.UNIT:
        scale = 1.0
    elif config.kind is Kind.LINTS:
        scale = beta(replace(conf, delta=conf.delta / (4.0 * config.horizon)), state.step, dim)
    else:
        scale = beta(conf, state.step, dim)

    if config.inference is Inference.EXACT:
        assert state.rls is not None
        return state.rls.estimate, scale, state.rls.design_inv
    assert state.diag is not None
    if config.approx_mode is EstimateMode.MEAN_AND_COV:
        mean = state.diag.estimate
    else:
        assert state.rls is not None
        mean = state.rls.estimate
    return mean, scale, state.diag.diag_inv


def select_arm(
    state: PolicyState,
    config: PolicyConfig,
    arms,
    rng: np.random.Generator,
) -> int:
    """Pick an arm index; ties break to the lowest index.

    Sampling selection draws from a ``GaussianPosterior``, one covariance
    factorisation per call under exact inference. Quantile selection never
    factorises: it rejects a covariance with a certainly negative variance
    at an offered arm instead (see ``posterior.best_quantile_arm``).
    """
    arm_matrix = np.asarray(arms, dtype=float)
    if arm_matrix.ndim != 2 or arm_matrix.shape[0] == 0:
        raise ValueError("arms must be a non-empty (K, d) collection")
    mean, scale, cov = _posterior_params(state, config, arm_matrix.shape[1])
    if config.kind is Kind.LINTS:
        theta = GaussianPosterior(mean, scale, cov).sample(1, rng)[0]
        return int(np.argmax(arm_matrix @ theta))
    return best_quantile_arm(mean, scale, cov, arm_matrix, config.gamma)


def update(state: PolicyState, config: PolicyConfig, arm, reward: float) -> PolicyState:
    """Absorb the observed (arm, reward) pair into the inference backends."""
    rls = rls_update(state.rls, arm, reward) if state.rls is not None else None
    diag = diag_update(state.diag, arm, reward) if state.diag is not None else None
    return PolicyState(step=state.step + 1, rls=rls, diag=diag)
