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

Each policy keeps one inference state. Exact inference and the
covariance-only approximation (``Inference.COV_ONLY``) keep the full design
state (``RlsState``): the approximation is read off it at
``posterior_params`` as the exact mean with the diagonal inverse
``1 / diag(V)``. Only the ``Inference.MEAN_AND_COV`` approximation keeps the
O(d) diagonal state (``DiagonalApproxState``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import (
    ConfidenceParams,
    DiagonalApproxState,
    RlsState,
    beta,
    diag_init,
    diag_update,
    rls_init,
    rls_update,
)
from .posterior import GaussianPosterior, best_quantile_arm


class Kind(str, enum.Enum):
    LINTS = "lints"
    LINBUCB = "linbucb"


class Inference(str, enum.Enum):
    """Exact inference, or which parts of the posterior the diagonal inverse
    of the design replaces; the approximate values are the config's
    ``approx_mode`` strings."""

    EXACT = "exact"
    COV_ONLY = "cov_only"
    MEAN_AND_COV = "mean_and_cov"


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
    """Static policy description: selection rule, inference mode, parameters."""

    kind: Kind
    inference: Inference
    confidence: ConfidenceParams
    horizon: int
    gamma: float | None = None
    scale_mode: ScaleMode = ScaleMode.CONFIDENCE_RADIUS

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.kind is Kind.LINBUCB:
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ValueError("quantile selection requires gamma in (0, 1)")

    @property
    def name(self) -> str:
        suffix = "" if self.inference is Inference.EXACT else "_approx"
        return f"{self.kind.value}{suffix}"

    @cached_property
    def sampling_confidence(self) -> ConfidenceParams:
        """``confidence`` at the inflated union level ``delta / (4 T)`` that
        sampling selection scales its posterior by."""
        return replace(self.confidence, delta=self.confidence.delta / (4.0 * self.horizon))


def init_policy(config: PolicyConfig, dim: int) -> RlsState | DiagonalApproxState:
    """The policy's one inference state, before any observation."""
    lam = config.confidence.lam
    if config.inference is Inference.MEAN_AND_COV:
        return diag_init(dim, lam)
    return rls_init(dim, lam)


def posterior_params(
    state: RlsState | DiagonalApproxState, config: PolicyConfig
) -> tuple[np.ndarray, float, np.ndarray]:
    """``(mean, scale, cov)`` of the posterior law the policy selects from;
    ``cov`` is the design inverse or its diagonal approximation. The budgeted
    adversaries reweight exactly this law."""
    if config.scale_mode is ScaleMode.UNIT:
        scale = 1.0
    elif config.kind is Kind.LINTS:
        scale = beta(config.sampling_confidence, state.step, state.dim)
    else:
        scale = beta(config.confidence, state.step, state.dim)

    if isinstance(state, DiagonalApproxState):
        return state.estimate, scale, state.diag_inv
    if config.inference is Inference.EXACT:
        return state.estimate, scale, state.design_inv
    return state.estimate, scale, 1.0 / np.diagonal(state.design)


def select_arm(
    state: RlsState | DiagonalApproxState,
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
    if arm_matrix.shape[1] != state.dim:
        raise ValueError(f"arms have dimension {arm_matrix.shape[1]}, expected {state.dim}")
    mean, scale, cov = posterior_params(state, config)
    if config.kind is Kind.LINTS:
        theta = GaussianPosterior(mean, scale, cov).sample(1, rng)[0]
        return int(np.argmax(arm_matrix @ theta))
    return best_quantile_arm(mean, scale, cov, arm_matrix, config.gamma)


def update(
    state: RlsState | DiagonalApproxState, arm, reward: float
) -> RlsState | DiagonalApproxState:
    """Absorb the observed (arm, reward) pair into the inference state."""
    if isinstance(state, DiagonalApproxState):
        return diag_update(state, arm, reward)
    return rls_update(state, arm, reward)
