"""Regularized-least-squares state with incremental inverse maintenance.

Holds the ridge design matrix, its inverse (kept current through rank-1
updates with periodic dense re-inversions), the reward moment vector, and the
point estimate. A diagonal-only variant, O(d) per update, is the state of the
``mean_and_cov`` approximation, where the inverse of ``diag(V)`` stands in for
the full inverse in the estimate as well as the covariance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Dense re-inversion period: bounds rank-1 drift while keeping the steady
# state at O(d^2) per update.
REINVERT_PERIOD = 256


def _as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _check_reward(reward: float) -> float:
    r = float(reward)
    if not math.isfinite(r):
        raise ValueError("reward must be finite")
    return r


@dataclass(frozen=True)
class ConfidenceParams:
    """Confidence-ellipsoid inputs: sub-Gaussian scale, ridge, norm bound, level.

    ``nu`` is the sub-Gaussian constant of the reward noise, ``lam`` the ridge
    regularizer, ``s_bound`` a known upper bound on the parameter norm, and
    ``delta`` the failure probability.
    """

    nu: float
    lam: float
    s_bound: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError("nu must be a finite non-negative real")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("lam must be a finite positive real")
        if not (self.s_bound > 0.0 and math.isfinite(self.s_bound)):
            raise ValueError("s_bound must be a finite positive real")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class RlsState:
    """Ridge regression state after ``step`` absorbed (arm, reward) pairs."""

    dim: int
    step: int
    design: np.ndarray
    design_inv: np.ndarray
    moment: np.ndarray
    estimate: np.ndarray


def rls_init(dim: int, lam: float) -> RlsState:
    """Fresh state: design = lam * I, no observations."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be a finite positive real")
    eye = np.eye(dim)
    return RlsState(
        dim=dim,
        step=0,
        design=lam * eye,
        design_inv=eye / lam,
        moment=np.zeros(dim),
        estimate=np.zeros(dim),
    )


def rls_update(state: RlsState, arm, reward: float) -> RlsState:
    """Absorb one (arm, reward) pair and return the updated state.

    The inverse follows the rank-1 identity
    ``(A + x x^T)^-1 = A^-1 - (A^-1 x)(A^-1 x)^T / (1 + x^T A^-1 x)``
    and is replaced by a dense re-inversion every ``REINVERT_PERIOD`` updates.
    """
    x = _as_vector(arm, state.dim, "arm")
    r = _check_reward(reward)

    # Two fresh d x d arrays, filled in place; the old state is never written.
    design = np.multiply.outer(x, x)
    design += state.design
    vx = state.design_inv @ x
    denom = 1.0 + float(x @ vx)
    design_inv = np.multiply.outer(vx, vx)
    design_inv /= denom
    np.subtract(state.design_inv, design_inv, out=design_inv)

    step = state.step + 1
    if step % REINVERT_PERIOD == 0:
        design_inv = np.linalg.inv(design)
        design_inv = 0.5 * (design_inv + design_inv.T)

    moment = state.moment + r * x
    return RlsState(
        dim=state.dim,
        step=step,
        design=design,
        design_inv=design_inv,
        moment=moment,
        estimate=design_inv @ moment,
    )


class EstimateMode(str, enum.Enum):
    """Which parts of the posterior the diagonal inverse replaces."""

    MEAN_AND_COV = "mean_and_cov"
    COV_ONLY = "cov_only"


@dataclass(frozen=True)
class DiagonalApproxState:
    """Diagonal-of-the-design state for fast approximate inference.

    ``diag`` holds the diagonal entries of the exact design matrix (same
    arithmetic stream, so they agree bitwise with a replayed full update);
    ``diag_inv`` its elementwise reciprocals.
    """

    dim: int
    step: int
    diag: np.ndarray
    diag_inv: np.ndarray
    moment: np.ndarray

    @property
    def estimate(self) -> np.ndarray:
        """Approximate point estimate ``diag_inv * moment``."""
        return self.diag_inv * self.moment


def diag_init(dim: int, lam: float) -> DiagonalApproxState:
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be a finite positive real")
    diag = np.full(dim, float(lam))
    return DiagonalApproxState(
        dim=dim, step=0, diag=diag, diag_inv=1.0 / diag, moment=np.zeros(dim)
    )


def diag_update(state: DiagonalApproxState, arm, reward: float) -> DiagonalApproxState:
    """Absorb one pair into the diagonal state."""
    x = _as_vector(arm, state.dim, "arm")
    r = _check_reward(reward)
    diag = state.diag + x * x
    return DiagonalApproxState(
        dim=state.dim,
        step=state.step + 1,
        diag=diag,
        diag_inv=1.0 / diag,
        moment=state.moment + r * x,
    )


def beta(params: ConfidenceParams, step: int, dim: int) -> float:
    """Confidence-ellipsoid radius after ``step`` observations in dimension ``dim``.

    Evaluates ``nu * sqrt(2 * log((lam + t)^(d/2) * lam^(-d/2) / delta))
    + sqrt(lam) * s_bound``; the log argument exceeds 1 for every valid input.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    log_term = 0.5 * dim * math.log((params.lam + step) / params.lam) + math.log(
        1.0 / params.delta
    )
    return params.nu * math.sqrt(2.0 * log_term) + math.sqrt(params.lam) * params.s_bound

