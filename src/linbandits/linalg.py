"""Regularized-least-squares state with incremental inverse maintenance.

Holds the ridge design matrix, its inverse (kept current through rank-1
updates with periodic dense re-inversions), the reward moment vector, and the
point estimate. Each update builds its two outer products with one K=1 BLAS
product apiece, which gives the same bits as an elementwise outer product
(see ``_outer``). Every re-inversion measures how far the rank-1 inverse had
drifted and warns past ``DRIFT_TOLERANCE``; an update that overflows raises.
A diagonal-only variant, O(d) per update, is the state of the
``mean_and_cov`` approximation, where the inverse of ``diag(V)`` stands in for
the full inverse in the estimate as well as the covariance.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Dense re-inversion period: bounds rank-1 drift while keeping the steady
# state at O(d^2) per update.
REINVERT_PERIOD = 256

# Largest relative gap max|A_rank1 - A_inv| / max|A_inv| between the rank-1
# inverse and a fresh one that a re-inversion repairs without a warning; the
# bound of acceptance criterion 7. Healthy runs stay below 4e-15.
DRIFT_TOLERANCE = 1e-8


def _as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.isfinite(v).all():
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


def _outer(v: np.ndarray) -> np.ndarray:
    """``v v^T`` in a fresh array, as one K=1 BLAS product (GEMM or SYRK).

    Every entry is a single product ``v_i * v_j`` accumulated onto +0 with
    alpha = 1, and ``fma(a, b, +0)`` rounds ``a * b`` once, so the result
    equals ``np.multiply.outer(v, v)`` bit for bit whatever the BLAS thread
    count or blocking. The one difference: a product that is exactly -0
    (a zero times a negative number) comes out +0. A nonzero product that
    underflows keeps its sign. ``design`` never shows the difference: it
    adds the product to entries that are never -0, and ``a + (+0)`` equals
    ``a + (-0)`` bit for bit unless ``a`` is -0. ``design_inv`` subtracts
    it, and ``a - (+0)`` differs from ``a - (-0)`` only when ``a`` is -0,
    which only a re-inversion can leave there.
    """
    return np.dot(v[:, None], v[None, :])


def rls_update(state: RlsState, arm, reward: float) -> RlsState:
    """Absorb one (arm, reward) pair and return the updated state.

    The inverse follows the rank-1 identity
    ``(A + x x^T)^-1 = A^-1 - (A^-1 x)(A^-1 x)^T / (1 + x^T A^-1 x)``
    and is replaced by a dense re-inversion every ``REINVERT_PERIOD`` updates.
    That re-inversion warns (``RuntimeWarning``, naming the step and the
    residual) when the rank-1 inverse it replaces had drifted past
    ``DRIFT_TOLERANCE``. An update whose ``1 + x^T A^-1 x``, new design
    diagonal or new estimate is not finite raises ``ValueError``; these
    checks are O(d).
    """
    x = _as_vector(arm, state.dim, "arm")
    r = _check_reward(reward)
    step = state.step + 1

    # Two fresh d x d arrays, filled in place; the old state is never written.
    design = _outer(x)
    design += state.design
    vx = state.design_inv @ x
    denom = 1.0 + float(x @ vx)
    if not math.isfinite(denom):
        raise ValueError(f"rank-1 update overflowed at step {step}: 1 + x^T V^-1 x = {denom}")
    design_inv = _outer(vx)
    design_inv /= denom
    np.subtract(state.design_inv, design_inv, out=design_inv)

    if step % REINVERT_PERIOD == 0:
        fresh_inv = np.linalg.inv(design)
        fresh_inv = 0.5 * (fresh_inv + fresh_inv.T)
        drift = float(np.abs(design_inv - fresh_inv).max() / np.abs(fresh_inv).max())
        if not drift <= DRIFT_TOLERANCE:
            warnings.warn(
                f"rank-1 design inverse drifted by {drift:.3g} (relative max-entry gap "
                f"to a fresh inverse, tolerance {DRIFT_TOLERANCE:g}) by step {step}; "
                "the re-inversion repaired it",
                RuntimeWarning,
                stacklevel=2,
            )
        design_inv = fresh_inv

    moment = state.moment + r * x
    estimate = design_inv @ moment
    # inf * 0 is nan and a finite entry times 0 is +-0, so this dot product
    # is finite exactly when both vectors are, and it cannot overflow
    diag = design.diagonal()
    if not math.isfinite(diag @ (0.0 * estimate)):
        bad = "design diagonal" if not np.isfinite(diag).all() else "estimate"
        raise ValueError(f"rank-1 update overflowed at step {step}: the new {bad} is not finite")
    return RlsState(
        dim=state.dim,
        step=step,
        design=design,
        design_inv=design_inv,
        moment=moment,
        estimate=estimate,
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

