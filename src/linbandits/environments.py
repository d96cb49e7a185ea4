"""Problem instances, per-step arm sets, noisy rewards, and regret accounting.

Three parameter families are built in: an alternating-sign vector, a sine
ramp, and a once-sampled uniform draw; a custom vector closes the set. Arms
are standard normal draws pushed into the unit ball (projection by default,
sphere normalization as an option).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("P1", "P2", "P3", "custom")
ARM_SCALINGS = ("ball", "sphere")


@dataclass(frozen=True)
class BanditInstance:
    """A fixed linear-reward problem: ground truth, arm count, noise level."""

    theta_star: np.ndarray
    dim: int
    n_arms: int
    noise_sd: float
    family: str
    seed: int | None = None

    @property
    def theta_norm(self) -> float:
        """Exposed so callers can set the norm bound consistently."""
        return float(np.linalg.norm(self.theta_star))


def make_instance(
    family: str,
    dim: int,
    n_arms: int,
    noise_sd: float = 0.5,
    seed: int | None = None,
    theta=None,
) -> BanditInstance:
    """Build an instance of one of the supported families."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    if dim < 1 or n_arms < 1:
        raise ValueError("dim and n_arms must be positive")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValueError("noise_sd must be finite and non-negative")

    if family == "P1":
        vec = np.array([(-1.0) ** i for i in range(dim)])
    elif family == "P2":
        vec = np.sin(np.arange(1, dim + 1, dtype=float))
    elif family == "P3":
        if seed is None:
            raise ValueError("family P3 requires a seed for the one-time draw")
        vec = np.random.default_rng(seed).uniform(0.0, 1.0, size=dim)
    else:
        if theta is None:
            raise ValueError("family 'custom' requires an explicit theta")
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (dim,):
            raise ValueError("theta has the wrong dimension")
    return BanditInstance(
        theta_star=vec,
        dim=dim,
        n_arms=n_arms,
        noise_sd=float(noise_sd),
        family=family,
        seed=seed,
    )


def sample_arm_set(
    dim: int, n_arms: int, rng: np.random.Generator, scaling: str = "ball"
) -> np.ndarray:
    """Draw ``n_arms`` standard-normal vectors and scale them into the unit ball.

    ``ball`` projects (``x / max(1, ||x||)``); ``sphere`` always normalizes.
    """
    if dim < 1 or n_arms < 1:
        raise ValueError("dim and n_arms must be positive")
    if scaling not in ARM_SCALINGS:
        raise ValueError(f"scaling must be one of {ARM_SCALINGS}")
    arms = rng.standard_normal((n_arms, dim))
    norms = np.linalg.norm(arms, axis=1, keepdims=True)
    if scaling == "ball":
        return arms / np.maximum(1.0, norms)
    return arms / norms


def reward(instance: BanditInstance, arm, rng: np.random.Generator) -> float:
    """Noisy linear reward ``arm . theta_star + N(0, noise_sd^2)``."""
    a = np.asarray(arm, dtype=float)
    value = float(a @ instance.theta_star)
    if instance.noise_sd == 0.0:
        return value
    return value + instance.noise_sd * float(rng.standard_normal())


@dataclass(frozen=True)
class RegretTrace:
    """Per-step and running cumulative regret for one run."""

    instantaneous: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def from_instantaneous(cls, inst) -> "RegretTrace":
        arr = np.asarray(inst, dtype=float)
        # written so that a NaN fails it
        if not np.all(arr >= -1e-12):
            raise ValueError("instantaneous regret must be non-negative")
        return cls(instantaneous=arr, cumulative=np.cumsum(arr))

    @property
    def final(self) -> float:
        return float(self.cumulative[-1]) if self.cumulative.size else 0.0

    def __len__(self) -> int:
        return int(self.instantaneous.size)


def sublinearity_ratio(trace_mean: np.ndarray) -> float:
    """Late-to-early average-regret ratio ``(R(T)/T) / (R(T/4)/(T/4))``.

    Values well below one indicate a flattening regret curve; a ratio near one
    is what a linear-regret run produces.
    """
    t = trace_mean.shape[0]
    quarter = max(1, t // 4)
    early = trace_mean[quarter - 1] / quarter
    late = trace_mean[t - 1] / t
    if early == 0.0:
        return 0.0 if late == 0.0 else math.inf
    return float(late / early)
