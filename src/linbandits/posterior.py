"""Gaussian posteriors over the reward parameter, and Monte-Carlo certification
of the anti-concentration / concentration properties that the regret analysis
asks of a standardized posterior law.

A posterior is ``mean + scale * C^(1/2) z`` with ``z`` standard normal and
``C`` either a full SPD matrix (the maintained design inverse) or a diagonal.
``GaussianPosterior`` is the package's one Gaussian law: the divergence
routes take it as a descriptor too (density, affine maps, projections).
Samplers passed to the ``certify_*`` functions yield the standardized variable
``scale^-1 V^(1/2) (theta - mean)`` directly; any distribution exposing that
interface can be certified, not just the Gaussian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy

from .normal import norm_cdf, norm_ppf

# Default certification budget.
DEFAULT_SAMPLES = 200_000
DEFAULT_DIRECTIONS = 64
_CI_Z = 2.5758293035489004  # two-sided 99% normal quantile
_CHUNK = 50_000
# Byte budget of one chunk of draws; what a certifier computes from a chunk
# takes at most half of it at a time.
_CHUNK_BYTES = 8 << 20
# Chunks and blocks are whole multiples of this many rows, as _CHUNK is:
# OpenBLAS finishes a partial float64 micro-tile (up to 16 rows wide) with
# another kernel, whose sums can differ in the last bit.
_TILE = 16
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_SIGNS = np.array([[-1.0], [1.0]])
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TAIL_SDS = 12.0  # quadrature truncation of a univariate law, in its sds

Sampler = Callable[[int, np.random.Generator], np.ndarray]


def _checked(mean, scale, cov) -> tuple[np.ndarray, float, np.ndarray]:
    """``(mean, scale, cov)`` as float arrays and a float, after the checks
    every posterior law needs: a finite mean vector, a finite scale >= 0, and
    a finite (d, d) matrix or a strictly positive (d,) diagonal."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.ndim != 1:
        raise ValueError("mean must be a vector")
    if not np.isfinite(mean).all() or not np.isfinite(cov).all():
        raise ValueError("posterior parameters must be finite")
    if not (scale >= 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be a finite non-negative real")
    d = mean.shape[0]
    if cov.ndim == 1:
        if cov.shape[0] != d:
            raise ValueError("diagonal covariance has wrong dimension")
        if (cov <= 0.0).any():
            raise ValueError("diagonal covariance must be strictly positive")
    elif cov.ndim == 2:
        if cov.shape != (d, d):
            raise ValueError("covariance has wrong shape")
    else:
        raise ValueError("covariance must be a matrix or a diagonal vector")
    return mean, float(scale), cov


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    """Gaussian law ``N(mean, scale^2 * cov)``: the posterior the policies and
    adversaries sample, and the descriptor the divergence routes compare.

    ``cov`` is the covariance shape: a (d, d) SPD matrix or a (d,) positive
    diagonal. Construction factorises a dense shape and fails on a non-SPD
    one, so that sampling never does. The dense ``covariance`` and what the
    density needs are built on first use, so a policy step that only samples
    pays for none of them. Quantile selection needs no square root: it goes
    through the module-level ``best_quantile_arm``, which callers that never
    sample use directly, without constructing this class. Laws compare and
    hash by identity, so a law can key a dict.
    """

    mean: np.ndarray
    scale: float
    cov: np.ndarray
    _sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean, scale, cov = _checked(self.mean, self.scale, self.cov)
        if cov.ndim == 1:
            sqrt = np.sqrt(cov)
        else:
            try:
                sqrt = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance shape is not positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_sqrt", sqrt)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.cov.ndim == 1

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` draws ``mean + scale * C^(1/2) z`` as an (n, d) array;
        deterministic given the rng state.

        A dense 1 x 1 law multiplies by its square root instead of taking a
        K=1 matrix product, with the same bits: the product rounds each
        entry once, accumulating ``z * sqrt`` onto +0, so the one
        difference is a draw whose ``z * sqrt`` is exactly -0 landing on a
        mean of -0.0, which now gives -0.0 where the product gave +0.0.
        """
        # in place; IEEE * and + commute, so the bits are those of
        # mean + scale * z * sqrt and mean + scale * (z @ sqrt.T)
        out = rng.standard_normal((n, self.dim))
        if self.is_diagonal:
            out *= self.scale
            out *= self._sqrt
        elif self.dim == 1:
            out *= self._sqrt[0, 0]
            out *= self.scale
        else:
            out = out @ self._sqrt.T
            out *= self.scale
        out += self.mean
        return out

    def arm_value_quantiles(self, arms: np.ndarray, gamma: float) -> np.ndarray:
        """Closed-form gamma-quantiles of the scalar laws ``a_i . theta``
        for a (K, d) arm matrix; one arm scores as ``arms=arm[None]``."""
        z = _level_quantile(gamma)
        a = np.asarray(arms, dtype=float)
        return _quantile_scores(a @ self.mean, _quadratic_forms(self.cov, a), z, self.scale)

    # -- descriptor interface of the divergence routes --------------------

    @cached_property
    def covariance(self) -> np.ndarray:
        """The dense covariance ``scale^2 * C``."""
        shape = np.diag(self.cov) if self.is_diagonal else self.cov
        return self.scale**2 * shape

    @cached_property
    def _chol(self) -> np.ndarray:
        """Lower factor of ``covariance``: ``scale`` times that of C."""
        return self.scale * (np.diag(self._sqrt) if self.is_diagonal else self._sqrt)

    @cached_property
    def _logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    @cached_property
    def _scalar(self) -> tuple[float, float]:
        """Mean and sd of a univariate law."""
        if self.dim != 1:
            raise ValueError("operation requires a univariate law")
        return float(self.mean[0]), math.sqrt(float(self.covariance[0, 0]))

    def logpdf(self, x) -> np.ndarray | float:
        """Log-density at one point or at an ``(n, dim)`` array of points.

        A univariate law given a Python float returns a Python float and
        touches no array: the quadrature integrands evaluate one point per
        call. Univariate points standardize as ``(x - mean) / sd`` on both
        paths, so a point's log-density does not depend on how points are
        batched: ``logpdf(x) == logpdf([x, ...])[0]`` bit for bit. (A
        triangular solve would divide for one point but multiply by the
        reciprocal for several.)
        """
        if self.dim == 1:
            mu, sd = self._scalar
            if isinstance(x, float):
                z = (x - mu) / sd
                return -0.5 * (z * z) - 0.5 * self._logdet - _LOG_SQRT_2PI
            x = np.asarray(x, dtype=float)
            # flat arrays and (n, 1) columns are n scalar points
            if x.ndim > 2 or (x.ndim == 2 and x.shape[1] != 1):
                raise ValueError("univariate points must be a flat or an (n, 1) array")
            # the float path's operations, in place on one array
            z = x.reshape(-1) - mu
            z /= sd
            z *= z
            z *= -0.5
            z -= 0.5 * self._logdet
            z -= _LOG_SQRT_2PI
            return z
        diff = np.atleast_2d(np.asarray(x, dtype=float)) - self.mean
        sol = scipy.linalg.solve_triangular(self._chol, diff.T, lower=True, check_finite=False)
        quad = np.sum(sol * sol, axis=0)
        return -0.5 * quad - 0.5 * self._logdet - self.dim * _LOG_SQRT_2PI

    def affine(self, shift, matrix) -> "GaussianPosterior":
        """The law of ``shift + matrix @ theta``."""
        b = np.atleast_2d(np.asarray(matrix, dtype=float))
        a = np.atleast_1d(np.asarray(shift, dtype=float))
        return GaussianPosterior(a + b @ self.mean, 1.0, b @ self.covariance @ b.T)

    def project(self, u) -> "GaussianPosterior":
        """The univariate law of ``u . theta``."""
        u = np.asarray(u, dtype=float)
        return GaussianPosterior(
            [float(u @ self.mean)], 1.0, [[float(u @ self.covariance @ u)]]
        )

    def cdf(self, x: float) -> float:
        mu, sd = self._scalar
        return float(norm_cdf((x - mu) / sd))

    def ppf(self, gamma: float) -> float:
        mu, sd = self._scalar
        return mu + sd * norm_ppf(gamma)

    def support_bounds(self) -> tuple[float, float]:
        mu, sd = self._scalar
        return mu - _TAIL_SDS * sd, mu + _TAIL_SDS * sd

    def breakpoints(self) -> tuple[float, ...]:
        return ()


def best_quantile_arm(mean, scale: float, cov, arms, gamma: float) -> int:
    """Lowest index of the best gamma-quantile score of a (K, d) arm matrix
    under ``N(mean, scale^2 * cov)``, without factorising ``cov``.

    For every finite input this is exactly
    ``int(np.argmax(GaussianPosterior(mean, scale, cov).arm_value_quantiles(arms, gamma)))``.
    The parameters get the checks of ``GaussianPosterior`` except its
    factorisation; a dense ``cov`` is instead checked at the offered arms
    (below). A diagonal covariance scores every arm, as that method does. A
    dense covariance C first computes the quadratic forms ``q_i = a_i^T C a_i``
    with one BLAS product, widens each by a rounding slack of
    ``4 (d^2 + 2d + 4) eps max|C| ||a_i||_1^2`` (plus an absolute term for
    underflow), and rescores with the einsum of ``arm_value_quantiles`` only
    the arms whose best possible score reaches the largest worst possible
    score; a lone survivor needs no rescoring. The slack exceeds the sum of
    both products' errors: each is within
    ``gamma_{d^2+2d+2} sum_jk |a_ij| |C_jk| |a_ik|`` of the exact form,
    whatever its summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1). The score is a chain of correctly
    rounded operations monotone in q, so the interval of q maps to an
    interval that holds the einsum score, and the argmax survives with every
    row tied with it. If a bound is not finite, or the arm matrix is not
    C-contiguous (einsum's summation order follows the memory layout, and a
    row subset is a C-contiguous copy), every arm is rescored.

    Raises ValueError, naming the arm, when ``q_i + slack_i < 0``: then the
    exact quadratic form of C at that arm is negative, C is not positive
    semidefinite, and the score would otherwise clamp its variance to 0.
    """
    mean, scale, cov = _checked(mean, scale, cov)
    z = _level_quantile(gamma)
    a = np.asarray(arms, dtype=float)
    # Centers over all rows: a BLAS product over a row subset can round
    # differently from the same rows of the full product.
    centers = a @ mean
    rows = _candidates(cov, scale, a, centers, z)
    if rows is None:
        return int(np.argmax(_quantile_scores(centers, _quadratic_forms(cov, a), z, scale)))
    if rows.size == 1:
        return int(rows[0])
    scores = _quantile_scores(centers[rows], _quadratic_forms(cov, a[rows]), z, scale)
    return int(rows[np.argmax(scores)])


def _quadratic_forms(cov: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a_i^T C a_i`` for every row of ``a``; a row's bits do not depend on
    the other rows."""
    if cov.ndim == 1:
        return np.sum(a * a * cov, axis=1)
    return np.einsum("ij,jk,ik->i", a, cov, a)


def _candidates(
    cov: np.ndarray, scale: float, a: np.ndarray, centers: np.ndarray, z: float
) -> np.ndarray | None:
    """Rows of ``a`` whose score the rounding bound of ``best_quantile_arm``
    cannot rule out, or None to rescore every row. Raises ValueError when a
    dense ``cov`` has a certainly negative quadratic form at a row."""
    if cov.ndim == 1:
        return None
    d = cov.shape[0]
    terms = d * d + 2 * d + 4
    cmax = float(np.abs(cov).max())
    l1 = np.abs(a).sum(axis=1)
    # terms * (4 eps cmax l1^2 + tiny (1 + cmax + l1)); the tiny part
    # covers underflow, which adds absolute, not relative, error.
    slack = l1 * (4.0 * terms * _EPS * cmax * l1 + terms * _TINY)
    slack += terms * _TINY * (1.0 + cmax)
    q = np.einsum("ij,ij->i", a @ cov, a)
    negative = q + slack < 0.0
    if negative.any():
        i = int(negative.argmax())
        raise ValueError(
            f"covariance is not positive semidefinite: arm {i} has quadratic "
            f"form {q[i]:.6g}, below -{slack[i]:.3g}, the most rounding explains"
        )
    if not a.flags.c_contiguous:
        return None
    # row 0 scores q - slack, row 1 scores q + slack
    bounds = _quantile_scores(centers, q + _SIGNS * slack, z, scale)
    if not math.isfinite(bounds.sum()):  # any inf or nan entry, or overflow
        return None
    lower, upper = bounds if z >= 0.0 else bounds[::-1]
    return (upper >= lower.max()).nonzero()[0]


def _level_quantile(gamma: float) -> float:
    """``norm_ppf(gamma)`` for a quantile level strictly inside (0, 1)."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    return norm_ppf(gamma)


def _quantile_scores(centers, q, z: float, scale: float) -> np.ndarray:
    """Quantile scores ``centers + z * scale * sqrt(q)`` from quadratic forms.

    Every operation is correctly rounded and monotone in ``q`` (increasing
    for ``z >= 0``, decreasing otherwise), which ``best_quantile_arm``
    relies on. A negative ``q`` scores as 0; ``best_quantile_arm`` first
    rejects any that rounding cannot explain.
    """
    return centers + z * (scale * np.sqrt(np.maximum(q, 0.0)))


def standard_normal_sampler(dim: int) -> Sampler:
    """Sampler for the canonical standardized posterior law."""
    dim = _check_int("dim", dim, 1)

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, dim))

    return draw


@dataclass
class WellBehavedCertificate:
    """Monte-Carlo certificate of posterior exploration/containment constants.

    ``kappa1_hat`` is the worst anti-concentration estimate over the sampled
    directions; for rotation-invariant laws one direction already determines
    it, for general laws this is only a sampled minimum and the certificate
    says so.
    """

    kappa1_hat: float
    samples: int
    directions: int
    ci_halfwidth: float
    concentration1: tuple[float, float] | None = None
    c_hat1: dict[float, float] | None = None
    note: str = (
        "direction minimum estimated over finitely many sampled unit vectors; "
        "exhaustive only for rotation-invariant laws"
    )


@dataclass(frozen=True)
class Type1Feasibility:
    """Search result for norm-containment constants on a candidate grid."""

    feasible: bool
    c1: float | None
    c1p: float | None
    deltas: tuple[float, ...]
    quantiles: tuple[float, ...]


def _unit_directions(dim: int, directions: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.standard_normal((directions, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _check_int(name: str, value, least: int) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _checked_deltas(delta_grid) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in delta_grid)
    if not deltas or any(not (0.0 < d < 1.0) for d in deltas):
        raise ValueError("delta_grid entries must lie in (0, 1)")
    return deltas


def _probe_dim(sampler: Sampler, rng: np.random.Generator) -> int:
    """Dimension of the sampler's draws, from one probe draw."""
    shape = np.shape(sampler(1, rng))
    if len(shape) != 2 or shape[1] < 1:
        raise ValueError(f"sampler must return an (n, dim) array with dim >= 1, got shape {shape}")
    return shape[1]


def _rows_within(row_bytes: int, budget: int) -> int:
    """Rows of ``row_bytes`` bytes that fit ``budget``: a whole number of
    ``_TILE`` rows (at least one tile) and at most ``_CHUNK``."""
    return min(_CHUNK, max(_TILE, budget // row_bytes // _TILE * _TILE))


def _block_rows(dim: int, temp_row_bytes: int) -> tuple[int, int]:
    """Rows of a chunk and of a block of ``_for_each_block``."""
    rows = _rows_within(8 * dim, _CHUNK_BYTES)
    return rows, min(rows, _rows_within(temp_row_bytes, _CHUNK_BYTES // 2))


def _for_each_block(
    sampler: Sampler,
    samples: int,
    dim: int,
    rng: np.random.Generator,
    visit: Callable[[int, int, np.ndarray], None],
    temp_row_bytes: int,
) -> None:
    """Draw ``samples`` rows of ``sampler`` and pass consecutive row blocks
    to ``visit(start, count, block)``: ``block`` holds the ``count`` rows
    from row ``start`` on, then zero rows up to the one block shape of the
    call, so every product over a block is one GEMM shape.

    A sampler call draws one chunk of at most ``_CHUNK_BYTES``: 50,000 rows
    at every dim <= 20, 5,232 at dim 200. A block is the rows of a chunk
    whose temporaries, ``temp_row_bytes`` a row, fit half the budget.
    Neither the rng stream nor any row's BLAS dot products depend on
    that split: boundaries fall on whole tiles, and a short block is padded
    to the full shape, since OpenBLAS rounds a small product (a gemv for one
    row) differently. Raises ValueError when a chunk is not ``(n, dim)``,
    before the next draw.
    """
    rows, step = _block_rows(dim, temp_row_bytes)
    for start in range(0, samples, rows):
        n = min(rows, samples - start)
        eta = sampler(n, rng)
        if np.shape(eta) != (n, dim):
            raise ValueError(f"sampler returned shape {np.shape(eta)} for {n} draws of dim {dim}")
        for i in range(0, n, step):
            count = min(step, n - i)
            block = eta[i : i + count]
            if count < step:
                block = np.zeros((step, dim))
                block[:count] = eta[i:]
            visit(start + i, count, block)
        del eta, block  # two chunks are never alive at once


def certify_anti_concentration(
    sampler: Sampler,
    directions: int = DEFAULT_DIRECTIONS,
    samples: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> WellBehavedCertificate:
    """Estimate ``min_u P(u . eta >= 1)`` over random unit directions.

    Returns the direction minimum together with its 99% binomial confidence
    half-width at the realized sample count.
    """
    directions = _check_int("directions", directions, 1)
    samples = _check_int("samples", samples, 1_000)
    rng = np.random.default_rng() if rng is None else rng
    dim = _probe_dim(sampler, rng)
    u = _unit_directions(dim, directions, rng)

    hits = np.zeros(directions, dtype=np.int64)

    def count(start: int, rows: int, eta: np.ndarray) -> None:
        nonlocal hits
        hits += np.count_nonzero((eta @ u.T)[:rows] >= 1.0, axis=0)

    # a block's projections (8 bytes each) and their mask (1 byte each)
    _for_each_block(sampler, samples, dim, rng, count, temp_row_bytes=9 * directions)
    p_hat = hits / samples
    k = int(np.argmin(p_hat))
    p_min = float(p_hat[k])
    half = _CI_Z * math.sqrt(max(p_min * (1.0 - p_min), 1.0 / samples) / samples)
    return WellBehavedCertificate(
        kappa1_hat=p_min, samples=samples, directions=directions, ci_halfwidth=half
    )


class _UpperTails:
    """The largest values of each of up to ``rows`` rows of ``n`` values
    that arrive in column blocks of at most ``block``: all that numpy's
    linear quantile at ``level`` reads of a row.

    numpy's quantile of a row interpolates between its order statistics k
    and k + 1 (the maximum alone when k = n - 1), k = floor((n - 1) * level),
    so each row keeps its m = n - k largest values. A block's values are
    filtered against the row's running m-th largest with ``~(x <= floor)``,
    so a NaN (numpy sorts it last) is always kept, and a row is partitioned
    back to m values only when its buffer of ``width(n, level, block)`` =
    min(n, m + max(block, m // 2)) fills. ``reset`` starts over on new rows
    in the same buffer.
    """

    def __init__(self, rows: int, n: int, level: float, block: int) -> None:
        self._n, self._level = n, level
        self._k = math.floor((n - 1) * level)  # numpy's index, same rounding
        self._m = n - self._k
        self._buf = np.empty((rows, self.width(n, level, block)))
        self.reset(rows)

    @staticmethod
    def width(n: int, level: float, block: int) -> int:
        """Values a row's buffer holds."""
        m = n - math.floor((n - 1) * level)
        return min(n, m + max(block, m // 2))

    def reset(self, rows: int) -> None:
        """Forget every value seen and take the next ``rows`` rows."""
        self._fill = [0] * rows
        self._floor = [math.nan] * rows  # NaN keeps every value

    def add(self, values: np.ndarray) -> None:
        """Take the next ``(rows, count)`` block of values."""
        for i, row in enumerate(values):
            keep = np.flatnonzero(~(row <= self._floor[i]))
            if self._fill[i] + keep.size > self._buf.shape[1]:
                self._shrink(i)
            fill = self._fill[i]
            np.take(row, keep, out=self._buf[i, fill : fill + keep.size])
            self._fill[i] = fill + keep.size

    def _shrink(self, i: int) -> None:
        """Keep row ``i``'s m largest values, at the front of its buffer."""
        fill, m = self._fill[i], self._m
        row = self._buf[i, :fill]
        row.partition(fill - m)
        row[:m] = row[fill - m :]
        self._fill[i] = m
        self._floor[i] = row[0]

    def quantiles(self) -> np.ndarray:
        """numpy's quantile of each row seen, or -inf where a row's quantile
        is below another row's, or all NaN when a row holds a NaN: so
        ``np.max`` of it is ``np.max(np.quantile(rows, level, axis=1))``
        bit for bit, also over the rows of several ``reset`` groups.

        A row's quantile is numpy's own, of a length-n row rebuilt as its
        order statistic k repeated k times and then its m largest values:
        the same order statistics k and k + 1, so the same interpolation.
        Only candidate rows are rebuilt. When every row's statistics k and
        k + 1 are finite and differ by a finite amount, each interpolation
        lies between them, so a row whose statistic k + 1 is below the
        largest statistic k has its quantile below another row's, enters
        as -inf, and leaves the maximum the same value. Otherwise every row
        is rebuilt.

        One thing no row kept this way can reproduce is which of several
        tied zeros of both signs numpy's partition leaves at an order
        statistic; numpy's own quantile of a zero can change sign when the
        row is permuted, and so can this one.
        """
        k, m = self._k, self._m
        tails = []
        for row, fill in zip(self._buf, self._fill):
            row = row[:fill]
            row.partition(fill - m)  # statistic k first, then the larger ones
            tail = row[fill - m :]
            if math.isnan(tail.max()):
                return np.full(len(self._fill), np.nan)
            tails.append(tail)
        lo = np.array([tail[0] for tail in tails])
        hi = np.array([tail[min(1, m - 1) :].min() for tail in tails])
        with np.errstate(invalid="ignore", over="ignore"):
            bounded = bool(np.all(np.isfinite(hi - lo)))
        rows = (hi >= lo.max()).nonzero()[0] if bounded else range(len(tails))
        quantiles = np.full(len(tails), -np.inf)
        rebuilt = np.empty((1, self._n))
        for i in rows:
            rebuilt[0, :k] = lo[i]
            rebuilt[0, k:] = tails[i]
            quantiles[i] = np.quantile(rebuilt, self._level, axis=1, overwrite_input=True)[0]
        return quantiles


def certify_concentration_type2(
    sampler: Sampler,
    delta: float,
    directions: int = DEFAULT_DIRECTIONS,
    samples: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst directional (1 - delta)-quantile of ``u . eta``.

    For the standard normal this sits at the scalar normal quantile whatever
    the ambient dimension; that dimension-freeness is exactly what callers
    probe with this function.

    Exactly the maximum of every direction's quantile, not an
    approximation, without holding every projection: numpy's quantile reads
    only two order statistics of a row, so each direction keeps its
    m = samples - floor((samples - 1) * (1 - delta)) largest projections
    in a row of cap = min(samples, m + max(block, m // 2)) (see
    ``_UpperTails``). Besides one chunk of draws of at most
    ``_CHUNK_BYTES`` (8 MiB; see ``_for_each_block``) and one reused
    directions x block product, the call holds directions x cap kept
    projections, in place of the directions x samples x 8 bytes (102 MB
    at the defaults) of every projection.

    When those rows would pass ``_CHUNK_BYTES`` but every draw fits it
    (8 x samples x dim bytes), the call holds the blocks it was handed
    instead and keeps the directions in groups of
    max(1, ``_CHUNK_BYTES`` // (8 x cap)): the first group during the
    draws, each later one by replaying the held blocks through the same
    full product. At the defaults a d = 2 call holds 3.2 MB of draws and
    at most 8 MiB of rows (5 passes at delta = 0.25, 2 at delta = 0.05)
    where it held 38 MB and 9 MB of rows. Every projection comes from the
    same product of the same operands (a product over a subset of
    directions can round differently), the sampler sees the same calls,
    and nothing is drawn again, so the result keeps its bits.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    directions = _check_int("directions", directions, 1)
    samples = _check_int("samples", samples, 1_000)
    rng = np.random.default_rng() if rng is None else rng
    dim = _probe_dim(sampler, rng)
    u = _unit_directions(dim, directions, rng)

    temp_row_bytes = 8 * directions  # a block's projections
    block = _block_rows(dim, temp_row_bytes)[1]
    level = 1.0 - delta
    group = directions  # directions whose tails are kept in one pass
    if 8 * samples * dim <= _CHUNK_BYTES:
        row_bytes = 8 * _UpperTails.width(samples, level, block)
        group = min(directions, max(1, _CHUNK_BYTES // row_bytes))
    held = []  # (rows, block) of every block, when later groups replay them
    tails = _UpperTails(group, samples, level, block)
    projections = np.empty((directions, block))

    def project(start: int, rows: int, eta: np.ndarray) -> None:
        np.matmul(u, eta.T, out=projections)
        tails.add(projections[:group, :rows])
        if group < directions:
            held.append((rows, eta))

    _for_each_block(sampler, samples, dim, rng, project, temp_row_bytes)
    quantiles = np.empty(directions)
    quantiles[:group] = tails.quantiles()
    for g0 in range(group, directions, group):
        g1 = min(g0 + group, directions)
        tails.reset(g1 - g0)
        for rows, eta in held:
            np.matmul(u, eta.T, out=projections)
            tails.add(projections[g0:g1, :rows])
        quantiles[g0:g1] = tails.quantiles()
    return float(np.max(quantiles))


def certify_concentration_type1(
    sampler: Sampler,
    delta_grid,
    samples: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
    c1_candidates=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    c1p_candidates=(1.0, 2.0, 4.0, 8.0, 16.0),
) -> Type1Feasibility:
    """Search a coarse grid for norm-containment constants.

    A pair ``(c1, c1p)`` is feasible when the empirical (1 - delta)-quantile of
    ``||eta||`` stays below ``sqrt(c1 d log(c1p d / delta))`` at every delta of
    the grid. Returns the lexicographically smallest feasible pair.
    """
    deltas = _checked_deltas(delta_grid)
    samples = _check_int("samples", samples, 1_000)
    rng = np.random.default_rng() if rng is None else rng
    dim = _probe_dim(sampler, rng)

    norms = np.empty(samples)

    def norm(start: int, rows: int, eta: np.ndarray) -> None:
        norms[start : start + rows] = np.linalg.norm(eta[:rows], axis=1)

    # np.linalg.norm squares a block first: 8 bytes per entry
    _for_each_block(sampler, samples, dim, rng, norm, temp_row_bytes=8 * dim)
    quantiles = tuple(float(np.quantile(norms, 1.0 - d)) for d in deltas)

    def bound(c1: float, c1p: float, delta: float) -> float:
        arg = c1p * dim / delta
        if arg <= 1.0:
            return 0.0
        return math.sqrt(c1 * dim * math.log(arg))

    for c1 in sorted(c1_candidates):
        for c1p in sorted(c1p_candidates):
            if all(q <= bound(c1, c1p, d) for q, d in zip(quantiles, deltas)):
                return Type1Feasibility(True, float(c1), float(c1p), deltas, quantiles)
    return Type1Feasibility(False, None, None, deltas, quantiles)


def certify_well_behaved(
    sampler: Sampler,
    delta_grid=(0.01, 0.05, 0.1, 0.25, 0.5),
    directions: int = DEFAULT_DIRECTIONS,
    samples: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> WellBehavedCertificate:
    """Full certificate: anti-concentration, Type-I constants, Type-II table."""
    _checked_deltas(delta_grid)  # before the anti-concentration draws
    rng = np.random.default_rng() if rng is None else rng
    cert = certify_anti_concentration(sampler, directions, samples, rng)
    feas = certify_concentration_type1(sampler, delta_grid, samples, rng)
    cert.concentration1 = (feas.c1, feas.c1p) if feas.feasible else None
    cert.c_hat1 = {
        d: certify_concentration_type2(sampler, d, directions, samples, rng)
        for d in delta_grid
    }
    return cert
