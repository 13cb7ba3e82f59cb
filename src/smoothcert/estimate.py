"""High-confidence estimators for the smoothed classifier's statistics.

The gradient statistic z = w (f(x+w)_c - 1/2), w ~ N(0, sigma^2 I), has mean
sigma^2 * y1 (y1 the gradient of the smoothed probability) and is
sub-Gaussian around it with parameter k = sigma^2 (1/4 + 3/sqrt(8 pi e)).
Everything here bounds norms of sigma^2 * y1; callers divide by sigma^2
exactly once when building certification inputs.

The l2 bound multiplies two independent sample means (a dot product
concentrates at ||mean||^2 without the d-dependent variance of ||Z||^2);
the l1 / linf bounds are union bounds over sign patterns / coordinates of
the pooled mean and inherit the familiar sqrt(d log 2) / sqrt(log d)
scalings, which is why full-vector l1 estimation stays impractical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .numerics import DomainError

__all__ = [
    "SUBGAUSSIAN_COEFF",
    "GradientSampleBatch",
    "HypothesisError",
    "subgaussian_k",
    "estimate_q_lower",
    "gradient_mean",
    "l2_norm_bounds",
    "linf_norm_bounds",
    "l1_norm_bounds",
    "subspace_norm_bounds",
    "split_alpha",
]

# 1/4 + 3/sqrt(8 pi e)
SUBGAUSSIAN_COEFF = 0.25 + 3.0 / math.sqrt(8.0 * math.pi * math.e)

# The l1-norm bound needs Theta(d) samples to be non-vacuous; above this
# dimension it warns.
L1_DIM_LIMIT = 64


class HypothesisError(DomainError):
    """A concentration bound's hypothesis (e.g. alpha >= 2 e^{-d/16}) fails."""


@dataclass(frozen=True)
class GradientSampleBatch:
    """Split-sample sums of the gradient statistic z plus the success count.

    ``x_sum`` and ``y_sum`` are the raw sums over the two independent halves
    (n1 and n2 draws); ``success_count`` counts top-class hits over all
    n1 + n2 draws.
    """

    x_sum: np.ndarray
    y_sum: np.ndarray
    n1: int
    n2: int
    success_count: int
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_sum", np.asarray(self.x_sum, dtype=float))
        object.__setattr__(self, "y_sum", np.asarray(self.y_sum, dtype=float))
        if self.x_sum.ndim != 1 or self.x_sum.shape != self.y_sum.shape:
            raise DomainError("x_sum and y_sum must be 1-D vectors of equal length")
        if self.x_sum.size < 1:
            raise DomainError("batch dimension must be at least 1")
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("both sample splits must be nonempty")
        if not (0 <= self.success_count <= self.n1 + self.n2):
            raise DomainError(
                f"success_count {self.success_count} outside [0, {self.n1 + self.n2}]"
            )
        if not (self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    @property
    def dim(self) -> int:
        return int(self.x_sum.size)

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2


def subgaussian_k(sigma: float) -> float:
    """Sub-Gaussian parameter of z - sigma^2 y1: sigma^2 (1/4 + 3/sqrt(8 pi e))."""
    if not (sigma > 0.0):
        raise DomainError(f"sigma must be positive, got {sigma}")
    return sigma * sigma * SUBGAUSSIAN_COEFF


def estimate_q_lower(successes: int, n: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower bound on a binomial proportion.

    The true probability is >= the returned value with probability >= 1-alpha.
    This is the alpha quantile of Beta(s, n - s + 1), computed by
    ``scipy.special.betaincinv``: it wraps Boost's ``ibeta_inv``, the same
    routine behind ``scipy.stats.beta.ppf``, so the value is bit-identical
    without importing ``scipy.stats``.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not (0 <= successes <= n):
        raise DomainError(f"successes {successes} outside [0, {n}]")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if successes == 0:
        return 0.0
    return float(_sp.betaincinv(successes, n - successes + 1, alpha))


def gradient_mean(batch: GradientSampleBatch) -> np.ndarray:
    """Pooled empirical mean of z; unbiased for sigma^2 y1."""
    return (batch.x_sum + batch.y_sum) / batch.n_total


def _check_l2_hypothesis(d: int, alpha: float) -> None:
    floor = 2.0 * math.exp(-d / 16.0)
    if alpha < floor:
        raise HypothesisError(
            f"l2 bound requires alpha >= 2 e^(-d/16) = {floor:.3e} at d = {d}; "
            f"got alpha = {alpha:.3e} (need d >= {16.0 * math.log(2.0 / alpha):.0f})"
        )


def l2_norm_bounds(batch: GradientSampleBatch, alpha: float) -> tuple[float, float]:
    """Bounds on ||sigma^2 y1||_2, each holding with probability >= 1 - alpha.

    Product estimator over the two split means X, Y with per-sample
    sub-Gaussian parameters k/n1 and k/n2:

        t   = sqrt(-sqrt(2) d k^2 log(alpha/2) / (n1 n2))
        A   = -k (n1 + n2) log(alpha/2) / (2 n1 n2)
        up  = sqrt(X.Y + t) / (sqrt(1 + eps_u^2) - eps_u) = sqrt(X.Y + t + A) + sqrt(A)
        low = sqrt(X.Y - t) / (sqrt(1 + eps_l^2) + eps_l) = (X.Y - t) / (sqrt(X.Y - t + A) + sqrt(A))

    with eps^2 = A / (X.Y +- t); the rationalized forms avoid cancellation.
    The lower bound is floored at 0 whenever X.Y <= t.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    _check_l2_hypothesis(batch.dim, alpha)
    k = subgaussian_k(batch.sigma)
    n1, n2, d = batch.n1, batch.n2, batch.dim
    dot = float((batch.x_sum / n1) @ (batch.y_sum / n2))
    log_half_alpha = math.log(alpha / 2.0)
    t = math.sqrt(-math.sqrt(2.0) * d * k * k * log_half_alpha / (n1 * n2))
    a = -k * (n1 + n2) * log_half_alpha / (2.0 * n1 * n2)
    if dot + t <= 0.0:
        return 0.0, math.inf
    upper = math.sqrt(dot + t + a) + math.sqrt(a)
    if dot - t <= 0.0:
        lower = 0.0
    else:
        lower = (dot - t) / (math.sqrt(dot - t + a) + math.sqrt(a))
    return lower, upper


def _pooled_interval(norm_value: float, t: float) -> tuple[float, float]:
    return max(0.0, norm_value - t), norm_value + t


def linf_norm_bounds(batch: GradientSampleBatch, alpha: float) -> tuple[float, float]:
    """Bounds on ||sigma^2 y1||_inf: pooled-mean max-norm +- t_inf.

    t_inf = sqrt(2 k (log 2d - log alpha) / n), a union bound over the 2d
    signed coordinates of the pooled mean; both sides hold jointly with
    probability >= 1 - alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    k = subgaussian_k(batch.sigma)
    n, d = batch.n_total, batch.dim
    t = math.sqrt(2.0 * (k / n) * (math.log(2.0 * d) - math.log(alpha)))
    return _pooled_interval(float(np.max(np.abs(gradient_mean(batch)))), t)


def l1_norm_bounds(batch: GradientSampleBatch, alpha: float) -> tuple[float, float]:
    """Bounds on ||sigma^2 y1||_1: pooled-mean 1-norm +- t_1.

    t_1 = sqrt(2 k d (d log 2 - log alpha) / n) grows like d/sqrt(n), so a
    non-vacuous bound needs Theta(d) samples; dimensions above
    ``L1_DIM_LIMIT`` draw a RuntimeWarning.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if batch.dim > L1_DIM_LIMIT:
        warnings.warn(
            f"l1-norm bound at d = {batch.dim} is likely vacuous "
            f"(sample cost grows linearly with d)",
            RuntimeWarning,
            stacklevel=2,
        )
    k = subgaussian_k(batch.sigma)
    n, d = batch.n_total, batch.dim
    t = math.sqrt(2.0 * (k / n) * d * (d * math.log(2.0) - math.log(alpha)))
    return _pooled_interval(float(np.sum(np.abs(gradient_mean(batch)))), t)


def _masked_batch(batch: GradientSampleBatch, mask: np.ndarray) -> GradientSampleBatch:
    return GradientSampleBatch(
        x_sum=batch.x_sum[mask],
        y_sum=batch.y_sum[mask],
        n1=batch.n1,
        n2=batch.n2,
        success_count=batch.success_count,
        sigma=batch.sigma,
    )


def subspace_norm_bounds(batch: GradientSampleBatch, mask, p,
                         alpha: float) -> tuple[float, float]:
    """Norm bounds for the projected statistic P_S z at effective dimension |S|.

    ``mask`` is a set/sequence of coordinate indices; ``p`` in {1, 2, inf}
    selects the estimator, applied to the masked vectors with d = |mask|.
    """
    idx = np.asarray(sorted(set(int(i) for i in mask)), dtype=int)
    if idx.size == 0:
        raise DomainError("subspace mask must be nonempty")
    if idx.min() < 0 or idx.max() >= batch.dim:
        raise DomainError(
            f"mask indices must lie in [0, {batch.dim - 1}], got "
            f"[{idx.min()}, {idx.max()}]"
        )
    sub = _masked_batch(batch, idx)
    if p == 2:
        return l2_norm_bounds(sub, alpha)
    if p == 1:
        return l1_norm_bounds(sub, alpha)
    if p == math.inf:
        return linf_norm_bounds(sub, alpha)
    raise DomainError(f"p must be 1, 2 or inf, got {p}")


def split_alpha(alpha_total: float, needs_l1: bool = False,
                needs_subspace: bool = False) -> float:
    """Each estimate's alpha under an equal Bonferroni split of ``alpha_total``.

    A run consumes the q, l2 and linf estimates, plus the l1 and subspace
    ones when asked for.
    """
    if not (0.0 < alpha_total < 0.5):
        raise DomainError(f"alpha_total must lie in (0, 0.5), got {alpha_total}")
    return alpha_total / (3 + int(needs_l1) + int(needs_subspace))
