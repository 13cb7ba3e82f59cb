"""Black-box classifiers, Gaussian label sampling, and validation oracles.

The synthetic classifiers are deterministic functions of their parameters;
the binary linear classifier doubles as an exact oracle, since both its
smoothed statistics and its certified radii have closed forms (the
certified region of a smoothed linear classifier is the halfspace itself,
so every lp radius is margin over the dual norm of the weights).

Sampling uses a counter-based generator keyed by (seed, stream_id): any
worker that owns a stream reproduces the identical draw sequence.  A pass
draws each of its two halves from its own sub-stream of that key, each
starting at its own Philox counter offset, and samples both on one shared
thread pool of ``os.cpu_count()`` threads; each half's counts and sums come
from one sub-stream, so the output does not depend on the thread count.
Each sub-stream draws in chunks of a fixed element budget into buffers
reused across chunks and adds each chunk's noise to its class sums with
one one-hot matmul; the draws and labels do not depend on the chunk size.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .certify import DUAL_EXPONENT, DualSolution, SmoothingConfig
from .estimate import GradientSampleBatch
from .numerics import DomainError, std_normal_cdf, std_normal_pdf

__all__ = [
    "RngSpec",
    "BlackBoxClassifier",
    "LinearClassifierSpec",
    "LinearClassifier",
    "SlabClassifier",
    "UnionOfHalfspacesClassifier",
    "SphereClassifier",
    "make_synthetic",
    "ClassConditionalSums",
    "sample_class_sums",
    "batch_for_class",
    "analytic_linear_stats",
    "analytic_linear_radius",
    "mc_worst_case_probability",
]

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngSpec:
    """Counter-based RNG key; same (seed, stream_id) -> identical draws.

    Sub-stream k starts at Philox counter ``[0, 0, 0, k]``, 2^192 blocks past
    sub-stream k - 1, so sub-streams never overlap; sub-stream 0 is the
    plain stream of the key.
    """

    seed: int
    stream_id: int = 0
    substream: int = 0

    def generator(self) -> np.random.Generator:
        # as uint64 arrays: numpy reads a list holding a word >= 2^63 next to
        # a smaller one as float64, which rounds the word (2^64 - 1 to 0)
        key = np.array([self.seed & _U64, self.stream_id & _U64], dtype=np.uint64)
        counter = np.array([0, 0, 0, self.substream & _U64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))


class BlackBoxClassifier:
    """Hard-label classifier: only class labels are observable.

    ``classify_batch`` must be thread-safe: sampling always runs on the
    shared sampler pool, so several calls may run at once, even in a
    serial ``run_points``.
    """

    num_classes: int = 2

    def classify_batch(self, points: np.ndarray) -> np.ndarray:
        """Labels for an (n, d) array of points."""
        raise NotImplementedError

    def classify(self, point) -> int:
        return int(self.classify_batch(np.atleast_2d(np.asarray(point, dtype=float)))[0])


@dataclass(frozen=True)
class LinearClassifierSpec:
    """Binary linear classifier f(x) = 1 iff w.x + b <= 0."""

    w: np.ndarray
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.w.ndim != 1 or float(np.linalg.norm(self.w)) == 0.0:
            raise DomainError("w must be a 1-D vector with positive norm")


class LinearClassifier(BlackBoxClassifier):
    def __init__(self, spec: LinearClassifierSpec):
        self.spec = spec

    def classify_batch(self, points: np.ndarray) -> np.ndarray:
        margin = points @ self.spec.w + self.spec.b
        return (margin <= 0.0).astype(np.int64)


class SlabClassifier(BlackBoxClassifier):
    """Class 1 inside lo <= x[axis] <= hi, class 0 outside."""

    def __init__(self, axis: int, lo: float, hi: float):
        if not (lo < hi):
            raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
        if axis < 0:
            raise DomainError("axis must be nonnegative")
        self.axis = axis
        self.lo = lo
        self.hi = hi

    def classify_batch(self, points: np.ndarray) -> np.ndarray:
        coord = points[:, self.axis]
        return ((coord >= self.lo) & (coord <= self.hi)).astype(np.int64)


class UnionOfHalfspacesClassifier(BlackBoxClassifier):
    """Class 1 iff any w_i . x + b_i <= 0."""

    def __init__(self, ws: Sequence[Sequence[float]], bs: Sequence[float]):
        self.ws = np.asarray(ws, dtype=float)
        self.bs = np.asarray(bs, dtype=float)
        if self.ws.ndim != 2 or self.ws.shape[0] != self.bs.size or self.ws.shape[0] < 1:
            raise DomainError("need matching nonempty lists of weights and offsets")

    def classify_batch(self, points: np.ndarray) -> np.ndarray:
        margins = points @ self.ws.T + self.bs
        return np.any(margins <= 0.0, axis=1).astype(np.int64)


class SphereClassifier(BlackBoxClassifier):
    """Class 1 strictly inside the sphere; radius 0 is the constant class 0."""

    def __init__(self, center: Sequence[float], radius: float):
        if radius < 0.0:
            raise DomainError(f"radius must be nonnegative, got {radius}")
        self.center = np.asarray(center, dtype=float)
        self.radius = radius

    def classify_batch(self, points: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(points - self.center, axis=1)
        return (dist < self.radius).astype(np.int64)


def make_synthetic(kind: str, params: dict) -> BlackBoxClassifier:
    """Build a synthetic classifier from a declarative spec."""
    try:
        if kind == "linear":
            return LinearClassifier(LinearClassifierSpec(
                w=np.asarray(params["w"], dtype=float), b=float(params.get("b", 0.0))
            ))
        if kind == "slab_interval":
            return SlabClassifier(int(params["axis"]), float(params["lo"]),
                                  float(params["hi"]))
        if kind == "union_of_halfspaces":
            return UnionOfHalfspacesClassifier(params["ws"], params["bs"])
        if kind == "sphere_interior":
            return SphereClassifier(params["center"], float(params["radius"]))
    except KeyError as missing:
        raise DomainError(f"missing parameter {missing} for classifier kind {kind!r}")
    raise DomainError(f"unknown classifier kind {kind!r}")


@dataclass
class ClassConditionalSums:
    """Per-class noise sums from one sampling pass, split into two halves.

    Enough to reconstruct the gradient-statistic batch for any class c:
    z = w (1[label = c] - 1/2), so
    sum z = class_w_sum[c] - (sum over classes k of class_w_sum[k]) / 2.
    The draws n1 and n2 of the halves are their count totals, since
    ``sample_class_sums`` rejects labels outside the classes.
    """

    counts: np.ndarray       # (2, num_classes)
    class_w_sum: np.ndarray  # (2, num_classes, d)
    sigma: float

    @property
    def n1(self) -> int:
        return int(self.counts[0].sum())

    @property
    def n2(self) -> int:
        return int(self.counts[1].sum())

    @property
    def total_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def majority_class(self) -> int:
        # ties break toward the smaller class index
        return int(np.argmax(self.total_counts))


# Elements per sampling chunk: a chunk holds max(1, budget // d) rows, so its
# float32 draws, their float64 copy and the points take 1.25 MB at any d and
# stay in a core's 2 MB L2 cache.  1 << 16 is 431 rows at d = 152 and 21 rows
# at d = 3072.  Measured on 2 cores, budgets from 1 << 15 to 1 << 18 sampled a
# point equally fast to within noise, with 1 << 16 fastest at its best runs.
# At 1 << 19 (170 rows at d = 3072) the (C, rows) @ (rows, d) class-sum
# product crosses OpenBLAS's threading threshold: two pool threads running
# two BLAS threads each then took 0.75 s per d = 3072 point instead of 0.36.
# That product runs on the sampler threads: at most os.cpu_count() of them
# run at once, whatever run_points' jobs, but above the threshold each would
# still start BLAS threads of its own.
_CHUNK_ELEMENTS = 1 << 16

# The sampler pool, shared by every pass: a pass submits one task per half,
# each drawing from its own sub-stream.  At d = 152 and 200k float32 draws
# on 2 cores, a point took 0.36-0.40 s (median of 18) with 2, 4 or 8
# sub-streams per pass, against 0.59 s for one serial stream.
def _new_pool() -> None:
    # also run in a forked child, which inherits the pool but none of its
    # threads: work handed to the inherited pool would never run
    global _pool
    _pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1,
                               thread_name_prefix="smoothcert-sampler")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def _sample_substream(f: BlackBoxClassifier, x: np.ndarray, sigma, n: int,
                      rows: int, rng: RngSpec, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Class counts (C,) and noise sums (C, d) of n draws from one sub-stream."""
    num_classes = f.num_classes
    d = x.size
    counts = np.zeros(num_classes, dtype=np.int64)
    class_w_sum = np.zeros((num_classes, d), dtype=float)
    classes = np.arange(num_classes)[:, None]
    w_buf = np.empty((rows, d), dtype=dtype)
    w64_buf = w_buf if dtype == np.float64 else np.empty((rows, d), dtype=np.float64)
    pts_buf = np.empty((rows, d), dtype=np.float64)
    gen = rng.generator()
    drawn = 0
    while drawn < n:
        m = min(rows, n - drawn)
        w, w64, pts = w_buf[:m], w64_buf[:m], pts_buf[:m]
        gen.standard_normal(out=w, dtype=dtype)
        w *= sigma
        if w64_buf is not w_buf:
            np.copyto(w64, w)
        np.add(x, w64, out=pts)
        onehot = f.classify_batch(pts) == classes
        counts += onehot.sum(axis=1)
        class_w_sum += onehot.astype(np.float64) @ w64
        drawn += m
    return counts, class_w_sum


def sample_class_sums(f: BlackBoxClassifier, x, cfg: SmoothingConfig, n: int,
                      rng: RngSpec, dtype=np.float64) -> ClassConditionalSums:
    """One pass of n Gaussian perturbations, accumulated per class and split.

    The first n1 = ceil(n / 2) draws come from sub-stream 0 of ``rng`` and
    the other n2 from sub-stream 1, each from the start of its stream.  The
    two run on the shared sampler pool, so the result is the same for any
    thread count.  A sub-stream draws max(1, _CHUNK_ELEMENTS // d) rows at
    a time.  The draws, the labels and the counts do not depend on that
    chunk size; the sums depend on it only through their summation order.
    If the classifier raises, the error of the first half that failed is
    raised once both halves have finished.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != cfg.dim:
        raise DomainError(f"point must be a vector of length {cfg.dim}")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    n1 = (n + 1) // 2
    num_classes = f.num_classes
    rows = max(1, _CHUNK_ELEMENTS // cfg.dim)
    futures = [
        _pool.submit(_sample_substream, f, x, dtype(cfg.sigma), n_h, min(rows, n_h),
                     replace(rng, substream=h), dtype)
        for h, n_h in enumerate((n1, n - n1))
    ]
    wait(futures)
    counts = np.zeros((2, num_classes), dtype=np.int64)
    class_w_sum = np.zeros((2, num_classes, cfg.dim), dtype=float)
    for h, future in enumerate(futures):
        counts[h], class_w_sum[h] = future.result()
    # a label outside [0, num_classes) matches no one-hot row and would drop
    # its draw from every count and sum
    if int(counts.sum()) != n:
        raise DomainError(f"classifier returned labels outside [0, {num_classes - 1}]")
    return ClassConditionalSums(counts, class_w_sum, cfg.sigma)


def batch_for_class(sums: ClassConditionalSums, c: int) -> GradientSampleBatch:
    """Gradient-statistic batch for class c from a sampling pass."""
    if not (0 <= c < sums.counts.shape[1]):
        raise DomainError(f"class {c} outside [0, {sums.counts.shape[1] - 1}]")
    half_total = 0.5 * sums.class_w_sum.sum(axis=1)
    return GradientSampleBatch(
        x_sum=sums.class_w_sum[0, c] - half_total[0],
        y_sum=sums.class_w_sum[1, c] - half_total[1],
        n1=sums.n1,
        n2=sums.n2,
        success_count=int(sums.counts[0, c] + sums.counts[1, c]),
        sigma=sums.sigma,
    )


def analytic_linear_stats(spec: LinearClassifierSpec, x,
                          cfg: SmoothingConfig) -> tuple[float, np.ndarray]:
    """Exact smoothed probability and gradient of the predicted class.

    y0 = Phi(|margin| / (sigma ||w||)); the gradient points along w,
    oriented toward the predicted class, with magnitude phi(.) / sigma.
    """
    x = np.asarray(x, dtype=float)
    margin = float(spec.w @ x + spec.b)
    norm = float(np.linalg.norm(spec.w))
    z = abs(margin) / (cfg.sigma * norm)
    y0 = float(std_normal_cdf(z))
    # predicted class is 1 on the margin <= 0 side; its probability grows
    # in the -w direction there, and in the +w direction on the other side
    orient = 1.0 if margin > 0.0 else -1.0
    y1 = (float(std_normal_pdf(z)) / cfg.sigma) * orient * spec.w / norm
    return y0, y1


def analytic_linear_radius(spec: LinearClassifierSpec, x, p,
                           mask: Optional[Sequence[int]] = None,
                           cap: Optional[float] = None) -> float:
    """Exact lp radius of the halfspace: margin over the dual norm of w.

    ``mask`` restricts perturbations to those coordinates; a zero masked
    projection with positive margin means the region is unbounded within
    the subspace, reported as ``cap`` (or +inf when no cap is given).
    """
    if p not in DUAL_EXPONENT:
        raise DomainError(f"p must be 1, 2 or inf, got {p}")
    x = np.asarray(x, dtype=float)
    margin = abs(float(spec.w @ x + spec.b))
    if margin <= 0.0:
        raise DomainError("point lies on the decision boundary")
    w = spec.w
    if mask is not None:
        proj = np.zeros_like(w)
        idx = np.asarray(sorted(set(int(i) for i in mask)), dtype=int)
        proj[idx] = w[idx]
        w = proj
    dual = float(np.linalg.norm(w, ord=DUAL_EXPONENT[p]))
    if dual == 0.0:
        return cap if cap is not None else math.inf
    return margin / dual


def mc_worst_case_probability(dual: DualSolution, r: float, n: int,
                              rng: RngSpec) -> tuple[float, float]:
    """Monte-Carlo estimate of the worst-case set's mass at center (r, 0).

    The worst-case set {e^{r z1} <= a1 z1 + a2 z2 + b} is, since a2 > 0,
    exactly {z2 >= -c(z1)}, which stays finite in the a2 -> infinity
    (c2 -> 0) limit.
    """
    if n < 1:
        raise DomainError(f"need at least one draw, got {n}")
    z = rng.generator().standard_normal((n, 2))
    z1 = z[:, 0] + r
    t = np.minimum(math.log(-dual.c2) + dual.travel_scale * z1, 700.0)
    c_z1 = np.clip(dual.c0 + dual.c1 * z1 - np.exp(t), -1e300, 1e300)
    hits = z[:, 1] >= -c_z1
    estimate = float(np.mean(hits))
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / n)
    return estimate, stderr
