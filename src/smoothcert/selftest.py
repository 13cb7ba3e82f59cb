"""Analytic-oracle and Monte-Carlo cross-checks runnable from the CLI.

Each check pits an independently derived value (closed form, re-derived
algebra, or simulation) against the production code path; the suite exists
so a broken build fails loudly without the full test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import certify as cz
from .certify import DualVariant, FirstOrderStats, SmoothingConfig
from .classifiers import (
    LinearClassifierSpec,
    RngSpec,
    analytic_linear_radius,
    analytic_linear_stats,
    mc_worst_case_probability,
    sample_statistics,
    LinearClassifier,
)
from .estimate import estimate_q_lower, l2_norm_bounds, subgaussian_k, GradientSampleBatch
from .numerics import std_normal_quantile

__all__ = [
    "CheckResult",
    "run_selftests",
    "table1_l2_oracle",
    "random_halfspace_case",
    "shrunk_halfspace_stats",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def table1_l2_oracle(dot: float, k: float, n1: int, n2: int, d: int,
                     alpha: float) -> tuple[float, float]:
    """Verbatim Table-1 algebra for the l2 product estimator.

    Independent of the closed forms in ``estimate.l2_norm_bounds``: returns
    (lower, upper) bounds on ||sigma^2 y1|| from the split-sample dot product.
    """
    log_half = math.log(alpha / 2.0)
    t = math.sqrt(-(k ** 2) * math.sqrt(2.0) * d / (n1 * n2) * log_half)
    if dot + t <= 0.0:
        return 0.0, math.inf
    eps_u = math.sqrt(-k * (n1 + n2) * log_half / (2.0 * n1 * n2 * (dot + t)))
    upper = math.sqrt(dot + t) / (math.sqrt(1.0 + eps_u ** 2) - eps_u)
    if dot - t <= 0.0:
        return 0.0, upper
    eps_l = math.sqrt(-k * (n1 + n2) * log_half / (2.0 * n1 * n2 * (dot - t)))
    lower = math.sqrt(dot - t) / (math.sqrt(1.0 + eps_l ** 2) + eps_l)
    return lower, upper


def random_halfspace_case(seed: int, dim: int
                          ) -> tuple[LinearClassifierSpec, np.ndarray, SmoothingConfig]:
    """Random linear classifier and a point whose smoothed probability is known.

    sigma is drawn from (0.2, 1.0) and the point placed so that the smoothed
    top-class probability is a draw from (0.62, 0.93).
    """
    gen = RngSpec(seed, 0).generator()
    w = gen.standard_normal(dim)
    sigma = float(gen.uniform(0.2, 1.0))
    q_target = float(gen.uniform(0.62, 0.93))
    w_norm = float(np.linalg.norm(w))
    margin = sigma * w_norm * float(std_normal_quantile(q_target))
    x = margin * w / (w_norm * w_norm)
    return LinearClassifierSpec(w=w, b=0.0), x, SmoothingConfig(sigma, dim)


def shrunk_halfspace_stats(spec: LinearClassifierSpec, x: np.ndarray,
                           cfg: SmoothingConfig, kind: str) -> FirstOrderStats:
    """Exact first-order stats along the worst ``kind`` direction ("l1", "l2"
    or "linf"), shrunk by 1e-6 so the solver stays off the boundary.
    """
    y0, y1 = analytic_linear_stats(spec, x, cfg)
    l2 = float(np.linalg.norm(y1))
    linf = float(np.max(np.abs(y1)))
    l1 = float(np.sum(np.abs(y1)))
    s = 1.0 - 1e-6
    sigma = cfg.sigma
    if kind == "l2":
        return FirstOrderStats(y0, -sigma * l2 * s, 0.0)
    if kind == "l1":
        m1 = -sigma * linf * s
        m2 = sigma * math.sqrt(max(0.0, l2 * l2 - linf * linf)) * s
        return FirstOrderStats(y0, m1, m2)
    if kind == "linf":
        root_d = math.sqrt(cfg.dim)
        m1 = -(sigma / root_d) * l1 * s
        m2 = (sigma / root_d) * math.sqrt(max(0.0, cfg.dim * l2 * l2 - l1 * l1)) * s
        return FirstOrderStats(y0, m1, m2)
    raise ValueError(kind)


def _check_zeroth() -> CheckResult:
    worst = 0.0
    for sigma in (0.12, 0.25, 0.5, 1.0):
        cfg = SmoothingConfig(sigma, 3)
        for q in np.linspace(0.51, 0.995, 13):
            got = cz.zeroth_radius_l2(float(q), cfg)
            want = sigma * float(std_normal_quantile(float(q)))
            worst = max(worst, abs(got - want))
    return CheckResult("zeroth_closed_form", worst <= 1e-9,
                       f"max |error| = {worst:.2e}")


def _check_halfspace_l2() -> CheckResult:
    worst = 0.0
    for seed in (1, 2, 3):
        spec, x, cfg = random_halfspace_case(seed, 4)
        y0, y1 = analytic_linear_stats(spec, x, cfg)
        # the slight shrink keeps the interval system's sign convention on
        # the solve path (exactly at the boundary it short-circuits)
        bound = float(np.linalg.norm(y1)) * (1.0 - 1e-6)
        got = cz.radius_l2_first(y0, bound, cfg).radius
        want = analytic_linear_radius(spec, x, 2)
        worst = max(worst, abs(got - want) / want)
    return CheckResult("halfspace_l2_exactness", worst <= 0.02,
                       f"max relative error = {worst:.2e}")


def _check_halfspace_l1() -> CheckResult:
    worst = 0.0
    for seed in (4, 5):
        spec, x, cfg = random_halfspace_case(seed, 4)
        stats = shrunk_halfspace_stats(spec, x, cfg, "l1")
        got = cz.directional_radius(stats, cfg).radius
        want = analytic_linear_radius(spec, x, 1)
        worst = max(worst, abs(got - want) / want)
    return CheckResult("halfspace_l1_exactness", worst <= 0.05,
                       f"max relative error = {worst:.2e}")


def _check_halfspace_linf() -> CheckResult:
    worst = 0.0
    for seed in (6, 7):
        spec, x, cfg = random_halfspace_case(seed, 4)
        stats = shrunk_halfspace_stats(spec, x, cfg, "linf")
        got = cz.directional_radius(stats, cfg).radius / math.sqrt(cfg.dim)
        want = analytic_linear_radius(spec, x, math.inf)
        worst = max(worst, abs(got - want) / want)
    return CheckResult("halfspace_linf_exactness", worst <= 0.05,
                       f"max relative error = {worst:.2e}")


def _check_mc_oracle(n: int) -> CheckResult:
    tuples = [
        (0.9, 0.0, 0.08, 0.3, None),
        (0.8, 0.05, 0.1, 0.4, None),
        (0.75, -0.1, 0.15, 0.6, None),
        (0.9, 0.0, 0.08, 0.3, DualVariant.REDUCED_NO_SLOPE),
        (0.9, -0.12, 0.0, 0.7, None),  # interval variant
    ]
    worst = 0.0
    for i, (q, m1, m2, r, force) in enumerate(tuples):
        dual = cz.solve_dual(FirstOrderStats(q, m1, m2), r, force_variant=force)
        p = cz.probability_from_dual(dual)
        est, se = mc_worst_case_probability(dual, r, n, RngSpec(100 + i, 0))
        worst = max(worst, abs(p - est) / max(se, 1e-12))
    return CheckResult("mc_oracle_agreement", worst <= 4.0,
                       f"max |p - mc| = {worst:.2f} stderr")


def _check_estimator_formulas() -> CheckResult:
    worst = 0.0
    for seed, (n1, n2, d, sigma, alpha) in enumerate(
        [(1000, 1000, 200, 1.0, 0.01), (5000, 4000, 400, 0.5, 0.001),
         (200, 300, 300, 0.25, 0.05)]
    ):
        gen = RngSpec(50 + seed, 0).generator()
        mean = gen.standard_normal(d) * 0.01
        batch = GradientSampleBatch(
            x_sum=mean * n1 + gen.standard_normal(d) * 0.05,
            y_sum=mean * n2 + gen.standard_normal(d) * 0.05,
            n1=n1, n2=n2, success_count=n1 + n2, sigma=sigma,
        )
        got = l2_norm_bounds(batch, alpha)
        dot = float((batch.x_sum / n1) @ (batch.y_sum / n2))
        want = table1_l2_oracle(dot, subgaussian_k(sigma), n1, n2, d, alpha)
        for g, w in zip(got, want):
            if math.isinf(g) and math.isinf(w):
                continue
            worst = max(worst, abs(g - w) / max(abs(w), 1e-12))
    return CheckResult("table1_constants", worst <= 1e-9,
                       f"max relative mismatch = {worst:.2e}")


def _check_clopper_pearson() -> CheckResult:
    checks = [
        abs(estimate_q_lower(1000, 1000, 0.001) - 0.001 ** (1.0 / 1000)) <= 1e-12,
        estimate_q_lower(0, 50, 0.01) == 0.0,
    ]
    got = estimate_q_lower(900, 1000, 0.001)
    checks.append(0.86 < got < 0.90)
    return CheckResult("clopper_pearson", all(checks),
                       f"q_lb(900/1000, a=1e-3) = {got:.5f}")


def _check_determinism() -> CheckResult:
    spec = LinearClassifierSpec(w=np.array([1.0, -0.5, 0.25]), b=0.1)
    f = LinearClassifier(spec)
    cfg = SmoothingConfig(0.5, 3)
    x = np.array([0.2, 0.0, -0.1])
    a = sample_statistics(f, x, 0, cfg, 4096, RngSpec(9, 9))
    b = sample_statistics(f, x, 0, cfg, 4096, RngSpec(9, 9))
    same = (np.array_equal(a.x_sum, b.x_sum) and np.array_equal(a.y_sum, b.y_sum)
            and a.success_count == b.success_count)
    return CheckResult("sampling_determinism", same,
                       "bit-identical batches" if same else "batches differ")


def _check_dominance() -> CheckResult:
    worst = -math.inf
    for q in (0.6, 0.75, 0.9, 0.99):
        cfg = SmoothingConfig(0.5, 8)
        big_m = cz.max_gradient_magnitude(q)
        for frac in (0.25, 0.5, 0.75, 1.0):
            first = cz.radius_l2_first(q, frac * big_m / cfg.sigma, cfg).radius
            worst = max(worst, cz.zeroth_radius_l2(q, cfg) - first)
    return CheckResult("l2_dominance", worst <= 1e-6,
                       f"max (zeroth - first) = {worst:.2e}")


def _check_angular() -> CheckResult:
    cfg = SmoothingConfig(1.0, 4)
    q, mag = 0.85, 0.8 * cz.max_gradient_magnitude(0.85)
    radii = []
    for theta in np.linspace(0.0, math.pi, 5):
        stats = FirstOrderStats(q, mag * math.cos(theta), mag * abs(math.sin(theta)))
        radii.append(cz.directional_radius(stats, cfg).radius)
    diffs = [radii[i + 1] - radii[i] for i in range(len(radii) - 1)]
    ok = all(d <= 1e-9 for d in diffs)
    return CheckResult("angular_monotonicity", ok,
                       f"radii = {[round(r, 4) for r in radii]}")


def run_selftests(quick: bool = False) -> list[CheckResult]:
    checks: list[Callable[[], CheckResult]] = [
        _check_zeroth,
        _check_halfspace_l2,
        _check_halfspace_l1,
        _check_clopper_pearson,
        _check_estimator_formulas,
        _check_determinism,
        lambda: _check_mc_oracle(100_000),
    ]
    if not quick:
        checks += [
            _check_halfspace_linf,
            lambda: _check_mc_oracle(1_000_000),
            _check_dominance,
            _check_angular,
        ]
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as err:  # a crash is a failed check, not a crash
            name = getattr(check, "__name__", "mc_oracle_agreement")
            results.append(CheckResult(name.lstrip("_"), False,
                                       f"{type(err).__name__}: {err}"))
    return results
