"""Analytic-oracle and Monte-Carlo cross-checks runnable from the CLI.

Each check pits an independently derived value (closed form, re-derived
algebra, or simulation) against the production code path; the suite exists
so a broken build fails loudly without the full test suite.  The checks
take their seeds, grids, sample counts and limits as arguments:
``run_selftests`` passes small ones, and the acceptance suite calls the same
checks with its own.  Worst cases are kept with ``np.maximum``, which keeps
a NaN error where the builtin ``max`` can drop it, so a NaN fails its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from . import certify as cz
from .certify import (DualVariant, FirstOrderStats, GradientNormBounds, LinfMode,
                      SmoothingConfig, ThreatModel)
from .classifiers import (
    LinearClassifierSpec,
    RngSpec,
    analytic_linear_radius,
    analytic_linear_stats,
    batch_for_class,
    mc_worst_case_probability,
    sample_class_sums,
    LinearClassifier,
)
from .estimate import estimate_q_lower, l2_norm_bounds, subgaussian_k, GradientSampleBatch
from .numerics import RESIDUAL_TOLERANCE, std_normal_quantile

__all__ = [
    "CheckResult",
    "run_selftests",
    "table1_l2_oracle",
    "random_halfspace_case",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; ``values`` holds the figures behind ``detail``
    for callers that report them in their own format."""

    passed: bool
    detail: str
    values: dict[str, float] = field(default_factory=dict)


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


def _check_zeroth(sigmas, dim: int, qs, limit: float) -> CheckResult:
    worst = 0.0
    for sigma in sigmas:
        cfg = SmoothingConfig(sigma, dim)
        for q in qs:
            got = cz.zeroth_radius_l2(float(q), cfg)
            # scipy's ndtri directly: zeroth_radius_l2 goes through
            # numerics.std_normal_quantile, the function under test
            want = sigma * float(special.ndtri(float(q)))
            worst = np.maximum(worst, abs(got - want))
    return CheckResult(worst <= limit, f"max |error| = {worst:.2e}",
                       {"worst": worst})


def _check_halfspace(threat: ThreatModel, cases, tol: float,
                     limit: float) -> CheckResult:
    """First-order radius of ``threat`` (l1, l2, or linf through the l1
    bound) from exact gradient-norm bounds, against the exact halfspace
    radius, for each ``random_halfspace_case(seed, dim)`` of ``cases``."""
    worst = 0.0
    # the slight shrink keeps the interval system's sign convention on the
    # solve path (exactly at the boundary it short-circuits)
    s = 1.0 - 1e-6
    for seed, dim in cases:
        spec, x, cfg = random_halfspace_case(seed, dim)
        y0, y1 = analytic_linear_stats(spec, x, cfg)
        l2 = float(np.linalg.norm(y1))
        linf = float(np.max(np.abs(y1)))
        l1 = float(np.sum(np.abs(y1)))
        bounds = GradientNormBounds(l2_lower=l2 * s, l2_upper=l2 * s,
                                    linf_upper=linf * s, l1_upper=l1 * s)
        got = cz.first_order_radius(threat, y0, bounds, cfg, tol,
                                    linf_mode=LinfMode.VIA_L1_BOUND).radius
        want = analytic_linear_radius(spec, x, threat.norm)
        worst = np.maximum(worst, abs(got - want) / want)
    return CheckResult(worst <= limit, f"max relative error = {worst:.2e}",
                       {"worst": worst})


def _check_mc_oracle(cases, n: int, seed: int, limit: float) -> CheckResult:
    """The primal mass of each solved set (``probability_from_dual``)
    against a Monte-Carlo re-run of the same set.  That mass is read off
    the solve's own grid by the sum the radius search bounds with, so the
    check covers the mass code the search runs.  Each case is
    ``(q, m1, m2, r, solve)``, ``solve`` being ``certify.solve_dual`` or
    ``certify._reduced_dual``; case i draws from seed + i."""
    worst = 0.0
    reduced = 0
    for i, (q, m1, m2, r, solve) in enumerate(cases):
        dual = solve(FirstOrderStats(q, m1, m2), r)
        reduced += dual.variant is DualVariant.REDUCED_NO_SLOPE
        p, _ = cz.probability_from_dual(dual)
        est, se = mc_worst_case_probability(dual, r, n, RngSpec(seed + i, 0))
        worst = np.maximum(worst, abs(p - est) / max(se, 1e-12))
    return CheckResult(worst <= limit, f"max |p - mc| = {worst:.2f} stderr",
                       {"worst": worst, "reduced": reduced})


def _threat_path_draws(seed: int, count: int):
    """``count`` (stats, r) pairs drawn from ``seed``: q in (0.51, 0.99),
    magnitude in (0.05, 0.95) M(q) at an angle in (pi/2, pi) from the
    travel direction, and r in [0.005, 3].  Stats with m2 below the dual's
    degeneracy floor are skipped."""
    gen = RngSpec(seed, 0).generator()
    for _ in range(count):
        q = float(gen.uniform(0.51, 0.99))
        mag = float(gen.uniform(0.05, 0.95)) * cz.max_gradient_magnitude(q)
        angle = math.pi * float(gen.uniform(0.5, 1.0))
        r = float(gen.uniform(cz._R_SMOOTH_FLOOR, 3.0))
        stats = FirstOrderStats(q, mag * math.cos(angle), mag * math.sin(angle))
        if stats.m2 >= cz.M2_DEGENERATE:
            yield stats, r


def _check_interval_floor(seed: int, count: int) -> CheckResult:
    """A FULL dual's g is at least the m2 = 0 interval's p, less a slack.

    g (``DualSolution.bound``) is the value radii rest on.  Dropping the m2
    constraint can only lower the minimum, so at any r the dual's p(r) is
    at least p_int(r) = Phi(w1 - r) - Phi(w2 - r) of the
    interval [w2, w1] of the same (q, m1).  A solve leaves residuals up to
    eps = RESIDUAL_TOLERANCE, so its set is the exact worst case for stats
    within eps, whose p_int moves by at most eps (|lam0| + |lam1|):
    lam0 + lam1 x = e^{r x - r^2 / 2} at both endpoints are the interval's
    multipliers.  The stats and r are ``_threat_path_draws(seed, count)``.
    The dual is solved directly; solves that fall back to the reduced dual
    are counted and skipped.
    """
    worst = -math.inf
    full = 0
    for stats, r in _threat_path_draws(seed, count):
        dual = cz.solve_dual(stats, r)
        if dual.variant is not DualVariant.FULL:
            continue
        full += 1
        w2, w1 = cz._solve_interval(stats.q, stats.m1)
        p_int = float(special.ndtr(w1 - r) - special.ndtr(w2 - r))
        ratio = [math.exp(r * w - r * r / 2.0) for w in (w2, w1)]
        lam1 = (ratio[1] - ratio[0]) / (w1 - w2)
        slack = RESIDUAL_TOLERANCE * (abs(ratio[0] - lam1 * w2) + abs(lam1))
        worst = np.maximum(worst, p_int - slack - dual.bound)
    return CheckResult(full > 0 and worst <= 0.0,
                       f"max (p_int - slack - g) = {worst:.2e} over {full} FULL solves",
                       {"worst": worst, "full": full})


# the LP oracle's finite cells reach this far past the normals' means: the
# mass beyond is 1.3e-12, and the outermost cells hold it
_LP_REACH = 7.0


def _lp_cells(r: float, cells: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The worst-case problem at travel r over sets made of grid cells.

    The grid has ``cells`` x ``cells`` cells, uniform in z1 (the travel
    direction) on [-_LP_REACH, r + _LP_REACH] and in z2 on [-_LP_REACH,
    _LP_REACH]; the outermost cells run to infinity.  A set x in [0, 1] per
    cell has p(r) = objective @ x, and rows @ x gives its (q, m1, m2):
    P_0(cell), E_0[z1; cell] and E_0[z2; cell] under N(0, I), and the
    objective is P_r(cell) under N(r e1, I).  Each is exact, a product of
    differences of Phi or phi at the cell edges.  Returns (objective, rows,
    h), h the widest finite cell side.
    """
    def edges(lo: float, hi: float) -> np.ndarray:
        return np.concatenate(([-np.inf], np.linspace(lo, hi, cells - 1), [np.inf]))

    z1, z2 = edges(-_LP_REACH, r + _LP_REACH), edges(-_LP_REACH, _LP_REACH)
    mass1, mass1_r, mass2 = (np.diff(special.ndtr(e)) for e in (z1, z1 - r, z2))
    # E[z; a < z < b] = phi(a) - phi(b), and phi(+-inf) = 0
    moment1, moment2 = (-np.diff(np.exp(-0.5 * e * e)) / math.sqrt(2.0 * math.pi)
                        for e in (z1, z2))
    objective = np.outer(mass1_r, mass2).ravel()
    rows = np.stack([np.outer(mass1, mass2).ravel(), np.outer(moment1, mass2).ravel(),
                     np.outer(mass1, moment2).ravel()])
    return objective, rows, (r + 2.0 * _LP_REACH) / (cells - 2)


def _check_lp_oracle(seed: int, count: int, cells: int, eps: float,
                     grid_constant: float) -> CheckResult:
    """The FULL dual's g against a linear program over cell-wise sets.

    g (``DualSolution.bound``) is the value radii rest on.  ``_lp_cells``
    discretises the worst-case problem; ``linprog`` (HiGHS) minimises
    p_LP = objective @ x over x in [0, 1] with q and m2 as lower bounds and
    m1 as the equality the dual solves.  A cell-wise set is one of the sets
    the dual ranges over, so p_LP can only lie above the true minimum: the
    dual's g must not exceed it by more than ``eps`` (the solvers'
    tolerances).  The cells' loss against the curved boundary is
    second order in the cell side h: it measured at most 0.07 h^2 over 120
    draws at 60, 100 and 150 cells a side, and the gate is
    p_LP - p <= ``grid_constant`` h^2.  The stats and r are
    ``_threat_path_draws(seed, count)``; solves that fall back to the
    reduced dual are skipped.

    m1 as a lower bound, as the estimators give it, is a different problem
    wherever the dual's c1 < 0: there its m1 multiplier is negative, and
    the minimum with m1 as a lower bound lies below the dual's g.
    """
    from scipy.optimize import linprog  # kept out of the entry points' imports

    over = gap = -math.inf
    full = 0
    for stats, r in _threat_path_draws(seed, count):
        dual = cz.solve_dual(stats, r)
        if dual.variant is not DualVariant.FULL:
            continue
        full += 1
        p = dual.bound
        objective, rows, h = _lp_cells(r, cells)
        lp = linprog(objective, A_ub=-rows[[0, 2]], b_ub=[-stats.q, -stats.m2],
                     A_eq=rows[[1]], b_eq=[stats.m1], bounds=(0.0, 1.0),
                     method="highs", options={"primal_feasibility_tolerance": 1e-9,
                                              "dual_feasibility_tolerance": 1e-9})
        if lp.status != 0:
            return CheckResult(False, f"LP at {stats}, r = {r}: {lp.message}")
        over = np.maximum(over, p - lp.fun)
        gap = np.maximum(gap, (lp.fun - p) / (h * h))
    return CheckResult(full > 0 and over <= eps and gap <= grid_constant,
                       f"max (g - p_LP) = {over:.2e}, max (p_LP - g) / h^2 = {gap:.3f} "
                       f"over {full} FULL solves",
                       {"over": over, "gap": gap, "full": full})


def _check_estimator_formulas(cases, seed: int, mean_scale: float,
                              noise_scale: float, limit: float) -> CheckResult:
    """Each case is ``(n1, n2, d, sigma, alpha)``; case i draws from seed + i
    a mean at ``mean_scale``, added n1 and n2 times, then each sum's noise."""
    worst = 0.0
    for i, (n1, n2, d, sigma, alpha) in enumerate(cases):
        gen = RngSpec(seed + i, 0).generator()
        mean = gen.standard_normal(d) * mean_scale
        batch = GradientSampleBatch(
            x_sum=mean * n1 + gen.standard_normal(d) * noise_scale,
            y_sum=mean * n2 + gen.standard_normal(d) * noise_scale,
            n1=n1, n2=n2, success_count=n1 + n2, sigma=sigma,
        )
        got = l2_norm_bounds(batch, alpha)
        dot = float((batch.x_sum / n1) @ (batch.y_sum / n2))
        want = table1_l2_oracle(dot, subgaussian_k(sigma), n1, n2, d, alpha)
        for g, w in zip(got, want):
            if math.isinf(w):
                err = 0.0 if g == w else math.inf
            else:
                err = abs(g - w) / max(abs(w), 1e-12)
            worst = np.maximum(worst, err)
    return CheckResult(worst <= limit, f"max relative mismatch = {worst:.2e}",
                       {"worst": worst})


def _check_clopper_pearson() -> CheckResult:
    checks = [
        abs(estimate_q_lower(1000, 1000, 0.001) - 0.001 ** (1.0 / 1000)) <= 1e-12,
        estimate_q_lower(0, 50, 0.01) == 0.0,
    ]
    got = estimate_q_lower(900, 1000, 0.001)
    checks.append(0.86 < got < 0.90)
    return CheckResult(all(checks), f"q_lb(900/1000, a=1e-3) = {got:.5f}")


def _check_determinism() -> CheckResult:
    spec = LinearClassifierSpec(w=np.array([1.0, -0.5, 0.25]), b=0.1)
    f = LinearClassifier(spec)
    cfg = SmoothingConfig(0.5, 3)
    x = np.array([0.2, 0.0, -0.1])
    # float32, the draws every run takes (RunConfig.sample_dtype)
    a, b = (batch_for_class(sample_class_sums(f, x, cfg, 4096, RngSpec(9, 9),
                                              dtype=np.float32), 0) for _ in range(2))
    same = (np.array_equal(a.x_sum, b.x_sum) and np.array_equal(a.y_sum, b.y_sum)
            and a.success_count == b.success_count)
    return CheckResult(same, "bit-identical batches" if same else "batches differ")


def _check_dominance(qs, sigmas, fracs, dim: int, gap_limit: float,
                     boundary_limit: float) -> CheckResult:
    """Corollary 3: the first-order l2 radius is at least the zeroth-order
    one, and equals it at frac = 1, the largest feasible gradient."""
    worst_gap = -math.inf
    worst_eq = 0.0
    for q in qs:
        big_m = cz.max_gradient_magnitude(q)
        for sigma in sigmas:
            cfg = SmoothingConfig(sigma, dim)
            zeroth = cz.zeroth_radius_l2(q, cfg)
            for frac in fracs:
                first = cz.radius_l2_first(q, frac * big_m / sigma, cfg).radius
                worst_gap = np.maximum(worst_gap, zeroth - first)
                if frac == 1.0:
                    worst_eq = np.maximum(worst_eq, abs(first - zeroth) / zeroth)
    return CheckResult(worst_gap <= gap_limit and worst_eq <= boundary_limit,
                       f"max (zeroth - first) = {worst_gap:.2e}",
                       {"gap": worst_gap, "boundary": worst_eq})


def _check_angular(q: float, mag_frac: float, angles: int) -> CheckResult:
    cfg = SmoothingConfig(1.0, 4)
    mag = mag_frac * cz.max_gradient_magnitude(q)
    radii = []
    for theta in np.linspace(0.0, math.pi, angles):
        stats = FirstOrderStats(q, mag * math.cos(theta), mag * abs(math.sin(theta)))
        radii.append(cz.directional_radius(stats, cfg).radius)
    diffs = [radii[i + 1] - radii[i] for i in range(len(radii) - 1)]
    ok = all(d <= 1e-9 for d in diffs)
    return CheckResult(ok, f"radii = {[round(r, 4) for r in radii]}")


def run_selftests(quick: bool = False) -> list[tuple[str, CheckResult]]:
    """Run the checks in a fixed order; return (name, result) pairs."""
    mc_cases = [
        (0.9, 0.0, 0.08, 0.3, cz.solve_dual),
        (0.8, 0.05, 0.1, 0.4, cz.solve_dual),
        (0.75, -0.1, 0.15, 0.6, cz.solve_dual),
        (0.9, 0.0, 0.08, 0.3, cz._reduced_dual),
    ]
    checks: list[tuple[str, Callable[[], CheckResult]]] = [
        ("zeroth_closed_form", lambda: _check_zeroth(
            sigmas=(0.12, 0.25, 0.5, 1.0), dim=3, qs=np.linspace(0.51, 0.995, 13),
            limit=1e-9)),
        ("halfspace_l2_exactness", lambda: _check_halfspace(
            ThreatModel.L2, cases=[(1, 4), (2, 4), (3, 4)], tol=1e-6, limit=0.02)),
        ("halfspace_l1_exactness", lambda: _check_halfspace(
            ThreatModel.L1, cases=[(4, 4), (5, 4)], tol=1e-4, limit=0.05)),
        ("clopper_pearson", _check_clopper_pearson),
        ("table1_constants", lambda: _check_estimator_formulas(
            [(1000, 1000, 200, 1.0, 0.01), (5000, 4000, 400, 0.5, 0.001),
             (200, 300, 300, 0.25, 0.05)],
            seed=50, mean_scale=0.01, noise_scale=0.05, limit=1e-9)),
        ("sampling_determinism", _check_determinism),
        ("mc_oracle_agreement", lambda: _check_mc_oracle(
            mc_cases, n=100_000 if quick else 1_000_000, seed=100, limit=4.0)),
    ]
    if not quick:
        checks += [
            ("halfspace_linf_exactness", lambda: _check_halfspace(
                ThreatModel.LINF, cases=[(6, 4), (7, 4)], tol=1e-4, limit=0.05)),
            ("l2_dominance", lambda: _check_dominance(
                qs=(0.6, 0.75, 0.9, 0.99), sigmas=(0.5,), fracs=(0.25, 0.5, 0.75, 1.0),
                dim=8, gap_limit=1e-6, boundary_limit=math.inf)),
            ("angular_monotonicity", lambda: _check_angular(0.85, mag_frac=0.8, angles=5)),
            ("interval_floor", lambda: _check_interval_floor(seed=200, count=20)),
            ("lp_oracle", lambda: _check_lp_oracle(
                seed=300, count=8, cells=100, eps=1e-7, grid_constant=0.25)),
        ]
    results = []
    for name, check in checks:
        try:
            results.append((name, check()))
        except Exception as err:  # a crash is a failed check, not a crash
            results.append((name, CheckResult(False, f"{type(err).__name__}: {err}")))
    return results
