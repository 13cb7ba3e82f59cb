"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2, 4, 5 and 8 call the ``smoothcert.selftest`` checks
``_check_zeroth``, ``_check_halfspace``, ``_check_dominance``,
``_check_mc_oracle`` and ``_check_estimator_formulas`` with their own seeds,
grids, sample counts and limits; ``smoothcert selftest`` runs the same
checks with smaller ones.

Criterion 8 checks the sub-Gaussian constant k(sigma) = sigma^2 (1/4 +
3/sqrt(8 pi e)) against the 40-digit reference ``helpers.SUBGAUSSIAN_K_1``
to within 1e-12, at each sigma its Table-1 check uses.
"""

import math
import time

import numpy as np

from smoothcert.certify import (
    FirstOrderStats,
    GradientNormBounds,
    SmoothingConfig,
    ThreatModel,
    _reduced_dual,
    directional_radius,
    lower_bound_probability,
    max_gradient_magnitude,
    radius_l1_first,
    solve_dual,
    zeroth_radius_l2,
)
from smoothcert.classifiers import (
    LinearClassifier,
    LinearClassifierSpec,
    RngSpec,
    analytic_linear_radius,
    analytic_linear_stats,
    batch_for_class,
    sample_class_sums,
)
from smoothcert.estimate import (
    estimate_q_lower,
    l2_norm_bounds,
    linf_norm_bounds,
    subgaussian_k,
)
from smoothcert.pipeline import (
    RunConfig,
    accuracy_curves,
    persist_run,
    run_points,
)
from smoothcert.selftest import (
    _check_dominance,
    _check_estimator_formulas,
    _check_halfspace,
    _check_mc_oracle,
    _check_zeroth,
)
from smoothcert.workloads import make_linear_workload

from helpers import SUBGAUSSIAN_K_1, quantile


def report(criterion: str, passed: bool, detail: str, started: float) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {mark} ({detail}; {time.time() - started:.1f}s)")


def test_criterion_1_zeroth_closed_form():
    t0 = time.time()
    res = _check_zeroth(sigmas=(0.12, 0.25, 0.5, 1.0), dim=8,
                        qs=np.linspace(0.5 + 1e-4, 0.999, 50), limit=1e-9)
    report("1 zeroth closed form", res.passed,
           f"max |err| = {res.values['worst']:.2e}", t0)
    assert res.passed


def test_criterion_2_halfspace_exactness():
    t0 = time.time()
    cases = [(100 + seed, (2, 4, 16)[seed % 3]) for seed in range(10)]
    l2 = _check_halfspace(ThreatModel.L2, cases, tol=1e-6, limit=0.02)
    l1 = _check_halfspace(ThreatModel.L1, cases, tol=5e-4, limit=0.05)
    linf = _check_halfspace(ThreatModel.LINF, cases, tol=5e-4, limit=0.05)
    passed = l2.passed and l1.passed and linf.passed
    report("2 halfspace exactness", passed,
           f"rel err l2 {l2.values['worst']:.1e}, l1 {l1.values['worst']:.1e}, "
           f"linf {linf.values['worst']:.1e}", t0)
    assert passed


def test_criterion_3_l1_gain():
    t0 = time.time()
    cfg = SmoothingConfig(1.0, 4)
    spec = LinearClassifierSpec(w=np.full(4, 0.5), b=0.0)
    x = np.full(4, 0.5)  # margin 1
    y0, y1 = analytic_linear_stats(spec, x, cfg)
    s = 1.0 - 1e-6
    l2 = float(np.linalg.norm(y1))
    linf = float(np.max(np.abs(y1)))
    bounds = GradientNormBounds(l2_lower=l2 * s, l2_upper=l2 * s,
                                linf_upper=linf * s)
    first = radius_l1_first(y0, bounds, cfg, tol=5e-4).radius
    zeroth = zeroth_radius_l2(y0, cfg)  # the zeroth l1 radius equals the l2 one
    ratio = first / zeroth
    passed = ratio >= 1.5
    report("3 l1 gain", passed, f"first/zeroth = {ratio:.3f} (analytic 2.0)", t0)
    assert passed


def test_criterion_4_corollary3_dominance():
    t0 = time.time()
    res = _check_dominance(qs=(0.6, 0.75, 0.9, 0.99), sigmas=(0.25, 1.0),
                           fracs=(0.25, 0.5, 0.75, 1.0), dim=8, gap_limit=1e-6,
                           boundary_limit=0.01)
    report("4 corollary-3 dominance", res.passed,
           f"max zeroth-first = {res.values['gap']:.2e}, "
           f"boundary rel dev = {res.values['boundary']:.2e}", t0)
    assert res.passed


def test_criterion_5_mc_oracle_equivalence():
    t0 = time.time()
    gen = RngSpec(5150, 0).generator()
    cases = []
    for _ in range(20):
        q = float(gen.uniform(0.55, 0.99))
        mag = float(gen.uniform(0.15, 0.95)) * max_gradient_magnitude(q)
        theta = float(gen.uniform(0.0, math.pi))
        r = float(gen.uniform(0.1, 3.0))
        cases.append((q, mag * math.cos(theta), mag * math.sin(theta), r, solve_dual))
    for i in range(3):  # the fallback path, exercised explicitly
        q = 0.7 + 0.08 * i
        mag = 0.5 * max_gradient_magnitude(q)
        cases.append((q, 0.3 * mag, 0.8 * mag, 0.5 + 0.4 * i, _reduced_dual))
    res = _check_mc_oracle(cases, n=1_000_000, seed=6000, limit=3.0)
    n_reduced = res.values["reduced"]
    passed = res.passed and n_reduced >= 3 and len(cases) >= 20
    report("5 MC oracle equivalence", passed,
           f"max dev = {res.values['worst']:.2f} stderr over {len(cases)} tuples "
           f"({n_reduced} reduced)", t0)
    assert passed


def test_criterion_6_propositions_1_and_2():
    t0 = time.time()
    violations = 0
    configs = [(0.8, 0.6), (0.9, 0.85)]
    angles = np.linspace(0.0, math.pi, 9)
    for q, mag_frac in configs:
        cfg = SmoothingConfig(1.0, 4)
        mag = mag_frac * max_gradient_magnitude(q)

        def stats_at(theta: float) -> FirstOrderStats:
            return FirstOrderStats(q, mag * math.cos(theta),
                                   mag * abs(math.sin(theta)))

        # Proposition 2: directional radius non-increasing in the angle
        radii = [directional_radius(stats_at(t), cfg, tol=5e-4).radius
                 for t in angles]
        violations += sum(1 for a, b in zip(radii, radii[1:]) if b - a > 1e-9)

        # Proposition 1: midpoints of certified points stay certified
        gen = RngSpec(777 + int(q * 100), 0).generator()
        capped = [min(r, 10.0) for r in radii]
        for _ in range(200):
            ia, ib = gen.integers(0, len(angles), size=2)
            pa = 0.9 * capped[ia] * np.array([math.cos(angles[ia]),
                                              math.sin(angles[ia])])
            pb = 0.9 * capped[ib] * np.array([math.cos(angles[ib]),
                                              math.sin(angles[ib])])
            mid = 0.5 * (pa + pb)
            r_mid = float(np.linalg.norm(mid))
            theta_mid = math.atan2(mid[1], mid[0]) if r_mid > 0 else 0.0
            p_mid = lower_bound_probability(stats_at(theta_mid), r_mid)
            if p_mid < 0.5 - 1e-7:
                violations += 1
    passed = violations == 0
    report("6 propositions 1-2", passed, f"{violations} violations", t0)
    assert passed


def test_criterion_7_estimator_coverage():
    t0 = time.time()
    alpha = 0.05
    trials = 1000
    n, dim, sigma = 4000, 64, 0.5
    hits = {"q": 0, "l2": 0, "linf": 0}
    for trial in range(trials):
        gen = RngSpec(9000 + trial, 0).generator()
        w = gen.standard_normal(dim)
        spec = LinearClassifierSpec(w=w, b=0.0)
        f = LinearClassifier(spec)
        q_target = float(gen.uniform(0.6, 0.95))
        w_norm = float(np.linalg.norm(w))
        x = sigma * w_norm * float(quantile(q_target)) * w / (w_norm * w_norm)
        cfg = SmoothingConfig(sigma, dim)
        y0, y1 = analytic_linear_stats(spec, x, cfg)
        true_l2 = sigma * sigma * float(np.linalg.norm(y1))
        true_linf = sigma * sigma * float(np.max(np.abs(y1)))
        batch = batch_for_class(sample_class_sums(
            f, x, cfg, n, RngSpec(100_000 + trial, 0), dtype=np.float32), f.classify(x))
        q_lb = estimate_q_lower(batch.success_count, n, alpha)
        if q_lb <= y0:
            hits["q"] += 1
        lo2, hi2 = l2_norm_bounds(batch, alpha)
        if lo2 <= true_l2 <= hi2:
            hits["l2"] += 1
        loi, hii = linf_norm_bounds(batch, alpha)
        if loi <= true_linf <= hii:
            hits["linf"] += 1
    floor = 1.0 - alpha - 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
    rates = {k: v / trials for k, v in hits.items()}
    passed = all(rate >= floor for rate in rates.values())
    report("7 estimator coverage", passed,
           f"q {rates['q']:.3f}, l2 {rates['l2']:.3f}, linf {rates['linf']:.3f} "
           f"vs floor {floor:.3f}", t0)
    assert passed


def test_criterion_8_subgaussian_constant():
    t0 = time.time()
    # Table 1 constants on three parameter sets (formula-evaluation oracle)
    table_ok = _check_estimator_formulas(
        [(2000, 2000, 160, 1.0, 0.01), (100_000, 100_000, 200, 0.25, 0.001),
         (500, 700, 300, 0.5, 0.05)],
        seed=8800, mean_scale=0.0, noise_scale=0.5, limit=1e-10).passed

    # k(sigma) = sigma^2 (1/4 + 3/sqrt(8 pi e)) against the frozen reference
    constant_ok = True
    details = []
    for sigma in (1.0, 0.25, 0.5):
        got_k = subgaussian_k(sigma)
        ref_k = SUBGAUSSIAN_K_1 * sigma ** 2
        constant_ok &= abs(got_k - ref_k) <= 1e-12
        details.append(f"k({sigma}) = {got_k:.16f} vs ref {ref_k:.16f} "
                       f"(diff {got_k - ref_k:.1e})")
    passed = table_ok and constant_ok
    report(
        "8 sub-Gaussian constant", passed,
        f"table1 {'ok' if table_ok else 'MISMATCH'}; " + "; ".join(details), t0,
    )
    assert table_ok
    assert constant_ok


def test_criterion_9_end_to_end_determinism_and_dominance(tmp_path):
    t0 = time.time()
    threats = (ThreatModel.L1, ThreatModel.L2, ThreatModel.LINF)
    config = RunConfig(sigma=0.25, alpha_total=1e-3, n_samples=200_000,
                       seed=20_24, radius_tol=1e-3)
    outputs = []
    for run_idx in (0, 1):
        classifier, tasks = make_linear_workload(
            dim=152, count=100, seed=config.seed, sigma=config.sigma,
            threats=threats, q_low=0.55, q_high=0.995,
            abstain_fraction=0.05, mislabel_fraction=0.1,
        )
        results = run_points(tasks, classifier, config, jobs=1)
        path = tmp_path / f"run{run_idx}.csv"
        persist_run(results, path, meta={"sigma": repr(config.sigma),
                                         "dim": "152",
                                         "alpha_total": repr(config.alpha_total)})
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1]

    # curve dominance on the last run
    max_radius = max(max(r.radius_zeroth_l2, *(r.first_radius(t) for t in threats))
                     for r in results)
    grid = np.linspace(0.0, 1.6 * max(max_radius, 1e-9), 100)
    curves = accuracy_curves(results, grid, 152)
    dominance_ok = set(curves) == set(threats) and all(
        f >= z - 1e-12 for zeroth, first in curves.values()
        for z, f in zip(zeroth, first)
    )
    n_errors = sum(1 for r in results if r.error)

    # soundness: the smoothed linear classifier is the halfspace itself, so
    # each certified radius is at most the exact one except with probability
    # alpha per point; P(Binomial(100, 1e-3) >= 3) is about 1.5e-4
    by_id = {t.point_id: t for t in tasks}
    radius_fields = {1: "radius_first_l1", 2: "radius_first_l2",
                     math.inf: "radius_first_linf"}
    violations = {p: 0 for p in radius_fields}
    worst_ratio = {p: 0.0 for p in radius_fields}
    for res in results:
        if res.abstained:
            continue
        x = by_id[res.point_id].x
        for p, name in radius_fields.items():
            certified = getattr(res, name)
            # a smoothed prediction off the base class is certified nowhere
            exact = (analytic_linear_radius(classifier.spec, x, p)
                     if res.predicted == classifier.classify(x) else 0.0)
            if certified > exact:
                violations[p] += 1
            if exact > 0.0:
                worst_ratio[p] = max(worst_ratio[p], certified / exact)
    sound = all(v <= 2 for v in violations.values())
    passed = identical and dominance_ok and n_errors == 0 and sound
    report("9 end-to-end determinism + dominance + soundness", passed,
           f"byte-identical={identical}, dominance={dominance_ok}, "
           f"errors={n_errors}, violations l1/l2/linf="
           f"{violations[1]}/{violations[2]}/{violations[math.inf]}, "
           f"max certified/exact l1/l2/linf={worst_ratio[1]:.4f}/"
           f"{worst_ratio[2]:.4f}/{worst_ratio[math.inf]:.4f}", t0)
    assert passed
