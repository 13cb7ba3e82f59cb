"""Worst-case dual solver: spec examples, invariants, and oracle agreement."""

import hashlib
import importlib.util
import math
import os
import sys

import numpy as np
import pytest

from smoothcert import certify
from smoothcert.certify import (
    M2_DEGENERATE,
    R_CAP_DEFAULT,
    DualSolution,
    DualVariant,
    FirstOrderStats,
    InfeasibleStatsError,
    RadiusResult,
    SmoothingConfig,
    _dual_residual,
    _grid_search,
    _interval_probability,
    _reduced_dual,
    _solve_interval,
    directional_radius,
    lower_bound_probability,
    max_gradient_magnitude,
    probability_from_dual,
    solve_dual,
    zeroth_radius_l2,
)
from smoothcert.classifiers import RngSpec, mc_worst_case_probability
from smoothcert.numerics import (
    CLAMP,
    RESIDUAL_TOLERANCE,
    DomainError,
    NoConvergenceError,
    NumericalError,
    bisect_root,
    bisection_steps,
    panel_nodes,
    solve_system,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from smoothcert.selftest import (_check_angular, _check_interval_floor,
                                 _check_lp_oracle, _lp_cells)

from helpers import (
    CDF_1,
    PHI_1,
    cdf,
    central_difference_jacobian,
    interval_radius_oracle,
    phi,
    quantile,
)


HALFSPACE_STATS = FirstOrderStats(CDF_1, -PHI_1 * (1.0 - 1e-6), 0.0)


def _threat_path_stats(q: float, turn: float, frac: float) -> FirstOrderStats:
    """Gradient of frac * M(q) at angle pi * turn from the travel direction."""
    mag = frac * max_gradient_magnitude(q)
    m2 = 0.0 if turn == 1.0 else mag * math.sin(math.pi * turn)
    return FirstOrderStats(q, mag * math.cos(math.pi * turn), m2)


# the stats of TestDirectionalRadius.test_reported_radius_is_safe: the
# interval branch (m2 = 0), then two smooth threat-path angles, per q
THREAT_PATH_STATS = [
    _threat_path_stats(q, turn, frac)
    for q in (0.6, 0.75, 0.9, 0.97)
    for turn, frac in ((1.0, 0.5), (0.75, 0.6), (0.6, 0.9))
]

# no FULL start converges for these stats, so each r the slope test uses
# solves the reduced dual (see test_start_chain_falls_back_to_reduced)
REDUCED_STATS = FirstOrderStats(0.7710664422055722, -0.2922115017479008,
                                0.07959514963886805)


# (theta, r, full) points of the dual's residual, for RESIDUAL_STATS
RESIDUAL_STATS = FirstOrderStats(0.9, -0.05, 0.08)
RESIDUAL_THETAS = [
    # full system: theta = (c0, c1, u)
    ((1.2, 0.0, -1.5), 0.3, True),
    ((1.5, -0.3, -1.0), 1.0, True),
    ((0.4, 0.8, 0.5), 2.5, True),
    # steep slope: c is clipped at +-CLAMP on both sides of its crossing
    ((0.0, 20.0, -2.0), 0.3, True),
    # reduced system: theta = (v, u), c0 = e^v
    ((0.5, -1.0), 0.5, False),
    ((1.0, -3.0), 2.0, False),
    # c clipped at +CLAMP below its crossing and at -CLAMP above it
    ((math.log(45.0), 0.0), 1.0, False),
    # v past its exponent cap: c is clipped to +CLAMP everywhere, so F
    # is flat; unmasked, phi(CLAMP) * e^700 would leave J at ~1e-10
    ((701.0, 0.0), 1.0, False),
]


class TestLpOracle:
    """The dual's worst-case p against a linear program over cell-wise sets."""

    @pytest.mark.slow
    def test_dual_meets_the_lp(self):
        # finer cells and more draws than selftest's lp_oracle
        res = _check_lp_oracle(seed=41, count=40, cells=160, eps=1e-7,
                               grid_constant=0.25)
        assert res.passed, res.detail
        assert res.values["full"] >= 35, res.detail

    @pytest.mark.slow
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a FULL dual with c1 < 0 lies above the minimum "
                              "with m1 as a lower bound")
    def test_m1_as_a_lower_bound(self):
        # the bench's solve_grid stat 47 at seed 10 reports R = 0.53009033203125
        # (sigma 0.25) on this FULL dual, p(R / sigma) = 0.50011; with m1 as
        # the lower bound the estimators give, the LP's minimum is 0.4540
        # here and 0.4514 at 250 cells
        from scipy.optimize import linprog

        stats = FirstOrderStats(0.8579110174653122, -0.07142171030700625,
                                0.2115501283371511)
        r = 0.53009033203125 / 0.25
        dual = solve_dual(stats, r)
        if not (dual.variant is DualVariant.FULL and dual.c1 < 0.0):
            pytest.fail(f"no longer a FULL dual with c1 < 0: {dual}")
        objective, rows, _ = _lp_cells(r, 100)
        lp = linprog(objective, A_ub=-rows, b_ub=[-stats.q, -stats.m1, -stats.m2],
                     bounds=(0.0, 1.0), method="highs")
        assert probability_from_dual(dual)[0] <= lp.fun + 1e-7


class TestSolveDual:
    def test_halfspace_interval_variant(self):
        # m2 = 0 has no smooth dual: its worst case is the interval, which
        # lower_bound_probability evaluates in closed form
        with pytest.raises(DomainError, match="m2"):
            solve_dual(HALFSPACE_STATS, 0.5)
        p = lower_bound_probability(HALFSPACE_STATS, 0.5)
        assert p == pytest.approx(float(cdf(0.5)), abs=2e-3)

    @pytest.mark.parametrize("m2", [0.0, M2_DEGENERATE * (1.0 - 1e-9)])
    def test_degenerate_m2_raises(self, m2):
        with pytest.raises(DomainError, match="m2"):
            solve_dual(FirstOrderStats(0.8, -0.1, m2), 0.5)

    @pytest.mark.parametrize("q", [0.6, 0.75, 0.9, 0.99])
    def test_meets_the_interval_as_m2_vanishes(self, q):
        # an independent check of the dual: as m2 -> 0 its p meets the
        # closed-form interval's.  A solve leaves residuals up to
        # eps = RESIDUAL_TOLERANCE, so its set is the exact worst case (by
        # the Neyman-Pearson form of c) for stats (q', m1', m2') within eps.
        # Below: one more constraint can only raise the minimum, so p_dual is
        # at least the interval's p at (q', m1'), within slack = eps (|lam0|
        # + |lam1|) of its p at (q, m1).  lam0 + lam1 x = e^{r x - r^2 / 2} at
        # both endpoints are the interval's multipliers, the slopes of its p
        # in q and m1.  Above: mixing the interval (weight 1 - t) with the
        # halfspace whose moments are (m1, G), G = sqrt(M^2 - m1^2), meets
        # m2' at weight t = (m2 + eps) / G, so p_dual exceeds p_interval by
        # at most t (p_halfspace - p_interval) + slack, when t < 1
        big_m = max_gradient_magnitude(q)
        eps = RESIDUAL_TOLERANCE
        for frac in (-0.9, -0.5, -0.1, 0.0, 0.3, 0.9, 1 - 1e-12):
            m1 = frac * big_m
            w2, w1 = _solve_interval(q, m1)
            for m2 in (1e-7, 1e-6):
                for r in (0.05, 0.2, 0.5, 1.0, 3.0, 10.0):
                    dual = solve_dual(FirstOrderStats(q, m1, m2), r)
                    assert dual.variant is DualVariant.FULL, (frac, m2, r)
                    p_dual = probability_from_dual(dual)[0]
                    p_interval = _interval_probability(w2, w1, r)[0]
                    ratio = [math.exp(r * w - r * r / 2.0) for w in (w2, w1)]
                    lam1 = (ratio[1] - ratio[0]) / (w1 - w2)
                    slack = eps * (abs(ratio[0] - lam1 * w2) + abs(lam1))
                    assert p_dual >= p_interval - slack, (frac, m2, r)
                    t = (m2 + eps) / math.sqrt(big_m ** 2 - m1 ** 2)
                    if t < 1.0:
                        p_halfspace = float(cdf(quantile(q) + r * m1 / big_m))
                        rise = t * (p_halfspace - p_interval) + slack
                        assert p_dual <= p_interval + rise, (frac, m2, r)

    def test_full_dual_is_above_the_interval(self):
        # the invariant that lets a search take max(p_int, p_dual): every
        # FULL p over random threat-path stats is at least the interval's
        res = _check_interval_floor(seed=31, count=150)
        assert res.passed, res.detail
        assert res.values["full"] >= 140, res.detail

    def test_interior_residuals_small(self):
        stats = FirstOrderStats(0.9, 0.0, 0.08)
        dual = solve_dual(stats, 0.3)
        assert dual.variant is DualVariant.FULL
        theta = np.array([dual.c0, dual.c1, math.log(-dual.c2)])
        residuals, _ = _dual_residual(theta, stats, 0.3, True, certify._HeldGrid())
        assert np.max(np.abs(residuals)) <= 1e-9

    @pytest.mark.parametrize("theta, r, full", RESIDUAL_THETAS)
    def test_jacobian_matches_central_differences(self, theta, r, full):
        stats = RESIDUAL_STATS
        theta = np.array(theta)
        # a fresh store per call: each evaluation builds its own grid
        _, jac = _dual_residual(theta, stats, r, full, certify._HeldGrid())
        ref = central_difference_jacobian(
            lambda th: _dual_residual(th, stats, r, full, certify._HeldGrid())[0], theta)
        assert jac.shape == ref.shape == (theta.size, theta.size)
        np.testing.assert_allclose(jac, ref, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(ref)))

    def test_start_chain_falls_back_to_reduced(self, monkeypatch):
        # no full start converges here: the soft-interval start fails, and
        # the second solve is the conservative reduced system
        calls = []
        orig = certify.solve_system

        def counted(*args, **kwargs):
            calls.append(args[1])
            return orig(*args, **kwargs)

        monkeypatch.setattr(certify, "solve_system", counted)
        stats = FirstOrderStats(0.7710664422055722, -0.2922115017479008,
                                0.07959514963886805)
        dual = solve_dual(stats, 0.9375)
        assert dual.variant is DualVariant.REDUCED_NO_SLOPE
        assert len(calls) == 2
        assert (dual.c0, dual.c1, dual.c2) == (4.348574752892095, 0.0,
                                               -2.0591584841381736)

    def test_tangent_start_is_second_order(self):
        # a small step along the tangent lands far closer to the solution
        # at r + dr than the solution at r does
        stats = FirstOrderStats(0.8, -0.1, 0.2)
        warm = solve_dual(stats, 1.0)
        theta = np.array([warm.c0, warm.c1, math.log(-warm.c2)])
        for dr in (0.01, -0.01):
            target = solve_dual(stats, 1.0 + dr)
            want = np.array([target.c0, target.c1, math.log(-target.c2)])
            start = np.array(certify._tangent_start(warm, 1.0 + dr))
            assert np.max(np.abs(start - want)) < 0.05 * np.max(np.abs(theta - want))

    def test_tangent_step_is_cut_where_the_path_bends(self, monkeypatch):
        # c9 l1 stats near the perpendicular boundary (m2 = 0.935 M): from
        # r = 223 h to 284 h the uncut tangent started Newton 138 residual
        # evaluations from the solution, theta' itself 26, the cut step 12
        stats = FirstOrderStats(0.5455545491554527, -0.11371447174974418,
                                0.3707417778719487)
        h = R_CAP_DEFAULT / 8192
        warm = solve_dual(stats, 223 * h)
        theta = (warm.c0, warm.c1, math.log(-warm.c2))
        start = certify._tangent_start(warm, 284 * h)
        step = max(abs(a - b) for a, b in zip(start, theta))
        assert step == pytest.approx(certify._TANGENT_TRUST * max(map(abs, theta)))
        calls = []
        orig = certify._dual_residual

        def counted(*args, **kwargs):
            calls.append(args[0])
            return orig(*args, **kwargs)

        monkeypatch.setattr(certify, "_dual_residual", counted)
        dual = solve_dual(stats, 284 * h, warm=warm)
        assert dual.variant is DualVariant.FULL and len(calls) <= 15
        assert dual.bound == pytest.approx(solve_dual(stats, 284 * h).bound, abs=1e-9)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleStatsError):
            solve_dual(FirstOrderStats(0.9, 0.0, 0.5), 0.3)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            solve_dual(FirstOrderStats(0.4, 0.0, 0.05), 0.3)
        with pytest.raises(DomainError):
            solve_dual(FirstOrderStats(0.9, 0.0, 0.05), 0.0)

    def test_coefficient_signs(self):
        dual = solve_dual(FirstOrderStats(0.8, 0.05, 0.1), 0.4)
        assert dual.c2 < 0.0
        reduced = _reduced_dual(FirstOrderStats(0.8, 0.05, 0.1), 0.4)
        assert reduced.variant is DualVariant.REDUCED_NO_SLOPE
        assert reduced.c1 == 0.0 and reduced.c0 > 0.0

    def test_probability_needs_a_solved_dual(self):
        # the set's mass is read off the solve's own grid, which a
        # hand-built solution does not hold
        with pytest.raises(DomainError, match="solved dual"):
            probability_from_dual(DualSolution(1.0, 0.0, -1.0, DualVariant.FULL, 0.5))

    def test_reduced_is_conservative(self):
        # dropping the directional constraint can only lower the bound
        stats = FirstOrderStats(0.85, -0.08, 0.1)
        full, _ = probability_from_dual(solve_dual(stats, 0.8))
        red, _ = probability_from_dual(_reduced_dual(stats, 0.8))
        assert red <= full + 1e-9

    def test_warm_start_consistency(self):
        stats = FirstOrderStats(0.85, -0.05, 0.12)
        cold = solve_dual(stats, 1.0)
        warm = solve_dual(stats, 1.05, warm=cold)
        p_cold, _ = probability_from_dual(solve_dual(stats, 1.05))
        assert probability_from_dual(warm)[0] == pytest.approx(p_cold, abs=1e-8)


def _coefficients(theta, full):
    """(c0, c1, u) of a residual point, read from theta as _dual_residual does."""
    if full:
        return float(theta[0]), float(theta[1]), float(theta[2])
    return math.exp(min(theta[0], 700.0)), 0.0, float(theta[1])


def _grid_integrands(c0, c1, u, r, grid=None):
    """The grid ``_dual_residual`` builds for (c0, c1, u) at r, or ``grid``
    = (x, w phi(x)) when given, as nodes x and weights w phi(x), with c and
    e^{u + r x} on it, clipped and capped as there."""
    if grid is None:
        half = certify._DOMAIN_HALF_WIDTH
        roots = certify._c_roots(c0, c1, u, r, -half, half)
        x, w = panel_nodes(certify._graded_edges(-half, half, roots))
        grid = x, w * std_normal_pdf(x)
    x, base = grid
    e = np.exp(np.minimum(u + r * x, 700.0))
    c = np.minimum(np.maximum(c0 + c1 * x - e, -1e300), CLAMP)
    return x, base, c, e


def _untruncated_residual(theta, stats, r, full, grid=None):
    """F and J of the dual from the full integrands, on ``_dual_residual``'s
    grid (or ``grid``, as ``_grid_integrands`` takes it) with its dot and
    matmul order: phi(c) and Phi(c) at every node, and dc = 0 where c is
    clipped or the exponent capped."""
    c0, c1, u = _coefficients(theta, full)
    x, base, c, e = _grid_integrands(c0, c1, u, r, grid)
    phi_c = std_normal_pdf(c)
    cdf_c = std_normal_cdf(c)
    live = (np.abs(c) < CLAMP) & (u + r * x < 700.0)
    d_cdf = np.where(live, base * phi_c, 0.0)
    eqs = [float(base @ cdf_c) - stats.q, float(base @ phi_c) - stats.m2]
    if full:
        eqs.append(float((base * x) @ cdf_c) - stats.m1)
        dc = np.stack([np.ones_like(x), x, -e], axis=1)
        jac = np.stack([d_cdf, -c * d_cdf, x * d_cdf]) @ dc
    else:
        dc0 = c0 if theta[0] < 700.0 else 0.0
        dc = np.stack([np.full_like(x, dc0), -e], axis=1)
        jac = np.stack([d_cdf, -c * d_cdf]) @ dc
    return np.array(eqs), jac


def _untruncated_probability(c0, c1, u, r):
    """The set's mass under N(r, 1) and its slope from the full integrand,
    on the held grid with the dot order of ``probability_from_dual``."""
    x, base, c, e = _grid_integrands(c0, c1, u, r)
    cdf_c = std_normal_cdf(c)
    mass = float((base * cdf_c) @ np.exp(r * x - 0.5 * r * r))
    return mass, math.exp(-0.5 * r * r - u) * float((base * e * (x - r)) @ cdf_c)


def _held_dual(theta, stats, r, full):
    """The dual solution at theta, its integrands held from one residual
    call on a fresh store, as a solve ending there holds them."""
    held = certify._HeldGrid()
    _dual_residual(np.array(theta, dtype=float), stats, r, full, held)
    variant = DualVariant.FULL if full else DualVariant.REDUCED_NO_SLOPE
    return certify._solution(*_coefficients(theta, full), variant, r, held)


# a solve_grid residual point (seed 106) whose c passes x = -12 at -34.87:
# there phi(c) is kept, and its Jacobian products come within a factor 2
# of the smallest normal float
GRID_POINT = ((7.115184496938647, 3.499236248398088, -0.6803064951101936),
              1.810302734375, True,
              FirstOrderStats(0.943784967564801, -0.02645069755982607,
                              0.018337338904590907))

# (c0, c1, u, r) whose c reaches the clip at -CLAMP on the held grid; the
# untruncated mass runs exp(-722) there
CLIPPED_COEFFICIENTS = [
    (0.0, 20.0, -2.0, 0.3),
    # solve_dual(FirstOrderStats(0.9, -0.05, 0.08), 0.3)
    (20.66211672049992, 5.345608358176345, math.log(18.000779882464258), 0.3),
    # solve_dual(FirstOrderStats(0.6, -0.05, 0.1), 1.0)
    (9.882876095805912, 7.31554775533828, math.log(7.177999840318478), 1.0),
]


# (theta, r, full) where the exponent cap acts: u + r x >= 700 on the 32
# nodes nearest x = 12 (of 2,080), where c is clipped at -1e300, while
# c > -_TAIL on 752 nodes
CAPPED_POINTS = [
    ((500.0, 590.0), 10.0, False),
    ((math.exp(500.0), 0.5, 590.0), 10.0, True),
]

# c < -_TAIL on every node: c0 = -50, c1 = 0, c2 = -e^-5 at r = 1
NO_LIVE_NODE = ((-50.0, 0.0, -5.0), 1.0, True)


class TestTailFlush:
    """The dual's integrands drop phi(c) and Phi(c) in the tail |c| >= _TAIL.

    The untruncated integrands reach exp(-722), a subnormal, wherever c is
    clipped, and 7 of the 8 ``RESIDUAL_THETAS`` raised under
    ``np.errstate(under="raise")`` before the tail was dropped.  The set's
    mass (``probability_from_dual``) is read off the same held integrands.
    """

    @pytest.mark.parametrize("theta, r, full",
                             RESIDUAL_THETAS + [GRID_POINT[:3]] + CAPPED_POINTS)
    def test_residual_stays_out_of_subnormals(self, theta, r, full):
        stats = GRID_POINT[3] if theta == GRID_POINT[0] else RESIDUAL_STATS
        with np.errstate(under="raise"):
            _dual_residual(np.array(theta), stats, r, full, certify._HeldGrid())

    @pytest.mark.parametrize("coefficients", CLIPPED_COEFFICIENTS)
    def test_probability_stays_out_of_subnormals(self, coefficients):
        *theta, r = coefficients
        with np.errstate(under="raise"):
            probability_from_dual(_held_dual(theta, RESIDUAL_STATS, r, True))

    @pytest.mark.parametrize("theta, r, full, stats", [
        # c clipped on both sides of its crossing
        ((0.0, 20.0, -2.0), 0.3, True, RESIDUAL_STATS),
        ((math.log(45.0), 0.0), 1.0, False, RESIDUAL_STATS),
        # c clipped at +CLAMP everywhere
        ((701.0, 0.0), 1.0, False, RESIDUAL_STATS),
        # c clipped at -1e300 beyond one crossing
        ((0.4, 0.8, 0.5), 2.5, True, RESIDUAL_STATS),
        ((1.0, -3.0), 2.0, False, RESIDUAL_STATS),
        GRID_POINT,
        # the exponent capped near x = 12
        *[point + (RESIDUAL_STATS,) for point in CAPPED_POINTS],
    ])
    def test_dropped_terms_move_no_bit(self, theta, r, full, stats):
        c0, c1, u = _coefficients(theta, full)
        _, _, c, _ = _grid_integrands(c0, c1, u, r)
        assert np.any(np.abs(c) >= certify._TAIL)  # the flush drops terms
        f, jac = _dual_residual(np.array(theta), stats, r, full, certify._HeldGrid())
        f_ref, jac_ref = _untruncated_residual(theta, stats, r, full)
        assert np.array_equal(f, f_ref) and np.array_equal(jac, jac_ref)
        p_and_slope = probability_from_dual(_held_dual(theta, stats, r, full))
        assert p_and_slope == _untruncated_probability(c0, c1, u, r)

    @pytest.mark.parametrize("coefficients", CLIPPED_COEFFICIENTS)
    def test_dropped_terms_move_no_bit_of_p(self, coefficients):
        *theta, r = coefficients
        got = probability_from_dual(_held_dual(theta, RESIDUAL_STATS, r, True))
        assert got == _untruncated_probability(*coefficients)

    def test_no_live_node(self):
        # no node has c > -_TAIL, so every integrand is dropped: F is -stats,
        # J is 0, and a solve from there finds J singular.  argmax of the
        # all-False mask is 0, and integrands evaluated from there unmasked
        # would run exp(-1250)
        theta, r, full = NO_LIVE_NODE
        stats = RESIDUAL_STATS
        with np.errstate(under="raise"):
            f, jac = _dual_residual(np.array(theta), stats, r, full, certify._HeldGrid())
        assert f.tolist() == [-stats.q, -stats.m2, -stats.m1]
        f_ref, jac_ref = _untruncated_residual(theta, stats, r, full)
        assert np.array_equal(f, f_ref) and np.array_equal(jac, jac_ref)
        with pytest.raises(NoConvergenceError, match="singular Jacobian"):
            solve_system(lambda th: _dual_residual(th, stats, r, full, certify._HeldGrid()),
                         theta)

    def test_solve_grid_residuals_move_no_bit(self, monkeypatch):
        # every residual call of the bench's seed-101 solve_grid pass (613
        # when written), warm solves on carried grids included, gives the F
        # and J of the untruncated integrands on that call's own held grid
        suite = _bench_suite()
        cfg = SmoothingConfig(suite.SIGMA, 152)
        orig = certify._dual_residual
        calls, differ = [], []

        def checked(theta, stats, r, full, held):
            f, jac = orig(theta, stats, r, full, held)
            f_ref, jac_ref = _untruncated_residual(theta, stats, r, full,
                                                   (held.x, held.base))
            calls.append(held.x)
            if not (np.array_equal(f, f_ref) and np.array_equal(jac, jac_ref)):
                differ.append((theta.tolist(), r, full))
            return f, jac

        monkeypatch.setattr(certify, "_dual_residual", checked)
        for stats in suite.threat_path_grid(suite.SHAPES["full"]["solve_grid"], 101):
            directional_radius(stats, cfg, tol=suite.RADIUS_TOL)
        grids = len({id(x) for x in calls})
        assert len(calls) > 500 and grids < len(calls) / 2, (len(calls), grids)
        assert not differ, differ[:3]


def _unique_edges(lo, hi, roots):
    """The graded edges as np.linspace and np.unique build them."""
    edges = [np.linspace(lo, hi, certify._BASE_PANELS + 1)]
    width = (hi - lo) / certify._BASE_PANELS
    for root, slope in roots:
        delta = max(1.0 / max(slope, 1.0), 1e-12)
        if delta >= width:
            continue
        count = int(math.ceil(math.log2(2.0 * width / delta))) + 1
        steps = delta * 2.0 ** np.arange(0, count)
        edges.append(np.concatenate(([root], root + steps, root - steps)))
    merged = np.unique(np.clip(np.concatenate(edges), lo, hi))
    keep = np.concatenate(([True], np.diff(merged) > 1e-14 * max(1.0, abs(hi), abs(lo))))
    return merged[keep]


class TestGradedEdges:
    @staticmethod
    def _random_roots(gen, lo, hi):
        """0-3 roots: uniform, at or within 1e-9 to 1e-16 of an end, on a
        uniform edge, or equal to the root before; slopes 1e-2 to 1e14."""
        roots = []
        for _ in range(int(gen.integers(0, 4))):
            kind = int(gen.integers(0, 5))
            if kind == 0 or (kind == 4 and not roots):
                root = float(gen.uniform(lo, hi))
            elif kind == 1:
                root = lo + float(gen.choice([0.0, 1e-16, 1e-13, 1e-9]))
            elif kind == 2:
                root = hi - float(gen.choice([0.0, 1e-16, 1e-13, 1e-9]))
            elif kind == 3:
                root = lo + (hi - lo) * int(gen.integers(0, 49)) / 48
            else:
                root = roots[-1][0]
            roots.append((min(max(root, lo), hi), 10.0 ** float(gen.uniform(-2, 14))))
        return roots

    def test_properties_over_random_roots(self):
        gen = np.random.default_rng(19)
        moved_end = 0
        for _ in range(2000):
            lo = -certify._DOMAIN_HALF_WIDTH + float(gen.choice([0.0, gen.uniform(0, 10)]))
            hi = lo + 2.0 * certify._DOMAIN_HALF_WIDTH
            roots = self._random_roots(gen, lo, hi)
            edges = certify._graded_edges(lo, hi, roots)
            gaps = np.diff(edges)
            assert edges[0] == lo and edges[-1] == hi
            assert np.all(gaps > 1e-14 * max(1.0, abs(lo), abs(hi)))
            old = _unique_edges(lo, hi, roots)
            if old[-1] == hi:
                assert np.array_equal(edges, old)
            else:
                # the np.unique build ended just below hi, where a root
                # within the gap floor below hi took its place
                moved_end += 1
                assert np.array_equal(edges[:-1], old[:-1]) and old[-1] > hi - 1e-12
        assert moved_end > 0


def _bisected_roots(c0, c1, u, r, lo, hi):
    """Crossings of c as a fixed 50-step bisection of each monotone piece
    finds them, with their |c'|: the reference for ``certify._c_roots``."""

    def val(x):
        t = u + r * x
        return c0 + c1 * x - (math.exp(t) if t < 700.0 else 1e304)

    breaks = [lo, hi]
    if c1 > 0.0:
        x_crit = (math.log(c1 / r) - u) / r
        if lo < x_crit < hi:
            breaks = [lo, x_crit, hi]
    roots = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        fa, fb = val(a), val(b)
        if fa == 0.0:
            roots.append((a, abs(certify._c_slope(a, c1, u, r))))
            continue
        if (fa > 0.0) == (fb > 0.0):
            continue
        x_lo, x_hi = a, b
        for _ in range(50):
            mid = 0.5 * (x_lo + x_hi)
            fm = val(mid)
            if fm == 0.0:
                x_lo = x_hi = mid
                break
            if (fm > 0.0) == (fa > 0.0):
                x_lo = mid
            else:
                x_hi = mid
        root = 0.5 * (x_lo + x_hi)
        roots.append((root, abs(certify._c_slope(root, c1, u, r))))
    return roots


def _bench_suite():
    """The benchmark's workload module, loaded from perfbench/suite.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "suite.py")
    spec = importlib.util.spec_from_file_location("bench_suite", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestHeldGrid:
    """One dual solve holds its quadrature grid while c's crossings hold."""

    def test_c_roots_match_bisection(self):
        # Newton's crossings against the 50-step bisection's, over random
        # c: c1 <= 0 (one falling crossing at most), c's maximum x_crit
        # just inside lo or hi, and exponents past the 700 cap in [lo, hi]
        gen = np.random.default_rng(20)
        lo, hi = -certify._DOMAIN_HALF_WIDTH, certify._DOMAIN_HALF_WIDTH
        found = {"none": 0, "one": 0, "two": 0, "near_end": 0, "capped": 0}
        for _ in range(4000):
            kind = int(gen.integers(0, 4))
            r = 10.0 ** float(gen.uniform(-2.3, 1.0))
            c0 = float(gen.uniform(-50.0, 50.0))
            u = float(gen.uniform(-10.0, 10.0))
            if kind == 0:
                c1 = -float(gen.choice([0.0, 10.0 ** float(gen.uniform(-3, 1.5))]))
            else:
                c1 = 10.0 ** float(gen.uniform(-3.0, 2.5))
            if kind == 2:
                # x_crit within 1e-12 to 1e-3 of lo or hi, on either side
                end = float(gen.choice([lo, hi]))
                offset = float(gen.choice([1e-12, 1e-6, 1e-3])) * float(gen.choice([-1, 1]))
                u = math.log(c1 / r) - r * (end + offset)
                found["near_end"] += 1
            elif kind == 3:
                # steep enough to pass the cap: u + r x = 700 inside [lo, hi]
                r = float(gen.uniform(30.0, 60.0))
                u = 700.0 - r * float(gen.uniform(lo, hi))
                found["capped"] += 1
            want = _bisected_roots(c0, c1, u, r, lo, hi)
            got = certify._c_roots(c0, c1, u, r, lo, hi)
            assert len(got) == len(want), (c0, c1, u, r)
            found[("none", "one", "two")[len(got)]] += 1
            for (root, _), (ref, slope) in zip(got, want):
                delta = certify._refinement_width(slope)
                assert abs(root - ref) <= 1e-3 * delta, (c0, c1, u, r, root, ref)
        assert min(found.values()) > 50, found

    def test_rebuild_rule(self):
        # shifting c by s moves each crossing by s: a grid holds while every
        # crossing stays within its refinement width, and while c crosses
        # zero as often
        lo, hi = -certify._DOMAIN_HALF_WIDTH, certify._DOMAIN_HALF_WIDTH
        c0, c1, u, r = 1.0, 2.0, -1.0, 0.5
        roots = certify._c_roots(c0, c1, u, r, lo, hi)
        assert len(roots) == 2
        widths = [certify._refinement_width(slope) for _, slope in roots]

        def holds(shift, c0=c0):
            return certify._roots_hold(roots, c0 - c1 * shift, c1, u - r * shift,
                                       r, lo, hi)

        assert holds(0.0)
        assert holds(0.9 * min(widths)) and holds(-0.9 * min(widths))
        assert not holds(1.1 * max(widths)) and not holds(-1.1 * max(widths))
        assert not holds(0.0, c0=-50.0)  # no crossing left

    def test_fewer_grids_than_calls(self, monkeypatch):
        # the radius of test_residual_evaluation_count, bit for bit, from
        # fewer grids than residual calls, each of which built its own grid
        # before solves held theirs; p is read off the solve's own grid
        counts = {"grids": 0, "residuals": 0}

        def counted(name, key):
            orig = getattr(certify, name)

            def wrapped(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(certify, name, wrapped)

        counted("_graded_edges", "grids")
        counted("_dual_residual", "residuals")
        res = directional_radius(FirstOrderStats(0.8, -0.1, 0.2),
                                 SmoothingConfig(0.25, 152), tol=1e-3)
        assert res.radius == 0.3076171875
        # the later solves start on the first solve's grid, which holds
        assert counts["grids"] == 1 and counts["residuals"] <= 12

    def test_neighbour_store_is_read_only(self, monkeypatch):
        # a warm solve starts on a copy of its neighbour's store: the grid
        # arrays are shared, never written.  After each seed-101 search,
        # every dual it kept still holds its own grid bytes and integrands
        # (_set_mass_bound reads them), and reproduces its bound on a copy
        # of its grid (_shifted_bound re-evaluates there)
        suite = _bench_suite()
        cfg = SmoothingConfig(suite.SIGMA, 152)
        orig = certify.solve_dual
        kept = []

        def recorded(stats, r, *args, **kwargs):
            dual = orig(stats, r, *args, **kwargs)
            grid = dual.grid
            kept.append((certify._capped(stats), dual, grid.x.tobytes(),
                         grid.base.tobytes(), grid.residual.tobytes()))
            return dual

        monkeypatch.setattr(certify, "solve_dual", recorded)
        checked = warm = 0
        for stats in suite.threat_path_grid(suite.SHAPES["full"]["solve_grid"], 101):
            kept.clear()
            directional_radius(stats, cfg, tol=suite.RADIUS_TOL)
            for capped, dual, x, base, residual in kept:
                if dual.variant is not DualVariant.FULL:
                    continue
                grid, r = dual.grid, dual.travel_scale
                assert (grid.x.tobytes(), grid.base.tobytes(),
                        grid.residual.tobytes()) == (x, base, residual), stats
                theta = (dual.c0, dual.c1, math.log(-dual.c2))
                own = certify._dual_bound(grid, *theta, r)[0]
                copy = grid.carried()
                _dual_residual(np.array(theta), capped, r, True, copy)
                again = certify._dual_bound(copy, *theta, r)[0]
                assert own == pytest.approx(dual.bound, rel=1e-12, abs=1e-15), stats
                assert again == pytest.approx(dual.bound, rel=1e-12, abs=1e-15), stats
                checked += 1
            warm += sum(a[1].grid.x is b[1].grid.x for a, b in zip(kept, kept[1:]))
        # most warm solves keep their neighbour's grid
        assert checked > 100 and warm > 40, (checked, warm)

    def test_converged_solves_meet_tolerance_on_fresh_grids(self, monkeypatch):
        # every solve of the bench's solve_grid pass (seed 101) converges
        # on held grids; its theta re-evaluated on a grid built for it
        # must still meet the tolerance
        suite = _bench_suite()
        stats_grid = suite.threat_path_grid(suite.SHAPES["full"]["solve_grid"], 101)
        cfg = SmoothingConfig(suite.SIGMA, 152)
        orig_residual = certify._dual_residual
        orig_solve = certify.solve_system
        last = {}
        worst = []

        def recorded(theta, stats, r, full, held):
            last["args"] = (stats, r, full)
            return orig_residual(theta, stats, r, full, held)

        def checked(residual, init):
            theta = orig_solve(residual, init)
            fresh, _ = orig_residual(theta, *last["args"], certify._HeldGrid())
            worst.append(float(np.max(np.abs(fresh))))
            return theta

        monkeypatch.setattr(certify, "_dual_residual", recorded)
        monkeypatch.setattr(certify, "solve_system", checked)
        for stats in stats_grid:
            directional_radius(stats, cfg, tol=suite.RADIUS_TOL)
        assert len(worst) > 100
        assert max(worst) <= RESIDUAL_TOLERANCE


def _g_at(stats, theta, r):
    """g and dg/dr at the FULL multipliers theta = (c0, c1, u), at travel r."""
    held = certify._HeldGrid()
    _dual_residual(np.array(theta, dtype=float), stats, r, True, held)
    return certify._dual_bound(held, *theta, r)


def _quad_mass(c0, c1, u, r):
    """integral phi(x - r) Phi(c(x)) dx by adaptive quadrature on
    [r - 14, r + 14], split at c's crossings as a bisection finds them."""
    from scipy import integrate, special

    def integrand(x):
        c = c0 + c1 * x - math.exp(min(u + r * x, 700.0))
        return math.exp(-0.5 * (x - r) ** 2) / math.sqrt(2.0 * math.pi) * special.ndtr(c)

    lo, hi = r - 14.0, r + 14.0
    points = [root for root, _ in _bisected_roots(c0, c1, u, r, lo, hi)]
    value, _ = integrate.quad(integrand, lo, hi, points=points or None, limit=400,
                              epsabs=1e-14, epsrel=1e-13)
    return value


def _seed_101_solves(monkeypatch):
    """(stats, r, dual, h) of every dual solve that the searches of the
    bench's seed-101 solve_grid pass make, h their grid step."""
    suite = _bench_suite()
    cfg = SmoothingConfig(suite.SIGMA, 152)
    h = R_CAP_DEFAULT / 2 ** bisection_steps(R_CAP_DEFAULT, suite.RADIUS_TOL / cfg.sigma)
    solves = []
    orig = certify.solve_dual

    def recorded(stats, r, *args, **kwargs):
        dual = orig(stats, r, *args, **kwargs)
        solves.append((stats, r, dual, h))
        return dual

    monkeypatch.setattr(certify, "solve_dual", recorded)
    for stats in suite.threat_path_grid(suite.SHAPES["full"]["solve_grid"], 101):
        directional_radius(stats, cfg, tol=suite.RADIUS_TOL)
    monkeypatch.setattr(certify, "solve_dual", orig)
    return solves


class TestWeakDuality:
    """The p radii rest on is the dual function g at the solve's multipliers."""

    # (stats, r) whose FULL duals have c0 > 0 and c1 > 0, m2 below the cap
    CASES = [(FirstOrderStats(0.8, -0.1, 0.2), 1.2),
             (FirstOrderStats(0.9, -0.05, 0.08), 0.6),
             (FirstOrderStats(0.7, -0.2, 0.15), 0.3)]

    def test_g_off_convergence_is_below_the_lp(self):
        # weak duality holds at any multipliers, converged or not: g is at
        # most the minimum over cell-wise sets with m1 as an equality, and,
        # as c0 >= 0 and c1 >= 0 here, with q, m1 and m2 all lower bounds
        from scipy.optimize import linprog

        gen = np.random.default_rng(21)
        lowered = 0
        for stats, r in self.CASES:
            dual = solve_dual(stats, r)
            assert dual.variant is DualVariant.FULL and dual.c0 > 0.0 and dual.c1 > 0.0
            objective, rows, _ = _lp_cells(r, 100)
            options = {"primal_feasibility_tolerance": 1e-9,
                       "dual_feasibility_tolerance": 1e-9}
            as_equality = linprog(objective, A_ub=-rows[[0, 2]],
                                  b_ub=[-stats.q, -stats.m2], A_eq=rows[[1]],
                                  b_eq=[stats.m1], bounds=(0.0, 1.0),
                                  method="highs", options=options)
            as_bound = linprog(objective, A_ub=-rows,
                               b_ub=[-stats.q, -stats.m1, -stats.m2],
                               bounds=(0.0, 1.0), method="highs", options=options)
            assert as_equality.status == 0 and as_bound.status == 0
            u = math.log(-dual.c2)
            for _ in range(8):
                theta = (dual.c0 * math.exp(float(gen.uniform(-0.5, 0.5))),
                         dual.c1 * float(gen.choice([0.0, math.exp(gen.uniform(-1, 1))])),
                         u + float(gen.uniform(-0.5, 0.5)))
                g, _ = _g_at(stats, theta, r)
                assert g <= as_bound.fun + 1e-7, (stats, r, theta)
                assert g <= as_equality.fun + 1e-7, (stats, r, theta)
                # g is largest at the solution, where F = 0
                assert g <= dual.bound + 1e-9, (stats, r, theta)
                lowered += g < dual.bound - 1e-3
        assert lowered >= 12

    def test_g_matches_quadrature_at_converged_solves(self, monkeypatch):
        # at a solution g is the set's own mass under N(r, 1)
        full = 0
        for stats, r, dual, _ in _seed_101_solves(monkeypatch):
            if dual.variant is not DualVariant.FULL:
                continue
            full += 1
            want = _quad_mass(dual.c0, dual.c1, math.log(-dual.c2), r)
            assert abs(dual.bound - want) <= 1e-9, (stats, r, dual)
        assert full > 100

    def test_small_m2_keeps_c_unclipped(self):
        # a seed-101 solve_grid solve with c0 = 189.5 > CLAMP: c Phi(c)
        # with c clipped at CLAMP read g = 1.09 here, and g = 1.0 once
        # clipped to [0, 1], against the set's mass 0.50039
        stats = FirstOrderStats(0.87032516465545, -0.00812291973839589,
                                0.001371036185774616)
        r = 1.490478515625
        dual = solve_dual(stats, r)
        assert dual.variant is DualVariant.FULL and dual.c0 > 150.0
        want = _quad_mass(dual.c0, dual.c1, math.log(-dual.c2), r)
        assert abs(dual.bound - want) <= 1e-9


class TestNeighbourDecidedEnds:
    """A bracket end next to a FULL-solved one is decided without a solve."""

    def test_bench_radii_pass_the_cold_recheck(self, monkeypatch):
        # the bench checks p(R / sigma) >= 1/2 only: a top end decided
        # wrongly would shorten a radius unseen.  Every uncapped radius of
        # the seed-101 solve_grid pass is bisection's grid point below the
        # root by cold solves too
        suite = _bench_suite()
        cfg = SmoothingConfig(suite.SIGMA, 152)
        decided = {"top": 0, "bottom": 0}
        orig_upper = certify._set_mass_bound
        orig_shifted = certify._shifted_bound

        def upper(*args):
            value = orig_upper(*args)
            decided["top"] += value < 0.5
            return value

        def shifted(*args):
            value = orig_shifted(*args)
            decided["bottom"] += value >= 0.5
            return value

        monkeypatch.setattr(certify, "_set_mass_bound", upper)
        monkeypatch.setattr(certify, "_shifted_bound", shifted)
        uncapped = 0
        for stats in suite.threat_path_grid(suite.SHAPES["full"]["solve_grid"], 101):
            res = directional_radius(stats, cfg, tol=suite.RADIUS_TOL)
            if res.capped:
                continue
            uncapped += 1
            scaled = suite.RADIUS_TOL / cfg.sigma
            if stats.m2 < M2_DEGENERATE:
                scaled = min(scaled, 1e-9)
            h = R_CAP_DEFAULT / 2 ** bisection_steps(R_CAP_DEFAULT, scaled)
            r = res.radius / cfg.sigma
            assert (r / h).is_integer(), stats
            assert lower_bound_probability(stats, r) >= 0.5, stats
            assert lower_bound_probability(stats, r + h) < 0.5, stats
        assert uncapped > 60
        assert decided["top"] > 10 and decided["bottom"] > 5, decided

    def test_neighbour_bounds_bracket_a_solve(self, monkeypatch):
        # at a FULL solve's neighbours r +- h: its set's mass at r + h is
        # at least the g of a solve there, and its multipliers' g at r - h,
        # with lam2 held, at most that of a solve there (g is largest at
        # the solution)
        checked = {"up": 0, "down": 0}
        for stats, r, dual, h in _seed_101_solves(monkeypatch):
            if dual.variant is not DualVariant.FULL:
                continue
            k = round(r / h)
            if (k + 1) * h <= R_CAP_DEFAULT:
                solved = solve_dual(stats, (k + 1) * h)
                upper = certify._set_mass_bound(dual, (k + 1) * h)
                assert upper >= solved.bound - 1e-9, (stats, r)
                checked["up"] += 1
            if (k - 1) * h >= certify._R_SMOOTH_FLOOR:
                solved = solve_dual(stats, (k - 1) * h)
                if solved.variant is DualVariant.FULL:
                    g = certify._shifted_bound(stats, dual, (k - 1) * h,
                                               (2 * k - 1) * h * h / 2.0)
                    assert g <= solved.bound + 1e-9, (stats, r)
                    checked["down"] += 1
        assert min(checked.values()) > 100, checked


# sha256 of the solve_grid workload's output (q, m1, m2, the radius and its
# capped and fallback_used flags, for each of its 72 radii) at seeds 101 and
# 1-10, pinned when the interval's Newton bracket and the tangent warm start
# were added: a solver change that moves one radius or flag there moves one
SOLVE_GRID_SHA256 = {
    101: "471a98c06341d567ab22729548d4141ac90f5d624cb01fa8beebbb3fee574a28",
    1: "a4b4fdbf15242868b88646ac6b9aabd5eb1f0dbbdbf375d323ab7e34f36dbb50",
    2: "19fb910d83e35e6e1c2ec11df541d466339e302ef08ccc87aecf79063b371155",
    3: "79a82d4bb33290c2fb26fec885631ab946b74444a7c92c5683f0cf62a72128ab",
    4: "8158d94847178f58e3445583e4ab5a8376294c9cd35363b9a831c68aef87acc6",
    5: "976cff2fe9f05f4edfd5955c0212271908738f0532c866300e40e47bc0358f79",
    6: "ed1fca2a21625d3bad653a25aeaaf6a6f65471bbc544f673426466dfdb5cd880",
    7: "1db0d2ee71edd47913624ca66c9d11d91bea4811330a425eb2667602d72746a9",
    8: "d19e362577ea2ed563f1c7374b97f50ba92f1dfd3077e5fc136cdbce59728f4c",
    9: "e44e924a8c186ed431c8697a829dbde6cc87c06b2fae280f9b0c9e8a45f10977",
    10: "0a6e31b6cef7bb146e6138eb25420e8e5d40f29dbc1ef75b4eedf97554f299c5",
}


def test_solve_grid_outputs_are_pinned(tmp_path):
    suite = _bench_suite()
    shape = suite.SHAPES["full"]["solve_grid"]
    got = {}
    for seed in SOLVE_GRID_SHA256:
        work = suite.GridWorkload("solve_grid", shape, seed, str(tmp_path))
        work.run_pass()
        got[seed] = hashlib.sha256(work.output()).hexdigest()
    assert got == SOLVE_GRID_SHA256


class TestIntervalScalarPath:
    # the interval's scalar helpers against the vectorised numerics forms
    # they replace, compared with ==: they must agree bit for bit, beyond
    # +-CLAMP, at w2 = -CLAMP and where q + Phi(w2) is capped below 1
    W = np.concatenate([
        np.linspace(-45.0, 45.0, 241),
        [-CLAMP, CLAMP, -39.0, 39.0, -0.0, 1e-300, 8.2, 8.3, 37.9999],
    ]).tolist()
    QS = (0.5000001, 0.6, 0.8, 0.97, 0.9999, 1.0 - 1e-12)

    @staticmethod
    def vector_upper_endpoint(q, w2):
        mass = min(q + float(std_normal_cdf(w2)), np.nextafter(1.0, 0.0))
        return float(np.clip(std_normal_quantile(mass), -CLAMP, CLAMP))

    def test_upper_endpoint(self):
        capped = 0
        for q in self.QS:
            for w2 in self.W:
                capped += q + float(std_normal_cdf(w2)) >= 1.0
                assert certify._upper_endpoint(q, w2) == \
                    self.vector_upper_endpoint(q, w2), (q, w2)
        assert capped > 100

    def test_cdf_and_pdf(self):
        for w in self.W:
            assert certify._cdf(w) == float(std_normal_cdf(w)), w
            assert certify._pdf(w) == float(std_normal_pdf(w)), w

    @pytest.mark.parametrize("q", QS)
    def test_interval_gap(self, q):
        # _solve_interval bisects the scalar gap; bisecting the vectorised
        # gap must land on the same endpoints
        def vector_gap(w2, m1):
            w1 = self.vector_upper_endpoint(q, w2)
            return float(std_normal_pdf(w2) - std_normal_pdf(w1)) - m1

        w2_max = float(std_normal_quantile(1.0 - q)) - 1e-12
        for frac in (-1.0, -0.9, -0.3, 0.0, 0.4, 0.99):
            m1 = frac * max_gradient_magnitude(q)
            w2, w1 = _solve_interval(q, m1)
            if frac == -1.0:
                assert (w2, w1) == (-CLAMP, self.vector_upper_endpoint(q, -CLAMP))
                continue
            if vector_gap(w2_max, m1) > 0.0:
                assert w2 == bisect_root(lambda w: vector_gap(w, m1), -CLAMP,
                                         w2_max, tol=1e-13), (q, frac)
            else:
                assert w2 == w2_max, (q, frac)
            assert w1 == self.vector_upper_endpoint(q, w2), (q, frac)

    def test_interval_probability(self):
        for w2, w1 in ((-CLAMP, 0.3), (-2.0, 1.5), (-40.0, 40.0), (0.25, 8.3)):
            for r in self.W:
                want = (float(std_normal_cdf(w1 - r) - std_normal_cdf(w2 - r)),
                        float(std_normal_pdf(w2 - r) - std_normal_pdf(w1 - r)))
                assert _interval_probability(w2, w1, r) == want, (w2, w1, r)

    @staticmethod
    def plain_interval(q, m1):
        """``_solve_interval`` as one 51-step bisection of the gap over
        [-CLAMP, w2_max], with no Newton bracket."""
        big_m = max_gradient_magnitude(q)
        if m1 <= -big_m * (1.0 - 1e-12):
            return -CLAMP, certify._upper_endpoint(q, -CLAMP)
        if m1 >= big_m:
            return float(std_normal_quantile(1.0 - q)), CLAMP

        def gap(w2):
            return certify._pdf(w2) - certify._pdf(certify._upper_endpoint(q, w2)) - m1

        w2_max = float(std_normal_quantile(1.0 - q)) - 1e-12
        w2 = w2_max if gap(w2_max) <= 0.0 else bisect_root(gap, -CLAMP, w2_max,
                                                          tol=1e-13)
        return w2, certify._upper_endpoint(q, w2)

    def test_newton_bracket_keeps_the_bisection_bits(self, monkeypatch):
        # the Newton bracket only spares the bisection's evaluations outside
        # it: w2 and w1 equal the plain bisection's on 2,500 seeded (q, m1),
        # with q within 1e-6 of 1/2 and 1e-9 of 1, and m1 within 1e-12 M of
        # -M (the margin's edge) and near 0, in at most half the gap
        # evaluations (one _upper_endpoint call each)
        calls = [0]
        orig = certify._upper_endpoint

        def counted(q, w2):
            calls[0] += 1
            return orig(q, w2)

        monkeypatch.setattr(certify, "_upper_endpoint", counted)
        gen = np.random.default_rng(22)
        plain = newton = 0
        for i in range(2500):
            kind = i % 5
            if kind == 0:
                q = 0.5 + float(gen.uniform(0.0, 1e-6))
            elif kind == 1:
                q = 1.0 - 10.0 ** float(gen.uniform(-9.0, -1.0))
            else:
                q = float(gen.uniform(0.5, 1.0))
            big_m = max_gradient_magnitude(q)
            if kind == 2:
                m1 = -big_m * (1.0 - 10.0 ** float(gen.uniform(-13.0, -3.0)))
            elif kind == 3:
                m1 = big_m * float(gen.uniform(-1e-3, 1e-3))
            else:
                m1 = big_m * float(gen.uniform(-1.0, 1.0))
            calls[0] = 0
            want = self.plain_interval(q, m1)
            plain += calls[0]
            calls[0] = 0
            assert _solve_interval(q, m1) == want, (q, m1)
            newton += calls[0]
        assert newton < plain / 2, (newton / 2500, plain / 2500)

    def test_max_gradient_magnitude(self):
        # the scalar form against the array path it replaces, bit for bit,
        # over both tails of q
        qs = np.concatenate([10.0 ** -np.linspace(1.0, 300.0, 150),
                             np.linspace(0.001, 0.999, 501),
                             1.0 - 10.0 ** -np.linspace(1.0, 16.0, 76),
                             [0.5, 5e-324, np.nextafter(1.0, 0.0)]]).tolist()
        for q in qs:
            assert max_gradient_magnitude(q) == float(
                std_normal_pdf(std_normal_quantile(q))), q


class TestProbabilitySlope:
    # p(r) = integral phi(x - r) f(x) dx with 0 <= f <= 1, so the third
    # derivative of p is at most integral |phi'''| = 1.51 in size, and a
    # central difference at step DELTA is off by at most
    # 1.51 DELTA^2 / 6 = 2.5e-7.  Each p carries solver and quadrature error
    # below the residual tolerance 1e-10, which adds at most
    # 1e-10 / DELTA = 1e-7.
    DELTA = 1e-3
    TOL = 1.51 * DELTA ** 2 / 6.0 + 1e-10 / DELTA

    @pytest.mark.parametrize("stats, r, variant", [
        (_threat_path_stats(0.6, 0.75, 0.6), 0.3, DualVariant.FULL),
        (_threat_path_stats(0.6, 0.75, 0.6), 2.5, DualVariant.FULL),
        (_threat_path_stats(0.75, 0.6, 0.9), 0.9375, DualVariant.FULL),
        (_threat_path_stats(0.9, 0.75, 0.6), 1.5, DualVariant.FULL),
        (_threat_path_stats(0.97, 0.6, 0.9), 2.5, DualVariant.FULL),
        (REDUCED_STATS, 0.3, DualVariant.REDUCED_NO_SLOPE),
        (REDUCED_STATS, 0.9375, DualVariant.REDUCED_NO_SLOPE),
        # m2 = 0: the closed-form interval, which solve_dual refuses
        (_threat_path_stats(0.6, 1.0, 0.5), 0.3, "interval"),
        (_threat_path_stats(0.75, 1.0, 0.5), 1.5, "interval"),
        (_threat_path_stats(0.97, 1.0, 0.5), 2.5, "interval"),
    ])
    def test_matches_central_differences(self, stats, r, variant):
        # all three points take one variant, so the difference runs along
        # one branch of lower_bound_probability
        if variant == "interval":
            assert stats.m2 == 0.0
            _, slope = _interval_probability(*_solve_interval(stats.q, stats.m1), r)
        else:
            for rr in (r - self.DELTA, r, r + self.DELTA):
                assert solve_dual(stats, rr).variant is variant
            _, slope = probability_from_dual(solve_dual(stats, r))
        ref = (lower_bound_probability(stats, r + self.DELTA)
               - lower_bound_probability(stats, r - self.DELTA)) / (2.0 * self.DELTA)
        assert slope < 0.0
        assert abs(slope - ref) <= self.TOL, (slope, ref)


class TestLowerBoundProbability:
    def test_centering(self):
        for stats in (FirstOrderStats(0.7, -0.1, 0.2),
                      FirstOrderStats(0.95, 0.0, 0.05)):
            assert lower_bound_probability(stats, 0.0) == stats.q

    def test_halfspace_value(self):
        got = lower_bound_probability(HALFSPACE_STATS, 0.5)
        assert got == pytest.approx(0.6914625, abs=2e-3)

    def test_against_mc_oracle(self):
        stats = FirstOrderStats(0.8, 0.05, 0.1)
        dual = solve_dual(stats, 0.4)
        p, _ = probability_from_dual(dual)
        est, se = mc_worst_case_probability(dual, 0.4, 1_000_000, RngSpec(7, 1))
        assert abs(p - est) <= 3.0 * se

    def test_monotone_decay_nonpositive_m1(self):
        for stats in (FirstOrderStats(0.9, -0.05, 0.08),
                      FirstOrderStats(0.75, 0.0, 0.2),
                      FirstOrderStats(0.85, -0.15, 0.05)):
            grid = np.arange(0.0, 4.0 + 1e-9, 0.05)
            values = [lower_bound_probability(stats, float(r)) for r in grid]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-7), f"violation for {stats}"

    def test_range(self):
        stats = FirstOrderStats(0.9, -0.05, 0.08)
        for r in (0.1, 1.0, 3.0, 8.0):
            p = lower_bound_probability(stats, r)
            assert 0.0 <= p <= stats.q + 1e-9

    def test_interval_alone_near_one_half(self, monkeypatch):
        # within _Q_SMOOTH_FLOOR of 1/2 the radius search takes p_int alone,
        # and so does the cold bound: no dual is solved there.  These stats
        # lie near the perpendicular boundary, where such solves took up to
        # 0.14 s, and at r = 0.3 the dual's g = 0.4812 was above p_int
        stats = FirstOrderStats(0.5003, -0.05, 0.39)
        interval = _solve_interval(stats.q, stats.m1)
        solves = []
        monkeypatch.setattr(certify, "solve_dual", lambda *args, **kw: solves.append(args))
        for r in (0.006, 0.05, 0.1, 0.3):
            want = _interval_probability(*interval, r)[0]
            assert lower_bound_probability(stats, r) == want, r
        assert not solves

    def test_zero_gradient_info_is_cohen(self):
        stats = FirstOrderStats(0.9, 0.0, 0.0)
        got = lower_bound_probability(stats, 1.0)
        from helpers import QUANTILE_09
        assert got == pytest.approx(float(cdf(QUANTILE_09 - 1.0)), abs=1e-12)


class TestGridSearch:
    # synthetic probes on a 1,024-point grid: p falls linearly through 1/2
    # between indices 409 and 410
    TOP = 1024

    @classmethod
    def linear(cls, k):
        h = R_CAP_DEFAULT / cls.TOP
        return 0.9 - k / cls.TOP, -1.0 / (cls.TOP * h)

    def test_finite_probe_finds_the_root(self):
        assert _grid_search(self.linear, self.TOP, 512) == 409

    def test_nan_probability_raises(self):
        # a nan p used to read as p >= 1/2, so the search ran on to the cap
        # and returned None, the capped 10 sigma radius
        def nan_above_root(k):
            return (math.nan, math.nan) if k >= 600 else self.linear(k)

        for probe in (lambda k: (math.nan, math.nan), nan_above_root):
            with pytest.raises(NumericalError):
                _grid_search(probe, self.TOP, 700)

    def test_nan_interval_probability_fails_the_radius(self, monkeypatch):
        monkeypatch.setattr(certify, "_interval_probability",
                            lambda w2, w1, r: (math.nan, math.nan))
        with pytest.raises(NumericalError):
            directional_radius(FirstOrderStats(0.8, -0.1, 0.0),
                               SmoothingConfig(0.25, 152), tol=1e-3)


class TestDirectionalRadius:
    def test_residual_evaluation_count(self, monkeypatch):
        # each evaluation yields F and J from one grid, so a Newton step
        # costs only its line-search trials, and the Newton search over r
        # needs a few dual solves here (bisection needed 15 solves and 86
        # evaluations; reading p off a second grid, 4 and 17); the radius
        # is pinned exactly
        calls = []
        solves = []
        orig = certify._dual_residual
        orig_solve = certify.solve_dual

        def counted(*args, **kwargs):
            calls.append(args[0])
            return orig(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            solves.append(args[1])
            return orig_solve(*args, **kwargs)

        monkeypatch.setattr(certify, "_dual_residual", counted)
        monkeypatch.setattr(certify, "solve_dual", counted_solve)
        res = directional_radius(FirstOrderStats(0.8, -0.1, 0.2),
                                 SmoothingConfig(0.25, 152), tol=1e-3)
        assert 0 < len(calls) <= 12
        assert 0 < len(solves) <= 3
        assert res.radius == 0.3076171875

    def test_reduced_dual_decides_a_radius(self, monkeypatch):
        # near the perpendicular boundary no FULL start converges at the
        # first dual probe, p_int's root r = 2677 h, where the reduced
        # dual's g = 0.5069 beats p_int = 0.5000 and moves the search up;
        # without the reduced dual, p_int stands alone there and the radius
        # falls by 36%
        stats = FirstOrderStats(0.520393343347359, -0.05708384304293382,
                                0.3929982007745405)
        cfg = SmoothingConfig(0.5, 152)
        r = 2677 * R_CAP_DEFAULT / 2 ** 17
        interval = _solve_interval(stats.q, stats.m1)
        p_int = _interval_probability(*interval, r)[0]
        dual = solve_dual(stats, r, interval=interval)
        assert dual.variant is DualVariant.REDUCED_NO_SLOPE
        assert 0.5 <= p_int < 0.5001 < 0.5068 < dual.bound
        assert directional_radius(stats, cfg, tol=1e-4) == \
            RadiusResult(0.15872955322265625)

        def no_reduced(stats, r):
            raise NoConvergenceError("reduced dual disabled", math.inf)

        monkeypatch.setattr(certify, "_reduced_dual", no_reduced)
        assert directional_radius(stats, cfg, tol=1e-4) == \
            RadiusResult(0.10211944580078125, fallback_used=True)

    def test_one_interval_solve_per_radius(self, monkeypatch):
        # the search solves the m2 = 0 interval once and hands it to the
        # dual's cold start, which would otherwise bisect it again
        intervals = []
        bisections = []
        orig_interval = certify._solve_interval
        orig_bisect = certify.bisect_root

        def counted_interval(*args):
            intervals.append(args)
            return orig_interval(*args)

        def counted_bisect(*args, **kwargs):
            bisections.append(args)
            return orig_bisect(*args, **kwargs)

        monkeypatch.setattr(certify, "_solve_interval", counted_interval)
        monkeypatch.setattr(certify, "bisect_root", counted_bisect)
        cfg = SmoothingConfig(0.25, 152)
        res = directional_radius(FirstOrderStats(0.8, -0.1, 0.2), cfg, tol=1e-3)
        assert res.radius == 0.3076171875
        assert len(intervals) == 1 and len(bisections) == 1
        for s in THREAT_PATH_STATS:
            if s.m2 == 0.0:
                continue
            intervals.clear()
            bisections.clear()
            directional_radius(s, cfg, tol=1e-3)
            assert intervals == [(s.q, s.m1)], s
            assert len(bisections) == 1, s

    def test_handed_interval_gives_the_same_dual(self):
        # solve_dual solves the interval itself when it is not handed one
        for s in THREAT_PATH_STATS:
            if s.m2 == 0.0:
                continue
            interval = _solve_interval(s.q, s.m1)
            for r in (0.05, 0.4, 1.2):
                assert solve_dual(s, r) == solve_dual(s, r, interval=interval), (s, r)

    # (stats, sigma, tol) near q = 1/2 whose radius used to rest on the
    # FULL dual alone: cold re-checks fell back to the reduced dual and
    # gave p(R / sigma) = 0.49422 and 0.49735
    LOW_Q = [
        (FirstOrderStats(0.501, -0.0453201, 0.1942539), 1.0, 1e-4),
        (FirstOrderStats(0.5009517390995611, -0.07997217440208439,
                         0.19080074446840348), 0.25, 1e-5),
    ]

    def test_stops_at_last_grid_point_below_root(self):
        # R / sigma is the largest point k h of bisection's grid with
        # p >= 1/2: cold solves give p(R / sigma) >= 1/2 > p(R / sigma + h)
        cases = [(s, sigma, tol) for s in THREAT_PATH_STATS
                 for tol in (1e-3, 1e-4) for sigma in (0.25, 1.0)]
        for s, sigma, tol in cases + self.LOW_Q:
            res = directional_radius(s, SmoothingConfig(sigma, 152), tol=tol)
            assert not res.capped
            # the m2 = 0 interval branch bisects to at most 1e-9
            scaled = tol / sigma if s.m2 > 0.0 else min(tol / sigma, 1e-9)
            h = R_CAP_DEFAULT / 2 ** bisection_steps(R_CAP_DEFAULT, scaled)
            r = res.radius / sigma
            assert (r / h).is_integer(), (s, tol, sigma, r)
            assert lower_bound_probability(s, r) >= 0.5, (s, tol, sigma)
            assert lower_bound_probability(s, r + h) < 0.5, (s, tol, sigma)

    def test_reported_radius_is_safe(self):
        # a radius is a safety claim: the worst-case probability at the
        # reported R must be at least 1/2, so the bisection over r keeps
        # the bracket end below the root instead of the midpoint
        stats = []
        for q in (0.6, 0.75, 0.9, 0.97):
            big_m = max_gradient_magnitude(q)
            # the interval branch (m2 = 0), then two smooth threat-path angles
            for turn, frac in ((1.0, 0.5), (0.75, 0.6), (0.6, 0.9)):
                mag = frac * big_m
                m2 = 0.0 if turn == 1.0 else mag * math.sin(math.pi * turn)
                stats.append(FirstOrderStats(q, mag * math.cos(math.pi * turn), m2))
        for s in stats:
            for tol in (1e-3, 1e-4):
                # powers of two, so R / sigma gives back r* exactly
                for sigma in (0.25, 1.0):
                    res = directional_radius(s, SmoothingConfig(sigma, 152), tol=tol)
                    assert not res.capped
                    p = lower_bound_probability(s, res.radius / sigma)
                    assert p >= 0.5, (s, tol, sigma, p)

    @staticmethod
    def _record_travel(monkeypatch, name):
        """Record the travel distance of every call to ``certify.<name>``."""
        seen = []
        orig = getattr(certify, name)

        def recorded(stats, r, *args, **kwargs):
            seen.append(r)
            return orig(stats, r, *args, **kwargs)

        monkeypatch.setattr(certify, name, recorded)
        return seen

    def test_smooth_branch_caps(self, monkeypatch):
        # m1 at the feasible magnitude with a small smooth m2: the m2 = 0
        # interval is [Phi^-1(1 - q), CLAMP] and its root lies past the
        # cap, so the search solves the dual there first, and p at the cap
        # is still >= 1/2
        solved = self._record_travel(monkeypatch, "solve_dual")
        cfg = SmoothingConfig(1.0, 4)
        big_m = max_gradient_magnitude(0.9)
        stats = FirstOrderStats(0.9, big_m, 1e-6)
        assert stats.m2 > certify.M2_DEGENERATE
        res = directional_radius(stats, cfg, tol=1e-3)
        assert res == RadiusResult(cfg.sigma * R_CAP_DEFAULT, capped=True)
        assert solved == [R_CAP_DEFAULT]
        assert lower_bound_probability(stats, R_CAP_DEFAULT) >= 0.5

    def test_newton_past_cap_probes_it(self, monkeypatch):
        # a near-boundary gradient turned toward the travel direction: Newton
        # from the first probe points past the cap, the cap's p is < 1/2,
        # and the search goes on below it to bisection's grid point
        solved = self._record_travel(monkeypatch, "solve_dual")
        cfg = SmoothingConfig(1.0, 4)
        q, tol = 0.6, 1e-3
        mag = 0.999 * max_gradient_magnitude(q)
        stats = FirstOrderStats(q, mag * math.cos(0.6), mag * math.sin(0.6))
        res = directional_radius(stats, cfg, tol=tol)
        assert solved[1] == R_CAP_DEFAULT
        assert not res.capped
        h = R_CAP_DEFAULT / 2 ** bisection_steps(R_CAP_DEFAULT, tol)
        assert (res.radius / h).is_integer()
        assert lower_bound_probability(stats, res.radius) >= 0.5
        assert lower_bound_probability(stats, res.radius + h) < 0.5

    def test_q_near_half_returns_the_interval_radius(self, monkeypatch):
        # within _Q_SMOOTH_FLOOR of 1/2 the exponential basis degenerates;
        # the smooth branch returns the m2 = 0 interval's radius, a proven
        # bound (0.0029755 against the zeroth-order 0.00075199), unsolved
        def down(*args, **kwargs):
            raise AssertionError("no dual solve expected")

        monkeypatch.setattr(certify, "solve_dual", down)
        cfg = SmoothingConfig(1.0, 4)
        q = 0.5003
        mag = 0.6 * max_gradient_magnitude(q)
        stats = FirstOrderStats(q, mag * math.cos(2.0), mag * math.sin(2.0))
        res = directional_radius(stats, cfg, tol=1e-4)
        assert res == RadiusResult(0.0029754638671875)
        assert res.radius > zeroth_radius_l2(q, cfg)

    def test_solves_near_half_once_per_bracket_end(self, monkeypatch):
        # the interval's root lies just above the smooth floor; the dual is
        # solved at the two ends of the final bracket and never re-solved
        # cold at the floor
        solved = self._record_travel(monkeypatch, "solve_dual")
        cfg = SmoothingConfig(1.0, 4)
        stats = _threat_path_stats(0.5006, 0.6, 0.9)
        res = directional_radius(stats, cfg, tol=1e-4)
        assert len(solved) <= 2, solved
        assert min(solved) >= certify._R_SMOOTH_FLOOR
        assert lower_bound_probability(stats, res.radius) >= 0.5

    @pytest.mark.parametrize("frac, radius, below", [
        (0.5, 0.0061798095703125, 0),
        (0.9, 0.00347137451171875, 2),
    ])
    def test_no_dual_below_smooth_floor(self, monkeypatch, frac, radius, below):
        # q just above the q floor: below _R_SMOOTH_FLOOR a probe of the
        # search takes the interval's closed-form p and exact slope, with no
        # dual solve and no cold re-solve through lower_bound_probability
        probed = []
        orig = certify._worst_case

        def recorded(stats, interval, r, *args, **kwargs):
            probed.append(r)
            return orig(stats, interval, r, *args, **kwargs)

        monkeypatch.setattr(certify, "_worst_case", recorded)
        solved = self._record_travel(monkeypatch, "solve_dual")
        checked = self._record_travel(monkeypatch, "lower_bound_probability")
        cfg = SmoothingConfig(1.0, 4)
        q, tol = 0.501, 1e-4
        mag = frac * max_gradient_magnitude(q)
        stats = FirstOrderStats(q, mag * math.cos(2.5), mag * math.sin(2.5))
        res = directional_radius(stats, cfg, tol=tol)
        assert sum(r < certify._R_SMOOTH_FLOOR for r in probed) == below
        assert all(r >= certify._R_SMOOTH_FLOOR for r in solved), solved
        assert checked == []
        assert res.radius == radius
        h = R_CAP_DEFAULT / 2 ** bisection_steps(R_CAP_DEFAULT, tol)
        assert lower_bound_probability(stats, res.radius) >= 0.5
        assert lower_bound_probability(stats, res.radius + h) < 0.5
        assert res.radius >= zeroth_radius_l2(q, cfg)

    @pytest.mark.parametrize("stats, sigma, tol, radius", [
        (FirstOrderStats(0.9999996618769594, -5.71e-7, 1.626e-6), 0.427, 1.5e-4,
         2.15480712890625),
        # M = 1.02e-8 and 1.2e-8, m1 = -0.01 M, m2 = 0.9999 M: m2 lies below
        # M2_DEGENERATE, so no dual is solved and the m2 = 0 interval's
        # radius, on its grid at most 1e-9 wide, is the certificate
        (FirstOrderStats(0.9999999983206066, -1.0200000000000001e-10,
                         1.0198980000000001e-08), 1.0, 1e-4, 6.024501172360033),
        (FirstOrderStats(0.9999999980154639, -1.2e-10, 1.19988e-08), 1.0, 1e-4,
         5.997438761405647),
    ])
    def test_unsolved_dual_falls_back_to_the_interval(self, stats, sigma, tol,
                                                      radius):
        # near q = 1 neither the full nor the reduced dual converges at the
        # root, or m2 is too small for the dual's residual to resolve; the
        # interval's p, a proven lower bound, decides the radius, and a
        # fallback is reported when a dual was tried and failed
        cfg = SmoothingConfig(sigma, 152)
        res = directional_radius(stats, cfg, tol=tol)
        if stats.m2 >= M2_DEGENERATE:
            assert res == RadiusResult(radius, fallback_used=True)
            with pytest.raises(NoConvergenceError):
                solve_dual(stats, radius / sigma)
        else:
            assert res == RadiusResult(radius)
            assert res == directional_radius(FirstOrderStats(stats.q, stats.m1, 0.0),
                                             cfg, tol=tol)
        assert lower_bound_probability(stats, radius / sigma) >= 0.5

    def test_cold_recheck_near_q_one(self):
        # q within 3e-8 of 1 with m2 below M2_DEGENERATE: the dual's absolute
        # residual is a sizeable part of m2 there, and with it the radius was
        # 5.6610870361328125, where a cold solve gave p = 0.49997 and the
        # interval 0.4663.  The interval alone now decides, and its p holds
        # at the radius
        stats = FirstOrderStats(0.9999999778131261, -1.3151980652761033e-08,
                                7.847460451507082e-08)
        assert stats.m2 < M2_DEGENERATE
        res = directional_radius(stats, SmoothingConfig(1.0, 152), tol=1.5e-4)
        assert res == RadiusResult(5.576519665191881)
        assert lower_bound_probability(stats, res.radius) >= 0.5

    def test_abstain(self):
        cfg = SmoothingConfig(1.0, 4)
        res = directional_radius(FirstOrderStats(0.5, 0.0, 0.0), cfg)
        assert res == RadiusResult(0.0)

    def test_halfspace_radius(self):
        cfg = SmoothingConfig(1.0, 4)
        res = directional_radius(HALFSPACE_STATS, cfg)
        assert res.radius == pytest.approx(1.0, rel=0.02)
        assert not res.capped

    def test_degenerate_equals_zeroth(self):
        cfg = SmoothingConfig(0.5, 4)
        res = directional_radius(FirstOrderStats(0.9, 0.0, 0.0), cfg)
        from helpers import QUANTILE_09
        assert res.radius == pytest.approx(0.5 * QUANTILE_09, abs=1e-12)

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-8])
    def test_interval_search_is_bisection(self, tol):
        # the m2 = 0 radius and its capped flag are those of bisect_root
        # over the same closed-form p, on the same grid, for q up to 1e-12
        # from 1/2, m1 of either sign and magnitudes up to the cap.  Much
        # finer grids are left out: at q = 1/2 + 1e-12 and tol = 1e-12, p
        # moves less than its rounding error per grid step, so its computed
        # values cross 1/2 more than once and either search may stop at
        # another crossing
        cfg = SmoothingConfig(0.37, 4)
        grid = min(max(tol / cfg.sigma, 1e-12), 1e-9)
        for q in (0.5 + 1e-12, 0.5 + 1e-7, 0.5 + 1e-4, 0.6, 0.9, 0.999, 1 - 1e-9):
            zeroth = zeroth_radius_l2(q, cfg)
            big_m = max_gradient_magnitude(q)
            for frac in (-1.0, -(1 - 1e-12), -0.999, -0.5, -1e-6, 0.3, 0.999,
                         1 - 1e-7, 1.0):
                stats = FirstOrderStats(q, frac * big_m, 0.0)
                # every m1 has endpoints, up to m1 = (1 - 1e-7) M at q = 1 - 1e-9
                w2, w1 = _solve_interval(q, stats.m1)

                def excess(r):
                    return _interval_probability(w2, w1, r)[0] - 0.5

                if excess(R_CAP_DEFAULT) >= 0.0:
                    want = RadiusResult(cfg.sigma * R_CAP_DEFAULT, capped=True)
                else:
                    r = bisect_root(excess, 0.0, R_CAP_DEFAULT, tol=grid)
                    want = RadiusResult(max(cfg.sigma * r, zeroth))
                assert directional_radius(stats, cfg, tol=tol) == want, (q, frac)

    def test_interval_path_matches_oracle(self):
        cfg = SmoothingConfig(1.0, 4)
        q, m1 = 0.9, -0.08
        res = directional_radius(FirstOrderStats(q, m1, 0.0), cfg, tol=1e-8)
        assert res.radius == pytest.approx(interval_radius_oracle(q, m1), abs=1e-6)

    def test_perpendicular_boundary_caps(self):
        # gradient fully perpendicular at exactly maximal magnitude: the
        # worst case is the perpendicular halfspace, unbounded along the ray
        cfg = SmoothingConfig(1.0, 4)
        q = 0.9
        m2 = max_gradient_magnitude(q)
        res = directional_radius(FirstOrderStats(q, 0.0, m2), cfg)
        assert res.capped
        assert res.radius == pytest.approx(10.0, rel=1e-12)
        # slightly inside the boundary the certified radius is finite but
        # still dominates the zeroth-order value
        near = directional_radius(FirstOrderStats(q, 0.0, m2 * (1 - 1e-4)), cfg)
        assert not near.capped
        assert near.radius >= cfg.sigma * 1.2815515655446004 - 1e-9

    def test_toward_gradient_caps(self):
        # traveling into the halfspace interior never loses probability
        cfg = SmoothingConfig(1.0, 4)
        q = 0.9
        big_m = max_gradient_magnitude(q)
        res = directional_radius(FirstOrderStats(q, big_m, 0.0), cfg)
        assert res.capped
        # shrunk off the boundary the interval's far edge is finite
        near = directional_radius(FirstOrderStats(q, big_m * (1 - 1e-6), 0.0), cfg)
        assert not near.capped
        assert near.radius > 5.0

    @pytest.mark.parametrize("frac", [1 - 5e-12, 1 - 5e-13])
    def test_interval_never_rounds_m1_up(self, frac):
        # m1 within rounding of M: the endpoints keep the mass q and a
        # moment phi(w2) - phi(w1) no larger than m1, a weaker constraint,
        # instead of failing to bracket or taking the m1 = M closed form
        q = 0.8
        m1 = frac * max_gradient_magnitude(q)
        w2, w1 = _solve_interval(q, m1)
        assert float(cdf(w1) - cdf(w2)) == pytest.approx(q, abs=1e-12)
        assert float(phi(w2) - phi(w1)) <= m1
        res = directional_radius(FirstOrderStats(q, m1, 0.0), SmoothingConfig(1.0, 4),
                                 tol=1e-6)
        assert not res.capped
        assert res.radius == pytest.approx(7.2099, abs=1e-4)

    def test_angular_monotonicity_interior(self):
        res = _check_angular(0.85, mag_frac=0.75, angles=9)
        assert res.passed, res.detail

    def test_dominates_zeroth(self):
        cfg = SmoothingConfig(1.0, 4)
        zeroth = cfg.sigma * float(np.asarray(1.0363393754396345))  # Phi^-1(0.85)
        for theta in (0.3, 1.2, 2.4, 3.0):
            mag = 0.6 * max_gradient_magnitude(0.85)
            stats = FirstOrderStats(0.85, mag * math.cos(theta),
                                    mag * abs(math.sin(theta)))
            res = directional_radius(stats, cfg)
            assert res.radius >= zeroth - 1e-9
