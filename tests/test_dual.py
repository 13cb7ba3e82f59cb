"""Worst-case dual solver: spec examples, invariants, and oracle agreement."""

import math

import numpy as np
import pytest

from smoothcert import certify
from smoothcert.certify import (
    M2_DEGENERATE,
    R_CAP_DEFAULT,
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
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from smoothcert.selftest import _check_angular, _check_interval_floor

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
        residuals, _ = _dual_residual(theta, stats, 0.3, full=True)
        assert np.max(np.abs(residuals)) <= 1e-9

    @pytest.mark.parametrize("theta, r, full", RESIDUAL_THETAS)
    def test_jacobian_matches_central_differences(self, theta, r, full):
        stats = RESIDUAL_STATS
        theta = np.array(theta)
        _, jac = _dual_residual(theta, stats, r, full)
        ref = central_difference_jacobian(
            lambda th: _dual_residual(th, stats, r, full)[0], theta)
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
        assert (dual.c0, dual.c1, dual.c2) == (4.348574752892094, 0.0,
                                               -2.0591584841381723)

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


def _untruncated_residual(theta, stats, r, full):
    """F and J of the dual from the full integrands, on ``_dual_residual``'s
    grid with its dot and matmul order: phi(c) and Phi(c) at every node,
    and dc = 0 where c is clipped or the exponent capped."""
    c0, c1, u = _coefficients(theta, full)
    half = certify._DOMAIN_HALF_WIDTH
    x, w = certify._dual_grid(c0, c1, u, r, -half, half)
    c, e = certify._c_values(x, c0, c1, u, r)
    base = w * std_normal_pdf(x)
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
    """p(r) and dp/dr from the full integrand, on ``_probability_from_coeffs``'s
    grid with its dot order."""
    half = certify._DOMAIN_HALF_WIDTH
    x, w = certify._dual_grid(c0, c1, u, r, r - half, r + half)
    c, _ = certify._c_values(x, c0, c1, u, r)
    z = x - r
    density = w * std_normal_pdf(z)
    cdf_c = std_normal_cdf(c)
    return min(max(float(density @ cdf_c), 0.0), 1.0), float((density * z) @ cdf_c)


# a solve_grid residual point (seed 106) whose c passes x = -12 at -34.87:
# there phi(c) is kept, and its Jacobian products come within a factor 2
# of the smallest normal float
GRID_POINT = ((7.115184496938647, 3.499236248398088, -0.6803064951101936),
              1.810302734375, True,
              FirstOrderStats(0.943784967564801, -0.02645069755982607,
                              0.018337338904590907))

# (c0, c1, u, r) whose c reaches the clip at -CLAMP inside the objective's
# window; the untruncated p runs exp(-722) there
CLIPPED_COEFFICIENTS = [
    (0.0, 20.0, -2.0, 0.3),
    # solve_dual(FirstOrderStats(0.9, -0.05, 0.08), 0.3)
    (20.66211672049992, 5.345608358176345, math.log(18.000779882464258), 0.3),
    # solve_dual(FirstOrderStats(0.6, -0.05, 0.1), 1.0)
    (9.882876095805912, 7.31554775533828, math.log(7.177999840318478), 1.0),
]


class TestTailFlush:
    """The dual's integrands drop phi(c) and Phi(c) in the tail |c| >= _TAIL.

    The untruncated integrands reach exp(-722), a subnormal, wherever c is
    clipped, and 7 of the 8 ``RESIDUAL_THETAS`` raised under
    ``np.errstate(under="raise")`` before the tail was dropped.
    """

    @pytest.mark.parametrize("theta, r, full",
                             RESIDUAL_THETAS + [GRID_POINT[:3]])
    def test_residual_stays_out_of_subnormals(self, theta, r, full):
        stats = GRID_POINT[3] if theta == GRID_POINT[0] else RESIDUAL_STATS
        with np.errstate(under="raise"):
            _dual_residual(np.array(theta), stats, r, full)

    @pytest.mark.parametrize("coefficients", CLIPPED_COEFFICIENTS)
    def test_probability_stays_out_of_subnormals(self, coefficients):
        with np.errstate(under="raise"):
            certify._probability_from_coeffs(*coefficients)

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
    ])
    def test_dropped_terms_move_no_bit(self, theta, r, full, stats):
        c0, c1, u = _coefficients(theta, full)
        half = certify._DOMAIN_HALF_WIDTH
        x, _ = certify._dual_grid(c0, c1, u, r, -half, half)
        c, _ = certify._c_values(x, c0, c1, u, r)
        assert np.any(np.abs(c) >= certify._TAIL)  # the flush drops terms
        f, jac = _dual_residual(np.array(theta), stats, r, full)
        f_ref, jac_ref = _untruncated_residual(theta, stats, r, full)
        assert np.array_equal(f, f_ref) and np.array_equal(jac, jac_ref)
        p_and_slope = certify._probability_from_coeffs(c0, c1, u, r)
        assert p_and_slope == _untruncated_probability(c0, c1, u, r)

    @pytest.mark.parametrize("coefficients", CLIPPED_COEFFICIENTS)
    def test_dropped_terms_move_no_bit_of_p(self, coefficients):
        got = certify._probability_from_coeffs(*coefficients)
        assert got == _untruncated_probability(*coefficients)


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
        # evaluations); the radius is pinned exactly
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
        assert len(calls) <= 40
        assert len(solves) <= 5
        assert res.radius == 0.3076171875

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
