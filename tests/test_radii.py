"""Threat-model radius entry points against the linear-classifier oracle."""

import math

import numpy as np
import pytest

from smoothcert import certify
from smoothcert.certify import (
    FirstOrderStats,
    GradientNormBounds,
    LinfMode,
    RadiusResult,
    SmoothingConfig,
    ThreatModel,
    directional_radius,
    first_order_radius,
    max_gradient_magnitude,
    radius_l1_first,
    radius_l2_first,
    radius_linf_first,
    radius_subspace,
    zeroth_radius_l2,
)
from smoothcert.classifiers import (
    RngSpec,
    analytic_linear_radius,
    analytic_linear_stats,
)
from smoothcert.numerics import DomainError
from smoothcert.selftest import _check_halfspace, random_halfspace_case

from helpers import MAX_GRAD_09, QUANTILE_09, interval_system_oracle


class TestRadiusL2:
    def test_abstain(self):
        cfg = SmoothingConfig(1.0, 4)
        res = radius_l2_first(0.5, 0.1, cfg)
        assert res == RadiusResult(0.0)

    def test_maximal_gradient_matches_zeroth(self):
        cfg = SmoothingConfig(1.0, 4)
        res = radius_l2_first(0.9, MAX_GRAD_09, cfg)
        assert res.radius == pytest.approx(QUANTILE_09, rel=0.01)

    def test_half_gradient_strictly_larger(self):
        cfg = SmoothingConfig(1.0, 4)
        res = radius_l2_first(0.9, MAX_GRAD_09 / 2.0, cfg, tol=1e-8)
        assert res.radius > QUANTILE_09 * 1.05
        # cross-check: the worst-case slab at the computed radius holds
        # probability 1/2, by interval-membership Monte Carlo
        w2, w1 = interval_system_oracle(0.9, -MAX_GRAD_09 / 2.0)
        n = 1_000_000
        z1 = RngSpec(21, 4).generator().standard_normal(n) + res.radius
        est = float(np.mean((z1 >= w2) & (z1 <= w1)))
        assert abs(est - 0.5) <= 3.0 * math.sqrt(est * (1.0 - est) / n)

    def test_vacuous_bound_collapses_to_zeroth(self):
        cfg = SmoothingConfig(0.5, 4)
        res = radius_l2_first(0.9, math.inf, cfg)
        assert res.radius == pytest.approx(zeroth_radius_l2(0.9, cfg), rel=1e-6)


class TestRadiusL1:
    def test_aligned_gradient_reduces_to_interval_geometry(self):
        # gradient concentrated on one axis: l2_lower = linf_upper, so the
        # perpendicular term vanishes and the path equals the pure l2 one
        cfg = SmoothingConfig(1.0, 4)
        bounds = GradientNormBounds(l2_lower=0.1, l2_upper=0.1, linf_upper=0.1)
        res = radius_l1_first(0.85, bounds, cfg, tol=1e-8)
        ref = directional_radius(FirstOrderStats(0.85, -0.1, 0.0), cfg, tol=1e-8)
        assert res.radius == pytest.approx(ref.radius, abs=1e-9)

    def test_halfspace_flat_weights(self):
        # w = (1,1,1,1)/2, margin 1, sigma = 1: l1 radius -> margin/||w||inf = 2
        cfg = SmoothingConfig(1.0, 4)
        w = np.full(4, 0.5)
        y0, y1 = analytic_linear_stats_from(w, cfg)
        s = 1.0 - 1e-6
        l2, linf = np.linalg.norm(y1), np.max(np.abs(y1))
        bounds = GradientNormBounds(l2_lower=float(l2) * s,
                                    l2_upper=float(l2),
                                    linf_upper=float(linf) * s)
        res = radius_l1_first(y0, bounds, cfg)
        assert res.radius == pytest.approx(2.0, rel=0.05)
        assert res.radius >= 1.5 * zeroth_radius_l2(y0, cfg)

    def test_inconsistent_intervals_clamp_m2(self):
        cfg = SmoothingConfig(1.0, 4)
        bounds = GradientNormBounds(l2_lower=0.05, l2_upper=0.2, linf_upper=0.12)
        res = radius_l1_first(0.85, bounds, cfg)
        assert res.radius > 0.0  # m2 clamped to 0, certificate still valid


def analytic_linear_stats_from(w, cfg):
    from smoothcert.classifiers import LinearClassifierSpec

    w = np.asarray(w, dtype=float)
    x = w / float(w @ w)  # margin exactly 1
    return analytic_linear_stats(LinearClassifierSpec(w=w, b=0.0), x, cfg)


class TestRadiusLinf:
    def test_dimension_one_collapse(self):
        cfg = SmoothingConfig(1.0, 1)
        bounds = GradientNormBounds(l2_lower=0.08, l2_upper=0.1, linf_upper=0.1,
                                    l1_upper=0.1)
        l2r = radius_l2_first(0.8, bounds.l2_upper, cfg).radius
        via_l2 = radius_linf_first(0.8, bounds, cfg,
                                   mode=LinfMode.VIA_L2_SCALING).radius
        assert via_l2 == pytest.approx(l2r, rel=1e-9)

    def test_via_l2_scaling(self):
        cfg = SmoothingConfig(1.0, 4)
        bounds = GradientNormBounds(l2_lower=0.0, l2_upper=MAX_GRAD_09,
                                    linf_upper=MAX_GRAD_09)
        res = radius_linf_first(0.9, bounds, cfg, mode=LinfMode.VIA_L2_SCALING)
        assert res.radius == pytest.approx(QUANTILE_09 / 2.0, rel=0.01)

    def test_one_hot_halfspace_via_l1(self):
        # w = (1,0,0,0), margin 1, d=4: linf radius -> margin/||w||_1 = 1
        cfg = SmoothingConfig(1.0, 4)
        w = np.array([1.0, 0.0, 0.0, 0.0])
        y0, y1 = analytic_linear_stats_from(w, cfg)
        s = 1.0 - 1e-6
        l2, l1 = float(np.linalg.norm(y1)), float(np.sum(np.abs(y1)))
        bounds = GradientNormBounds(l2_lower=l2 * s, l2_upper=l2,
                                    linf_upper=l2, l1_upper=l1 * s)
        res = radius_linf_first(y0, bounds, cfg, mode=LinfMode.VIA_L1_BOUND)
        assert res.radius == pytest.approx(1.0, rel=0.05)

    def test_missing_l1_bound(self):
        cfg = SmoothingConfig(1.0, 4)
        bounds = GradientNormBounds(l2_lower=0.0, l2_upper=0.1, linf_upper=0.1)
        with pytest.raises(DomainError):
            radius_linf_first(0.8, bounds, cfg, mode=LinfMode.VIA_L1_BOUND)


class TestRadiusSubspace:
    def test_full_space_equals_l2_path(self):
        cfg = SmoothingConfig(1.0, 4)
        bounds = GradientNormBounds(l2_lower=0.1, l2_upper=0.1, linf_upper=0.1,
                                    subspace_dual_upper=0.1)
        sub = radius_subspace(0.85, bounds, 2, 4, cfg, tol=1e-8)
        l2r = radius_l2_first(0.85, 0.1, cfg, tol=1e-8)
        assert sub == l2r

    @pytest.mark.parametrize("p", [1, math.inf])
    def test_full_space_equals_threat_path(self, p):
        # over the full space the subspace bound is the threat's own dual
        # norm bound, so both paths run the same core and agree bit for bit;
        # sigma and d are chosen so that sigma / sqrt(d) and sigma * (1 /
        # sqrt(d)) differ in the last bit
        cfg = SmoothingConfig(0.3, 5)
        dual = 0.6 if p == 1 else 1.2
        bounds = GradientNormBounds(l2_lower=0.65, l2_upper=0.7, linf_upper=0.6,
                                    l1_upper=1.2, subspace_dual_upper=dual)
        sub = radius_subspace(0.8, bounds, p, cfg.dim, cfg, tol=1e-6)
        if p == 1:
            ref = radius_l1_first(0.8, bounds, cfg, tol=1e-6)
        else:
            ref = radius_linf_first(0.8, bounds, cfg, tol=1e-6,
                                    mode=LinfMode.VIA_L1_BOUND)
        assert sub == ref

    def test_halfspace_masked_gain(self):
        # w = (1,0,1,0), margin 1, subspace = first two coordinates:
        # ||P_S w||_2 = 1 vs ||w||_2 = sqrt(2), so the subspace radius gains
        # a factor sqrt(2) over the full-space l2 radius
        from smoothcert.classifiers import LinearClassifierSpec

        cfg = SmoothingConfig(1.0, 4)
        w = np.array([1.0, 0.0, 1.0, 0.0])
        spec = LinearClassifierSpec(w=w, b=0.0)
        x = w / float(w @ w)
        y0, y1 = analytic_linear_stats(spec, x, cfg)
        mask = (0, 1)
        proj = np.zeros_like(y1)
        proj[list(mask)] = y1[list(mask)]
        dual_upper = float(np.linalg.norm(proj))
        s = 1.0 - 1e-6
        bounds = GradientNormBounds(
            l2_lower=float(np.linalg.norm(y1)) * s,
            l2_upper=float(np.linalg.norm(y1)),
            linf_upper=float(np.max(np.abs(y1))),
            subspace_dual_upper=dual_upper * s,
        )
        res = radius_subspace(y0, bounds, 2, len(mask), cfg)
        want = analytic_linear_radius(spec, x, 2, mask=mask)
        assert want == pytest.approx(1.0)
        assert res.radius == pytest.approx(want, rel=0.05)
        full = radius_l2_first(y0, float(np.linalg.norm(y1)), cfg).radius
        assert res.radius > 1.3 * full

    def test_gradient_outside_subspace_caps(self):
        # P_S y1 = 0 with exact stats: the region is unbounded within S
        cfg = SmoothingConfig(1.0, 4)
        l2 = 0.9 * max_gradient_magnitude(0.85)
        bounds = GradientNormBounds(l2_lower=l2, l2_upper=l2, linf_upper=l2,
                                    subspace_dual_upper=0.0)
        res = radius_subspace(0.85, bounds, 2, 2, cfg)
        assert res.radius > 0.0
        # with the dual norm exactly zero and l2_lower exact the stats sit on
        # the perpendicular boundary only when l2_lower = max magnitude
        exact = max_gradient_magnitude(0.85)
        bounds2 = GradientNormBounds(l2_lower=exact, l2_upper=exact,
                                     linf_upper=exact, subspace_dual_upper=0.0)
        res2 = radius_subspace(0.85, bounds2, 2, 2, cfg)
        assert res2.capped
        assert res2.radius == pytest.approx(10.0, rel=1e-12)

    def test_parameter_validation(self):
        cfg = SmoothingConfig(1.0, 4)
        bounds = GradientNormBounds(l2_lower=0.0, l2_upper=0.1, linf_upper=0.1,
                                    subspace_dual_upper=0.1)
        with pytest.raises(DomainError):
            radius_subspace(0.8, bounds, 3, 2, cfg)
        with pytest.raises(DomainError):
            radius_subspace(0.8, bounds, 2, 9, cfg)
        no_dual = GradientNormBounds(l2_lower=0.0, l2_upper=0.1, linf_upper=0.1)
        with pytest.raises(DomainError):
            radius_subspace(0.8, no_dual, 2, 2, cfg)


# (threat, linf mode) pairs covering every entry point, and the bound field
# each one reads as its dual-norm bound
DISPATCH_CASES = [
    (ThreatModel.L1, LinfMode.VIA_L2_SCALING, "linf_upper"),
    (ThreatModel.L2, LinfMode.VIA_L2_SCALING, "l2_upper"),
    (ThreatModel.LINF, LinfMode.VIA_L2_SCALING, "l2_upper"),
    (ThreatModel.LINF, LinfMode.VIA_L1_BOUND, "l1_upper"),
    (ThreatModel.SUBSPACE_L1, LinfMode.VIA_L2_SCALING, "subspace_dual_upper"),
    (ThreatModel.SUBSPACE_L2, LinfMode.VIA_L2_SCALING, "subspace_dual_upper"),
    (ThreatModel.SUBSPACE_LINF, LinfMode.VIA_L2_SCALING, "subspace_dual_upper"),
]
DISPATCH_IDS = [f"{t.value}-{m.value}" for t, m, _ in DISPATCH_CASES]


def dispatch_bounds(**unchecked):
    """Bounds with every field set; ``unchecked`` fields are written past
    the constructor's checks, as a caller building its own bounds could."""
    bounds = GradientNormBounds(l2_lower=0.1, l2_upper=0.2, linf_upper=0.15,
                                l1_upper=0.3, subspace_dual_upper=0.12)
    for name, value in unchecked.items():
        object.__setattr__(bounds, name, value)
    return bounds


class TestFirstOrderRadius:
    CFG = SmoothingConfig(0.5, 6)

    def radius(self, threat, mode, q, bounds):
        return first_order_radius(threat, q, bounds, self.CFG, 1e-4,
                                  linf_mode=mode, subspace_dim=3)

    @pytest.mark.parametrize("threat, mode, field", DISPATCH_CASES, ids=DISPATCH_IDS)
    def test_edge_rule(self, threat, mode, field):
        # one rule for every threat: q <= 1/2 gives radius 0, and q = 1 or
        # a negative or nan bound raises
        for q in (0.0, 0.3, 0.5):
            assert self.radius(threat, mode, q, dispatch_bounds()) == RadiusResult(0.0)
        with pytest.raises(DomainError):
            self.radius(threat, mode, 1.0, dispatch_bounds())
        for bad in (-0.1, math.nan):
            with pytest.raises(DomainError):
                self.radius(threat, mode, 0.8, dispatch_bounds(**{field: bad}))

    def test_equals_each_entry_point(self, monkeypatch):
        # the dispatch looks each entry point up by its module name at call
        # time, so a wrapper installed on that name sees the call
        called = []
        for name in ("radius_l1_first", "radius_l2_first", "radius_linf_first",
                     "radius_subspace"):
            def recorded(*args, _orig=getattr(certify, name), _name=name, **kwargs):
                called.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(certify, name, recorded)
        bounds = dispatch_bounds()
        cfg, q, tol = self.CFG, 0.8, 1e-4
        direct = [
            radius_l1_first(q, bounds, cfg, tol),
            radius_l2_first(q, bounds.l2_upper, cfg, tol),
            radius_linf_first(q, bounds, cfg, tol),
            radius_linf_first(q, bounds, cfg, tol, mode=LinfMode.VIA_L1_BOUND),
            radius_subspace(q, bounds, 1, 3, cfg, tol),
            radius_subspace(q, bounds, 2, 3, cfg, tol),
            radius_subspace(q, bounds, math.inf, 3, cfg, tol),
        ]
        called.clear()
        for (threat, mode, _), want in zip(DISPATCH_CASES, direct):
            assert self.radius(threat, mode, q, bounds) == want, threat
        assert called == ["radius_l1_first", "radius_l2_first", "radius_linf_first",
                          "radius_l2_first", "radius_linf_first", "radius_subspace",
                          "radius_subspace", "radius_subspace"]


class TestHalfspaceExactness:
    @pytest.mark.parametrize("seed,dim", [(11, 2), (12, 4), (13, 16)])
    def test_all_norms(self, seed, dim):
        for threat, limit in ((ThreatModel.L1, 0.05), (ThreatModel.L2, 0.02),
                              (ThreatModel.LINF, 0.05)):
            res = _check_halfspace(threat, cases=[(seed, dim)], tol=1e-4, limit=limit)
            assert res.passed, f"{threat.value}: {res.detail}"


class TestNormOrdering:
    @pytest.mark.parametrize("seed,dim", [(31, 3), (32, 6)])
    def test_l1_ge_l2_ge_linf(self, seed, dim):
        spec, x, cfg = random_halfspace_case(seed, dim)
        y0, y1 = analytic_linear_stats(spec, x, cfg)
        l2 = float(np.linalg.norm(y1))
        linf = float(np.max(np.abs(y1)))
        l1 = float(np.sum(np.abs(y1)))
        s = 1.0 - 1e-6
        bounds = GradientNormBounds(l2_lower=l2 * s, l2_upper=l2,
                                    linf_upper=linf, l1_upper=l1)
        r_l1 = radius_l1_first(y0, bounds, cfg).radius
        r_l2 = radius_l2_first(y0, l2, cfg).radius
        r_linf = radius_linf_first(y0, bounds, cfg,
                                   mode=LinfMode.VIA_L1_BOUND).radius
        assert r_l1 >= r_l2 - 1e-9
        assert r_l2 >= r_linf - 1e-9
        assert r_linf >= r_l2 / math.sqrt(dim) - 1e-9


class TestPinnedRadii:
    # exact radii, so that a change meant to keep them bit for bit is
    # checked across commits.  The stats are the first 12 threat-path draws
    # of np.random.default_rng(15): q ~ U(0.55, 0.99), magnitude
    # U(0.1, 0.95) M(q) at angle pi U(0.5, 1) from the travel direction,
    # every third one along it (m2 = 0).  At each radius R the worst-case p
    # at R and at the next grid point lies at least 4e-6 from 1/2 for
    # m2 > 0, and at least 1.5e-12 for m2 = 0 and for the l2 radii (whose
    # grid is below 1e-9 wide), so the pins do not hang on a platform's
    # last bits.  A change that moves radii on purpose updates them.
    DIRECTIONAL = [
        ((0.854807081904667, -0.08959576783541637, 0.0), 0.3151558113313513),
        ((0.5697287973037843, -0.06890626542317678, 0.05492104965015745),
         0.10986328125),
        ((0.8662594058252073, -0.054400430039880134, 0.09024440809089024),
         0.3564453125),
        ((0.9794126704516771, -0.040551211210456045, 0.0), 0.5194305130135035),
        ((0.7942503289929386, -0.03277136816810725, 0.0030136175417346638),
         0.29510498046875),
        ((0.9412409185924189, -0.020000601862088525, 0.028480939446288652),
         0.458984375),
        ((0.7851334599914788, -0.11138614182956032, 0.0), 0.25366929432493635),
        ((0.9497933196790245, -0.06392545345001721, 0.07084745370476893),
         0.49407958984375),
        ((0.8862598726956414, -0.07394162163231094, 0.026181420062703215),
         0.3521728515625),
        ((0.8086267156939395, -0.21263470018819391, 0.0), 0.23427621119481046),
        ((0.6637517095253621, -0.05210895488003631, 0.029439974297142065),
         0.19500732421875),
        ((0.6586227088125483, -0.048195448831795114, 0.07644179615779514),
         0.19439697265625),
    ]
    # (q, gradient l2 bound, radius) at the default tol
    L2 = [
        (0.6, 0.3, 0.13524558977223933),
        (0.75, 1.0, 0.18442136606608983),
        (0.8, 0.5, 0.2586931451514829),
        (0.9, 0.3, 0.363932854597806),
    ]

    def test_directional_radius(self):
        cfg = SmoothingConfig(0.25, 152)
        for stats, radius in self.DIRECTIONAL:
            res = directional_radius(FirstOrderStats(*stats), cfg, tol=1e-3)
            assert not (res.capped or res.fallback_used), stats
            assert res.radius == radius, stats

    def test_radius_l2_first(self):
        cfg = SmoothingConfig(0.25, 152)
        for q, bound, radius in self.L2:
            assert radius_l2_first(q, bound, cfg).radius == radius, (q, bound)
