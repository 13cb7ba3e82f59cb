import math

import numpy as np
import pytest

from smoothcert import certify
from smoothcert.certify import (
    DualSolution,
    DualVariant,
    FirstOrderStats,
    GradientNormBounds,
    InfeasibleStatsError,
    SmoothingConfig,
    ThreatModel,
    LinfMode,
    check_feasible,
    directional_radius,
    ensure_feasible,
    max_gradient_magnitude,
    radius_l1_first,
    radius_linf_first,
    radius_subspace,
    zeroth_radius_l2,
)
from smoothcert.numerics import DomainError
from smoothcert.pipeline import _threat_scale
from smoothcert.selftest import _check_zeroth

from helpers import PHI_0, PHI_1, QUANTILE_0841


class TestTypes:
    def test_smoothing_config_validation(self):
        with pytest.raises(DomainError):
            SmoothingConfig(sigma=0.0, dim=3)
        with pytest.raises(DomainError):
            SmoothingConfig(sigma=1.0, dim=0)

    def test_stats_validation(self):
        with pytest.raises(DomainError):
            FirstOrderStats(q=1.2, m1=0.0, m2=0.0)
        with pytest.raises(DomainError):
            FirstOrderStats(q=0.9, m1=0.0, m2=-0.1)

    def test_dual_solution_sign(self):
        with pytest.raises(DomainError):
            DualSolution(1.0, 0.5, 0.1, DualVariant.FULL, 1.0)
        with pytest.raises(DomainError):
            DualSolution(1.0, 0.5, -0.1, DualVariant.REDUCED_NO_SLOPE, 1.0)
        ok = DualSolution(1.0, 0.0, -0.1, DualVariant.REDUCED_NO_SLOPE, 1.0)
        assert ok.c1 == 0.0

    def test_bounds_tightening(self):
        b = GradientNormBounds(l2_lower=0.1, l2_upper=0.5, linf_upper=0.9)
        assert b.linf_upper == 0.5  # capped by the l2 upper bound
        b2 = GradientNormBounds(l2_lower=0.1, l2_upper=0.8, linf_upper=0.2,
                                l1_upper=0.6)
        assert b2.l2_upper == 0.6  # capped by the l1 upper bound
        with pytest.raises(DomainError):
            GradientNormBounds(l2_lower=0.7, l2_upper=0.5, linf_upper=0.2)


class TestZerothRadius:
    def test_abstain_boundary(self):
        cfg = SmoothingConfig(1.0, 2)
        assert zeroth_radius_l2(0.5, cfg) == 0.0
        assert zeroth_radius_l2(0.2, cfg) == 0.0

    def test_reference_values(self):
        cfg = SmoothingConfig(1.0, 2)
        assert zeroth_radius_l2(0.8413447, cfg) == pytest.approx(
            QUANTILE_0841, abs=1e-9
        )
        cfg4 = SmoothingConfig(0.25, 2)
        assert zeroth_radius_l2(0.95, cfg4) == pytest.approx(0.4112134, abs=1e-7)

    def test_closed_form_grid(self):
        res = _check_zeroth(sigmas=(0.12, 0.25, 0.5, 1.0), dim=5,
                            qs=np.linspace(0.500001, 0.999, 23), limit=1e-9)
        assert res.passed, res.detail

    def test_nan_radius_fails_the_grid(self, monkeypatch):
        # one NaN among finite errors must fail the check, wherever it falls
        monkeypatch.setattr(certify, "zeroth_radius_l2",
                            lambda q, cfg: math.nan if q == 0.75 else 0.0)
        res = _check_zeroth(sigmas=(1.0,), dim=5, qs=(0.5, 0.75, 0.99), limit=10.0)
        assert not res.passed and "nan" in res.detail

    def test_threat_scaling(self):
        cfg = SmoothingConfig(0.5, 16)
        base = zeroth_radius_l2(0.9, cfg)
        assert base * _threat_scale(ThreatModel.L1, cfg.dim, None) == base
        assert base * _threat_scale(ThreatModel.LINF, cfg.dim, None) == \
            pytest.approx(base / 4.0)
        assert base * _threat_scale(ThreatModel.SUBSPACE_LINF, cfg.dim, 4) == \
            pytest.approx(base / 2.0)
        with pytest.raises(DomainError, match="subspace_dim"):
            _threat_scale(ThreatModel.SUBSPACE_LINF, cfg.dim, None)


class TestMaxGradient:
    def test_density_values(self):
        assert max_gradient_magnitude(0.5) == pytest.approx(PHI_0, abs=1e-9)
        assert max_gradient_magnitude(0.8413447) == pytest.approx(PHI_1, abs=1e-6)

    def test_tail_limit(self):
        assert max_gradient_magnitude(1.0 - 1e-12) < 1e-6

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            max_gradient_magnitude(bad)


class TestFeasibility:
    def test_zero_gradient_feasible(self):
        assert check_feasible(FirstOrderStats(0.9, 0.0, 0.0))

    def test_exceeding_magnitude(self):
        # 0.5 > phi(Phi^-1(0.9)) = 0.17550
        assert not check_feasible(FirstOrderStats(0.9, 0.0, 0.5))

    def test_boundary_case(self):
        assert check_feasible(FirstOrderStats(0.8413447, -PHI_1, 0.0))

    def test_ensure_raises_by_default(self):
        bad = FirstOrderStats(0.9, -0.3, 0.2)
        with pytest.raises(InfeasibleStatsError):
            ensure_feasible(bad)



# threat-path stats are repaired at q = 0.8, sigma = 1, d = 16, where the
# feasible magnitude is M = phi(Phi^-1(0.8))
Q_08 = 0.8
M_08 = max_gradient_magnitude(Q_08)
CFG_16 = SmoothingConfig(1.0, 16)


def _threat_radius(threat: str, slope: float, perp: float):
    """The radius of ``threat`` from bounds whose threat-path stats are
    m1 = -slope and m2 = perp (up to rounding); needs slope > 0."""
    h = math.hypot(slope, perp)
    bounds = GradientNormBounds(l2_lower=h, l2_upper=h, linf_upper=slope,
                                l1_upper=slope * math.sqrt(CFG_16.dim),
                                subspace_dual_upper=slope)
    if threat == "l1":
        return radius_l1_first(Q_08, bounds, CFG_16)
    if threat == "linf_via_l1":
        return radius_linf_first(Q_08, bounds, CFG_16, mode=LinfMode.VIA_L1_BOUND)
    return radius_subspace(Q_08, bounds, 2, 4, CFG_16)


class TestThreatStats:
    THREATS = ["l1", "linf_via_l1", "subspace_l2"]

    @pytest.mark.parametrize("threat", THREATS)
    def test_m2_past_the_bound_raises(self, threat):
        # m2 lower-bounds a perpendicular norm capped by M, so m2 above
        # M (1 + FEASIBILITY_SLACK) means the confidence event failed: no
        # certificate, and no rescaled stats either
        with pytest.raises(InfeasibleStatsError):
            _threat_radius(threat, 0.5 * M_08, (1 + 2e-9) * M_08)

    @pytest.mark.parametrize("frac", [1 - 5e-13, 1.0])
    @pytest.mark.parametrize("threat", THREATS)
    def test_m2_at_the_bound_floors_m1_and_caps(self, threat, frac, monkeypatch):
        # m2 inside the feasibility slack with a steep m1: m1 is floored
        # (to 0) before the stats are checked, so they are feasible; they
        # lie on the perpendicular boundary, whose radius is the cap
        seen = []
        orig = certify.directional_radius

        def recorded(stats, *args):
            seen.append(stats)
            return orig(stats, *args)

        monkeypatch.setattr(certify, "directional_radius", recorded)
        res = _threat_radius(threat, 0.5 * M_08, frac * M_08)
        [floored] = seen
        assert floored.m1 == 0.0
        assert floored.m2 == pytest.approx(frac * M_08, rel=1e-12)
        assert res.capped

    def test_steep_m1_is_floored(self):
        # |(m1, m2)| > M with m2 < M: m1 is floored at -sqrt(M'^2 - m2^2),
        # M' = M (1 - 1e-12), and the radius is that of the floored stats
        slope, perp = 0.99 * M_08, 0.5 * M_08
        res = _threat_radius("l1", slope, perp)
        m2 = math.sqrt(math.hypot(slope, perp) ** 2 - slope ** 2)
        big_m = M_08 * (1.0 - 1e-12)
        floored = FirstOrderStats(Q_08, -math.sqrt(big_m * big_m - m2 * m2), m2)
        assert -slope < floored.m1
        assert res == directional_radius(floored, CFG_16)
