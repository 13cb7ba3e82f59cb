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
    check_feasible,
    ensure_feasible,
    max_gradient_magnitude,
    zeroth_radius_l2,
)
from smoothcert.numerics import DomainError
from smoothcert.pipeline import _threat_scale
from smoothcert.selftest import _check_zeroth

from helpers import MAX_GRAD_09, PHI_0, PHI_1, QUANTILE_0841


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

    def test_clamp_rescales_onto_boundary(self):
        bad = FirstOrderStats(0.9, -0.3, 0.4)
        fixed, clamped = ensure_feasible(bad, clamp=True)
        assert clamped
        assert fixed.gradient_norm == pytest.approx(MAX_GRAD_09, rel=1e-9)
        # direction preserved
        assert fixed.m1 / fixed.m2 == pytest.approx(-0.3 / 0.4, rel=1e-12)
