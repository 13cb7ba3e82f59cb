"""Certified robustness for Gaussian-smoothed classifiers.

Certifies lp and subspace-lp radii around inputs of hard-label classifiers
smoothed with isotropic Gaussian noise, using both the smoothed top-class
probability and high-confidence bounds on its gradient norms, together with
the estimators needed to obtain those statistics from label samples.
"""

from .certify import (
    DualSolution,
    DualVariant,
    FirstOrderStats,
    GradientNormBounds,
    InfeasibleStatsError,
    LinfMode,
    RadiusResult,
    SmoothingConfig,
    ThreatModel,
    check_feasible,
    directional_radius,
    first_order_radius,
    lower_bound_probability,
    max_gradient_magnitude,
    radius_l1_first,
    radius_l2_first,
    radius_linf_first,
    radius_subspace,
    solve_dual,
    zeroth_radius_l2,
)
from .numerics import (
    BracketError,
    DomainError,
    NoConvergenceError,
    NumericalError,
    bisect_root,
    solve_system,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

__version__ = "0.1.0"
