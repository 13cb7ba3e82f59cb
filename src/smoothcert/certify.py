"""Certified radii for Gaussian-smoothed hard-label classifiers.

Two levels of machinery live here.  The zeroth-order closed form
``sigma * Phi^-1(q)`` needs only the smoothed top-class probability.  The
first-order machinery additionally consumes directional-derivative and
perpendicular-gradient bounds (m1, m2) and solves the worst-case problem

    integral phi(x) Phi(c(x)) dx   = q
    integral phi(x) phi(c(x)) dx   = m2
    integral x phi(x) Phi(c(x)) dx = m1,      c(x) = c0 + c1 x + c2 e^{r x}

for the dual coefficients.  The worst-case probability at scaled travel
distance r is read off the solve's last residual evaluation, on its own
grid, as the dual function at the solve's multipliers,
g = lam2 [c0 q + c1 m1 + m2 - integral phi(x) (c Phi(c) + phi(c)) dx]
with lam2 = e^{-r^2/2 - u}, c2 = -e^u: by weak duality a lower bound on
the worst case at any multipliers, and at a solution the set's mass
p(r) = integral phi(x - r) Phi(c(x)) dx (``_dual_bound``).  The
constraints sit at r = 0, so its slope with the multipliers held is
dg/dr = integral (x - r) phi(x - r) Phi(c(x)) dx, read off the same grid.
So is the set's own mass under N(r, 1) at any r (``_grid_mass``): every
integral of a solved set is read off the grid its solve built.
g bounds the problem with m1 as an equality; with q as a lower bound
only where c0 >= 0, and with m1 as a lower bound only where c1 >= 0.
The integrals run on Gauss-Legendre panels graded around
the crossings of c, and drop phi(c) where |c| >= 30 and Phi(c) where
c <= -30: each dropped term is below the rounding unit of every sum it
enters, so results are those of the full integrands, bit for bit, without
subnormal arithmetic.  c is concave, so the nodes where c > -30 form one
slice of the sorted grid, and phi(c) and Phi(c) are evaluated there
alone; scalar bounds on the exponent and on c's maximum show where the
clamps of the masked form are idle (``_dual_residual``).  One dual solve
keeps one grid while c's crossings hold still: it is rebuilt only when c
crosses zero a different number of times, or a crossing moves by more
than its refinement width max(1/max(|c'|, 1), 1e-12), the finest panel
beside it; a warm-started solve starts on the grid of the solve it starts
from.  Either sign of the solved slope coefficient c1 is accepted.  Only
when no start of the full system converges is it re-solved without the
directional constraint (``REDUCED_NO_SLOPE``), which is always
conservative.  When m2 = 0 the dual degenerates to an indicator of an
interval [w2, w1], which ``solve_dual`` refuses; that branch is solved
directly, and its slope is dp/dr = phi(w2 - r) - phi(w1 - r):

    Phi(w1) - Phi(w2)  = q
    phi(w2) - phi(w1)  = m1
    Phi(w1 - r) - Phi(w2 - r) = 0.5   defines the failure distance r.

Endpoint labels follow the convention validated by the halfspace limit
(w1 the upper endpoint, m1 the directional derivative bound along the
travel direction), which reproduces R = sigma * Phi^-1(q) as m1 -> -M.

Dropping the m2 constraint can only lower the minimum, so the interval's
closed-form p_int(r) is a proven lower bound at every r.  One rule gives
the worst-case probability wherever it is needed (``_worst_case``):
p = max(p_int, g), and p_int alone below the smooth floor, near q = 1/2,
for m2 = 0, and where no dual converges.

A radius is the last point of bisection's grid of travel distances where
p(r) >= 1/2.  One safeguarded Newton search with that slope finds every
radius (``_grid_search``): on p_int first, and for m2 > 0 then on
max(p_int, g), started at p_int's root, in about 2 dual solves where
bisection needed 15.  A bracket end next to a FULL-solved one is decided
from that solve where it can be: the solved set meets the constraints at
every r, so its mass one step up bounds the worst case from above, and
its multipliers give g one step down.

All quantities here are dimensionless (travel measured in units of sigma);
entry points convert to input units exactly once on the way out.  One
dispatch (``first_order_radius``) picks a threat's entry point, and every
entry point runs one core (``_dual_norm_radius``): they differ only in the
dual norm of the gradient they bound and the sqrt(k) scale of the travel
direction, l2 being k = 1 with m2 = 0.  Travel is capped at 10 sigma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special as _sp

from .numerics import (
    CLAMP,
    DomainError,
    NoConvergenceError,
    NumericalError,
    bisect_root,
    bisection_steps,
    panel_nodes,
    solve_system,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "ThreatModel",
    "DualVariant",
    "LinfMode",
    "SmoothingConfig",
    "FirstOrderStats",
    "DualSolution",
    "GradientNormBounds",
    "RadiusResult",
    "InfeasibleStatsError",
    "R_CAP_DEFAULT",
    "DUAL_EXPONENT",
    "zeroth_radius_l2",
    "max_gradient_magnitude",
    "check_feasible",
    "ensure_feasible",
    "solve_dual",
    "probability_from_dual",
    "lower_bound_probability",
    "directional_radius",
    "radius_l2_first",
    "radius_l1_first",
    "radius_linf_first",
    "radius_subspace",
    "first_order_radius",
]

# Travel cap in sigma units; unbounded certified regions are reported as
# sigma * R_CAP_DEFAULT with the capped flag set.
R_CAP_DEFAULT = 10.0

# threat norm p -> the exponent p' of its dual norm, 1/p + 1/p' = 1
DUAL_EXPONENT = {1: math.inf, 2: 2, math.inf: 1}

# Below this the perpendicular-gradient information is dropped and the
# degenerate interval geometry is used instead (always conservative): at
# 1e3 x numerics.RESIDUAL_TOLERANCE (a product that rounds up), the dual's
# absolute residual is 0.1% of m2, and below it its p rests on other stats.
M2_DEGENERATE = 1e-7

# Relative slack accepted by the feasibility check.
FEASIBILITY_SLACK = 1e-9

# Smooth dual solves are skipped for q this close to 0.5 or travel this
# small, where the exponential basis degenerates: the m2 = 0 interval's
# closed-form p, a proven lower bound, stands in for the dual's there.
_Q_SMOOTH_FLOOR = 5e-4
_R_SMOOTH_FLOOR = 5e-3

# m2 within this relative distance of the perpendicular boundary phi(Phi^-1(q))
# is pulled back onto it: the system degenerates toward a constant c there,
# and weakening m2 is always conservative.
_M2_PERP_MARGIN = 5e-3

# at float-level slack from the boundary the constraint set collapses to the
# single perpendicular halfspace (the linear-classifier rigidity), for which
# the worst-case probability is constant in the travel distance
_M2_SINGLETON = 1e-9

_DOMAIN_HALF_WIDTH = 12.0
_BASE_PANELS = 48
_PANEL_INDEX = np.arange(_BASE_PANELS + 1.0)
_POWERS_OF_TWO = 2.0 ** np.arange(1024)  # every power of two a float holds

# The dual's integrands are 0 past |c| = _TAIL (see _dual_residual): phi(30)
# ~ 2e-196 is below the rounding unit of every sum, yet far enough above
# 1e-308 that the Jacobian's products stay normal floats (at 35, one product
# of a solve_grid residual fell below).
_TAIL = 30.0


class ThreatModel(str, enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"
    SUBSPACE_L1 = "subspace_l1"
    SUBSPACE_L2 = "subspace_l2"
    SUBSPACE_LINF = "subspace_linf"

    @property
    def is_subspace(self) -> bool:
        return self.value.startswith("subspace_")

    @property
    def norm(self) -> float:
        """The p of the threat's lp ball: 1, 2 or inf."""
        return {"l1": 1, "l2": 2, "linf": math.inf}[self.value.removeprefix("subspace_")]


class DualVariant(str, enum.Enum):
    FULL = "full"
    REDUCED_NO_SLOPE = "reduced_no_slope"


class LinfMode(str, enum.Enum):
    VIA_L1_BOUND = "via_l1"
    VIA_L2_SCALING = "via_l2"


class InfeasibleStatsError(ValueError):
    """(q, m1, m2) exceeds the gradient-magnitude feasibility boundary."""


@dataclass(frozen=True)
class SmoothingConfig:
    """Noise level sigma (input units) and input dimension."""

    sigma: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim}")


@dataclass(frozen=True)
class FirstOrderStats:
    """Conservative bounds (q, m1, m2) fed to the worst-case solver.

    q lower-bounds the smoothed top-class probability; m1 lower-bounds the
    dimensionless directional derivative sigma * v^T grad; m2 lower-bounds
    the dimensionless perpendicular gradient norm.
    """

    q: float
    m1: float
    m2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q <= 1.0):
            raise DomainError(f"q must lie in [0, 1], got {self.q}")
        if self.m2 < 0.0:
            raise DomainError(f"m2 must be nonnegative, got {self.m2}")
        if not (math.isfinite(self.m1) and math.isfinite(self.m2)):
            raise DomainError("m1 and m2 must be finite")

    @property
    def gradient_norm(self) -> float:
        return math.hypot(self.m1, self.m2)


@dataclass(frozen=True)
class DualSolution:
    """Worst-case classifier coefficients at one travel distance.

    The worst-case set is {(z1, z2): e^{r z1} <= a1 z1 + a2 z2 + b} with
    c0 = b/a2, c1 = a1/a2, c2 = -1/a2 (hence c2 < 0).  Its a2 -> 0 limit,
    the m2 = 0 interval, has no coefficients and is never a solution.

    A solve also records ``bound``, the dual function g at its multipliers,
    and ``bound_slope``, dg/dr with the multipliers held (``_dual_bound``),
    both read off its last residual evaluation, and ``grid``, that
    evaluation's quadrature grid and integrands.  By weak duality g is a
    lower bound on the worst case, converged or not.  None of the three
    takes part in equality.
    """

    c0: float
    c1: float
    c2: float
    variant: DualVariant
    travel_scale: float
    bound: float = field(default=math.nan, compare=False)
    bound_slope: float = field(default=math.nan, compare=False)
    grid: Optional["_HeldGrid"] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.c2 >= 0.0:
            raise DomainError(f"c2 must be negative, got {self.c2}")
        if self.variant is DualVariant.REDUCED_NO_SLOPE and self.c1 != 0.0:
            raise DomainError("reduced variant must have c1 = 0")


class RadiusResult(NamedTuple):
    """Radius in input units plus solver diagnostics."""

    radius: float
    capped: bool = False
    fallback_used: bool = False


@dataclass(frozen=True)
class GradientNormBounds:
    """High-confidence norm bounds on the smoothed-probability gradient.

    All fields are in units of ||y1|| (the estimators' sigma^2-scaled
    outputs divided by sigma^2 exactly once at construction).  Safe
    tightenings are applied: a valid l2 upper bound caps the linf upper
    bound, and a valid l1 upper bound caps the l2 upper bound.
    """

    l2_lower: float
    l2_upper: float
    linf_upper: float
    l1_upper: Optional[float] = None
    subspace_dual_upper: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("l2_lower", "l2_upper", "linf_upper"):
            v = getattr(self, name)
            if math.isnan(v) or v < 0.0:
                raise DomainError(f"{name} must be nonnegative, got {v}")
        if self.l1_upper is not None and self.l2_upper > self.l1_upper:
            object.__setattr__(self, "l2_upper", self.l1_upper)
        if self.linf_upper > self.l2_upper:
            object.__setattr__(self, "linf_upper", self.l2_upper)
        if self.l2_lower > self.l2_upper:
            raise DomainError(
                f"l2_lower {self.l2_lower} exceeds l2_upper {self.l2_upper}"
            )
        if self.subspace_dual_upper is not None and self.subspace_dual_upper < 0.0:
            raise DomainError("subspace_dual_upper must be nonnegative")


# ---------------------------------------------------------------------------
# zeroth order
# ---------------------------------------------------------------------------


def zeroth_radius_l2(q: float, cfg: SmoothingConfig) -> float:
    """Baseline certified l2 radius sigma * Phi^-1(q); 0 (abstain) for q <= 0.5."""
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q}")
    if q <= 0.5:
        return 0.0
    if q >= 1.0:
        return cfg.sigma * float(std_normal_quantile(1.0 - 1e-16))
    return cfg.sigma * float(std_normal_quantile(q))


def max_gradient_magnitude(q: float) -> float:
    """Largest dimensionless gradient magnitude sigma*||grad g|| given g(x) = q.

    Attained by the halfspace worst case, where it equals phi(Phi^-1(q)).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    return _pdf(float(_sp.ndtri(q)))


def check_feasible(stats: FirstOrderStats) -> bool:
    """Whether (m1, m2) fits inside the gradient-magnitude disk for q."""
    if stats.q <= 0.0 or stats.q >= 1.0:
        return stats.m1 == 0.0 and stats.m2 == 0.0
    limit = max_gradient_magnitude(stats.q) * (1.0 + FEASIBILITY_SLACK)
    return stats.gradient_norm <= limit


def ensure_feasible(stats: FirstOrderStats) -> None:
    """Raise ``InfeasibleStatsError`` when (m1, m2) lies outside the disk.

    Under the estimators' joint confidence event the stats lie inside it,
    so stats outside mean that event failed (or a bug): no certificate.
    """
    if not check_feasible(stats):
        raise InfeasibleStatsError(
            f"gradient stats |(m1, m2)| = {stats.gradient_norm:.6g} exceed the "
            f"feasible magnitude {max_gradient_magnitude(stats.q):.6g} at q = {stats.q}"
        )


# ---------------------------------------------------------------------------
# degenerate (m2 = 0) interval system
# ---------------------------------------------------------------------------


# The interval's math and ``max_gradient_magnitude`` run on one float at a
# time, several times per probe.  Each helper calls the
# ufunc behind its numerics counterpart (std_normal_cdf, std_normal_pdf,
# std_normal_quantile) with the same +-CLAMP clip, so results are equal bit
# for bit, without the array path's cost on every scalar.  math.exp and
# math.erfc are not used: their last bits can differ from numpy's and scipy's.
_BELOW_ONE = math.nextafter(1.0, 0.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _clip(x: float) -> float:
    return min(max(x, -CLAMP), CLAMP)  # nan stays nan, as in np.clip


def _cdf(x: float) -> float:
    return float(_sp.ndtr(_clip(x)))


def _pdf(x: float) -> float:
    x = _clip(x)
    return float(_INV_SQRT_2PI * np.exp(-0.5 * x * x))


def _upper_endpoint(q: float, w2: float) -> float:
    """w1 = Phi^-1(q + Phi(w2)), the mass capped below 1, w1 clipped to +-CLAMP.

    A scalar form of ``std_normal_quantile(q + std_normal_cdf(w2))``, equal
    to it bit for bit, with the same domain check on the mass.
    """
    mass = min(q + _cdf(w2), _BELOW_ONE)
    if not 0.0 < mass < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {mass!r}")
    return _clip(float(_sp.ndtri(mass)))


def _interval_gap(q: float, m1: float, w2: float) -> tuple[float, float]:
    """The interval's gap phi(w2) - phi(w1) - m1, and w1 = Phi^-1(q + Phi(w2))."""
    w1 = _upper_endpoint(q, w2)
    return _pdf(w2) - _pdf(w1) - m1, w1


# The interval's computed gap is within about 4e-15 of the true, increasing
# one (``_solve_interval``): beyond this margin its sign holds past the point
_GAP_MARGIN = 1e-13
_BRACKET_STEPS = 12


def _gap_bracket(q: float, m1: float, big_m: float,
                 w2_max: float) -> tuple[float, float]:
    """[a, b] within [-CLAMP, w2_max] around the root of the interval gap.

    The computed gap(w2) = phi(w2) - phi(w1) - m1 is below -_GAP_MARGIN
    at a unless a = -CLAMP, and above _GAP_MARGIN at b unless b = w2_max.
    Safeguarded Newton, with slope phi(w2) (w1 - w2), starts at the root
    for m1 = 0, Phi^-1((1 - q)/2), or for m1 < 0 at the w2 < 0 with
    phi(w2) = M + m1 if that is further left: phi(w1) < M, so the root
    lies left of both.  Each step aims twice the margin past the root, so
    the iterates close in from both sides; one that leaves the bracket
    bisects it.  It stops once the ends' gaps lie within 8 margins, or
    after ``_BRACKET_STEPS`` evaluations.  gap >= -(M + m1), so where
    M + m1 is within the margin no end below the root clears it, and the
    whole range is returned.
    """
    a, b = -CLAMP, w2_max
    if big_m + m1 <= _GAP_MARGIN:
        return a, b
    w2 = float(_sp.ndtri(0.5 * (1.0 - q)))
    if m1 < 0.0:
        w2 = min(w2, -math.sqrt(-2.0 * math.log((big_m + m1) / _INV_SQRT_2PI)))
    gap_a, gap_b = -math.inf, math.inf
    for _ in range(_BRACKET_STEPS):
        gap, w1 = _interval_gap(q, m1, w2)
        if gap < -_GAP_MARGIN:
            a, gap_a = w2, gap
        elif gap > _GAP_MARGIN:
            b, gap_b = w2, gap
        if gap_b - gap_a <= 8.0 * _GAP_MARGIN:
            break
        # aim below the root from above it, and from within the margin
        # while no end below has been found; else aim above it
        below = gap > _GAP_MARGIN or (gap >= -_GAP_MARGIN and gap_a == -math.inf)
        target = -2.0 * _GAP_MARGIN if below else 2.0 * _GAP_MARGIN
        w2_new = w2 + (target - gap) / (_pdf(w2) * (w1 - w2))
        w2 = w2_new if a < w2_new < b else 0.5 * (a + b)
    return a, b


def _solve_interval(q: float, m1: float) -> tuple[float, float]:
    """Endpoints [w2, w1] of the m2 = 0 worst-case interval.

    Parametrizing w1 = Phi^-1(q + Phi(w2)) satisfies the mass equation
    identically; the remaining equation phi(w2) - phi(w1) = m1 is strictly
    increasing in w2, so bisection finds the unique root.  m1 is never
    rounded up: m1 >= M takes the closed form [Phi^-1(1 - q), CLAMP], and
    where rounding leaves no root below the bracket end (m1 within about
    1e-11 M of M), that end is returned, whose moment lies below m1 and so
    is the weaker constraint.

    A Newton search first brackets the root in [a, b] (``_gap_bracket``),
    and ``bisect_root`` then runs on [-CLAMP, w2_max] with its usual
    tolerance and midpoints, evaluating the gap only inside [a, b].  Outside,
    its sign is known: rounding w1's mass q + Phi(w2) by about 1e-16 moves
    phi(w1) by about 1e-16 |w1|, so the computed gap is within about
    1e-16 max(1, |w1|) <= 4e-15 of the true, increasing one, far inside the
    margin 1e-13 by which it clears zero at a and b.  So w2 is the plain
    bisection's, bit for bit.
    """
    big_m = max_gradient_magnitude(q)
    if m1 <= -big_m * (1.0 - 1e-12):
        return -CLAMP, _upper_endpoint(q, -CLAMP)
    if m1 >= big_m:
        return float(std_normal_quantile(1.0 - q)), CLAMP
    w2_max = float(std_normal_quantile(1.0 - q)) - 1e-12
    gap_max, w1 = _interval_gap(q, m1, w2_max)
    if gap_max <= 0.0:
        return w2_max, w1
    a, b = _gap_bracket(q, m1, big_m, w2_max)

    def gap(w2: float) -> float:
        if w2 < a:
            return -1.0
        if w2 > b:
            return 1.0
        return _interval_gap(q, m1, w2)[0]

    w2 = bisect_root(gap, -CLAMP, w2_max, tol=1e-13)
    return w2, _upper_endpoint(q, w2)


def _interval_probability(w2: float, w1: float, r: float) -> tuple[float, float]:
    """p(r) = Phi(w1 - r) - Phi(w2 - r) for the interval [w2, w1], and dp/dr."""
    return _cdf(w1 - r) - _cdf(w2 - r), _pdf(w2 - r) - _pdf(w1 - r)


# ---------------------------------------------------------------------------
# smooth dual system
# ---------------------------------------------------------------------------


def _c_slope(x: float, c1: float, u: float, r: float) -> float:
    t = min(u + r * x, 700.0)
    return c1 - r * math.exp(t)


def _c_value(x: float, c0: float, c1: float, u: float, r: float) -> float:
    t = u + r * x
    return c0 + c1 * x - (math.exp(t) if t < 700.0 else 1e304)


def _refinement_width(slope: float) -> float:
    """The finest panel ``_graded_edges`` puts beside a crossing of |c'| = slope."""
    return max(1.0 / max(slope, 1.0), 1e-12)


def _crossing_segments(c0: float, c1: float, u: float, r: float, lo: float,
                       hi: float) -> list[tuple[float, float, float]]:
    """The monotone pieces (a, b, c(a)) of c on [lo, hi] where c crosses zero.

    c' = c1 - r e^{u + r x} falls in x (c is concave), so it has at most one
    zero: c rises, then falls, and crosses zero at most once on each side.
    """
    breaks = [lo, hi]
    if c1 > 0.0:
        x_crit = (math.log(c1 / r) - u) / r
        if lo < x_crit < hi:
            breaks = [lo, x_crit, hi]
    segments = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        fa = _c_value(a, c0, c1, u, r)
        if fa == 0.0 or (fa > 0.0) != (_c_value(b, c0, c1, u, r) > 0.0):
            segments.append((a, b, fa))
    return segments


def _segment_root(a: float, b: float, fa: float,
                  c0: float, c1: float, u: float, r: float) -> float:
    """The crossing of c on a monotone piece [a, b] with a sign change.

    Safeguarded Newton from the end where c < 0.  c is concave, and so is
    log(c0 + c1 x) - (u + r x) where the line c0 + c1 x is positive, with
    the same zero and signs: from the side where both are negative, a Newton
    step on either lands between the iterate and the crossing, so the longer
    of the two is taken.  Far right of a falling crossing e^{u + r x} swamps
    the line, and a step on c moves only about 1/r there while the log form
    is nearly linear; near the line's zero the log form's steps vanish and
    c's do not.  A step that leaves the bracket bisects it.  The iteration
    stops once a step is below 1e-4 of the crossing's refinement width.
    """
    if fa == 0.0:
        return a
    rising = fa < 0.0
    lo, hi = a, b
    if rising:
        x = a
    else:
        # where the line c0 + c1 x is <= 0, c < 0: with c1 < 0 that is every
        # x >= -c0/c1, so the crossing lies left of that point
        x = b if c1 >= 0.0 else min(b, -c0 / c1)
    for _ in range(100):
        t = u + r * x
        line = c0 + c1 * x
        e = math.exp(min(t, 700.0))
        f, slope = line - e, c1 - r * e
        if f == 0.0:
            return x
        if (f < 0.0) == rising:
            lo = x
        else:
            hi = x
        step = f / slope if slope != 0.0 else math.nan
        log_slope = c1 / line - r if line > 0.0 else 0.0
        if log_slope != 0.0:
            log_step = (math.log(line) - t) / log_slope
            if not abs(log_step) <= abs(step):  # also where step is nan
                step = log_step
        new = x - step
        if not lo < new < hi:  # also a nan step
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 1e-4 * _refinement_width(abs(slope)) or new == x:
            return new
        x = new
    return x


def _c_roots(c0: float, c1: float, u: float, r: float,
             lo: float, hi: float) -> list[tuple[float, float]]:
    """Zero crossings of c on [lo, hi] with their local |slope|.

    c is concave, so it has at most two crossings, one on each monotone
    piece (``_crossing_segments``), each found by ``_segment_root``.  Scalar
    math throughout: this runs on every grid that is built.
    """
    roots = []
    for a, b, fa in _crossing_segments(c0, c1, u, r, lo, hi):
        root = _segment_root(a, b, fa, c0, c1, u, r)
        roots.append((root, abs(_c_slope(root, c1, u, r))))
    return roots


def _roots_hold(roots: list[tuple[float, float]], c0: float, c1: float,
                u: float, r: float, lo: float, hi: float) -> bool:
    """Whether a grid graded around ``roots`` still serves c on [lo, hi].

    It does while c crosses zero as often, and each crossing lies within
    the refinement width of the held crossing it replaces.  On a monotone
    piece c has one crossing, so it lies in that window exactly when c
    changes sign across it: two values of c per crossing decide it.
    """
    segments = _crossing_segments(c0, c1, u, r, lo, hi)
    if len(segments) != len(roots):
        return False
    for (a, b, _), (root, slope) in zip(segments, roots):
        delta = _refinement_width(slope)
        left, right = max(a, root - delta), min(b, root + delta)
        if not (left <= right and (_c_value(left, c0, c1, u, r) > 0.0)
                != (_c_value(right, c0, c1, u, r) > 0.0)):
            return False
    return True


def _graded_edges(lo: float, hi: float,
                  roots: list[tuple[float, float]]) -> np.ndarray:
    """Uniform panels plus geometric refinement around each sigmoid transition.

    The uniform edges are ``np.linspace(lo, hi, _BASE_PANELS + 1)``, bit for
    bit.  Edges closer than 1e-14 max(1, |lo|, |hi|) merge, and lo and hi end
    the grid.
    """
    width = (hi - lo) / _BASE_PANELS
    uniform = _PANEL_INDEX * width + lo
    uniform[-1] = hi
    edges = [uniform]
    for root, slope in roots:
        delta = _refinement_width(slope)
        if delta >= width:
            continue
        steps = delta * _POWERS_OF_TWO[:int(math.ceil(math.log2(2.0 * width / delta))) + 1]
        edges.append(np.concatenate(([root], root + steps, root - steps)))
    # exact duplicates have gap 0, so the gap mask drops them as well
    merged = np.sort(np.minimum(np.maximum(np.concatenate(edges), lo), hi))
    gaps = merged[1:] - merged[:-1]
    keep = np.concatenate(([True], gaps > 1e-14 * max(1.0, abs(hi), abs(lo))))
    edges = merged[keep]
    edges[-1] = hi  # the mask keeps the first of close points, not hi
    return edges


class _HeldGrid:
    """One dual solve's quadrature grid and the integrands of its last call.

    ``roots``, ``x`` and ``base`` = w phi(x) are the grid, graded around
    the crossings ``roots``; ``base_x`` = base x and ``cols``, the columns
    (1, x) of dc/dtheta with a third left for -e^{u + r x}, are its
    constants, built with it.  ``rx`` = r x is held for the store's
    travel ``r``.  ``e``, ``cdf_c`` and ``residual`` are e^{u + r x},
    Phi(c(x)) and F of the last ``_dual_residual`` call, ``rows`` its
    dF/dc per node and ``jac`` its J, from which ``_tangent_start`` reads
    the solution's slope in r.  The grid's arrays may be shared read-only
    with a neighbouring solve's store (``carried``): a store only ever
    rebinds its slots to new arrays, and copies ``cols`` before it fills
    the third column.
    """

    __slots__ = ("roots", "x", "base", "base_x", "cols", "r", "rx",
                 "e", "cdf_c", "residual", "rows", "jac")

    def __init__(self, grid: tuple = (None,) * 5) -> None:
        self.roots, self.x, self.base, self.base_x, self.cols = grid
        self.r = self.rx = None

    def build(self, roots: list[tuple[float, float]]) -> None:
        """Hold the grid over [-12, 12] graded around ``roots``, with its constants."""
        x, w = panel_nodes(_graded_edges(-_DOMAIN_HALF_WIDTH, _DOMAIN_HALF_WIDTH, roots))
        # phi(x) as std_normal_pdf gives it, whose clip at +-CLAMP is idle
        # on nodes within +-12
        base = w * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))
        # column-major, so that -e^{u + r x} fills one contiguous column
        cols = np.empty((x.size, 3), order="F")
        cols[:, 0] = 1.0
        cols[:, 1] = x
        self.roots, self.x, self.base, self.base_x, self.cols = roots, x, base, base * x, cols
        self.r = None  # rx was r x on the old grid

    def carried(self) -> "_HeldGrid":
        """A new store on this grid, its arrays shared, with no integrands."""
        return _HeldGrid((self.roots, self.x, self.base, self.base_x, self.cols))


def _c_peak(c0: float, c1: float, u: float, r: float) -> float:
    """The maximum of c over [-12, 12] for r > 0, at x* = (ln(c1/r) - u)/r
    where c' = 0, clamped to the domain, or at x = -12 where c falls."""
    x = -_DOMAIN_HALF_WIDTH
    if c1 > 0.0:
        x = min(max((math.log(c1 / r) - u) / r, x), _DOMAIN_HALF_WIDTH)
    return _c_value(x, c0, c1, u, r)


def _dual_residual(theta: np.ndarray, stats: FirstOrderStats, r: float,
                   full: bool, held: _HeldGrid) -> tuple[np.ndarray, np.ndarray]:
    """Dual equations F(theta) and their Jacobian dF/dtheta, from one grid.

    theta is (c0, c1, u) for the full system and (v, u), c0 = e^v, for the
    reduced one, so dc/dtheta is (1, x, -e^{u+rx}) or (c0, -e^{u+rx}).  The
    integrands differentiate in closed form: d Phi(c) = phi(c) dc,
    d phi(c) = -c phi(c) dc and d x Phi(c) = x phi(c) dc.  Where the
    exponent is capped, F does not move, so dc counts as 0.  phi(c) is 0
    where |c| >= _TAIL and Phi(c) where c <= -_TAIL, which covers every c
    clipped at -1e300 or CLAMP: each dropped term is below the rounding unit
    of every sum it enters, so F and J are those of the untruncated
    integrands on the same grid, bit for bit.

    Only the nodes where c > -_TAIL are evaluated.  c is concave
    (c'' = -r^2 e^{u + r x} < 0), so they form one interval of x and, the
    nodes being sorted, one slice [i0, i1) of the grid; a count of the live
    nodes checks that rounding kept it one.  phi(c) and Phi(c) go into
    zero-filled arrays of the grid's length, so the nodes outside the slice
    hold the exact zeros the masks gave them, and every dot product and the
    matmul for J run on the same operands in the same order: F, J and the
    held integrands keep every bit.  Scalar bounds retire the masked form's
    clamps:

    - the exponent cap: u + r x is at most u + 12 |r| on the grid, so
      where scale = |c0| + 12 |c1| + e^{u + 12 |r|} is below 1e300, no node
      reaches 700, and c is finite at every node;
    - the -1e300 clip: it acts only where c <= -_TAIL, outside the slice;
    - the CLAMP clip: Phi(c) is 1 from c = 8.3 up, and phi(c) is masked to
      0 at c >= _TAIL, so it moves no bit of a finite c;
    - that mask: it is idle where c's maximum over [-12, 12] (``_c_peak``)
      lies below _TAIL by 1e-9 scale, a margin over the rounding of c at
      the nodes.

    Where the scale bound fails, the masked form runs on the whole grid,
    with c clipped and the capped nodes' dc set to 0; where the peak bound
    or the count fails, it runs on the slice.

    The grid is graded around the crossings of c.  ``held``, one solve's
    store (``_solve_dual_system``), keeps the last grid built: it serves
    while c crosses zero as often and each crossing stays within its
    refinement width of the held one (``_roots_hold``); otherwise a new
    grid is built and held, as it is on an empty store.  ``held`` also
    keeps this call's e^{u + r x}, Phi(c), F, dF/dc and J, from which
    ``_dual_bound`` reads g, ``_grid_mass`` the set's mass and
    ``_tangent_start`` the solution's slope in r.
    """
    if full:
        c0, c1, u = theta.tolist()
        dc0 = 1.0
    else:
        # reduced: c0 = e^v keeps the (provably positive) offset positive
        v, u = theta.tolist()
        c0, c1 = math.exp(min(v, 700.0)), 0.0
        dc0 = c0 if v < 700.0 else 0.0
    lo, hi = -_DOMAIN_HALF_WIDTH, _DOMAIN_HALF_WIDTH
    if held.x is None or not _roots_hold(held.roots, c0, c1, u, r, lo, hi):
        held.build(_c_roots(c0, c1, u, r, lo, hi))
    x, base = held.x, held.base
    if held.r != r:
        held.r, held.rx = r, r * x
    top = u + abs(r) * hi  # u + r x is at most this on the grid; nan for a nan u
    scale = abs(c0) + hi * abs(c1) + math.exp(min(top, 700.0))
    size, n = (3 if full else 2), x.size
    capped = None
    if r > 0.0 and scale < 1e300:
        # so u + r x < 700 and c is finite at every node
        e = np.add(u, held.rx)
        np.exp(e, out=e)
        c = c1 * x
        c += c0
        c -= e
        live = c > -_TAIL
        # the slice from the first live node to the last; where none is
        # live, argmax gives [0, n), which the count sends to the masks
        i0, i1 = int(live.argmax()), n - int(live[::-1].argmax())
        dense = (np.count_nonzero(live) != i1 - i0
                 or not _c_peak(c0, c1, u, r) + 1e-9 * scale < _TAIL)
    else:
        t = u + held.rx
        capped = ~(t < 700.0)
        e = np.exp(np.minimum(t, 700.0))
        # c clamped for Phi and phi below, the exponent capped at 700
        c = np.minimum(np.maximum(c0 + c1 * x - e, -1e300), CLAMP)
        i0, i1, dense = 0, n, True
    phi_c, cdf_c, rows = np.zeros(n), np.zeros(n), np.zeros((size, n))
    near, base_near = c[i0:i1], base[i0:i1]
    phi, cdf, d_cdf, d_m2 = phi_c[i0:i1], cdf_c[i0:i1], rows[0, i0:i1], rows[1, i0:i1]
    if dense:
        tail = np.abs(near) >= _TAIL
        kept = near[~tail]
        phi[~tail] = _INV_SQRT_2PI * np.exp(-0.5 * kept * kept)
        _sp.ndtr(np.where(near <= -_TAIL, -40.0, near), out=cdf)
    else:
        # _INV_SQRT_2PI e^{-0.5 c c}, in place
        np.multiply(-0.5, near, out=phi)
        phi *= near
        np.exp(phi, out=phi)
        phi *= _INV_SQRT_2PI
        _sp.ndtr(near, out=cdf)
    np.multiply(base_near, phi, out=d_cdf)
    if capped is not None:
        d_cdf[capped] = 0.0
    np.multiply(near, d_cdf, out=d_m2)
    np.negative(d_m2, out=d_m2)
    # J = (dF/dc rows) @ (dc/dtheta columns)
    if full:
        # over the whole grid, so that x < 0 gives -0.0 outside the slice
        np.multiply(x, rows[0], out=rows[2])
        f = np.array([float(base @ cdf_c) - stats.q, float(base @ phi_c) - stats.m2,
                      float(held.base_x @ cdf_c) - stats.m1])
        cols = held.cols.copy(order="F")
    else:
        f = np.array([float(base @ cdf_c) - stats.q, float(base @ phi_c) - stats.m2])
        cols = np.empty((n, 2), order="F")
        cols[:, 0] = dc0
    np.negative(e, out=cols[:, -1])
    jac = rows @ cols
    held.e, held.cdf_c, held.residual, held.rows, held.jac = e, cdf_c, f, rows, jac
    return f, jac


def _dual_bound(held: _HeldGrid, c0: float, c1: float, u: float, r: float
                ) -> tuple[float, float]:
    """The dual function g at multipliers (c0, c1, u), and dg/dr, from the
    last ``_dual_residual`` call on ``held``, made at those multipliers.

    With lam2 = e^{-r^2/2 - u}, lam0 = lam2 c0 and lam1 = lam2 c1 the
    multipliers of q, m1 and m2,

        g = lam2 [c0 q + c1 m1 + m2 - integral phi(x) (c Phi(c) + phi(c)) dx]

    is the Lagrangian minimised over all sets (the set {z2 >= -c(z1)}
    attains it), so by weak duality g is at most the minimum of every
    problem whose constraints the set family relaxes: the worst case with
    m1 as an equality, for any multipliers; with q as a lower bound only
    where c0 >= 0, and with m1 as a lower bound only where c1 >= 0.  c is
    unclipped here: c0 + c1 x - c = e^{u + r x} turns the c Phi(c) term into
    the sums F already holds, so g = lam2 [sum w phi e Phi(c) - c0 F_q - F_m2
    - c1 F_m1] costs one more dot product, and dg/dr = lam2 sum w phi
    (x - r) e Phi(c) one more.  At a solution (F = 0) g is the set's mass
    under N(r, 1).  g is clipped to [0, 1]; multipliers past the float range
    give the trivial bound 0.
    """
    log_lam2 = -0.5 * r * r - u
    if not log_lam2 < 700.0:
        return 0.0, math.nan
    lam2 = math.exp(log_lam2)
    weighted = held.base * held.e
    f = held.residual.tolist()
    gap = float(weighted @ held.cdf_c) - c0 * f[0] - f[1]
    if len(f) == 3:
        gap -= c1 * f[2]
    g = lam2 * gap
    slope = lam2 * float((weighted * (held.x - r)) @ held.cdf_c)
    return (min(max(g, 0.0), 1.0) if math.isfinite(g) else 0.0), slope


def _solve_dual_system(stats: FirstOrderStats, r: float, full: bool,
                       init: tuple[float, ...], grid: Optional[_HeldGrid] = None
                       ) -> tuple[np.ndarray, _HeldGrid]:
    """``solve_system`` on the dual from ``init``, with one grid store.

    The residual it solves holds the last grid it built, for this solve
    alone: no state outlives the call or is shared between threads.  The
    store starts on ``grid``'s grid when given (a neighbouring solve's,
    whose arrays it only reads; ``_roots_hold`` decides whether it serves)
    and on none otherwise.  The store is returned with the solution:
    ``solve_system`` returns the point of its last evaluation, so the
    store's integrands are the solution's.
    """
    held = _HeldGrid() if grid is None else grid.carried()
    theta = solve_system(lambda th: _dual_residual(th, stats, r, full, held), init)
    return theta, held


def _reduced_init(stats: FirstOrderStats, r: float) -> tuple[float, float]:
    """Closed-form start: linearize c around its crossing and match (q, m2)."""
    w0 = float(std_normal_quantile(stats.q))
    big_m = max_gradient_magnitude(stats.q)
    ratio = min(stats.m2 / big_m, 1.0 - 1e-9)
    beta = math.sqrt(max(1.0 - ratio * ratio, 1e-10))
    gamma = beta * big_m / max(stats.m2, 1e-300)
    x_star = w0 / beta
    c0 = gamma / r
    return math.log(c0), math.log(c0) - r * x_star


def _log1mexp(t: float) -> float:
    """log(1 - e^{-t}) for t > 0."""
    if t > 36.0:
        return 0.0
    return math.log1p(-math.exp(-t)) if t > 1e-30 else -700.0


def _soft_interval_init(stats: FirstOrderStats, r: float,
                        interval: tuple[float, float]
                        ) -> Optional[tuple[float, float, float]]:
    """Start from the m2 = 0 interval [w2, w1], softening its edges to m2.

    ``interval`` is ``_solve_interval(stats.q, stats.m1)``, which the caller
    solves once.  c crosses zero at both endpoints by construction; the
    scale u is set so the edge-width model phi(w2)/|c'(w2)| + phi(w1)/|c'(w1)|
    equals m2, which is exact in the sharp-edge limit.  All intermediate
    quantities are kept in log space since e^{r w1} overflows for wide
    intervals.
    """
    w2, w1 = interval
    # chord slope of e^{rx} over [w2, w1]: K = (e^{r w1} - e^{r w2}) / (w1 - w2)
    ln_k = r * w1 + _log1mexp(r * (w1 - w2)) - math.log(w1 - w2)
    log_r = math.log(r)
    # edge slopes are e^u (K - r e^{r w2}) > 0 and e^u (K - r e^{r w1}) < 0
    ln_s2 = ln_k + _log1mexp(ln_k - (log_r + r * w2))
    ln_s1 = log_r + r * w1 + _log1mexp((log_r + r * w1) - ln_k)
    ln_phi_w2 = -0.5 * w2 * w2 - 0.5 * math.log(2.0 * math.pi)
    ln_phi_w1 = -0.5 * w1 * w1 - 0.5 * math.log(2.0 * math.pi)
    ln_c = float(np.logaddexp(ln_phi_w2 - ln_s2, ln_phi_w1 - ln_s1))
    u = ln_c - math.log(stats.m2)
    c1 = math.exp(min(u + ln_k, 690.0))
    c0 = math.exp(min(u + r * w2, 690.0)) - c1 * w2
    if not all(map(math.isfinite, (c0, c1, u))):
        return None
    return c0, c1, u


def _reduced_dual(stats: FirstOrderStats, r: float) -> DualSolution:
    """The two-equation dual, which drops the directional constraint.

    A minimum over fewer constraints is no larger, so the bound is always
    conservative; ``solve_dual`` falls back to it.  It starts cold from
    ``_reduced_init``.
    """
    sol, held = _solve_dual_system(stats, r, False, _reduced_init(stats, r))
    c0, u = math.exp(min(float(sol[0]), 700.0)), float(sol[1])
    return _solution(c0, 0.0, u, DualVariant.REDUCED_NO_SLOPE, r, held)


def _solution(c0: float, c1: float, u: float, variant: DualVariant, r: float,
              held: _HeldGrid) -> DualSolution:
    """The ``DualSolution`` of a solve ending at (c0, c1, u) on ``held``."""
    bound, slope = _dual_bound(held, c0, c1, u, r)
    return DualSolution(c0, c1, -math.exp(max(u, -745.0)), variant, r,
                        bound, slope, held)


def _capped(stats: FirstOrderStats) -> FirstOrderStats:
    """The stats ``solve_dual`` solves: m2 pulled back to within
    ``_M2_PERP_MARGIN`` of the perpendicular boundary, which only weakens
    its constraint."""
    m2_cap = max_gradient_magnitude(stats.q) * (1.0 - _M2_PERP_MARGIN)
    return replace(stats, m2=m2_cap) if stats.m2 > m2_cap else stats


# A warm start's tangent step is cut to this share of max(1, |theta'|) in
# the max norm: near the perpendicular boundary the solution path bends
# within a longer step, which then starts Newton outside its basin
_TANGENT_TRUST = 0.25


def _tangent_start(warm: DualSolution, r: float) -> tuple[float, float, float]:
    """The FULL solution ``warm`` at r' moved toward r along its tangent.

    Along the solution path F(theta(r), r) = 0, so dtheta/dr = -J^-1 dF/dr,
    with dF/dr = dF/dc . dc/dr and dc/dr = -x e^{u + r x} (0 where the
    exponent is capped, which dF/dc already masks), both read off the
    solve's last residual evaluation on its grid.  The start is
    theta' + (r - r') dtheta/dr, the step cut to ``_TANGENT_TRUST``
    max(1, |theta'|) in the max norm, or theta' itself where J is singular
    or the step is not finite.
    """
    theta = (warm.c0, warm.c1, math.log(-warm.c2))
    held = warm.grid
    if held is None:
        return theta
    try:
        slope = np.linalg.solve(held.jac, held.rows @ (held.x * held.e))
    except np.linalg.LinAlgError:
        return theta
    step = [(r - warm.travel_scale) * d for d in slope.tolist()]
    if not all(map(math.isfinite, step)):
        return theta
    size = max(map(abs, step))
    limit = _TANGENT_TRUST * max(1.0, *map(abs, theta))
    scale = limit / size if size > limit else 1.0
    return tuple(t + scale * d for t, d in zip(theta, step))


def solve_dual(stats: FirstOrderStats, r: float,
               warm: Optional[DualSolution] = None, *,
               interval: Optional[tuple[float, float]] = None) -> DualSolution:
    """Worst-case dual coefficients at scaled travel distance r > 0.

    Solves the full three-equation system; both slope signs are accepted,
    since either sign yields a worst-case set matching the constraints (the
    negative-slope branch is exactly the near-halfspace family required for
    the linear-classifier limit).  That holds with m1 as an equality: with
    m1 as a lower bound, c1 < 0 means a negative m1 multiplier, and the
    minimum lies below this p (selftest's LP oracle shows it).  Damped
    Newton starts from, in order:

    1. ``warm``, when it is a FULL solution (in a radius search, that of
       the nearest travel distance already solved), moved to r along its
       tangent (``_tangent_start``), on a copy of its grid: the solve
       shares the grid's arrays read-only, keeps it while c's crossings
       hold still, and leaves ``warm``'s own store as it was;
    2. the m2 = 0 interval with its edges softened to m2.  ``interval``
       must be that interval of (stats.q, stats.m1), as
       ``_solve_interval`` returns it; a radius search solves it once and
       passes it to each solve.  Without it, it is solved here when the
       warm start fails.  The perpendicular cap below changes only m2, so
       the interval stays valid.

    When neither converges, the two-equation system is solved instead
    (``_reduced_dual``), which drops the directional constraint and is
    always conservative.  The solution carries g and dg/dr at its
    multipliers (``DualSolution.bound``), read off the solve's last
    residual evaluation.  m2 below the degeneracy floor ``M2_DEGENERATE``
    raises ``DomainError``: that dual is the m2 = 0 interval, which its
    callers solve in closed form (``_solve_interval``).
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"travel distance must be positive and finite, got {r}")
    if not (0.5 < stats.q < 1.0):
        raise DomainError(f"solve_dual requires q in (0.5, 1), got {stats.q}")
    if stats.m2 < M2_DEGENERATE:
        raise DomainError(f"solve_dual requires m2 >= {M2_DEGENERATE}, got {stats.m2}")
    ensure_feasible(stats)
    stats = _capped(stats)

    def try_full(init: tuple[float, float, float], grid: Optional[_HeldGrid] = None
                 ) -> Optional[tuple[np.ndarray, _HeldGrid]]:
        try:
            return _solve_dual_system(stats, r, True, init, grid)
        except NoConvergenceError:
            return None

    full_sol = None
    if warm is not None and warm.variant is DualVariant.FULL:
        full_sol = try_full(_tangent_start(warm, r), warm.grid)
    if full_sol is None:
        if interval is None:
            interval = _solve_interval(stats.q, stats.m1)
        soft = _soft_interval_init(stats, r, interval)
        if soft is not None:
            full_sol = try_full(soft)
    if full_sol is None:
        # conservative fallback: the two-equation bound is valid regardless
        return _reduced_dual(stats, r)

    sol, held = full_sol
    return _solution(float(sol[0]), float(sol[1]), float(sol[2]), DualVariant.FULL,
                     r, held)


def probability_from_dual(dual: DualSolution) -> tuple[float, float]:
    """The primal mass of the dual's set under N(r, 1), and its dp/dr.

    This is the set's own probability at the dual's travel distance r, the
    quantity a Monte-Carlo re-run of the set estimates, read off the
    solve's own grid by the sum the radius search bounds with
    (``_grid_mass``).  That grid ends at x = 12, so it misses at most
    Phi(r - 12) of N(r, 1), below 1e-19 for r <= 3.  It is the worst case
    only to the extent that the set meets the constraints.  Radii rest
    instead on ``dual.bound``, the dual function g at the solve's
    multipliers, a lower bound by weak duality; at a converged solve the
    two agree to within the residual.  The slope is ``dual.bound_slope``,
    the search's: dp/dr with the set held fixed (envelope theorem).
    """
    if dual.grid is None:
        raise DomainError("probability_from_dual needs a solved dual, which holds its grid")
    return _grid_mass(dual.grid, dual.travel_scale), dual.bound_slope


def _worst_case(stats: FirstOrderStats, interval: tuple[float, float], r: float,
                warm: Optional[DualSolution] = None
                ) -> tuple[float, float, Optional[DualSolution]]:
    """Worst-case probability p(r), its slope dp/dr, and the dual solved.

    ``interval`` is ``_solve_interval(stats.q, stats.m1)``.  Dropping the m2
    constraint can only lower the minimum, so the interval's closed-form
    p_int(r) = Phi(w1 - r) - Phi(w2 - r) is a lower bound at every r > 0.
    Below ``_R_SMOOTH_FLOOR`` or for q within ``_Q_SMOOTH_FLOOR`` of 1/2,
    where the exponential basis degenerates, or for m2 below
    ``M2_DEGENERATE``, p_int is returned with its exact slope.
    Otherwise p is the larger of p_int and the dual's g, the dual function
    at the multipliers ``solve_dual`` (started from ``warm``) ends on, read
    off its last residual evaluation (``_dual_bound``): a lower bound by
    weak duality, with m1 as an equality.  The slope is the larger one's;
    one that would come from a reduced dual is nan, so the search bisects
    there.  A dual that does not converge at all leaves p_int, still a
    proven bound, and no dual.  The dual is returned whenever one was
    solved, for warm starts, even where p_int won.
    """
    p_int, slope_int = _interval_probability(*interval, r)
    if (r < _R_SMOOTH_FLOOR or stats.q <= 0.5 + _Q_SMOOTH_FLOOR
            or stats.m2 < M2_DEGENERATE):
        return p_int, slope_int, None
    try:
        dual = solve_dual(stats, r, warm=warm, interval=interval)
    except NoConvergenceError:
        return p_int, slope_int, None
    if dual.bound < p_int:
        return p_int, slope_int, dual
    slope = dual.bound_slope if dual.variant is DualVariant.FULL else math.nan
    return dual.bound, slope, dual


def _grid_mass(held: _HeldGrid, r: float) -> float:
    """The mass under N(r, 1) of the set whose Phi(c) ``held`` holds, on its
    grid over [-12, 12]: sum w phi(x) e^{r x - r^2/2} Phi(c(x))."""
    return float((held.base * held.cdf_c) @ np.exp(r * held.x - 0.5 * r * r))


def _set_mass_bound(dual: DualSolution, r: float) -> float:
    """An upper bound on the worst case at r from a FULL set solved at another r.

    The constraints sit at r = 0, so the set of a converged FULL dual meets
    them (to the solve's residual) at every r, and its mass under N(r, 1)
    is at least the minimum.  That mass is read off the solve's last grid
    (``_grid_mass``); the mass of N(r, 1) past 12 is added, since the grid
    does not reach it.  A bound too low could only end a search short of
    the root, never past it.
    """
    return _grid_mass(dual.grid, r) + _cdf(r - _DOMAIN_HALF_WIDTH)


def _shifted_bound(stats: FirstOrderStats, dual: DualSolution, r: float,
                   shift: float) -> float:
    """g at r from the multipliers of ``dual``, solved at r' = r + h.

    Holding lam2 = e^{-r'^2/2 - u} (and so lam0 and lam1) fixed moves u to
    u + ``shift``, shift = (r'^2 - r^2) / 2; any multipliers give a lower
    bound by weak duality (``_dual_bound``).  The solve's grid serves if
    c's crossings hold still, and is copied, never changed.
    """
    held = dual.grid.carried()
    u = math.log(-dual.c2) + shift
    _dual_residual(np.array([dual.c0, dual.c1, u]), _capped(stats), r, True, held)
    return _dual_bound(held, dual.c0, dual.c1, u, r)[0]


def lower_bound_probability(stats: FirstOrderStats, r: float) -> float:
    """Worst-case smoothed probability at scaled distance r (r = 0 gives q).

    The radius search's p = max(p_int, g) (``_worst_case``), solved cold.
    """
    if r < 0.0 or not math.isfinite(r):
        raise DomainError(f"travel distance must be nonnegative, got {r}")
    if r == 0.0:
        return stats.q
    if not (0.5 < stats.q < 1.0):
        raise DomainError(f"first-order bound requires q in (0.5, 1), got {stats.q}")
    ensure_feasible(stats)
    if stats.m1 == 0.0 and stats.m2 == 0.0:
        # no usable gradient information: zeroth-order worst case (halfspace)
        return float(std_normal_cdf(std_normal_quantile(stats.q) - r))
    return _worst_case(stats, _solve_interval(stats.q, stats.m1), r)[0]


def _grid_search(probe: Callable[[int], tuple[float, float]], top: int,
                 k: int) -> Optional[int]:
    """Last grid index lo with p(lo h) >= 1/2, where h = R_CAP_DEFAULT / top.

    Returns None when p at the cap (index top) is >= 1/2.  ``probe(k)``
    gives p(k h) and the exact dp/dr there, nan where no slope is known.
    Only p's side of 1/2 steers the search, so a probe may return a bound
    that decides that side instead of p itself, with a nan slope.
    The search returns lo once p(lo h) >= 1/2 and p((lo + 1) h) < 1/2 have
    both been probed: for a p that falls once through 1/2, the point
    ``bisect_root`` returns on the same grid.  It probes k first, then takes
    Newton steps on p(r) - 1/2, floored to the grid and kept strictly inside
    the bracket.  It bisects the bracket where the slope is nan or not
    negative, where Newton points outside the bracket, or when two Newton
    probes have not halved it.  The cap is probed only when Newton points
    past it or the bracket ends there.  A p that is not finite raises
    ``NumericalError``: a nan would otherwise read as p >= 1/2 and certify.
    """
    h = R_CAP_DEFAULT / top
    # p(lo h) >= 1/2 > p(hi h), where hi = top stands unproven until a
    # probe falls below 1/2; widths[i] is hi - lo after probe i
    lo, hi, proven = 0, top, False
    widths: list[int] = []
    while True:
        p, slope = probe(k)
        if not math.isfinite(p):
            raise NumericalError(f"worst-case probability {p} at grid index {k}")
        if p < 0.5:
            hi, proven = k, True
        elif k == top:
            return None
        else:
            lo = k
        widths.append(hi - lo)
        if hi - lo == 1 and proven:
            return lo
        target = k * h + (0.5 - p) / slope if slope < 0.0 else math.nan
        stalled = len(widths) > 2 and widths[-1] > widths[-3] / 2
        if not proven and (hi - lo == 1 or target >= R_CAP_DEFAULT):
            k = top
        elif lo * h <= target < hi * h and not stalled:
            k = min(max(math.floor(target / h), lo + 1), hi - 1)
        else:
            k = (lo + hi) // 2


def directional_radius(stats: FirstOrderStats, cfg: SmoothingConfig,
                       tol: float = 1e-4) -> RadiusResult:
    """Largest certified travel distance along the encoded direction.

    Returns sigma * r*, where r* lies short of the root of p(r) = 0.5 by
    at most tol (in input units) and never past it; 0 when q <= 0.5; and
    the fixed cap sigma * R_CAP_DEFAULT = 10 sigma with the capped flag when
    the worst-case probability never falls to 0.5 before it.  The result is
    floored at the zeroth-order radius, which the first-order bound provably
    dominates.

    r* is the ``_grid_search`` result on bisection's grid k h, with
    h = R_CAP_DEFAULT / 2**bisection_steps(R_CAP_DEFAULT, tol / sigma),
    a grid at most 1e-9 wide when m2 = 0.  That search runs first over the
    closed-form p_int of the m2 = 0 interval, from Phi^-1(q).  Its root is
    the radius for m2 = 0 and for q within ``_Q_SMOOTH_FLOOR`` of 1/2.
    Otherwise the search runs again over ``_worst_case``'s
    p = max(p_int, g), from p_int's root: dropping the m2 constraint
    can only lower p, so that root lies below the dual's and closer than
    Phi^-1(q).  The slope is the larger term's: the exact one of p_int, or
    dg/dr = integral (x - r) phi(x - r) Phi(c(x)) dx of a FULL dual, its
    multipliers held; a reduced dual has none.  Each solve is warm-started
    from the nearest r already solved, moved along its tangent in r, on
    its grid (``solve_dual``).

    A probe k next to a FULL-solved index is first decided from that
    solve, which closes the bracket without a solve at k: it is the top
    when index k - 1 had p >= 1/2 and both p_int(k h) and that set's mass
    at k h, an upper bound on the worst case (``_set_mass_bound``), are
    below 1/2; it is the bottom when index k + 1 had p < 1/2 and
    max(p_int, g) >= 1/2, g from that solve's multipliers with lam2 held
    (``_shifted_bound``).

    ``fallback_used`` is set when an end of the final bracket (or the cap,
    for a capped result) at or above the smooth floor was decided neither
    by its own FULL dual nor by a neighbour's: the reduced dual was used,
    or no dual converged and p_int stood alone.  An end that a neighbour's
    converged FULL solve decided, through its set or its multipliers, is
    not a fallback.
    """
    q = stats.q
    if q <= 0.5:
        return RadiusResult(0.0)
    zeroth = zeroth_radius_l2(q, cfg)
    if stats.m1 == 0.0 and stats.m2 == 0.0:
        return RadiusResult(zeroth)
    ensure_feasible(stats)
    if stats.m2 >= max_gradient_magnitude(q) * (1.0 - _M2_SINGLETON):
        # exact perpendicular-boundary stats: the worst case is the
        # perpendicular halfspace itself, unbounded along the travel ray
        return RadiusResult(cfg.sigma * R_CAP_DEFAULT, capped=True)
    degenerate = stats.m2 < M2_DEGENERATE
    scaled_tol = max(tol / cfg.sigma, 1e-12)
    top = 2 ** bisection_steps(  # index of the cap
        R_CAP_DEFAULT, min(scaled_tol, 1e-9) if degenerate else scaled_tol)
    h = R_CAP_DEFAULT / top
    interval = _solve_interval(q, stats.m1)
    k = min(max(math.floor(float(std_normal_quantile(q)) / h), 1), top - 1)
    lo = _grid_search(lambda j: _interval_probability(*interval, j * h), top, k)
    if degenerate or q <= 0.5 + _Q_SMOOTH_FLOOR:
        # _worst_case is p_int here too; returning now keeps these probes
        # from counting as fallbacks
        if lo is None:
            return RadiusResult(cfg.sigma * R_CAP_DEFAULT, capped=True)
        return RadiusResult(max(cfg.sigma * (lo * h), zeroth))

    duals: dict[int, DualSolution] = {}  # grid index -> its solve
    probed: dict[int, float] = {}  # grid index -> its p
    borrowed: set[int] = set()  # bracket ends decided by a neighbour's dual

    def neighbour_decides(k: int) -> Optional[float]:
        # a p on the far side of 1/2 from a FULL-solved neighbour closes
        # the bracket at k, so k needs no solve of its own
        r = k * h
        if r < _R_SMOOTH_FLOOR:
            return None
        p_int = _interval_probability(*interval, r)[0]
        below, above = duals.get(k - 1), duals.get(k + 1)
        if (below is not None and below.variant is DualVariant.FULL
                and probed[k - 1] >= 0.5 and p_int < 0.5):
            upper = _set_mass_bound(below, r)
            if upper < 0.5:
                return upper
        if (above is not None and above.variant is DualVariant.FULL
                and probed[k + 1] < 0.5):
            p = max(p_int, _shifted_bound(stats, above, r, (2 * k + 1) * h * h / 2.0))
            if p >= 0.5:
                return p
        return None

    def probe(k: int) -> tuple[float, float]:
        p = neighbour_decides(k)
        if p is not None:
            borrowed.add(k)
            probed[k] = p
            return p, math.nan
        near = min(duals, key=lambda j: (abs(j - k), j), default=None)
        p, slope, dual = _worst_case(stats, interval, k * h, warm=duals.get(near))
        probed[k] = p
        if dual is not None:
            duals[k] = dual
        return p, slope

    def fell_back(k: int) -> bool:
        # an end at or above the floor was decided neither by its own FULL
        # dual nor by a neighbour's: the search probes every bracket end it
        # returns but index 0, which lies below the floor
        return k * h >= _R_SMOOTH_FLOOR and k not in borrowed and (
            k not in duals or duals[k].variant is not DualVariant.FULL)

    lo = _grid_search(probe, top, top if lo is None else min(max(lo, 1), top - 1))
    if lo is None:
        return RadiusResult(cfg.sigma * R_CAP_DEFAULT, capped=True,
                            fallback_used=fell_back(top))
    return RadiusResult(max(cfg.sigma * (lo * h), zeroth),
                        fallback_used=fell_back(lo) or fell_back(lo + 1))


# ---------------------------------------------------------------------------
# threat-model entry points
# ---------------------------------------------------------------------------


def _perp_component(lower_sq: float, parallel_sq: float) -> float:
    return math.sqrt(max(0.0, lower_sq - parallel_sq))


def _threat_stats(q: float, m1: float, m2: float) -> FirstOrderStats:
    """Floor threat-path stats (m1 <= 0) into the feasibility disk.

    Flooring m1 at -sqrt(M'^2 - m2^2), M' = M (1 - 1e-12), is always valid
    because it only weakens a one-sided bound: the directional derivative
    of any classifier with value q and perpendicular norm >= m2 cannot be
    steeper.  m2 is never changed: it lower-bounds a quantity capped by M,
    so m2 > M (1 + FEASIBILITY_SLACK) means the confidence event failed and
    raises ``InfeasibleStatsError``.
    """
    big_m = max_gradient_magnitude(q) * (1.0 - 1e-12)
    floor = -_perp_component(big_m * big_m, m2 * m2)
    stats = FirstOrderStats(q, max(m1, floor), m2)
    ensure_feasible(stats)
    return stats


def _dual_norm_radius(q: float, dual: float, l2_lower: float, k: int,
                      cfg: SmoothingConfig, tol: float) -> RadiusResult:
    """First-order radius from ``dual``, a bound on the threat's dual norm of y1.

    The worst travel direction is a unit l2 vector of threat norm 1/sqrt(k)
    along which y1 can fall by dual/sqrt(k): a basis vector for l1 (k = 1),
    the sign diagonal of k coordinates for linf (k = d or the subspace
    dimension), the projected gradient for subspace l2 (k = 1), and the
    gradient itself for l2 (k = 1, l2_lower = 0, so m2 = 0).  Every entry
    point shares this edge rule: q <= 1/2 gives radius 0, and q >= 1 or a
    negative or nan bound raises ``DomainError``.
    """
    if not (0.0 <= q < 1.0 and dual >= 0.0):
        raise DomainError(f"first-order radius requires q in [0, 1) and a "
                          f"nonnegative gradient bound, got q = {q}, bound {dual}")
    if q <= 0.5:
        return RadiusResult(0.0)
    root_k = math.sqrt(k)
    step = cfg.sigma / root_k
    m1 = -step * dual
    m2 = step * _perp_component(k * l2_lower ** 2, dual ** 2)
    res = directional_radius(_threat_stats(q, m1, m2), cfg, tol)
    return res._replace(radius=res.radius / root_k)


def radius_l2_first(q: float, grad_l2_upper: float, cfg: SmoothingConfig,
                    tol: float = 1e-4) -> RadiusResult:
    """First-order l2 radius from an upper bound on ||y1||_2.

    The worst direction opposes the gradient, so the perpendicular component
    vanishes and the core runs the m2 = 0 interval with m1 = -sigma * bound.
    ``_threat_stats`` floors m1 at the feasibility maximum phi(Phi^-1(q)),
    itself a valid gradient-magnitude bound; there the interval becomes the
    halfspace and the radius the zeroth-order one.  m2 = 0 radii are
    searched on a grid at most 1e-9 wide, so ``tol`` has no effect above
    1e-9 sigma.
    """
    return _dual_norm_radius(q, grad_l2_upper, 0.0, 1, cfg, tol)


def radius_l1_first(q: float, bounds: GradientNormBounds, cfg: SmoothingConfig,
                    tol: float = 1e-4) -> RadiusResult:
    """First-order l1 radius (worst basis direction; m1 from the linf bound)."""
    return _dual_norm_radius(q, bounds.linf_upper, bounds.l2_lower, 1, cfg, tol)


def radius_linf_first(q: float, bounds: GradientNormBounds, cfg: SmoothingConfig,
                      tol: float = 1e-4,
                      mode: LinfMode = LinfMode.VIA_L2_SCALING) -> RadiusResult:
    """First-order linf radius.

    VIA_L2_SCALING divides the l2 radius by sqrt(d).  VIA_L1_BOUND travels
    along the worst diagonal using the l1-norm gradient bound; the travel
    distance along the (l2-unit) diagonal converts to an linf radius by the
    same sqrt(d) factor.
    """
    if mode is LinfMode.VIA_L2_SCALING:
        res = radius_l2_first(q, bounds.l2_upper, cfg, tol)
        return res._replace(radius=res.radius / math.sqrt(cfg.dim))
    if bounds.l1_upper is None:
        raise DomainError("linf via the l1 bound requires l1_upper")
    return _dual_norm_radius(q, bounds.l1_upper, bounds.l2_lower, cfg.dim, cfg, tol)


def radius_subspace(q: float, bounds: GradientNormBounds, p, subspace_dim: int,
                    cfg: SmoothingConfig, tol: float = 1e-4) -> RadiusResult:
    """First-order lp radius restricted to a subspace of dimension subspace_dim.

    ``bounds.subspace_dual_upper`` must bound the dual norm ||P_S y1||_{p'};
    for p = inf it is the projected l1 norm and the diagonal travel is
    rescaled by sqrt(subspace_dim) exactly as in the full-space case.
    """
    if bounds.subspace_dual_upper is None:
        raise DomainError("subspace radius requires subspace_dual_upper")
    if subspace_dim is None or not 1 <= subspace_dim <= cfg.dim:
        raise DomainError(
            f"subspace_dim must lie in [1, {cfg.dim}], got {subspace_dim}"
        )
    if p not in DUAL_EXPONENT:
        raise DomainError(f"p must be 1, 2 or inf, got {p}")
    k = subspace_dim if p == math.inf else 1
    return _dual_norm_radius(q, bounds.subspace_dual_upper, bounds.l2_lower, k,
                             cfg, tol)


def first_order_radius(threat: ThreatModel, q: float, bounds: GradientNormBounds,
                       cfg: SmoothingConfig, tol: float = 1e-4, *,
                       linf_mode: LinfMode = LinfMode.VIA_L2_SCALING,
                       subspace_dim: Optional[int] = None) -> RadiusResult:
    """First-order radius of ``threat``: the one map from a threat to its
    entry point, each looked up by its module-level name at call time.
    ``linf_mode`` is read by linf alone, ``subspace_dim`` by the subspace
    threats, which require it."""
    if threat is ThreatModel.L2:
        return radius_l2_first(q, bounds.l2_upper, cfg, tol)
    if threat is ThreatModel.L1:
        return radius_l1_first(q, bounds, cfg, tol)
    if threat is ThreatModel.LINF:
        return radius_linf_first(q, bounds, cfg, tol, mode=linf_mode)
    return radius_subspace(q, bounds, threat.norm, subspace_dim, cfg, tol)
