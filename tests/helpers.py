"""Shared oracles and constructors for the test suite.

Expected values here are computed by routes independent of the code under
test: scipy special-function identities, brute-force bisection, explicit
Table-1 algebra, linear programs, Monte Carlo, and central differences.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

from smoothcert.certify import FirstOrderStats, SmoothingConfig
from smoothcert.classifiers import LinearClassifierSpec, RngSpec, analytic_linear_stats

# frozen high-precision constants (mpmath, 40 digits)
PHI_0 = 0.3989422804014327
PHI_1 = 0.2419707245191434
CDF_1 = 0.8413447460685429
QUANTILE_09 = 1.2815515655446004
QUANTILE_0841 = 0.9999998096111062  # Phi^-1(0.8413447), note the rounded input
MAX_GRAD_09 = 0.1754983319324868    # phi(Phi^-1(0.9))
SUBGAUSSIAN_K_1 = 0.6129560867787150  # 1/4 + 3/sqrt(8 pi e)


def phi(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def cdf(x):
    return special.ndtr(x)


def quantile(p):
    return special.ndtri(p)


def central_difference_jacobian(fun, x, rel_step: float = 1e-6) -> np.ndarray:
    """Jacobian of fun at x by central differences, step rel_step * max(1, |x_j|)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    columns = []
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.atleast_1d(np.asarray(fun(xp), dtype=float)) -
                        np.atleast_1d(np.asarray(fun(xm), dtype=float))) / (2.0 * h))
    return np.stack(columns, axis=1)


def with_fd_jacobian(fun):
    """Residual in the (F, J) form solve_system takes, J by central differences."""
    return lambda x: (fun(x), central_difference_jacobian(fun, x))


def beta_lower_oracle(successes: int, n: int, alpha: float) -> float:
    """Brute-force one-sided Clopper-Pearson via bisection on the
    regularized incomplete beta function (independent of beta.ppf)."""
    if successes == 0:
        return 0.0
    a, b = successes, n - successes + 1

    def cdf_beta(x):
        return special.betainc(a, b, x)

    return optimize.brentq(lambda x: cdf_beta(x) - alpha, 1e-16, 1.0 - 1e-16,
                           xtol=1e-14)


def interval_system_oracle(q: float, m1: float) -> tuple[float, float]:
    """Independent solve of the degenerate interval system via brentq.

    Endpoint convention: mass(w2, w1) = q, and the first moment of the
    interval equals m1 (phi(w2) - phi(w1) = m1).
    """

    def w1_of(w2):
        return quantile(min(q + cdf(w2), 1.0 - 1e-16))

    def gap(w2):
        return phi(w2) - phi(w1_of(w2)) - m1

    w2 = optimize.brentq(gap, -37.0, quantile(1.0 - q) - 1e-12, xtol=1e-14)
    return w2, float(w1_of(w2))


def interval_radius_oracle(q: float, m1: float) -> float:
    """Scaled failure distance of the interval worst case, via brentq."""
    w2, w1 = interval_system_oracle(q, m1)

    def p_of(r):
        return cdf(w1 - r) - cdf(w2 - r) - 0.5

    return optimize.brentq(p_of, 0.0, 40.0, xtol=1e-13)


def table1_l2_oracle(dot: float, k: float, n1: int, n2: int, d: int,
                     alpha: float) -> tuple[float, float]:
    """Verbatim Table-1 algebra for the l2 product estimator."""
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


def dual_norm_lp_oracle(w: np.ndarray, p: float) -> float:
    """Dual norm max_{||v||_p <= 1} w.v by linear programming (p in {1, inf}).

    For p = 1 the ball's vertices are +-e_i; the LP runs over the 2d-vertex
    convex hull via an epigraph formulation.  For p = inf the ball is the
    box [-1, 1]^d.  p = 2 falls back to the Euclidean norm.
    """
    d = w.size
    if p == 2:
        return float(np.linalg.norm(w))
    if p == math.inf:
        res = optimize.linprog(-w, bounds=[(-1, 1)] * d, method="highs")
        return float(-res.fun)
    if p == 1:
        # maximize w.v s.t. sum |v_i| <= 1 : split v = a - b, a,b >= 0
        c = np.concatenate([-w, w])
        a_ub = np.ones((1, 2 * d))
        res = optimize.linprog(c, A_ub=a_ub, b_ub=[1.0],
                               bounds=[(0, None)] * (2 * d), method="highs")
        return float(-res.fun)
    raise ValueError(p)


def random_halfspace_case(seed: int, dim: int, sigma_range=(0.2, 1.0),
                          q_range=(0.62, 0.93)):
    """Random linear classifier + point with controlled smoothed probability."""
    gen = RngSpec(seed, 0).generator()
    w = gen.standard_normal(dim)
    sigma = float(gen.uniform(*sigma_range))
    q_target = float(gen.uniform(*q_range))
    w_norm = float(np.linalg.norm(w))
    margin = sigma * w_norm * float(quantile(q_target))
    x = margin * w / (w_norm * w_norm)
    spec = LinearClassifierSpec(w=w, b=0.0)
    cfg = SmoothingConfig(sigma, dim)
    return spec, x, cfg


def shrunk_halfspace_stats(spec: LinearClassifierSpec, x, cfg: SmoothingConfig,
                           norm_kind: str, shrink: float = 1e-6) -> FirstOrderStats:
    """Exact first-order stats for the threat direction, shrunk for conditioning."""
    y0, y1 = analytic_linear_stats(spec, x, cfg)
    l2 = float(np.linalg.norm(y1))
    linf = float(np.max(np.abs(y1)))
    l1 = float(np.sum(np.abs(y1)))
    s = 1.0 - shrink
    sigma = cfg.sigma
    if norm_kind == "l2":
        return FirstOrderStats(y0, -sigma * l2 * s, 0.0)
    if norm_kind == "l1":
        m1 = -sigma * linf * s
        m2 = sigma * math.sqrt(max(0.0, l2 ** 2 - linf ** 2)) * s
        return FirstOrderStats(y0, m1, m2)
    if norm_kind == "linf":
        root_d = math.sqrt(cfg.dim)
        m1 = -(sigma / root_d) * l1 * s
        m2 = (sigma / root_d) * math.sqrt(max(0.0, cfg.dim * l2 ** 2 - l1 ** 2)) * s
        return FirstOrderStats(y0, m1, m2)
    raise ValueError(norm_kind)
