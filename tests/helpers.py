"""Shared oracles and constructors for the test suite.

Expected values here are computed by routes independent of the code under
test: scipy special-function identities, brute-force bisection, linear
programs and central differences.  The cross-checks that ``smoothcert
selftest`` runs live in ``smoothcert.selftest``: the acceptance suite calls
its zeroth closed-form, halfspace-exactness, l2-dominance, Monte-Carlo
oracle and Table-1 checks with its own parameters, and the unit tests call
the zeroth, halfspace and angular checks with theirs.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys

import numpy as np
from scipy import optimize, special

from smoothcert.numerics import CLAMP, INV_SQRT_2PI


def bench_suite():
    """The benchmark's workload module, loaded from perfbench/suite.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "suite.py")
    spec = importlib.util.spec_from_file_location("bench_suite", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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


# std_normal_cdf and std_normal_pdf take one float; these are their array
# forms, with the same clip at +-CLAMP and the same constant, so that the
# dual's array integrands can be checked against them bit for bit
def clipped_cdf(x):
    return special.ndtr(np.minimum(np.maximum(x, -CLAMP), CLAMP))


def clipped_pdf(x):
    x = np.minimum(np.maximum(x, -CLAMP), CLAMP)
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


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
