"""Special functions, Gauss-Legendre panel nodes and small nonlinear solvers.

Everything in here is pure: no module state is mutated after import, so all
functions are safe to call from multiple threads.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

__all__ = [
    "DomainError",
    "NumericalError",
    "NoConvergenceError",
    "BracketError",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "panel_nodes",
    "solve_system",
    "bisection_steps",
    "bisect_root",
    "CLAMP",
]

# Arguments of Phi / exp(-c^2/2) are clamped to +-CLAMP before evaluation.
# Phi saturates to 0/1 far earlier, so results are unchanged to machine
# precision while exp() overflow from steep arguments is impossible.
CLAMP = 38.0

GAUSS_LEGENDRE_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# fixed damped-Newton setup of solve_system
RESIDUAL_TOLERANCE = 1e-10
MAX_ITERATIONS = 80
DAMPING_FLOOR = 1.0 / 1024.0


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NumericalError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class NoConvergenceError(NumericalError):
    """Iterative solver failed to reach the requested residual tolerance."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(f"{message} (last residual max-norm {residual_norm:.3e})")
        self.residual_norm = residual_norm


class BracketError(DomainError):
    """Root bracketing endpoints do not straddle a sign change."""


def std_normal_cdf(x):
    """Standard normal CDF, vectorized; saturates cleanly for large |x|."""
    return _sp.ndtr(np.minimum(np.maximum(x, -CLAMP), CLAMP))


def std_normal_pdf(x):
    """Standard normal density, vectorized."""
    x = np.minimum(np.maximum(x, -CLAMP), CLAMP)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1); DomainError outside it, nan included."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):  # nan fails too
        raise DomainError(f"quantile argument must lie in (0, 1), got {p!r}")
    return _sp.ndtri(p)


def panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for the cells of a sorted edge array.

    Returns flat arrays of (len(edges) - 1) * 16 nodes/weights; exact for
    polynomials of degree 31 on each cell.
    """
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    weights = halves[:, None] * _GL_WEIGHTS[None, :]
    return nodes.ravel(), weights.ravel()


def _evaluate(residual, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    f, jac = residual(x)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    return f, np.asarray(jac, dtype=float).reshape(f.size, x.size)


def solve_system(
    residual: Callable[[np.ndarray], tuple],
    initial: Sequence[float],
) -> np.ndarray:
    """Solve F(x) = 0 by damped Newton with a caller-supplied Jacobian.

    ``residual(x)`` returns the pair (F, J): the residual vector and its
    Jacobian dF/dx at x, of shape len(F) x len(x); scalar problems may
    return floats.  The step is halved until the residual 2-norm decreases,
    down to DAMPING_FLOOR.  The accepted trial's J is the next step's
    Jacobian, so a Newton step costs one evaluation per line-search trial.
    Raises NoConvergenceError at a singular Jacobian, at a line search that
    reaches DAMPING_FLOOR without lowering the 2-norm, and unless the
    residual max-norm reaches RESIDUAL_TOLERANCE within MAX_ITERATIONS steps.
    A non-finite entry anywhere in the first F or in a step raises too; a
    trial with one has a non-finite 2-norm and is never accepted.  The norms
    are taken on Python floats: the 2-norm is sqrt(F . F), as
    ``np.linalg.norm`` forms it, and every entry is checked, since
    ``max`` skips a nan that is not first.
    """
    x = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    f, jac = _evaluate(residual, x)
    if f.size != x.size:
        raise DomainError(f"residual dimension {f.size} != unknown dimension {x.size}")
    values = f.tolist()
    if not all(map(math.isfinite, values)):
        raise NoConvergenceError("residual became non-finite", float(np.max(np.abs(f))))
    norm = max(map(abs, values))
    merit = math.sqrt(float(f.dot(f)))
    for _ in range(MAX_ITERATIONS):
        if norm <= RESIDUAL_TOLERANCE:
            return x
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise NoConvergenceError("singular Jacobian", norm) from None
        if not all(map(math.isfinite, step.tolist())):
            raise NoConvergenceError("Newton step became non-finite", norm)
        alpha = 1.0
        while alpha >= DAMPING_FLOOR:
            trial = x + alpha * step
            f_trial, jac_trial = _evaluate(residual, trial)
            trial_merit = math.sqrt(float(f_trial.dot(f_trial)))
            if trial_merit < merit:  # false for a nan or an infinite merit
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError("damped Newton stalled", norm)
        x, f, jac = trial, f_trial, jac_trial
        norm = max(map(abs, f.tolist()))
        merit = trial_merit
    if norm <= RESIDUAL_TOLERANCE:
        return x
    raise NoConvergenceError("iteration cap reached", norm)


def bisection_steps(width: float, tol: float) -> int:
    """Halvings ``bisect_root`` makes of a bracket ``width`` wide for ``tol``.

    Its midpoints then lie on the grid lo + k * width / 2**steps.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    return int(np.ceil(np.log2(max(width / tol, 1.0)))) + 1


def _finite_value(f: Callable[[float], float], x: float) -> float:
    value = f(x)
    if not math.isfinite(value):
        raise NumericalError(f"f({x!r}) = {value} is not finite")
    return value


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> float:
    """Bisection root of a scalar function on a sign-changing bracket.

    Runs a fixed iteration count derived from tol (``bisection_steps``),
    which keeps results deterministic and monotone under pointwise-ordered
    objective families.  Returns the final bracket's end on the side of lo,
    within tol/2 of the root, where f keeps the sign of f(lo).  Only the
    sign of f and its exact zeros steer it, so where the sign is known f
    may return any value of that sign.  Radii are found on this grid by a
    Newton search (``certify._grid_search``); this function solves the
    m2 = 0 interval's endpoints, once per radius, on a gap evaluated only
    inside a Newton bracket (``certify._solve_interval``).  Raises
    ``NumericalError`` where f is not finite at an end or a midpoint, since
    a nan has no sign to steer by.
    """
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    steps = bisection_steps(hi - lo, tol)
    f_lo = _finite_value(f, lo)
    f_hi = _finite_value(f, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}"
        )
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        f_mid = _finite_value(f, mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return lo
