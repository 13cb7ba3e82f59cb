import math

import numpy as np
import pytest

from smoothcert.numerics import (
    DAMPING_FLOOR,
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

from helpers import (
    CDF_1,
    QUANTILE_09,
    QUANTILE_0841,
    interval_system_oracle,
    with_fd_jacobian,
)


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_reference_value(self):
        assert std_normal_cdf(1.0) == pytest.approx(CDF_1, abs=1e-12)

    def test_deep_tail_saturates(self):
        assert std_normal_cdf(-40.0) <= 1e-300
        assert std_normal_cdf(40.0) == 1.0

    def test_complement_identity(self):
        for x in np.linspace(-8.0, 8.0, 401).tolist():
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15, x

    def test_monotone(self):
        values = [std_normal_cdf(x) for x in np.linspace(-12.0, 12.0, 2001).tolist()]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_inverse_of_cdf(self):
        # derived by refining the CDF oracle, not by rounding the input
        assert std_normal_quantile(0.8413447) == pytest.approx(
            QUANTILE_0841, abs=1e-9
        )
        assert std_normal_quantile(0.9) == pytest.approx(QUANTILE_09, abs=1e-9)

    def test_roundtrip(self):
        for p in np.linspace(1e-6, 1.0 - 1e-6, 57):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(
                p, abs=1e-12
            )

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            std_normal_quantile(math.nan)


class TestSolveSystem:
    # each residual returns (F, J): J analytic, or central differences
    # through helpers.with_fd_jacobian
    def test_linear_1d(self):
        got = solve_system(lambda x: (x - 3.0, 1.0), [0.0])
        assert got[0] == pytest.approx(3.0, abs=1e-10)

    def test_small_2d(self):
        def residual(v):
            x, y = v
            return [x * x + y - 2.0, y - 1.0], [[2.0 * x, 1.0], [0.0, 1.0]]

        got = solve_system(residual, [2.0, 2.0])
        assert got == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_corollary3_interval_system(self):
        # three-equation radius system at near-maximal gradient magnitude;
        # expected values from an independent brentq-based reduction (the
        # oracle takes the directional-derivative sign convention, hence -m1)
        q, m1 = 0.9, 0.175498
        w2_ref, w1_ref = interval_system_oracle(q, -m1)

        def residual(v):
            r, w1, w2 = v
            return [
                std_normal_cdf(w1) - std_normal_cdf(w2) - q,
                std_normal_pdf(w1) - std_normal_pdf(w2) - m1,
                std_normal_cdf(w1 - r) - std_normal_cdf(w2 - r) - 0.5,
            ]

        got = solve_system(with_fd_jacobian(residual), [1.2, 1.5, -4.0])
        assert got[0] > 0.0
        assert got[0] == pytest.approx(1.2815516, abs=2e-3)
        assert got[1] == pytest.approx(w1_ref, abs=1e-6)
        # w2 sits in the deep tail where the system is nearly flat, so it is
        # only pinned to ~1e-4 at the residual tolerance
        assert got[2] == pytest.approx(w2_ref, abs=1e-3)

    def test_perturbed_initial_points(self):
        # property: a residual with a known root is recovered from a spread
        # of starting points
        root = np.array([0.7, -1.2])

        def residual(v):
            a, b = v[0] - root[0], v[1] - root[1]
            f = [math.tanh(a) + 0.2 * b, b * (1.0 + 0.1 * a * a)]
            jac = [[1.0 - math.tanh(a) ** 2, 0.2], [0.2 * a * b, 1.0 + 0.1 * a * a]]
            return f, jac

        gen = np.random.Generator(np.random.Philox(key=[5, 5]))
        for _ in range(25):
            start = root + gen.uniform(-1.5, 1.5, size=2)
            got = solve_system(residual, start)
            assert np.allclose(got, root, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            solve_system(with_fd_jacobian(lambda v: [v[0], v[0]]), [1.0])

    def test_nonconvergence_reports_norm(self):
        with pytest.raises(NoConvergenceError) as err:
            # no root: residual bounded away from zero
            solve_system(lambda x: (np.tanh(x) + 2.0, 1.0 - np.tanh(x) ** 2),
                         [0.0])
        assert err.value.residual_norm > 0.5

    def test_singular_jacobian_fails_at_once(self):
        # no least-squares step: the first Newton step's Jacobian is singular
        evaluated = []

        def residual(v):
            evaluated.append(float(v[0]))
            return [v[0] - 3.0, v[1] - 1.0], [[0.0, 0.0], [0.0, 1.0]]

        with pytest.raises(NoConvergenceError, match="singular Jacobian"):
            solve_system(residual, [0.0, 0.0])
        assert evaluated == [0.0]

    def test_line_search_without_progress_fails_at_once(self):
        # the Jacobian's sign is wrong, so every trial raises the merit: the
        # line search halves 1, 1/2, ..., DAMPING_FLOOR and then gives up,
        # with no floored step taken
        evaluated = []

        def residual(v):
            evaluated.append(float(v[0]))
            return v[0] - 3.0, -1.0

        with pytest.raises(NoConvergenceError, match="stalled"):
            solve_system(residual, [0.0])
        halvings = round(math.log2(1.0 / DAMPING_FLOOR))
        assert len(evaluated) == 1 + halvings + 1
        assert evaluated == [0.0] + [-3.0 * 0.5 ** k for k in range(halvings + 1)]

    def test_nan_past_the_first_entry_raises(self):
        # the norms are taken on Python floats, whose max() skips a nan
        # that is not first: a nan in the second entry of the first F or of
        # every line-search trial must still fail the solve, as must a nan
        # step (LAPACK spreads a nan in J to every entry of the step)
        def nan_at_start(v):
            return [v[0] - 1.0, math.nan], np.eye(2)

        with pytest.raises(NoConvergenceError, match="residual became non-finite"):
            solve_system(nan_at_start, [0.0, 0.0])

        evaluated = []

        def nan_in_trials(v):
            evaluated.append(v.tolist())
            second = v[1] - 1.0 if len(evaluated) == 1 else math.nan
            return [v[0] - 1.0, second], np.eye(2)

        with pytest.raises(NoConvergenceError, match="stalled") as err:
            solve_system(nan_in_trials, [0.0, 0.0])
        assert err.value.residual_norm == 1.0
        assert len(evaluated) == 2 + round(math.log2(1.0 / DAMPING_FLOOR))

        def nan_step(v):
            return [v[0] - 1.0, v[1] - 1.0], [[1.0, 0.0], [0.0, math.nan]]

        with pytest.raises(NoConvergenceError, match="step became non-finite"):
            solve_system(nan_step, [0.0, 0.0])


class TestBisect:
    def test_linear(self):
        assert bisect_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(
            1.0, abs=1e-11
        )

    def test_quantile_identity(self):
        got = bisect_root(lambda x: std_normal_cdf(1.0 - x) - 0.5, 0.0, 4.0, 1e-10)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x + 10.0, 0.0, 4.0, 1e-6)

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            bisect_root(lambda x: x, 2.0, 1.0, 1e-6)

    def test_non_finite_value_raises(self):
        # a nan has no sign: it used to steer the bracket as if negative
        # (all-nan f returned lo) instead of failing
        for f in (lambda x: math.nan,
                  lambda x: math.inf if x == 1.0 else 1.0 - 2.0 * x,
                  lambda x: math.nan if 0.4 < x < 0.6 else 1.0 - 2.0 * x):
            with pytest.raises(NumericalError, match="not finite"):
                bisect_root(f, 0.0, 1.0, 1e-3)
