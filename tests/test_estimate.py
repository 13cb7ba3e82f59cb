import math
import warnings

import numpy as np
import pytest
from scipy import stats

from smoothcert.estimate import (
    GradientSampleBatch,
    HypothesisError,
    estimate_q_lower,
    gradient_mean,
    l1_norm_bounds,
    l2_norm_bounds,
    linf_norm_bounds,
    split_alpha,
    subgaussian_k,
    subspace_norm_bounds,
)
from smoothcert.numerics import DomainError
from smoothcert.selftest import table1_l2_oracle

from helpers import SUBGAUSSIAN_K_1, beta_lower_oracle


def make_batch(x_sum, y_sum, n1, n2, successes=0, sigma=1.0):
    return GradientSampleBatch(np.asarray(x_sum, dtype=float),
                               np.asarray(y_sum, dtype=float),
                               n1, n2, successes, sigma)


class TestSubgaussianK:
    def test_unit_sigma(self):
        # high-precision evaluation of 1/4 + 3/sqrt(8 pi e)
        assert subgaussian_k(1.0) == pytest.approx(SUBGAUSSIAN_K_1, abs=1e-12)

    def test_quarter_scaling(self):
        assert subgaussian_k(0.5) == pytest.approx(SUBGAUSSIAN_K_1 / 4.0, abs=1e-12)

    def test_scale_limit(self):
        assert subgaussian_k(1e-8) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            subgaussian_k(0.0)


class TestClopperPearson:
    def test_zero_successes(self):
        assert estimate_q_lower(0, 100, 0.01) == 0.0

    def test_all_successes_closed_form(self):
        for n, alpha in ((10, 0.05), (1000, 0.001)):
            assert estimate_q_lower(n, n, alpha) == pytest.approx(
                alpha ** (1.0 / n), abs=1e-12
            )

    def test_against_beta_oracle(self):
        for (s, n, alpha) in ((900, 1000, 0.001), (55, 80, 0.05),
                              (3, 10, 0.2), (190000, 200000, 1e-3)):
            got = estimate_q_lower(s, n, alpha)
            assert got == pytest.approx(beta_lower_oracle(s, n, alpha), abs=1e-9)

    def test_equals_beta_ppf_bit_for_bit(self):
        # betaincinv and beta.ppf share Boost's ibeta_inv, so swapping one
        # for the other leaves every certificate byte-identical
        rng = np.random.default_rng(16)
        ns = [1, 2, 3, 7, 10, 100, 1000, 12345, 200000, 1000000]
        ns += [int(n) for n in rng.integers(1, 1000001, size=6)]
        for n in ns:
            successes = {1, n // 2, n - 1, n}
            successes |= {int(s) for s in rng.integers(1, n + 1, size=3)}
            for s in sorted(successes - {0}):
                for alpha in (1e-6, 1e-3 / 6, 1e-3 / 3, 1e-3, 0.05, 0.5):
                    want = float(stats.beta.ppf(alpha, s, n - s + 1))
                    assert estimate_q_lower(s, n, alpha) == want, (s, n, alpha)

    def test_spec_window(self):
        assert 0.86 < estimate_q_lower(900, 1000, 0.001) < 0.90

    def test_coverage_direction(self):
        # the lower bound sits below the point estimate
        assert estimate_q_lower(80, 100, 0.01) < 0.8

    def test_majority_class_bound_fails_within_alpha(self):
        # two classes at true p = 1/2: the pipeline bounds the majority
        # class's q from the same n draws, at q's alpha from split_alpha.
        # A false certificate (q_lb > 1/2) then happens with the exact
        # probability below, which must stay within q's share before the
        # class count (at the share itself it read 0.1948 = 1.95 x 0.1)
        n, alpha_total = 1000, 0.3
        share = alpha_total / 3
        q_alpha, _ = split_alpha(alpha_total, 2)
        counts = np.arange(n + 1)
        false = [estimate_q_lower(max(k, n - k), n, q_alpha) > 0.5
                 for k in counts.tolist()]
        p_false = float(stats.binom.pmf(counts, n, 0.5) @ np.array(false, dtype=float))
        assert p_false <= share, p_false


class TestGradientMean:
    def test_zero(self):
        batch = make_batch([0.0, 0.0], [0.0, 0.0], 10, 10)
        assert np.all(gradient_mean(batch) == 0.0)

    def test_pooling_arithmetic(self):
        u = np.array([1.0, -2.0])
        batch = make_batch(2 * u, 4 * u, 5, 5)
        assert gradient_mean(batch) == pytest.approx(6 * u / 10)


class TestL2Bounds:
    def test_hypothesis_floor(self):
        batch = make_batch(np.zeros(16), np.zeros(16), 100, 100)
        with pytest.raises(HypothesisError):
            l2_norm_bounds(batch, 0.001)

    def test_uninformative_data(self):
        batch = make_batch(np.zeros(256), np.zeros(256), 1000, 1000)
        lo, hi = l2_norm_bounds(batch, 0.01)
        assert lo == 0.0 and hi > 0.0

    def test_opposed_halves_give_no_upper_bound(self):
        # X.Y = -1 lies below -t: the dot + t <= 0 branch
        v = np.zeros(200)
        v[0] = 1.0
        batch = make_batch(v * 1000, -v * 1000, 1000, 1000)
        assert l2_norm_bounds(batch, 0.01) == (0.0, math.inf)
        want = table1_l2_oracle(-1.0, subgaussian_k(1.0), 1000, 1000, 200, 0.01)
        assert want == (0.0, math.inf)

    def test_matches_table1_algebra(self):
        # d = 200 keeps the Theorem-5 hypothesis valid at alpha = 0.001
        d, n1, n2, sigma, alpha = 200, 100_000, 100_000, 1.0, 0.001
        v = np.zeros(d)
        v[0] = 1.0
        batch = make_batch(v * n1, v * n2, n1, n2, sigma=sigma)  # X.Y = 1.0
        got = l2_norm_bounds(batch, alpha)
        want = table1_l2_oracle(1.0, subgaussian_k(sigma), n1, n2, d, alpha)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        assert got[0] < 1.0 < got[1]

    def test_random_cases_match_oracle(self):
        gen = np.random.Generator(np.random.Philox(key=[3, 1]))
        for _ in range(10):
            d = int(gen.integers(150, 400))
            n1 = int(gen.integers(50, 5000))
            n2 = int(gen.integers(50, 5000))
            sigma = float(gen.uniform(0.1, 2.0))
            x = gen.standard_normal(d)
            y = gen.standard_normal(d)
            batch = make_batch(x, y, n1, n2, sigma=sigma)
            alpha = float(gen.uniform(0.005, 0.2))
            got = l2_norm_bounds(batch, alpha)
            dot = float((x / n1) @ (y / n2))
            want = table1_l2_oracle(dot, subgaussian_k(sigma), n1, n2, d, alpha)
            for g, w in zip(got, want):
                if math.isinf(w):
                    assert math.isinf(g)
                else:
                    assert g == pytest.approx(w, rel=1e-10, abs=1e-15)

    def test_interval_ordering_and_monotonicity(self):
        d, n = 256, 2000
        gen = np.random.Generator(np.random.Philox(key=[4, 2]))
        mean = gen.standard_normal(d) * 0.02
        batch = make_batch(mean * n, mean * n, n, n, sigma=0.5)
        lo1, hi1 = l2_norm_bounds(batch, 0.05)
        lo2, hi2 = l2_norm_bounds(batch, 0.005)  # smaller alpha -> wider
        assert 0.0 <= lo1 <= hi1
        assert lo2 <= lo1 and hi2 >= hi1
        # more samples with proportionally scaled sums -> tighter
        batch4 = make_batch(mean * 4 * n, mean * 4 * n, 4 * n, 4 * n, sigma=0.5)
        lo4, hi4 = l2_norm_bounds(batch4, 0.05)
        assert hi4 - lo4 < hi1 - lo1


class TestLinfL1Bounds:
    def test_zero_data_linf(self):
        batch = make_batch(np.zeros(8), np.zeros(8), 50, 50, sigma=0.5)
        lo, hi = linf_norm_bounds(batch, 0.05)
        k = subgaussian_k(0.5)
        t = math.sqrt(2.0 * k * (math.log(16) - math.log(0.05)) / 100)
        assert lo == 0.0
        assert hi == pytest.approx(t, rel=1e-12)

    def test_dimension_one_formulas_coincide(self):
        batch = make_batch([0.3], [0.4], 60, 60, sigma=1.0)
        linf = linf_norm_bounds(batch, 0.02)
        l1 = l1_norm_bounds(batch, 0.02)
        assert linf == pytest.approx(l1, rel=1e-12)

    def test_l1_zero_data(self):
        batch = make_batch(np.zeros(4), np.zeros(4), 50, 50)
        lo, hi = l1_norm_bounds(batch, 0.05)
        k = subgaussian_k(1.0)
        t = math.sqrt(2.0 * k * 4 * (4 * math.log(2.0) - math.log(0.05)) / 100)
        assert lo == 0.0 and hi == pytest.approx(t, rel=1e-12)

    def test_l1_high_dim_gate(self):
        batch = make_batch(np.zeros(3072), np.zeros(3072), 100_000, 100_000,
                           sigma=0.25)
        with pytest.warns(RuntimeWarning):
            lo, hi = l1_norm_bounds(batch, 0.001)
        # documents the impracticality: vacuous lower bound at unit scale
        assert lo == 0.0 and hi > 1.0

    def test_alpha_monotonicity(self):
        batch = make_batch(np.full(8, 0.2), np.full(8, 0.2), 100, 100)
        _, hi_wide = linf_norm_bounds(batch, 0.001)
        _, hi_narrow = linf_norm_bounds(batch, 0.1)
        assert hi_wide > hi_narrow


class TestSubspaceBounds:
    def test_full_mask_identity(self):
        gen = np.random.Generator(np.random.Philox(key=[5, 3]))
        x, y = gen.standard_normal(200), gen.standard_normal(200)
        batch = make_batch(x, y, 500, 500)
        assert subspace_norm_bounds(batch, range(200), 2, 0.01) == \
            l2_norm_bounds(batch, 0.01)

    def test_zero_coordinate_mask_contains_zero(self):
        x = np.zeros(8)
        x[:2] = 5.0
        batch = make_batch(x, x, 100, 100)
        lo, hi = subspace_norm_bounds(batch, [4, 5, 6, 7], math.inf, 0.05)
        assert lo == 0.0 and hi > 0.0

    def test_dimension_one_l1_linf_coincide(self):
        batch = make_batch([0.1, 0.9], [0.2, 0.8], 50, 50)
        a = subspace_norm_bounds(batch, [1], 1, 0.05)
        b = subspace_norm_bounds(batch, [1], math.inf, 0.05)
        assert a == pytest.approx(b, rel=1e-12)
        # the l2 product estimator's hypothesis cannot hold at d = 1
        with pytest.raises(HypothesisError):
            subspace_norm_bounds(batch, [1], 2, 0.05)

    def test_empty_and_bad_mask(self):
        batch = make_batch([0.1, 0.2], [0.1, 0.2], 10, 10)
        with pytest.raises(DomainError):
            subspace_norm_bounds(batch, [], 2, 0.05)
        with pytest.raises(DomainError):
            subspace_norm_bounds(batch, [5], 2, 0.05)


class TestSplitAlpha:
    # two classes: q's share is halved and the gradient shares are not
    def test_three_way(self):
        q_alpha, alpha = split_alpha(0.001, 2)
        assert alpha == pytest.approx(0.001 / 3)
        assert q_alpha == pytest.approx(0.001 / 6)
        assert 2 * q_alpha + 2 * alpha <= 0.001 * (1 + 1e-12)

    def test_four_way_with_l1(self):
        q_alpha, alpha = split_alpha(0.001, 2, needs_l1=True)
        assert alpha == pytest.approx(0.001 / 4)
        assert q_alpha == pytest.approx(0.001 / 8)
        assert 2 * q_alpha + 3 * alpha <= 0.001 * (1 + 1e-12)

    def test_five_way(self):
        q_alpha, alpha = split_alpha(0.01, 2, needs_l1=True, needs_subspace=True)
        assert alpha == pytest.approx(0.01 / 5)
        assert q_alpha == pytest.approx(0.01 / 10)
        assert 2 * q_alpha + 4 * alpha <= 0.01 * (1 + 1e-12)

    def test_more_classes_divide_every_share(self):
        q_alpha, alpha = split_alpha(0.003, 3)
        assert q_alpha == alpha == pytest.approx(0.001 / 3)
        assert split_alpha(0.003, 1) == pytest.approx((0.001, 0.001))

    def test_two_classes_give_equal_gradient_bounds(self):
        # class 1's batch is class 0's negated, so every gradient bound of
        # the two classes agrees: one event, one share
        gen = np.random.default_rng(4)
        x_sum, y_sum = gen.standard_normal(200) * 30, gen.standard_normal(200) * 30
        zero = make_batch(x_sum, y_sum, 1000, 1000, 700, sigma=0.5)
        one = make_batch(-x_sum, -y_sum, 1000, 1000, 1300, sigma=0.5)
        for bound in (l2_norm_bounds, linf_norm_bounds, l1_norm_bounds):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # l1 above its dim limit
                assert bound(zero, 0.01) == bound(one, 0.01)
        assert (subspace_norm_bounds(zero, range(100), 2, 0.01)
                == subspace_norm_bounds(one, range(100), 2, 0.01))

    def test_domain(self):
        with pytest.raises(DomainError):
            split_alpha(0.0, 2)
        with pytest.raises(DomainError):
            split_alpha(0.7, 2)
        with pytest.raises(DomainError):
            split_alpha(0.1, 0)


class TestBatch:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_batch([1.0], [1.0, 2.0], 5, 5)
        with pytest.raises(DomainError):
            make_batch([1.0], [1.0], 0, 5)
        with pytest.raises(DomainError):
            make_batch([1.0], [1.0], 5, 5, successes=11)
