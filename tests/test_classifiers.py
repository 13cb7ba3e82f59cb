import math
import multiprocessing
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from smoothcert import classifiers
from smoothcert.certify import (
    DualVariant,
    FirstOrderStats,
    SmoothingConfig,
    probability_from_dual,
    solve_dual,
)
from smoothcert.classifiers import (
    BlackBoxClassifier,
    LinearClassifier,
    LinearClassifierSpec,
    RngSpec,
    analytic_linear_radius,
    analytic_linear_stats,
    batch_for_class,
    make_synthetic,
    mc_worst_case_probability,
    sample_class_sums,
)
from smoothcert.estimate import gradient_mean
from smoothcert.numerics import DomainError

from helpers import CDF_1, PHI_0, PHI_1, SUBGAUSSIAN_K_1, cdf, dual_norm_lp_oracle


class TestSyntheticClassifiers:
    def test_linear_sign_convention(self):
        # f(x) = 1 iff w.x + b <= 0, so (2, 0) lands in class 0
        f = make_synthetic("linear", {"w": [1.0, 0.0], "b": 0.0})
        assert f.classify([2.0, 0.0]) == 0
        assert f.classify([-2.0, 0.0]) == 1
        assert f.classify([0.0, 5.0]) == 1  # boundary is inclusive

    def test_sphere_radius_zero_constant(self):
        f = make_synthetic("sphere_interior", {"center": [0.0, 0.0], "radius": 0.0})
        for point in ([0.0, 0.0], [1.0, 1.0], [-3.0, 0.2]):
            assert f.classify(point) == 0

    def test_slab_boundaries(self):
        f = make_synthetic("slab_interval", {"axis": 1, "lo": -1.0, "hi": 1.0})
        assert f.classify([9.0, -1.0]) == 1
        assert f.classify([9.0, 1.0]) == 1
        assert f.classify([9.0, 1.0 + 1e-9]) == 0
        assert f.classify([9.0, -1.0 - 1e-9]) == 0

    def test_union_of_halfspaces(self):
        f = make_synthetic("union_of_halfspaces",
                           {"ws": [[1.0, 0.0], [0.0, 1.0]], "bs": [0.0, -2.0]})
        assert f.classify([-1.0, 5.0]) == 1
        assert f.classify([1.0, 5.0]) == 0
        assert f.classify([1.0, 1.0]) == 1

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_synthetic("mystery", {})
        with pytest.raises(DomainError):
            make_synthetic("linear", {})


class TestSampling:
    def test_deterministic_batches(self):
        f = make_synthetic("linear", {"w": [1.0, 1.0], "b": 0.2})
        cfg = SmoothingConfig(0.7, 2)
        a = batch_for_class(sample_class_sums(f, [0.1, 0.0], cfg, 999, RngSpec(3, 14)), 0)
        b = batch_for_class(sample_class_sums(f, [0.1, 0.0], cfg, 999, RngSpec(3, 14)), 0)
        assert np.array_equal(a.x_sum, b.x_sum)
        assert np.array_equal(a.y_sum, b.y_sum)
        assert a.success_count == b.success_count
        c = batch_for_class(sample_class_sums(f, [0.1, 0.0], cfg, 999, RngSpec(3, 15)), 0)
        assert not np.array_equal(a.x_sum, c.x_sum)

    def test_chunking_invariance(self, monkeypatch):
        # the draw sequence is chunk-independent; sums agree to rounding
        # (bitwise reproducibility is guaranteed for a fixed chunk size)
        f = make_synthetic("linear", {"w": [1.0, -1.0], "b": 0.0})
        cfg = SmoothingConfig(1.0, 2)
        batches = []
        for rows in (64, 4096):
            monkeypatch.setattr(classifiers, "_CHUNK_ELEMENTS", rows * cfg.dim)
            batches.append(batch_for_class(
                sample_class_sums(f, [0.3, 0.0], cfg, 5000, RngSpec(8, 0)), 0))
        a, b = batches
        assert a.success_count == b.success_count
        assert np.allclose(a.x_sum, b.x_sum, rtol=1e-10)
        assert np.allclose(a.y_sum, b.y_sum, rtol=1e-10)

    def test_constant_classifier_identities(self):
        cfg = SmoothingConfig(1.0, 3)
        f = make_synthetic("sphere_interior", {"center": [0.0] * 3, "radius": 0.0})
        n = 40_000
        sums = sample_class_sums(f, [0.0] * 3, cfg, n, RngSpec(1, 0))
        batch0 = batch_for_class(sums, 0)
        assert batch0.success_count == n
        # z = w / 2 has zero mean: pooled mean shrinks like 1/sqrt(n)
        assert np.linalg.norm(gradient_mean(batch0)) < 4.0 * 0.5 / math.sqrt(n) * 2
        batch1 = batch_for_class(sums, 1)
        assert batch1.success_count == 0
        assert gradient_mean(batch1) == pytest.approx(-gradient_mean(batch0))

    def test_linear_matches_analytic_gradient(self):
        spec = LinearClassifierSpec(w=np.array([2.0, -1.0, 0.5]), b=-0.3)
        f = LinearClassifier(spec)
        cfg = SmoothingConfig(0.6, 3)
        x = np.array([0.2, -0.1, 0.4])
        label = f.classify(x)
        n = 1_000_000
        batch = batch_for_class(
            sample_class_sums(f, x, cfg, n, RngSpec(77, 0), dtype=np.float32), label)
        y0, y1 = analytic_linear_stats(spec, x, cfg)
        mean = gradient_mean(batch)
        # per-coordinate standard error of z is at most sigma/(2 sqrt(n)) plus
        # the indicator part; sigma/sqrt(n) is a safe envelope
        se = cfg.sigma / math.sqrt(n)
        assert np.all(np.abs(mean - cfg.sigma ** 2 * y1) < 4.0 * se)
        assert abs(batch.success_count / n - y0) < 4.0 * math.sqrt(0.25 / n)

    def test_prediction_agreement(self):
        # smoothed majority equals the base prediction for linear classifiers
        for seed in range(5):
            gen = RngSpec(seed, 0).generator()
            w = gen.standard_normal(3)
            spec = LinearClassifierSpec(w=w, b=float(gen.uniform(-0.5, 0.5)))
            f = LinearClassifier(spec)
            x = gen.standard_normal(3)
            cfg = SmoothingConfig(0.5, 3)
            sums = sample_class_sums(f, x, cfg, 20_000, RngSpec(seed, 1))
            assert sums.majority_class() == f.classify(x)

    def test_dimension_mismatch(self):
        f = make_synthetic("linear", {"w": [1.0, 0.0], "b": 0.0})
        cfg = SmoothingConfig(1.0, 2)
        with pytest.raises(DomainError):
            sample_class_sums(f, [1.0, 2.0, 3.0], cfg, 100, RngSpec(0, 0))
        with pytest.raises(DomainError):
            sample_class_sums(f, [1.0, 2.0], cfg, 1, RngSpec(0, 0))


class ThreeClassLinear(BlackBoxClassifier):
    """Label = argmax of three linear scores."""

    num_classes = 3

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)  # (d, 3)

    def classify_batch(self, points):
        return np.argmax(points @ self.scores, axis=1).astype(np.int64)


def naive_class_sums(f, x, sigma, n, rng, dtype):
    """Row-by-row reference: the same draws, labelled and summed one at a time.

    Half h of the n1 = ceil(n / 2), n2 = n - n1 rows is drawn in one call
    from the start of sub-stream h.  Each coordinate sum is exactly rounded
    (math.fsum), and the sums of absolute values bound the rounding of any
    summation order.
    """
    n1 = (n + 1) // 2
    counts = np.zeros((2, f.num_classes), dtype=np.int64)
    rows = [[[] for _ in range(f.num_classes)] for _ in range(2)]
    for split, size in enumerate((n1, n - n1)):
        gen = replace(rng, substream=split).generator()
        for draw in gen.standard_normal((size, x.size), dtype=dtype):
            w = (draw * dtype(sigma)).astype(np.float64)
            label = f.classify(x + w)
            counts[split, label] += 1
            rows[split][label].append(w)
    sums = np.zeros((2, f.num_classes, x.size))
    scale = np.zeros_like(sums)
    for split in range(2):
        for c in range(f.num_classes):
            if rows[split][c]:
                block = np.array(rows[split][c])
                sums[split, c] = [math.fsum(col) for col in block.T]
                scale[split, c] = np.abs(block).sum(axis=0)
    return counts, sums, scale


class TestChunkedSampler:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    def test_matches_row_by_row_reference(self, monkeypatch, chunk, dtype):
        # three classes exercise the one-hot sums beyond C = 2; n is odd so
        # the halves differ (501, 500); chunks of 7 and 64 rows leave a short
        # last chunk in both sub-streams; None keeps the default chunk
        gen = np.random.default_rng(5)
        f = ThreeClassLinear(gen.standard_normal((4, 3)))
        x = 0.3 * gen.standard_normal(4)
        n, sigma = 1001, 0.7
        if chunk is not None:
            monkeypatch.setattr(classifiers, "_CHUNK_ELEMENTS", chunk * x.size)
        sums = sample_class_sums(f, x, SmoothingConfig(sigma, 4), n, RngSpec(12, 3),
                                 dtype=dtype)
        counts, ref, scale = naive_class_sums(f, x, sigma, n, RngSpec(12, 3), dtype)
        assert (sums.n1, sums.n2) == (501, 500)
        assert np.array_equal(sums.counts, counts)
        assert np.all(counts > 0)
        # rtol 1e-12 of the sum of magnitudes: any summation order of k <= n
        # terms is within k * eps of that scale of the exact sum
        assert np.all(np.abs(sums.class_w_sum - ref) <= 1e-12 * scale)

    def test_substream_zero_is_the_plain_stream(self):
        for seed, stream in ((12, 3), (0, 0), (20_24, 0xFFFF_FFFF)):
            plain = np.random.Generator(np.random.Philox(key=[seed, stream]))
            got = RngSpec(seed, stream).generator().standard_normal(1000)
            assert np.array_equal(got, plain.standard_normal(1000))
            # sub-stream k starts at counter [0, 0, 0, k]
            offset = np.random.Generator(np.random.Philox(key=[seed, stream],
                                                          counter=[0, 0, 0, 1]))
            got = RngSpec(seed, stream, substream=1).generator().standard_normal(1000)
            assert np.array_equal(got, offset.standard_normal(1000))

    def test_large_key_words_stay_distinct(self):
        # seed -1 is the key word 2^64 - 1, which a float64 round trip maps to 0
        def draws(seed):
            return RngSpec(seed, 5).generator().standard_normal(8)

        assert not np.array_equal(draws(-1), draws(0))
        assert not np.array_equal(draws(2 ** 63), draws(2 ** 63 + 1))
        assert np.array_equal(draws(-1), draws(2 ** 64 - 1))

    def test_forked_child_samples(self):
        # the child inherits the sampler pool object but not its threads
        f = make_synthetic("linear", {"w": [1.0, 0.0], "b": 0.0})
        cfg = SmoothingConfig(1.0, 2)

        def counts():
            return sample_class_sums(f, [0.3, 0.0], cfg, 1000, RngSpec(1, 0)).counts

        want = counts()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=lambda: queue.put(counts()))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert np.array_equal(got, want)
        assert child.exitcode == 0

    def test_label_out_of_range_raises(self):
        class TwoClassReturningThree(ThreeClassLinear):
            num_classes = 2

        gen = np.random.default_rng(5)
        f = TwoClassReturningThree(gen.standard_normal((4, 3)))
        with pytest.raises(DomainError, match="labels outside"):
            sample_class_sums(f, np.zeros(4), SmoothingConfig(0.7, 4), 1001,
                              RngSpec(12, 3))

    def test_peak_memory_is_bounded(self):
        # d = 3072, n = 10k: the whole pass is 30.7M draws (123 MB as float32,
        # 246 MB as float64); chunked buffers keep one call far below that
        d = 3072
        gen = np.random.default_rng(8)
        f = LinearClassifier(LinearClassifierSpec(w=gen.standard_normal(d), b=0.0))
        x = gen.standard_normal(d)
        tracemalloc.start()
        try:
            sample_class_sums(f, x, SmoothingConfig(0.25, d), 10_000, RngSpec(4, 0),
                              dtype=np.float32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestAnalyticOracle:
    def test_boundary_point(self):
        spec = LinearClassifierSpec(w=np.array([3.0, 4.0]), b=0.0)
        cfg = SmoothingConfig(0.5, 2)
        y0, y1 = analytic_linear_stats(spec, [0.0, 0.0], cfg)
        assert y0 == 0.5
        assert np.linalg.norm(y1) == pytest.approx(PHI_0 / cfg.sigma, rel=1e-12)

    def test_reference_case(self):
        spec = LinearClassifierSpec(w=np.array([1.0, 0.0]), b=0.0)
        cfg = SmoothingConfig(1.0, 2)
        y0, y1 = analytic_linear_stats(spec, [1.0, 0.0], cfg)
        assert y0 == pytest.approx(CDF_1, abs=1e-12)
        assert np.linalg.norm(y1) == pytest.approx(PHI_1, abs=1e-12)

    def test_scale_invariance(self):
        cfg = SmoothingConfig(0.7, 2)
        a = analytic_linear_stats(
            LinearClassifierSpec(w=np.array([1.0, 2.0]), b=0.5), [0.3, 0.1], cfg)
        b = analytic_linear_stats(
            LinearClassifierSpec(w=np.array([10.0, 20.0]), b=5.0), [0.3, 0.1], cfg)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert np.linalg.norm(a[1]) == pytest.approx(np.linalg.norm(b[1]),
                                                     rel=1e-12)

    def test_gradient_orientation(self):
        # gradient points toward the predicted class's side
        spec = LinearClassifierSpec(w=np.array([1.0, 0.0]), b=0.0)
        cfg = SmoothingConfig(1.0, 2)
        _, y1_pos = analytic_linear_stats(spec, [1.0, 0.0], cfg)   # class 0
        _, y1_neg = analytic_linear_stats(spec, [-1.0, 0.0], cfg)  # class 1
        assert y1_pos[0] > 0.0 and y1_neg[0] < 0.0


class TestAnalyticRadius:
    def test_dual_norms_flat_weights(self):
        spec = LinearClassifierSpec(w=np.full(4, 0.5), b=0.0)
        x = np.full(4, 0.5)  # margin 1
        assert analytic_linear_radius(spec, x, 1) == pytest.approx(2.0)
        assert analytic_linear_radius(spec, x, 2) == pytest.approx(1.0)
        assert analytic_linear_radius(spec, x, math.inf) == pytest.approx(0.5)

    def test_against_lp_oracle(self):
        # ||w||_{p'} = max_{||v||_p <= 1} w.v, so the radius margin/||w||_{p'}
        # is checkable by a small linear program over the unit p-ball
        gen = RngSpec(42, 0).generator()
        for _ in range(6):
            w = gen.standard_normal(4)
            spec = LinearClassifierSpec(w=w, b=0.0)
            x = w / float(w @ w)  # margin 1
            for p in (1, 2, math.inf):
                want = 1.0 / dual_norm_lp_oracle(w, p)
                got = analytic_linear_radius(spec, x, p)
                assert got == pytest.approx(want, rel=1e-7)

    def test_subspace_masking(self):
        spec = LinearClassifierSpec(w=np.array([1.0, 0.0, 1.0, 0.0]), b=0.0)
        x = spec.w / 2.0  # margin 1
        assert analytic_linear_radius(spec, x, 2, mask=(0, 1)) == pytest.approx(1.0)
        assert analytic_linear_radius(spec, x, 2) == pytest.approx(1 / math.sqrt(2))
        # projection zero: unbounded, reported as the cap sentinel
        assert analytic_linear_radius(spec, x, 2, mask=(1, 3)) == math.inf
        assert analytic_linear_radius(spec, x, 2, mask=(1, 3), cap=5.0) == 5.0

    def test_boundary_point_rejected(self):
        spec = LinearClassifierSpec(w=np.array([1.0, 0.0]), b=0.0)
        with pytest.raises(DomainError):
            analytic_linear_radius(spec, [0.0, 1.0], 2)


class TestMcOracle:
    def test_halfspace_reference(self):
        # in the c2 -> 0 limit the set {z2 >= -c(z1)} is the halfspace
        # z2 >= -c0, whose mass Phi(c0) no shift along z1 changes
        from smoothcert.certify import DualSolution

        dual = DualSolution(1.0, 0.0, -1e-300, DualVariant.REDUCED_NO_SLOPE, 0.5)
        est, se = mc_worst_case_probability(dual, 0.5, 1_000_000, RngSpec(1, 2))
        assert abs(est - float(cdf(1.0))) <= 3.0 * se

    def test_centering(self):
        stats = FirstOrderStats(0.9, 0.0, 0.08)
        dual = solve_dual(stats, 0.3)
        est, se = mc_worst_case_probability(dual, 0.0, 1_000_000, RngSpec(2, 7))
        assert abs(est - 0.9) <= 3.0 * se

    def test_zero_measure_set(self):
        from smoothcert.certify import DualSolution

        # c(x) = -30 - e^{r x} stays far below zero: empty acceptance region
        dual = DualSolution(-30.0, 0.0, -1.0, DualVariant.REDUCED_NO_SLOPE, 1.0)
        est, _ = mc_worst_case_probability(dual, 0.0, 100_000, RngSpec(3, 3))
        assert est == 0.0

    def test_matches_explicit_coefficient_mapping(self):
        # the z2 >= -c(z1) membership equals the e^{rz} <= a1 z1 + a2 z2 + b
        # form under a2 = -1/c2, a1 = c1 a2, b = c0 a2
        stats = FirstOrderStats(0.8, 0.05, 0.1)
        dual = solve_dual(stats, 0.4)
        a2 = -1.0 / dual.c2
        a1 = dual.c1 * a2
        b = dual.c0 * a2
        gen = RngSpec(11, 0).generator()
        z = gen.standard_normal((200_000, 2))
        z1 = z[:, 0] + 0.4
        lhs = np.exp(np.minimum(dual.travel_scale * z1, 700.0))
        explicit = np.mean(lhs <= a1 * z1 + a2 * z[:, 1] + b)
        est, se = mc_worst_case_probability(dual, 0.4, 200_000, RngSpec(11, 0))
        assert est == pytest.approx(float(explicit), abs=1e-12)


class TestConsistencySweep:
    def test_pooled_mean_consistency(self):
        # the pooled mean converges to sigma^2 y1 as n grows
        spec = LinearClassifierSpec(w=np.array([1.0, -0.7, 0.4]), b=0.1)
        f = LinearClassifier(spec)
        cfg = SmoothingConfig(0.5, 3)
        x = np.array([0.1, 0.2, -0.1])
        _, y1 = analytic_linear_stats(spec, x, cfg)
        target = cfg.sigma ** 2 * y1
        # Each coordinate of z - sigma^2 y1 is sub-Gaussian with parameter
        # k = sigma^2 (1/4 + 3/sqrt(8 pi e)), so the union bound over the 2d
        # signed coordinates that linf_norm_bounds uses gives
        #   max_i |mean_i - target_i| <= t(n) = sqrt(2 (k/n) log(2d/delta))
        # with probability >= 1 - delta at each n; delta = 1e-6. k comes from
        # the frozen reference, not from the code under test. The three n draw
        # nested prefixes of each of the sampler's Philox sub-streams, so the
        # checks are not independent; a union bound still covers all three
        # with probability >= 1 - 3 delta.
        k = SUBGAUSSIAN_K_1 * cfg.sigma ** 2
        delta = 1e-6
        for n in (1_000, 10_000, 100_000):
            batch = batch_for_class(sample_class_sums(
                f, x, cfg, n, RngSpec(31, 0), dtype=np.float32), f.classify(x))
            error = float(np.max(np.abs(gradient_mean(batch) - target)))
            bound = math.sqrt(2.0 * (k / n) * math.log(2.0 * cfg.dim / delta))
            assert error <= bound, f"n = {n}: error {error:.3e} > t(n) = {bound:.3e}"

    def test_class_sums_vs_analytic(self):
        # randomized linear classifiers reproduce the closed-form statistics
        n = 200_000
        for seed in range(6):
            gen = RngSpec(1000 + seed, 0).generator()
            dim = int(gen.integers(2, 6))
            w = gen.standard_normal(dim)
            spec = LinearClassifierSpec(w=w, b=float(gen.uniform(-0.3, 0.3)))
            f = LinearClassifier(spec)
            x = gen.standard_normal(dim) * 0.5
            sigma = float(gen.uniform(0.3, 1.2))
            cfg = SmoothingConfig(sigma, dim)
            label = f.classify(x)
            batch = batch_for_class(sample_class_sums(
                f, x, cfg, n, RngSpec(2000 + seed, 0), dtype=np.float32), label)
            y0, y1 = analytic_linear_stats(spec, x, cfg)
            se = sigma / math.sqrt(n)
            assert np.all(np.abs(gradient_mean(batch) - sigma ** 2 * y1)
                          <= 4.5 * se)
            assert abs(batch.success_count / n - y0) <= 4.5 * 0.5 / math.sqrt(n)
