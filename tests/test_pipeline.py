import hashlib
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from smoothcert import certify, pipeline
from smoothcert.certify import (
    GradientNormBounds,
    LinfMode,
    SmoothingConfig,
    ThreatModel,
    radius_linf_first,
)
from smoothcert.classifiers import (
    LinearClassifier,
    LinearClassifierSpec,
    RngSpec,
    analytic_linear_radius,
    batch_for_class,
    make_synthetic,
    sample_class_sums,
    tail_mean_shift,
)
from smoothcert.estimate import (
    estimate_q_lower,
    l2_norm_bounds,
    linf_norm_bounds,
)
from smoothcert.numerics import DomainError
from smoothcert.pipeline import (
    ParseError,
    PointResult,
    PointTask,
    RunConfig,
    accuracy_curves,
    certify_point,
    load_run,
    persist_run,
    run_points,
)
from smoothcert.workloads import make_linear_workload

from helpers import bench_suite, cdf


THREATS = (ThreatModel.L1, ThreatModel.L2, ThreatModel.LINF)


def small_config(**overrides):
    base = dict(sigma=0.5, alpha_total=0.01, n_samples=4000, seed=3,
                radius_tol=1e-3)
    base.update(overrides)
    return RunConfig(**base)


class TestCertifyPoint:
    def test_constant_classifier_degenerates_to_zeroth(self):
        dim = 160  # large enough for the l2 hypothesis at alpha/6
        f = make_synthetic("sphere_interior", {"center": [0.0] * dim,
                                               "radius": 0.0})
        task = PointTask("p0", np.zeros(dim), 0, THREATS)
        res = certify_point(task, f, small_config())
        assert res.error == ""
        assert res.predicted == 0 and res.correct
        assert res.q_lb > 0.99
        # no usable gradient info: every first-order radius collapses to the
        # zeroth-order one under its threat scaling
        assert res.radius_first_l2 == pytest.approx(res.radius_zeroth_l2, rel=1e-6)
        assert res.radius_first_l1 == pytest.approx(res.radius_zeroth_l2, rel=1e-6)
        assert res.radius_first_linf == pytest.approx(
            res.radius_zeroth_l2 / math.sqrt(dim), rel=1e-6
        )

    def test_linear_l1_gain(self):
        # flat weights, margin sigma*||w|| (so the smoothed probability is
        # Phi(1) and the gradient sits well above the estimator noise): the
        # sampled l1 radius strictly beats the zeroth-order one
        dim = 4
        w = np.full(dim, 0.5)
        f = LinearClassifier(LinearClassifierSpec(w=w, b=0.0))
        x = 0.25 * w
        task = PointTask("p0", x, f.classify(x), THREATS)
        config = RunConfig(sigma=0.25, alpha_total=1e-3, n_samples=1_000_000,
                           seed=11, radius_tol=1e-3)
        res = certify_point(task, f, config)
        assert not res.abstained
        assert res.radius_first_l1 > res.radius_zeroth_l2 * 1.1

    def test_abstains_below_half(self):
        dim = 160
        gen = np.random.Generator(np.random.Philox(key=[1, 1]))
        w = gen.standard_normal(dim)
        f = LinearClassifier(LinearClassifierSpec(w=w, b=0.0))
        task = PointTask("p0", np.zeros(dim), 0, THREATS)  # boundary point
        res = certify_point(task, f, small_config())
        assert res.abstained
        assert res.radius_zeroth_l2 == 0.0
        assert res.radius_first_l2 == 0.0

    def test_small_dimension_surfaces_hypothesis_error(self):
        f = make_synthetic("linear", {"w": [1.0, 0.0], "b": 0.0})
        task = PointTask("p0", np.array([1.0, 0.0]), 0, THREATS)
        res = certify_point(task, f, small_config(sigma=1.0))
        assert "e^(-d/16)" in res.error or "alpha" in res.error
        # degradation, not abortion: certificates still emitted
        assert res.radius_zeroth_l2 > 0.0
        assert res.radius_first_l2 == pytest.approx(res.radius_zeroth_l2,
                                                    rel=1e-6)

    def test_subspace_threat(self):
        dim = 320
        mask = tuple(range(160))
        threats = THREATS + (ThreatModel.SUBSPACE_L2,)
        gen = np.random.Generator(np.random.Philox(key=[2, 2]))
        w = gen.standard_normal(dim)
        f = LinearClassifier(LinearClassifierSpec(w=w, b=0.0))
        x = 0.6 * w / np.linalg.norm(w)
        task = PointTask("p0", x, f.classify(x), threats, subspace_mask=mask)
        res = certify_point(task, f, small_config(sigma=0.5, n_samples=20_000))
        assert res.error == ""
        assert res.radius_first_subspace is not None
        assert res.radius_first_subspace >= res.radius_zeroth_l2 - 1e-9

    def test_linf_via_l1_consumes_the_l1_bound(self, monkeypatch):
        # one-hot weights at d = 4: the l2 bound's hypothesis fails, but the
        # l1 bound is tight, so linf via l1 beats l2 scaling; q, l2, linf
        # and l1 split alpha four ways, and q's share is halved for the two
        # classes
        seen = {}
        orig_q, orig_l1 = pipeline.estimate_q_lower, pipeline.l1_norm_bounds

        def q_lower(successes, n, alpha):
            seen["q_alpha"] = alpha
            return orig_q(successes, n, alpha)

        def l1_bounds(batch, alpha):
            seen["l1_alpha"] = alpha
            seen["l1"] = orig_l1(batch, alpha)
            return seen["l1"]

        monkeypatch.setattr(pipeline, "estimate_q_lower", q_lower)
        monkeypatch.setattr(pipeline, "l1_norm_bounds", l1_bounds)
        dim = 4
        spec = LinearClassifierSpec(w=np.eye(dim)[0], b=0.0)
        f = LinearClassifier(spec)
        x = 0.25 * spec.w
        task = PointTask("p0", x, f.classify(x), THREATS)
        config = RunConfig(sigma=0.25, alpha_total=1e-3, n_samples=1_000_000,
                           seed=11, radius_tol=1e-3,
                           linf_mode=LinfMode.VIA_L1_BOUND)
        res = certify_point(task, f, config)
        assert "l2 bound requires" in res.error
        assert seen["l1_alpha"] == config.alpha_total / 4
        assert seen["q_alpha"] == config.alpha_total / 8
        cfg = SmoothingConfig(config.sigma, dim)
        l1_upper = seen["l1"][1] + dim * cfg.sigma * tail_mean_shift(dim)
        bounds = GradientNormBounds(res.grad_l2_lb, res.grad_l2_ub, res.grad_linf_ub,
                                    l1_upper=l1_upper / (cfg.sigma * cfg.sigma))
        expected = radius_linf_first(res.q_lb, bounds, cfg, config.radius_tol,
                                     mode=LinfMode.VIA_L1_BOUND)
        assert res.radius_first_linf == expected.radius
        assert res.radius_first_linf > 1.1 * res.radius_zeroth_l2 / math.sqrt(dim)
        assert res.radius_first_linf <= analytic_linear_radius(spec, x, math.inf)

    def test_subspace_hypothesis_failure_degrades_to_zeroth(self, monkeypatch):
        # a 3-coordinate mask is too small for the l2 bound's hypothesis:
        # the subspace bound degrades to infinity, the note lands in the
        # row, and the subspace radius falls back to the zeroth-order one
        seen = []
        orig = certify.radius_subspace

        def recorded(q, bounds, *args, **kwargs):
            seen.append(bounds.subspace_dual_upper)
            return orig(q, bounds, *args, **kwargs)

        monkeypatch.setattr(certify, "radius_subspace", recorded)
        dim = 160
        gen = np.random.Generator(np.random.Philox(key=[2, 2]))
        w = gen.standard_normal(dim)
        f = LinearClassifier(LinearClassifierSpec(w=w, b=0.0))
        x = 0.6 * w / np.linalg.norm(w)
        task = PointTask("p0", x, f.classify(x),
                         (ThreatModel.L2, ThreatModel.SUBSPACE_L2), subspace_mask=(0, 1, 2))
        res = certify_point(task, f, small_config())
        assert res.error.startswith("l2 bound requires") and "at d = 3;" in res.error
        assert "; l2" not in res.error  # the full-space l2 bound held at d = 160
        assert seen == [math.inf]
        assert res.radius_zeroth_l2 > 0.0
        assert res.radius_first_subspace == pytest.approx(res.radius_zeroth_l2,
                                                          rel=1e-12)

    def test_estimates_pay_the_tail_charge(self):
        # q_lb is the Clopper-Pearson bound at q's alpha (alpha_total / 3,
        # halved for two classes) less (floor(d/2) + 1) 2^-32, and each
        # gradient bound widens by its norm of sigma s(d) per coordinate
        dim = 161
        f, tasks = make_linear_workload(dim=dim, count=1, seed=9, sigma=0.5,
                                        threats=THREATS)
        config = small_config()
        res = certify_point(tasks[0], f, config)
        cfg = SmoothingConfig(config.sigma, dim)
        sums = sample_class_sums(f, tasks[0].x, cfg, config.n_samples,
                                 RngSpec(config.seed, pipeline._stream_for(tasks[0])),
                                 dtype=np.float32)
        batch = batch_for_class(sums, res.predicted)
        q_bound = estimate_q_lower(batch.success_count, batch.n_total,
                                   config.alpha_total / 6)
        assert 0.5 < res.q_lb == q_bound - 81 * 2.0 ** -32
        cap = math.sqrt(64.0 * math.log(2.0))
        s = (cap * 2.0 ** -32 + math.sqrt(math.pi / 2.0) * cdf(-cap)
             + math.sqrt(2.0 / math.pi) * 80 * 2.0 ** -32)
        shift = cfg.sigma * s
        sig_sq = cfg.sigma ** 2
        l2_lb, l2_ub = l2_norm_bounds(batch, config.alpha_total / 6)
        linf_ub = linf_norm_bounds(batch, config.alpha_total / 3)[1]
        got = (res.grad_l2_lb, res.grad_l2_ub, res.grad_linf_ub)
        want = ((l2_lb - math.sqrt(dim) * shift) / sig_sq,
                (l2_ub + math.sqrt(dim) * shift) / sig_sq, (linf_ub + shift) / sig_sq)
        assert l2_lb > 0.0
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)
        assert shift / sig_sq > 1e-8

    def test_mask_required_for_subspace(self):
        with pytest.raises(DomainError):
            PointTask("p0", np.zeros(4), 0, (ThreatModel.SUBSPACE_L2,))

    def test_mask_needs_a_subspace_threat(self):
        # a mask that no threat reads is an error, not a silently dropped input
        with pytest.raises(DomainError, match="mask needs a subspace threat"):
            PointTask("p0", np.zeros(4), 0, (ThreatModel.L2,), subspace_mask=(0,))

    def test_one_subspace_threat_per_point(self):
        # a row has one subspace column, estimated for one dual norm
        with pytest.raises(DomainError, match="at most one subspace threat"):
            PointTask("p0", np.zeros(4), 0,
                      (ThreatModel.SUBSPACE_L2, ThreatModel.SUBSPACE_LINF),
                      subspace_mask=(0, 1))

    def test_repeated_threat_rejected(self):
        # a repeated threat would be solved once per copy for one column
        with pytest.raises(DomainError, match="threat l2 is repeated"):
            PointTask("p0", np.zeros(4), 0, ("l2", ThreatModel.L1, ThreatModel.L2))


class TestRunPoints:
    def test_duplicate_ids_rejected(self):
        f = make_synthetic("linear", {"w": [1.0] * 160, "b": 0.0})
        tasks = [PointTask("same", np.zeros(160), 0, THREATS)] * 2
        with pytest.raises(DomainError):
            run_points(tasks, f, small_config())

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_1_rejected(self, jobs):
        classifier, tasks = make_linear_workload(
            dim=160, count=2, seed=9, sigma=0.5, threats=THREATS,
        )
        with pytest.raises(DomainError, match=f"jobs must be at least 1, got {jobs}"):
            run_points(tasks, classifier, small_config(), jobs=jobs)

    def test_row_depends_only_on_its_point(self):
        # a point's noise stream comes from its id alone, so its row is the
        # same certified alone, in a run without another point, or on more
        # threads
        classifier, tasks = make_linear_workload(
            dim=160, count=4, seed=9, sigma=0.5, threats=THREATS,
        )
        config = small_config(n_samples=2000)
        rows = run_points(tasks, classifier, config)
        assert [r.point_id for r in rows] == [t.point_id for t in tasks]
        assert rows == [certify_point(t, classifier, config) for t in tasks]
        assert rows[1:] == run_points(tasks[1:], classifier, config)
        assert rows == run_points(tasks, classifier, config, jobs=2)

    def test_parallel_matches_serial(self):
        classifier, tasks = make_linear_workload(
            dim=160, count=6, seed=9, sigma=0.5, threats=THREATS,
        )
        config = small_config(n_samples=2000)
        serial = run_points(tasks, classifier, config, jobs=1)
        parallel = run_points(tasks, classifier, config, jobs=3)
        assert serial == parallel

    def test_sampling_concurrency_is_bounded(self):
        # every run_points thread hands its two halves to the one sampler
        # pool, so no more than cpu_count classify_batch calls overlap
        class CountingLinear(LinearClassifier):
            def __init__(self, spec):
                super().__init__(spec)
                self.lock = threading.Lock()
                self.active = 0
                self.peak = 0

            def classify_batch(self, points):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                try:
                    time.sleep(0.002)  # holds the call open so overlaps show
                    return super().classify_batch(points)
                finally:
                    with self.lock:
                        self.active -= 1

        classifier, tasks = make_linear_workload(
            dim=160, count=6, seed=9, sigma=0.5, threats=THREATS,
        )
        counting = CountingLinear(classifier.spec)
        config = small_config(n_samples=4000)
        # frequent thread switches, so a lost update in the merge would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = run_points(tasks, counting, config, jobs=3)
        finally:
            sys.setswitchinterval(interval)
        cpus = os.cpu_count() or 1
        assert min(2, cpus) <= counting.peak <= cpus
        assert results == run_points(tasks, classifier, config, jobs=1)

    def test_failure_in_one_substream_stays_in_its_row(self):
        # raise on the first chunk of sub-stream 1 of the second point only;
        # float64 draws make that chunk's first row exact: x + sigma * z
        classifier, tasks = make_linear_workload(
            dim=160, count=3, seed=9, sigma=0.5, threats=THREATS,
        )
        config = small_config(sample_dtype="float64")
        target = tasks[1].x + config.sigma * RngSpec(
            config.seed, pipeline._stream_for(tasks[1]),
            substream=1).generator().standard_normal(160)

        class FailingLinear(LinearClassifier):
            def classify_batch(self, points):
                if np.array_equal(points[0], target):
                    raise RuntimeError("classifier down")
                return super().classify_batch(points)

        failing = FailingLinear(classifier.spec)
        clean = run_points(tasks, classifier, config, jobs=1)
        for jobs in (1, 2):
            results = run_points(tasks, failing, config, jobs=jobs)
            assert results[1].error == "RuntimeError: classifier down"
            assert results[1].abstained and results[1].predicted == -1
            assert [results[0], results[2]] == [clean[0], clean[2]]

    def test_infeasible_stats_fail_their_row_only(self, monkeypatch):
        # an l2 lower bound whose perpendicular part exceeds the feasible
        # magnitude M <= phi(0) means the confidence event failed for that
        # point: its row records the error, and the other rows still certify
        classifier, tasks = make_linear_workload(
            dim=160, count=3, seed=9, sigma=0.5, threats=THREATS,
        )
        config = small_config()
        clean = run_points(tasks, classifier, config)
        assert clean[1].q_lb > 0.5
        calls = []
        orig = pipeline.l2_norm_bounds

        def inflated(batch, alpha):
            calls.append(alpha)
            # sigma^2-scaled: l2_lower = 10 / sigma^2 = 40, so m2 is about 20
            return (10.0, 10.0) if len(calls) == 2 else orig(batch, alpha)

        monkeypatch.setattr(pipeline, "l2_norm_bounds", inflated)
        results = run_points(tasks, classifier, config)
        assert len(calls) == 3
        assert results[1].predicted == -1
        assert results[1].error.startswith("InfeasibleStatsError: ")
        assert [results[0], results[2]] == [clean[0], clean[2]]


def curve_row(radius, correct=True, abstained=False, **radii):
    """A result row whose zeroth-order and l2 radii are both ``radius``."""
    columns = dict(radius_zeroth_l2=radius, radius_first_l1=None,
                   radius_first_l2=radius, radius_first_linf=None,
                   radius_first_subspace=None)
    columns.update(radii)
    return PointResult(
        point_id="p", predicted=0, correct=correct, q_lb=0.9, grad_l2_lb=0.0,
        grad_l2_ub=0.5, grad_linf_ub=0.25, **columns, abstained=abstained,
        capped=False, fallback_used=False,
    )


class TestCurve:
    def test_empty(self):
        assert accuracy_curves([], [0.0, 0.5, 1.0], dim=4) == {}

    def test_step_function(self):
        rows = [curve_row(1.0) for _ in range(4)]
        curves = accuracy_curves(rows, [0.0, 0.5, 1.0, 1.5], dim=4)
        assert curves == {ThreatModel.L2: ([1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0])}

    def test_incorrect_and_abstained_excluded(self):
        rows = [
            curve_row(1.0),
            curve_row(2.0, correct=False),
            curve_row(0.5, abstained=True),
            curve_row(0.0),
            # a point whose certification raised counts as uncertified
            curve_row(0.0, correct=False, abstained=True, radius_first_l2=None),
        ]
        zeroth, first = accuracy_curves(rows, [0.0, 0.9], dim=4)[ThreatModel.L2]
        assert zeroth == first == [0.2, 0.2]

    def test_monotone_nonincreasing(self):
        gen = np.random.Generator(np.random.Philox(key=[6, 6]))
        rows = [curve_row(float(r), correct=bool(gen.random() < 0.8))
                for r in gen.uniform(0.0, 2.0, size=50)]
        grid = np.linspace(0.0, 2.5, 40)
        for accs in accuracy_curves(rows, grid, dim=4)[ThreatModel.L2]:
            assert all(b <= a for a, b in zip(accs, accs[1:]))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError):
            accuracy_curves([], [1.0, 0.5], dim=4)

    def test_certificates_for_expansion(self):
        # one row gives a zeroth- and a first-order curve for each of l1, l2
        # and linf; at d = 4 the zeroth-order linf radius is 0.64 / 2
        row = curve_row(0.64, radius_first_l1=1.0, radius_first_l2=0.7,
                        radius_first_linf=0.32)
        curves = accuracy_curves([row], [0.32, 0.64, 0.7, 1.0, 1.01], dim=4)
        assert curves == {
            ThreatModel.L1: ([1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0]),
            ThreatModel.L2: ([1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0]),
            ThreatModel.LINF: ([1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]),
        }

    def test_zeroth_radii_scale_by_threat(self):
        # the zeroth-order region is an l2 ball of radius 0.64: the l1 radius
        # is the same, the linf one 0.64 / sqrt(16) and the subspace-linf
        # one 0.64 / sqrt(4)
        row = curve_row(0.64, radius_first_l1=1.0, radius_first_l2=0.7,
                        radius_first_linf=0.32, radius_first_subspace=0.5)
        grid = [0.16, 0.32, 0.64, 0.65]
        curves = accuracy_curves([row], grid, dim=16)
        assert curves == {
            ThreatModel.L1: ([1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
            ThreatModel.L2: ([1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
            ThreatModel.LINF: ([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]),
        }
        curves = accuracy_curves([row], grid, dim=16,
                                 subspace_threat=ThreatModel.SUBSPACE_LINF,
                                 subspace_dim=4)
        assert curves[ThreatModel.SUBSPACE_LINF] == ([1.0, 1.0, 0.0, 0.0],
                                                     [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="subspace_dim"):
            accuracy_curves([row], grid, dim=16,
                            subspace_threat=ThreatModel.SUBSPACE_LINF)


class TestPersistence:
    def r(self, pid, **overrides):
        base = dict(
            point_id=pid, predicted=0, correct=True, q_lb=0.9,
            grad_l2_lb=0.0, grad_l2_ub=0.5, grad_linf_ub=0.25,
            radius_zeroth_l2=0.6408, radius_first_l1=1.0,
            radius_first_l2=0.65, radius_first_linf=0.32,
            radius_first_subspace=None, abstained=False, capped=False,
            fallback_used=False, error="",
        )
        base.update(overrides)
        return PointResult(**base)

    def test_roundtrip_identity(self, tmp_path):
        results = [
            self.r("p0"),
            self.r("p1", abstained=True, radius_zeroth_l2=0.0,
                   radius_first_l1=0.0, radius_first_l2=0.0,
                   radius_first_linf=0.0, q_lb=0.41, correct=False),
            self.r("p2", radius_first_subspace=0.123456789012345,
                   error="HypothesisError: too small"),
        ]
        path = tmp_path / "run.csv"
        persist_run(results, path, meta={"sigma": "0.5", "dim": "4"})
        loaded, meta = load_run(path)
        assert loaded == sorted(results, key=lambda r: r.point_id)
        assert meta["sigma"] == "0.5"

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        persist_run([], path)
        loaded, _ = load_run(path)
        assert loaded == []

    def test_byte_identical_rewrite(self, tmp_path):
        results = [self.r("p0"), self.r("p1", q_lb=0.77)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        persist_run(results, a, meta={"seed": "1"})
        persist_run(list(reversed(results)), b, meta={"seed": "1"})
        assert a.read_bytes() == b.read_bytes()

    def test_float_precision_roundtrip(self, tmp_path):
        value = 0.1234567890123456789
        results = [self.r("p0", radius_first_l2=value)]
        path = tmp_path / "p.csv"
        persist_run(results, path)
        loaded, _ = load_run(path)
        assert loaded[0].radius_first_l2 == results[0].radius_first_l2

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        persist_run([self.r("p0")], path)
        text = path.read_text().splitlines()
        text[2] = text[2].replace("0.9", "not-a-number", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError) as err:
            load_run(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("meta", [
        {"note": "two\nlines"}, {"note": "a\rb"}, {"note": "b "}, {"a=b": "c"},
        {"a\nb": "c"}, {" a": "c"},
    ], ids=["value-newline", "value-return", "value-space", "key-equals",
            "key-newline", "key-space"])
    def test_meta_that_would_not_read_back_is_refused(self, tmp_path, meta):
        # load_run reads a line break as the end of a line, strips the line,
        # splits it at its first '=' and strips the key
        path = tmp_path / "meta.csv"
        with pytest.raises(DomainError, match="would not read back"):
            persist_run([], path, meta=meta)
        assert not path.exists()

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad2.csv"
        persist_run([self.r("p0")], path)
        with open(path, "a") as fh:
            fh.write("p9,0,true\n")
        with pytest.raises(ParseError):
            load_run(path)


class TestRunConfig:
    def test_defaults_follow_protocol(self):
        config = RunConfig(sigma=0.25)
        assert config.alpha_total == 1e-3
        assert config.n_samples == 200_000

    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(sigma=0.25, alpha_total=0.7)
        with pytest.raises(DomainError):
            RunConfig(sigma=0.25, n_samples=1)
        with pytest.raises(DomainError, match="float16"):
            RunConfig(sigma=0.25, sample_dtype="float16")
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="sigma"):
                RunConfig(sigma=bad)
            with pytest.raises(DomainError, match="radius_tol"):
                RunConfig(sigma=0.25, radius_tol=bad)


# sha256 of the benchmark's full-shape CSVs: c9 at seeds 101 and 202, and
# wide_jobs2 (two pool threads) at seed 101, re-pinned when the normals moved
# to Box-Muller on Philox words, q_lb and the gradient bounds began to pay
# for its tail cut, and q's alpha was divided by the class count.  A change
# that moves one byte of a row, from its noise draws to its radii, must
# re-pin these on purpose
PIPELINE_SHA256 = {
    ("c9", 101): "9b73ea169f81aaaa1e8de3182fa300a72fb87b975a0cf14c75524c65fd9d2e9d",
    ("c9", 202): "2010ac43ed4bfe3a2fcbc2f534a7117e92c858b2023a87dce431415fe7118c6e",
    ("wide_jobs2", 101): "af24bcfb5a7cbd74d1c34cba4efe0e653da7cb7df2c8baa998916904fa125505",
}


def test_pipeline_outputs_are_pinned(tmp_path):
    suite = bench_suite()
    got = {}
    for name, seed in PIPELINE_SHA256:
        work = suite.build(name, "full", seed, str(tmp_path))
        work.run_pass()
        got[name, seed] = hashlib.sha256(work.output()).hexdigest()
    assert got == PIPELINE_SHA256
