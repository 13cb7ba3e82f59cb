"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A run repeats identical passes over one seeded input set, so every pass
does the same work and its CSV (or radius list) must come out byte-identical.
A pass is timed in units (a radius, a point of a serial run, the batch of a
parallel run, the CSV write) and records their seconds in ``unit_seconds``.

- ``c9``: the criterion-9 point shape (d = 152, 200k float32 draws, threats
  l1/l2/linf with linf via l2), run serially and persisted.  Sampling does
  most of the work; the l1 dual solve the rest.
- ``solve_grid``: ``directional_radius`` over a stratified grid of threat-path
  stats (m1 <= 0 < m2 < phi(Phi^-1(q))).  Only ``certify`` and ``numerics``
  work; the sampler is idle.
- ``wide_jobs2``: the c9 pipeline at d = 3072 with 10k draws and two pool
  threads; one sampling chunk holds a whole point.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from smoothcert import certify, classifiers, pipeline, workloads
from smoothcert.certify import FirstOrderStats, SmoothingConfig, ThreatModel

__all__ = ["SHAPES", "build"]

SIGMA = 0.25
ALPHA = 1e-3
RADIUS_TOL = 1e-3
THREATS = (ThreatModel.L1, ThreatModel.L2, ThreatModel.LINF)
Q_RANGE = (0.55, 0.995)

# seed stream of the solve_grid jitter, apart from the program's own streams
_GRID_STREAM = 0x5EED_0001


@dataclass(frozen=True)
class PipelineShape:
    dim: int
    count: int
    n_samples: int
    jobs: int


@dataclass(frozen=True)
class GridShape:
    q_strata: int
    angle_strata: int
    magnitude_strata: int
    dim: int = 152


SHAPES = {
    "full": {
        "c9": PipelineShape(dim=152, count=8, n_samples=200_000, jobs=1),
        # a radius at low q costs anywhere from 0.1 to 0.7 s, and the cost
        # jumps between neighbouring stats, so only many radii per pass keep
        # the seed's share of the spread small (20% between seeds at 40 radii,
        # 5% at 96); 72 radii leave time for three passes in 35 s
        "solve_grid": GridShape(q_strata=8, angle_strata=3, magnitude_strata=3),
        "wide_jobs2": PipelineShape(dim=3072, count=12, n_samples=10_000, jobs=2),
    },
    "smoke": {
        "c9": PipelineShape(dim=152, count=2, n_samples=20_000, jobs=1),
        "solve_grid": GridShape(q_strata=2, angle_strata=2, magnitude_strata=1),
        "wide_jobs2": PipelineShape(dim=3072, count=4, n_samples=10_000, jobs=2),
    },
}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class PipelineWorkload:
    """make_linear_workload points through run_points, then persist_run."""

    # spans and counters a traced pass must record; a zero means a traced
    # name is no longer on the path this workload takes
    traced = (
        "classifiers.standard_normal", "classifiers.normals",
        "classifiers.classify_batch", "classifiers.sample_class_sums",
        "estimate.estimate_q_lower", "certify.radius_l1_first",
        "certify.radius_l2_first", "certify.radius_linf_first",
        "certify.directional_radius", "certify.solve_dual", "numerics.solve_system",
        "certify.dual_residual", "numerics.bisect_root", "pipeline.certify_point",
        "pipeline.run_points", "pipeline.persist_run",
    )

    def __init__(self, name: str, shape: PipelineShape, seed: int, out_dir: str):
        self.name = name
        self.shape = shape
        self.jobs = shape.jobs
        self.config = pipeline.RunConfig(
            sigma=SIGMA, alpha_total=ALPHA, n_samples=shape.n_samples, seed=seed,
            radius_tol=RADIUS_TOL, sample_dtype="float32",
            linf_mode=certify.LinfMode.VIA_L2_SCALING,
        )
        self.classifier, self.tasks = workloads.make_linear_workload(
            dim=shape.dim, count=shape.count, seed=seed, sigma=SIGMA,
            threats=THREATS, q_low=Q_RANGE[0], q_high=Q_RANGE[1],
        )
        # stream ids by sorted rank, as run_points assigns them, so that a
        # serial pass can certify one point per call and write the same CSV
        ordered = sorted(self.tasks, key=lambda t: t.point_id)
        ordered = [t if t.stream_id is not None else replace(t, stream_id=i)
                   for i, t in enumerate(ordered)]
        self.units = [[t] for t in ordered] if shape.jobs <= 1 else [ordered]
        self.unit_seconds: list[float] = []
        self.path = os.path.join(out_dir, f"{name}-{seed}.csv")
        self.meta = {"workload": name, "seed": str(seed), "dim": str(shape.dim),
                     "n_samples": str(shape.n_samples)}

    def input_digest(self) -> str:
        return _digest(self.classifier.spec.w.tobytes(), *(
            t.point_id.encode() + t.x.tobytes() + bytes([t.true_label])
            for t in self.tasks))

    def run_pass(self) -> int:
        """The timed work; returns the number of points attempted."""
        results, seconds = [], []
        for unit in self.units:
            start = time.perf_counter()
            results += pipeline.run_points(unit, self.classifier, self.config,
                                           jobs=self.jobs)
            seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        pipeline.persist_run(results, self.path, meta=self.meta)
        seconds.append(time.perf_counter() - start)
        self.unit_seconds = seconds
        return len(results)

    def output(self) -> bytes:
        with open(self.path, "rb") as handle:
            return handle.read()

    def check(self) -> dict:
        """Parse the last pass's CSV and score it against the exact radii."""
        results, _ = pipeline.load_run(self.path)
        problems = []
        if sorted(r.point_id for r in results) != sorted(t.point_id for t in self.tasks):
            problems.append("CSV rows do not match the workload's points")
        tasks = {t.point_id: t for t in self.tasks}
        spec = self.classifier.spec
        root_d = math.sqrt(self.shape.dim)
        failed = reported = unsafe = 0
        gains = []
        for res in results:
            if res.predicted < 0:
                failed += 1
                continue
            radii = {1: res.radius_first_l1, 2: res.radius_first_l2,
                     math.inf: res.radius_first_linf}
            floors = {1: res.radius_zeroth_l2, 2: res.radius_zeroth_l2,
                      math.inf: res.radius_zeroth_l2 / root_d}
            for p, radius in radii.items():
                if radius is None or not math.isfinite(radius) or radius < 0.0:
                    problems.append(f"{res.point_id}: bad l{p} radius {radius!r}")
                    continue
                if radius < floors[p] * (1.0 - 1e-12):
                    problems.append(f"{res.point_id}: l{p} radius below zeroth order")
                if res.abstained:
                    continue
                reported += 1
                if radius > classifiers.analytic_linear_radius(spec, tasks[res.point_id].x, p):
                    unsafe += 1
            if not res.abstained and res.radius_zeroth_l2 > 0.0:
                gains.append(res.radius_first_l1 / res.radius_zeroth_l2)
        return {
            "points": len(results),
            "failed": failed,
            "unsafe_frac": unsafe / reported if reported else 0.0,
            "gain_over_zeroth": float(np.mean(gains)) if gains else 0.0,
            "problems": problems,
        }


def threat_path_grid(shape: GridShape, seed: int) -> list[FirstOrderStats]:
    """One jittered point per cell of (q, angle, magnitude) strata.

    The angle runs over (pi/2, pi), the threat-path half of the feasibility
    disk (m1 <= 0 < m2); the magnitude runs up to phi(Phi^-1(q)), so the top
    stratum holds near-boundary and, at angles near pi/2, near-perpendicular
    stats.
    """
    gen = classifiers.RngSpec(seed, _GRID_STREAM).generator()
    grid = []
    for i in range(shape.q_strata):
        for j in range(shape.angle_strata):
            for k in range(shape.magnitude_strata):
                u_q, u_a, u_m = gen.random(3).tolist()
                q = Q_RANGE[0] + (Q_RANGE[1] - Q_RANGE[0]) * (i + u_q) / shape.q_strata
                angle = 0.5 * math.pi * (1.0 + (j + u_a) / shape.angle_strata)
                big_m = certify.max_gradient_magnitude(q)
                magnitude = big_m * max((k + u_m) / shape.magnitude_strata, 1e-6)
                m1 = min(magnitude * math.cos(angle), 0.0)
                m2 = max(magnitude * math.sin(angle), 1e-9 * big_m)
                grid.append(FirstOrderStats(q, m1, m2))
    return grid


class GridWorkload:
    """directional_radius over a seeded threat-path grid."""

    jobs = 1
    traced = ("certify.directional_radius", "certify.solve_dual",
              "numerics.solve_system", "certify.dual_residual", "numerics.bisect_root")

    def __init__(self, name: str, shape: GridShape, seed: int, out_dir: str):
        self.name = name
        self.shape = shape
        self.cfg = SmoothingConfig(SIGMA, shape.dim)
        self.grid = threat_path_grid(shape, seed)
        self.path = os.path.join(out_dir, f"{name}-{seed}.csv")
        self.results: list = []
        self.unit_seconds: list[float] = []

    def input_digest(self) -> str:
        return _digest(repr([(s.q, s.m1, s.m2) for s in self.grid]).encode())

    def run_pass(self) -> int:
        results, seconds = [], []
        for stats in self.grid:
            start = time.perf_counter()
            try:
                results.append(certify.directional_radius(stats, self.cfg, tol=RADIUS_TOL))
            except Exception as err:  # a radius call that raises counts as failed
                results.append(err)
            seconds.append(time.perf_counter() - start)
        self.results = results
        self.unit_seconds = seconds
        return len(results)

    def output(self) -> bytes:
        lines = ["q,m1,m2,radius,capped,fallback_used,error"]
        for stats, res in zip(self.grid, self.results):
            if isinstance(res, Exception):
                lines.append(f"{stats.q!r},{stats.m1!r},{stats.m2!r},,,,"
                             f"{type(res).__name__}")
            else:
                lines.append(f"{stats.q!r},{stats.m1!r},{stats.m2!r},{res.radius!r},"
                             f"{res.capped},{res.fallback_used},")
        text = ("\n".join(lines) + "\n").encode()
        with open(self.path, "wb") as handle:
            handle.write(text)
        return text

    def check(self) -> dict:
        """Re-solve the dual at each reported radius: p(R) must be >= 1/2."""
        problems = []
        failed = unsafe = 0
        gains = []
        for stats, res in zip(self.grid, self.results):
            if isinstance(res, Exception):
                failed += 1
                continue
            zeroth = certify.zeroth_radius_l2(stats.q, self.cfg)
            if not math.isfinite(res.radius) or res.radius < zeroth * (1.0 - 1e-12):
                problems.append(f"radius {res.radius!r} below zeroth order {zeroth!r}")
                continue
            gains.append(res.radius / zeroth)
            if not res.capped:
                p = certify.lower_bound_probability(stats, res.radius / self.cfg.sigma)
                unsafe += p < 0.5
        reported = len(self.results) - failed
        return {
            "points": len(self.results),
            "failed": failed,
            "unsafe_frac": unsafe / reported if reported else 0.0,
            "gain_over_zeroth": float(np.mean(gains)) if gains else 0.0,
            "problems": problems,
        }


def build(name: str, size: str, seed: int, out_dir: str, jobs: int | None = None):
    """Workload ``name`` at ``size`` ("full" or "smoke") for ``seed``.

    ``jobs`` overrides a pipeline workload's worker count, which must not
    change its CSV.
    """
    shape = SHAPES[size][name]
    if isinstance(shape, GridShape):
        return GridWorkload(name, shape, seed, out_dir)
    if jobs is not None:
        shape = replace(shape, jobs=jobs)
    return PipelineWorkload(name, shape, seed, out_dir)
