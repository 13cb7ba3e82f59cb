"""Per-point certification orchestration, accuracy curves, and persistence.

A point is certified in one sampling pass: the same N draws produce the
top-class success count and the gradient-statistic sums, and the total
failure probability is Bonferroni-split across every estimate consumed, so
the joint confidence statement holds regardless of dependence between them.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import certify as cz
from .certify import (
    GradientNormBounds,
    LinfMode,
    RadiusResult,
    SmoothingConfig,
    ThreatModel,
)
from .classifiers import (
    BlackBoxClassifier,
    RngSpec,
    batch_for_class,
    sample_class_sums,
)
from .estimate import (
    HypothesisError,
    estimate_q_lower,
    l1_norm_bounds,
    l2_norm_bounds,
    linf_norm_bounds,
    split_alpha,
    subspace_norm_bounds,
)
from .numerics import DomainError

__all__ = [
    "PointTask",
    "RunConfig",
    "PointResult",
    "ParseError",
    "certify_point",
    "run_points",
    "accuracy_curves",
    "persist_run",
    "load_run",
    "CSV_SCHEMA",
]

_SUBSPACE_P = {
    ThreatModel.SUBSPACE_L1: 1,
    ThreatModel.SUBSPACE_L2: 2,
    ThreatModel.SUBSPACE_LINF: math.inf,
}

# threat -> the PointResult column (CSV column) holding its first-order radius
_RADIUS_COLUMN = {
    ThreatModel.L1: "radius_first_l1",
    ThreatModel.L2: "radius_first_l2",
    ThreatModel.LINF: "radius_first_linf",
    **{t: "radius_first_subspace" for t in _SUBSPACE_P},
}


def _threat_scale(threat: ThreatModel, dim: int,
                  subspace_dim: Optional[int]) -> float:
    """Zeroth-order radius under ``threat`` per unit of the l2 radius.

    The zeroth-order certified region is an l2 ball: the inscribed l1 ball
    has the same radius and the inscribed linf ball is smaller by sqrt(d).
    """
    if threat is ThreatModel.LINF:
        return 1.0 / math.sqrt(dim)
    if threat is ThreatModel.SUBSPACE_LINF:
        if subspace_dim is None:
            raise DomainError("subspace threat requires subspace_dim")
        return 1.0 / math.sqrt(subspace_dim)
    return 1.0


@dataclass(frozen=True)
class PointTask:
    """One input point to certify.

    Its noise stream is a 64-bit blake2b hash of ``point_id`` alone.
    ``stream_id`` overrides it; only the benchmark suite sets it, until the
    suite drops its copy of the old rank-in-run rule.
    """

    point_id: str
    x: np.ndarray
    true_label: int
    requested_threats: tuple[ThreatModel, ...]
    subspace_mask: Optional[tuple[int, ...]] = None
    stream_id: Optional[int] = None

    def __post_init__(self) -> None:
        # the id is a CSV cell that load_run must read back as this row's id
        if (not self.point_id or self.point_id.startswith("#")
                or any(ch in self.point_id for ch in ",\n\r")):
            raise DomainError(f"point id must be non-empty, must not start with "
                              f"'#' and must not hold ',' or a line break, "
                              f"got {self.point_id!r}")
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
            raise DomainError(f"point {self.point_id}: x must be a non-empty 1-D "
                              f"vector of finite numbers, got shape {x.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(
            self, "requested_threats",
            tuple(ThreatModel(t) for t in self.requested_threats),
        )
        if self.subspace_mask is not None:
            mask = tuple(sorted(set(int(i) for i in self.subspace_mask)))
            if not mask or mask[0] < 0 or mask[-1] >= self.x.size:
                raise DomainError(f"point {self.point_id}: subspace mask must be a "
                                  f"non-empty set of indices in [0, {self.x.size}), "
                                  f"got {list(mask)}")
            object.__setattr__(self, "subspace_mask", mask)
        subspace = sum(t.is_subspace for t in self.requested_threats)
        if subspace and self.subspace_mask is None:
            raise DomainError(f"point {self.point_id}: subspace threat needs a mask")
        if subspace > 1:
            raise DomainError(f"point {self.point_id}: at most one subspace threat")


@dataclass(frozen=True)
class RunConfig:
    """Run-wide certification settings (paper-scale defaults)."""

    sigma: float
    alpha_total: float = 1e-3
    n_samples: int = 200_000
    seed: int = 0
    linf_mode: LinfMode = LinfMode.VIA_L2_SCALING
    radius_tol: float = 1e-4
    sample_dtype: str = "float32"

    def __post_init__(self) -> None:
        for name in ("sigma", "radius_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not (0.0 < self.alpha_total < 0.5):
            raise DomainError(f"alpha_total must lie in (0, 0.5), got {self.alpha_total}")
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.sample_dtype not in ("float32", "float64"):
            raise DomainError("sample_dtype must be float32 or float64, "
                              f"got {self.sample_dtype!r}")
        object.__setattr__(self, "linf_mode", LinfMode(self.linf_mode))


@dataclass(frozen=True)
class PointResult:
    """Flattened certification record for one point (one CSV row)."""

    point_id: str
    predicted: int
    correct: bool
    q_lb: float
    grad_l2_lb: Optional[float]
    grad_l2_ub: Optional[float]
    grad_linf_ub: Optional[float]
    radius_zeroth_l2: float
    radius_first_l1: Optional[float]
    radius_first_l2: Optional[float]
    radius_first_linf: Optional[float]
    radius_first_subspace: Optional[float]
    abstained: bool
    capped: bool
    fallback_used: bool
    error: str = ""

    def first_radius(self, threat: ThreatModel) -> Optional[float]:
        """The first-order radius recorded for ``threat``, None if not run."""
        return getattr(self, _RADIUS_COLUMN[threat])


class ParseError(ValueError):
    """Malformed persisted run file."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _stream_for(task: PointTask) -> int:
    if task.stream_id is not None:
        return task.stream_id
    # not hash(): Python salts it per process
    digest = hashlib.blake2b(task.point_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _first_radius_for_threat(threat: ThreatModel, q: float,
                             bounds: GradientNormBounds, cfg: SmoothingConfig,
                             config: RunConfig,
                             subspace_dim: Optional[int]) -> RadiusResult:
    tol = config.radius_tol
    if threat is ThreatModel.L2:
        return cz.radius_l2_first(q, bounds.l2_upper, cfg, tol)
    if threat is ThreatModel.L1:
        return cz.radius_l1_first(q, bounds, cfg, tol)
    if threat is ThreatModel.LINF:
        return cz.radius_linf_first(q, bounds, cfg, tol, mode=config.linf_mode)
    return cz.radius_subspace(q, bounds, _SUBSPACE_P[threat], subspace_dim,
                              cfg, tol)


def certify_point(task: PointTask, f: BlackBoxClassifier,
                  config: RunConfig) -> PointResult:
    """Sample once, estimate under the split alpha, certify every threat.

    Per-point estimator failures are recorded in the result's error field
    instead of aborting the run; an l2-bound hypothesis failure (dimension
    too small for the requested confidence) degrades that estimate to a
    vacuous interval so the remaining certificates are still emitted.
    """
    cfg = SmoothingConfig(config.sigma, int(task.x.size))
    threats = task.requested_threats
    rng = RngSpec(config.seed, _stream_for(task))
    dtype = np.float32 if config.sample_dtype == "float32" else np.float64

    needs_l1 = (ThreatModel.LINF in threats
                and config.linf_mode is LinfMode.VIA_L1_BOUND)
    subspace_threats = [t for t in threats if t.is_subspace]
    error_notes: list[str] = []
    try:
        sums = sample_class_sums(f, task.x, cfg, config.n_samples, rng, dtype=dtype)
        predicted = sums.majority_class()
        batch = batch_for_class(sums, predicted)
        alpha = split_alpha(config.alpha_total, needs_l1=needs_l1,
                            needs_subspace=bool(subspace_threats))
        q_lb = estimate_q_lower(batch.success_count, batch.n_total, alpha)

        # estimators bound norms of sigma^2 * y1; the division below is the
        # single conversion into gradient units
        sig_sq = cfg.sigma * cfg.sigma
        try:
            # both interval sides are consumed, so each gets half the alpha
            l2_lb, l2_ub = l2_norm_bounds(batch, alpha / 2.0)
        except HypothesisError as err:
            error_notes.append(str(err))
            l2_lb, l2_ub = 0.0, math.inf
        linf_ub = linf_norm_bounds(batch, alpha)[1]
        l1_ub = None
        if needs_l1:
            l1_ub = l1_norm_bounds(batch, alpha)[1]
        subspace_ub = None
        subspace_dim = None
        if subspace_threats:
            subspace_dim = len(task.subspace_mask)
            order = cz.DUAL_EXPONENT[_SUBSPACE_P[subspace_threats[0]]]
            try:
                subspace_ub = subspace_norm_bounds(batch, task.subspace_mask,
                                                   order, alpha)[1]
            except HypothesisError as err:
                error_notes.append(str(err))
                subspace_ub = math.inf
        bounds = GradientNormBounds(
            l2_lower=l2_lb / sig_sq,
            l2_upper=l2_ub / sig_sq,
            linf_upper=linf_ub / sig_sq,
            l1_upper=None if l1_ub is None else l1_ub / sig_sq,
            subspace_dual_upper=None if subspace_ub is None else subspace_ub / sig_sq,
        )

        zeroth_l2 = cz.zeroth_radius_l2(q_lb, cfg)
        abstained = q_lb <= 0.5
        radii = {
            threat: _first_radius_for_threat(threat, q_lb, bounds, cfg, config,
                                             subspace_dim)
            for threat in threats
        }
        columns = dict.fromkeys(_RADIUS_COLUMN.values())
        columns.update((_RADIUS_COLUMN[t], r.radius) for t, r in radii.items())
        return PointResult(
            point_id=task.point_id,
            predicted=predicted,
            correct=predicted == task.true_label,
            q_lb=q_lb,
            grad_l2_lb=bounds.l2_lower,
            grad_l2_ub=bounds.l2_upper,
            grad_linf_ub=bounds.linf_upper,
            radius_zeroth_l2=zeroth_l2,
            **columns,
            abstained=abstained,
            capped=any(r.capped for r in radii.values()),
            fallback_used=any(r.fallback_used for r in radii.values()),
            error="; ".join(error_notes),
        )
    except Exception as err:  # per-point isolation: record and continue
        return PointResult(
            point_id=task.point_id,
            predicted=-1,
            correct=False,
            q_lb=0.0,
            grad_l2_lb=None,
            grad_l2_ub=None,
            grad_linf_ub=None,
            radius_zeroth_l2=0.0,
            **dict.fromkeys(_RADIUS_COLUMN.values()),
            abstained=True,
            capped=False,
            fallback_used=False,
            error=f"{type(err).__name__}: {err}",
        )


def run_points(tasks: Sequence[PointTask], f: BlackBoxClassifier,
               config: RunConfig, jobs: int = 1) -> list[PointResult]:
    """Certify points independently; results canonically ordered by point_id.

    Each row equals ``certify_point`` on its task alone, whatever the other
    points or ``jobs``: a point's noise stream comes from its id.  The ``jobs``
    threads hand their sampling to the classifiers' shared pool of
    ``os.cpu_count()`` threads, so sampling never runs on more threads than that.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    ordered = sorted(tasks, key=lambda t: t.point_id)
    if len({t.point_id for t in ordered}) != len(ordered):
        raise DomainError("point ids must be unique: an id keys its noise and its row")
    if jobs == 1:
        return [certify_point(t, f, config) for t in ordered]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda t: certify_point(t, f, config), ordered))


def accuracy_curves(results: Sequence[PointResult], grid: Sequence[float],
                    dim: int, subspace_threat: Optional[ThreatModel] = None,
                    subspace_dim: Optional[int] = None
                    ) -> dict[ThreatModel, tuple[list[float], list[float]]]:
    """Zeroth- and first-order certified accuracy at each grid radius.

    One entry per threat among l1, l2, linf and ``subspace_threat`` that
    some row holds a first-order radius for.  A row counts at radius R when
    it is correct, not abstained, and its radius is > 0 and >= R; every row
    is in the denominator, so failed rows count as uncertified.
    Zeroth-order radii are ``radius_zeroth_l2`` times the threat scale.
    """
    grid = list(grid)
    if any(b > a for a, b in zip(grid[1:], grid[:-1])):
        raise DomainError("radius grid must be sorted ascending")
    counted = [r for r in results if r.correct and not r.abstained]

    def accuracy(radii: list[Optional[float]]) -> list[float]:
        radii = [r for r in radii if r is not None and r > 0.0]
        return [sum(1 for r in radii if r >= at) / len(results) for at in grid]

    curves = {}
    for threat in (ThreatModel.L1, ThreatModel.L2, ThreatModel.LINF, subspace_threat):
        if threat is None or all(r.first_radius(threat) is None for r in results):
            continue
        scale = _threat_scale(threat, dim, subspace_dim)
        curves[threat] = (accuracy([r.radius_zeroth_l2 * scale for r in counted]),
                          accuracy([r.first_radius(threat) for r in counted]))
    return curves


# ---------------------------------------------------------------------------
# persistence (schema shared with the CLI)
# ---------------------------------------------------------------------------

CSV_SCHEMA = "smoothcert-certificates v1"

_COLUMNS = [f.name for f in fields(PointResult)]
_FLOAT_COLUMNS = {
    "q_lb", "grad_l2_lb", "grad_l2_ub", "grad_linf_ub", "radius_zeroth_l2",
    "radius_first_l1", "radius_first_l2", "radius_first_linf",
    "radius_first_subspace",
}
_BOOL_COLUMNS = {"correct", "abstained", "capped", "fallback_used"}
_OPTIONAL_COLUMNS = {
    "grad_l2_lb", "grad_l2_ub", "grad_linf_ub", "radius_first_l1",
    "radius_first_l2", "radius_first_linf", "radius_first_subspace",
}


def _format_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name in _BOOL_COLUMNS:
        return "true" if value else "false"
    if name in _FLOAT_COLUMNS:
        return repr(float(value))
    text = str(value)
    if name == "error":
        # free-form text: keep the CSV single-line and comma-free
        return text.replace(",", ";").replace("\n", " ").replace("\r", " ")
    if any(ch in text for ch in ",\n\r"):
        raise DomainError(f"cell value may not contain separators: {text!r}")
    return text


def _parse_cell(name: str, text: str, line: int, column: int):
    if text == "":
        if name in _OPTIONAL_COLUMNS or name == "error":
            return None if name != "error" else ""
        raise ParseError(f"missing required field {name}", line, column)
    try:
        if name in _BOOL_COLUMNS:
            if text not in ("true", "false"):
                raise ValueError(f"bad boolean {text!r}")
            return text == "true"
        if name in _FLOAT_COLUMNS:
            return float(text)
        if name == "predicted":
            return int(text)
        return text
    except ValueError as err:
        raise ParseError(str(err), line, column)


def persist_run(results: Sequence[PointResult], path,
                meta: Optional[dict] = None) -> None:
    """Write results as the versioned certificates CSV (deterministic bytes)."""
    lines = [f"# {CSV_SCHEMA}"]
    for key in sorted(meta or {}):
        lines.append(f"# meta {key}={meta[key]}")
    lines.append(",".join(_COLUMNS))
    for res in sorted(results, key=lambda r: r.point_id):
        row = [_format_cell(name, getattr(res, name)) for name in _COLUMNS]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def load_run(path) -> tuple[list[PointResult], dict]:
    """Read a persisted run; inverse of persist_run field for field."""
    results: list[PointResult] = []
    meta: dict = {}
    header: Optional[list[str]] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("meta "):
                    key, _, value = body[5:].partition("=")
                    meta[key.strip()] = value
                elif lineno == 1 and body != CSV_SCHEMA:
                    raise ParseError(f"unknown schema {body!r}", lineno)
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                if header != _COLUMNS:
                    raise ParseError(
                        f"unexpected header {header!r}", lineno,
                    )
                continue
            if len(cells) != len(_COLUMNS):
                raise ParseError(
                    f"expected {len(_COLUMNS)} fields, got {len(cells)}",
                    lineno, len(cells),
                )
            values = {
                name: _parse_cell(name, cell, lineno, i + 1)
                for i, (name, cell) in enumerate(zip(_COLUMNS, cells))
            }
            results.append(PointResult(**values))
    if header is None:
        raise ParseError("no header row found", 0)
    return results, meta
