"""Command-line surface: certify, curve, selftest.

Runs are driven by a single declarative YAML config (sigma, alpha, samples,
seed, threat list, classifier spec, points); command-line flags override
file values.  All outputs are byte-deterministic for a fixed seed: CSV
floats use repr round-tripping and plots are fixed-layout SVG.

Exit codes: 0 success, 1 usage/config error, 2 partial per-point failures
(recorded in-row in the certificates CSV).
"""

from __future__ import annotations

import argparse
import enum
import math
import os
import sys
from dataclasses import fields
from typing import Optional

import numpy as np
import yaml

from .certify import LinfMode, ThreatModel
from .classifiers import BlackBoxClassifier, make_synthetic
from .numerics import DomainError
from .pipeline import (
    ParseError,
    PointTask,
    RunConfig,
    accuracy_curves,
    load_run,
    persist_run,
    run_points,
)
from .svgplot import curve_svg
from .workloads import make_linear_workload

__all__ = ["main"]


class ConfigError(ValueError):
    """Unusable configuration or arguments (exit code 1)."""


def _parse_threats(text) -> tuple[ThreatModel, ...]:
    if isinstance(text, str):
        items = [s.strip() for s in text.split(",") if s.strip()]
    elif isinstance(text, (list, tuple)):
        items = list(text)
    else:
        raise ConfigError(f"threats must be a list or a comma-separated string, "
                          f"got {text!r}")
    threats = []
    for item in items:
        try:
            threats.append(ThreatModel(str(item).strip().lower()))
        except ValueError:
            raise ConfigError(f"unknown threat {item!r}; choose from "
                              f"{sorted(t.value for t in ThreatModel)}") from None
    if not threats:
        raise ConfigError("threat list is empty")
    return tuple(threats)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.safe_load(handle)
        except (yaml.YAMLError, UnicodeDecodeError) as err:
            raise ConfigError(f"config parse error: {err}")
    return _section(data, "root", ("run", "points", "classifier", "subspace"))


def _section(section, name: str, keys) -> dict:
    """Config section ``name`` as a mapping whose keys are among ``keys``.

    None (a key with no value) reads as empty; a key that nothing reads is
    a config error, not a silently dropped setting.
    """
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = sorted(str(key) for key in section if key not in keys)
    if unknown:
        raise ConfigError(f"unknown {name} setting(s) {', '.join(unknown)}; "
                          f"choose from {', '.join(keys)}")
    return section


# run key -> (RunConfig field, conversion); threats are read by _threats_from,
# and a key left out takes RunConfig's default
_RUN_FIELDS = {
    "sigma": ("sigma", float),
    "alpha": ("alpha_total", float),
    "samples": ("n_samples", int),
    "seed": ("seed", int),
    "linf_mode": ("linf_mode", LinfMode),
    "radius_tol": ("radius_tol", float),
    "sample_dtype": ("sample_dtype", str),
}
_RUN_KEYS = (*_RUN_FIELDS, "threats")


def _run_config(cfg: dict, args) -> RunConfig:
    run = dict(_section(cfg.get("run"), "run", _RUN_KEYS))
    for key in ("sigma", "alpha", "samples", "seed", "linf_mode"):  # flag overrides
        if getattr(args, key) is not None:
            run[key] = getattr(args, key)
    if "sigma" not in run:
        raise ConfigError("sigma must be given (config run.sigma or --sigma)")
    try:
        return RunConfig(**{field: convert(run[key])
                            for key, (field, convert) in _RUN_FIELDS.items()
                            if key in run})
    except (ValueError, DomainError) as err:
        raise ConfigError(f"invalid run settings: {err}")


def _threats_from(cfg: dict, args) -> tuple[ThreatModel, ...]:
    if getattr(args, "threats", None):
        return _parse_threats(args.threats)
    run = _section(cfg.get("run"), "run", _RUN_KEYS)
    if "threats" in run:
        return _parse_threats(run["threats"])
    return (ThreatModel.L1, ThreatModel.L2, ThreatModel.LINF)


def _subspace_mask(cfg: dict, args) -> Optional[tuple[int, ...]]:
    raw = getattr(args, "subspace_mask", None)
    if raw:
        try:
            return tuple(int(s) for s in raw.split(","))
        except ValueError as err:
            raise ConfigError(f"bad --subspace-mask: {err}")
    sub = _section(cfg.get("subspace"), "subspace", ("mask",))
    if "mask" in sub:
        try:
            return tuple(int(i) for i in sub["mask"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad subspace.mask: {err}")
    return None


# points.generate key -> conversion; a key left out takes
# make_linear_workload's default
_GENERATE_KEYS = {"dim": int, "count": int, "q_low": float, "q_high": float,
                  "abstain_fraction": float, "mislabel_fraction": float}


def _build_workload(cfg: dict, args, run: RunConfig
                    ) -> tuple[BlackBoxClassifier, list[PointTask]]:
    threats = _threats_from(cfg, args)
    mask = _subspace_mask(cfg, args)
    points = _section(cfg.get("points"), "points", ("generate", "explicit"))
    if not points:
        raise ConfigError("config must define a points section")
    if "generate" in points:
        if "explicit" in points:
            raise ConfigError("points section takes 'generate' or 'explicit', not both")
        if "classifier" in cfg:
            raise ConfigError("generated points come with their own classifier; "
                              "drop the classifier section")
        gen = _section(points["generate"], "points.generate", _GENERATE_KEYS)
        try:
            classifier, tasks = make_linear_workload(
                **{key: convert(gen[key]) for key, convert in _GENERATE_KEYS.items()
                   if key in gen},
                seed=run.seed,
                sigma=run.sigma,
                threats=threats,
                subspace_mask=mask,
            )
        except (TypeError, DomainError, ValueError) as err:
            raise ConfigError(f"bad points.generate section: {err}")
        return classifier, tasks
    if "explicit" not in points:
        raise ConfigError("points section needs either 'generate' or 'explicit'")
    spec = _section(cfg.get("classifier"), "classifier", ("kind", "params"))
    if "kind" not in spec:
        raise ConfigError("explicit points require a classifier spec (kind, params)")
    try:
        classifier = make_synthetic(str(spec["kind"]), dict(spec.get("params", {})))
    except (TypeError, ValueError, DomainError) as err:
        raise ConfigError(f"bad classifier spec: {err}")
    tasks = []
    try:
        for entry in points["explicit"]:
            entry = _section(entry, "entry", ("id", "x", "label"))
            label = int(entry["label"])
            if not 0 <= label < classifier.num_classes:
                raise DomainError(f"label must lie in [0, {classifier.num_classes}), "
                                  f"got {label}")
            tasks.append(PointTask(
                point_id=str(entry["id"]),
                x=np.asarray(entry["x"], dtype=float),
                true_label=label,
                requested_threats=threats,
                subspace_mask=mask,
            ))
    except (KeyError, TypeError, ValueError, DomainError) as err:
        raise ConfigError(f"bad points.explicit entry: {err}")
    if not tasks:
        raise ConfigError("points.explicit is empty")
    return classifier, tasks


def _meta_for(run: RunConfig, tasks: list[PointTask]) -> dict:
    """Every ``RunConfig`` field, the points' dim and threats, and the
    subspace threat and its dim when there is one."""
    meta = {}
    for f in fields(run):
        value = getattr(run, f.name)
        meta[f.name] = (repr(value) if isinstance(value, float) else
                        value.value if isinstance(value, enum.Enum) else str(value))
    threats = tasks[0].requested_threats
    meta["dim"] = str(tasks[0].x.size)
    meta["threats"] = ",".join(t.value for t in threats)
    sub = [t for t in threats if t.is_subspace]
    if sub:
        meta["subspace_threat"] = sub[0].value
        meta["subspace_dim"] = str(len(tasks[0].subspace_mask))
    return meta


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    run = _run_config(cfg, args)
    classifier, tasks = _build_workload(cfg, args, run)
    out = args.out or "certificates.csv"
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    try:
        results = run_points(tasks, classifier, run, jobs=args.jobs)
    except DomainError as err:  # jobs or ids, checked before any sampling
        raise ConfigError(str(err))
    persist_run(results, out, meta=_meta_for(run, tasks))
    # degraded estimates are surfaced in-row but still certify; hard
    # per-point failures (no certificates at all) drive the exit code
    failures = sum(1 for r in results if r.predicted < 0)
    notes = sum(1 for r in results if r.error and r.predicted >= 0)
    summary = f"certified {len(results)} points -> {out}"
    if failures:
        summary += f" ({failures} failed point(s))"
    if notes:
        summary += f" ({notes} with degraded estimates)"
    print(summary)
    return 2 if failures else 0


def cmd_curve(args) -> int:
    if args.grid_points < 1:
        raise ConfigError(f"--grid-points must be at least 1, got {args.grid_points}")
    if args.grid_max is not None and not (math.isfinite(args.grid_max)
                                          and args.grid_max > 0.0):
        raise ConfigError(f"--grid-max must be finite and positive, got {args.grid_max}")
    if not os.path.exists(args.input):
        raise ConfigError(f"input file not found: {args.input}")
    try:
        results, meta = load_run(args.input)
    except (ParseError, UnicodeDecodeError) as err:
        raise ConfigError(f"malformed certificates file {args.input}: {err}")
    if not results:
        raise ConfigError("input contains no certificate rows")
    try:
        dim = int(meta["dim"])
    except (KeyError, ValueError) as err:
        raise ConfigError(f"input is missing meta fields: {err}")
    try:
        subspace_threat = (ThreatModel(meta["subspace_threat"])
                           if "subspace_threat" in meta else None)
        subspace_dim = int(meta["subspace_dim"]) if "subspace_dim" in meta else None
    except ValueError as err:
        raise ConfigError(f"bad subspace meta field: {err}")
    if subspace_threat is ThreatModel.SUBSPACE_LINF and subspace_dim is None:
        raise ConfigError("subspace_threat=subspace_linf needs a subspace_dim meta field")

    radii = [r.radius_zeroth_l2 for r in results]
    for threat in (ThreatModel.L1, ThreatModel.L2, ThreatModel.LINF, subspace_threat):
        if threat is not None:
            radii += [v for r in results if (v := r.first_radius(threat)) is not None]
    hi = args.grid_max if args.grid_max is not None else max(1.6 * max(radii), 1e-9)
    grid = np.linspace(0.0, hi, args.grid_points)
    curves = accuracy_curves(results, grid, dim, subspace_threat, subspace_dim)
    if not curves:
        raise ConfigError("no first-order radii found in input")

    out_prefix = args.out or "curves"
    columns: dict[str, list[float]] = {"radius": [float(g) for g in grid]}
    for threat, (zeroth, first) in curves.items():
        columns[f"{threat.value}_zeroth_acc"] = zeroth
        columns[f"{threat.value}_first_acc"] = first
        svg = curve_svg(
            title=f"certified accuracy ({threat.value})",
            x_label="certified radius",
            y_label="certified accuracy",
            series=[
                ("zeroth order", "#2c7fb8", list(zip(columns["radius"], zeroth))),
                ("first order", "#d95f0e", list(zip(columns["radius"], first))),
            ],
        )
        with open(f"{out_prefix}_{threat.value}.svg", "w", encoding="utf-8") as fh:
            fh.write(svg)

    names = list(columns)
    lines = [f"# smoothcert-curves v1", ",".join(names)]
    for i in range(len(grid)):
        lines.append(",".join(repr(float(columns[name][i])) for name in names))
    with open(f"{out_prefix}.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_prefix}.csv and {len(curves)} SVG plot(s)")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest as st

    results = st.run_selftests(quick=args.quick)
    width = max(len(name) for name, _ in results)
    all_ok = True
    for name, res in results:
        mark = "PASS" if res.passed else "FAIL"
        all_ok &= res.passed
        print(f"{name.ljust(width)}  {mark}  {res.detail}")
    print(f"{'overall'.ljust(width)}  {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on a config error; 2 means failed points."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="smoothcert",
        description="Certified radii for Gaussian-smoothed classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run certification from a config")
    p_cert.add_argument("--config", help="YAML run configuration")
    p_cert.add_argument("--sigma", type=float, help="noise standard deviation")
    p_cert.add_argument("--alpha", type=float, help="total failure probability")
    p_cert.add_argument("--samples", type=int, help="noise draws per point")
    p_cert.add_argument("--seed", type=int, help="base RNG seed")
    p_cert.add_argument("--threats", help="comma list, e.g. l1,l2,linf,subspace_l2")
    p_cert.add_argument("--subspace-mask", dest="subspace_mask",
                        help="comma list of coordinate indices")
    p_cert.add_argument("--linf-mode", dest="linf_mode",
                        choices=[m.value for m in LinfMode])
    p_cert.add_argument("--out", help="output CSV path")
    p_cert.add_argument("--jobs", type=int, default=1,
                        help="parallel point workers")
    p_cert.set_defaults(func=cmd_certify)

    p_curve = sub.add_parser("curve", help="certified-accuracy curves and plots")
    p_curve.add_argument("--input", required=True, help="certificates CSV")
    p_curve.add_argument("--grid-points", dest="grid_points", type=int, default=100)
    p_curve.add_argument("--grid-max", dest="grid_max", type=float, default=None)
    p_curve.add_argument("--out", help="output prefix (default: curves)")
    p_curve.set_defaults(func=cmd_curve)

    p_self = sub.add_parser("selftest", help="oracle and cross-check suite")
    p_self.add_argument("--quick", action="store_true",
                        help="sub-minute subset")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
