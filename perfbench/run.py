"""smoothcert benchmark: certified radii per second on three workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload c9 --seed 1 --seconds 35 --trace 0

Workloads (see suite.py): ``c9`` (criterion-9 point shape, serial),
``solve_grid`` (the radius solver alone) and ``wide_jobs2`` (d = 3072 with
two pool threads).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every second pass with spans around each module's public functions and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Before it come the
environment and, for traced runs, the self time of every layer.

This script imports nothing from the program.  It starts each measurement as
a fresh interpreter (``worker.py``); on untraced runs it also starts
``SETUP_PROBES`` more that stop at the first unit of work, and reports the
median set-up time of all of them.  ``points_per_s`` times each unit of
work (a radius, a point of a serial run, the batch of a parallel run, the CSV
write) by its fastest untraced repeat.  Outputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("c9", "solve_grid", "wide_jobs2")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "points_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "gain_over_zeroth": ("ratio", "higher"),
}
PER_LAYER = {
    "classifiers.rng_s": ("s/point", "lower"),
    "classifiers.classify_s": ("s/point", "lower"),
    "classifiers.accumulate_s": ("s/point", "lower"),
    "classifiers.normals": ("count/point", "lower"),
    "classifiers.normals_per_s": ("1/s", "higher"),
    "classifiers.self_s": ("s/point", "lower"),
    "estimate.s": ("s/point", "lower"),
    "estimate.calls": ("count/point", "lower"),
    "estimate.self_s": ("s/point", "lower"),
    "certify.l1_s": ("s/point", "lower"),
    "certify.l2_s": ("s/point", "lower"),
    "certify.linf_s": ("s/point", "lower"),
    "certify.directional_radius.calls": ("count/point", "lower"),
    "certify.directional_radius.samples": ("count", "higher"),
    "certify.directional_radius.p50_s": ("s", "lower"),
    "certify.directional_radius.p90_s": ("s", "lower"),
    "certify.solve_dual.calls": ("count/point", "lower"),
    "certify.fallback_frac": ("ratio", "lower"),
    "certify.self_s": ("s/point", "lower"),
    "numerics.solve_system.calls": ("count/point", "lower"),
    "numerics.solve_system.converged_frac": ("ratio", "higher"),
    "numerics.residual_evals": ("count/point", "lower"),
    "numerics.bisect_root.calls": ("count/point", "lower"),
    "numerics.self_s": ("s/point", "lower"),
    "pipeline.point.samples": ("count", "higher"),
    "pipeline.point.p50_s": ("s", "lower"),
    "pipeline.point.p90_s": ("s", "lower"),
    "pipeline.busy_frac": ("ratio", "higher"),
    "pipeline.persist_s": ("s", "lower"),
    "pipeline.self_s": ("s/point", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.workload_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "unsafe_frac": ("ratio", "lower"),
    "failed_frac": ("ratio", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result; no JSON line is printed."""


def _worker(args, deadline: float, result: str, setup_only: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if os.path.exists(result):
        os.remove(result)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, timeout=remaining, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def _layer_table(metrics: dict) -> str:
    layers = sorted(name for name in metrics if name.endswith(".self_s"))
    rows = [f"{name:<24} {metrics[name]:.6f}" for name in layers]
    rows.append(f"{'sum':<24} {sum(metrics[name] for name in layers):.6f}"
                f"  (accounted_frac {metrics['trace.accounted_frac']:.4f})")
    return "self time, s per point:\n  " + "\n  ".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "smoothcert", "__init__.py")):
        print(f"no smoothcert sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}-t{args.trace}")
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = _worker(args, deadline, f"{stem}-setup{i}.json", True)
                setups.append(probe["setup_s"])
        run = _worker(args, deadline, f"{stem}.json", False)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    metrics = dict(run["metrics"])
    expected = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(expected):
        print(f"worker reported {sorted(metrics)}, expected {sorted(expected)}",
              file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(run["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"passes {json.dumps(run['passes'])}")
    print(f"input_sha256 {run['input_sha256']} output_sha256 {run['output_sha256']}")
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        print(_layer_table(metrics))
    print(json.dumps({
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": expected[name][0]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
