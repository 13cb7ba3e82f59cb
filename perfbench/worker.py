"""One measured benchmark process: set up, run timed passes, check outputs.

Started by ``run.py`` as a fresh interpreter, so that ``setup_s`` covers
interpreter start, imports and workload generation.  With ``--setup-only``
it stops at the first unit of work.  Otherwise it repeats identical passes
until ``--seconds`` are used (at least two, so that two passes can be
compared byte for byte); with ``--trace 1`` every second pass runs traced and
the others give the untraced baseline for ``trace.overhead_frac``.  It writes
its figures to the ``--result`` file as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time

_STARTED = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import smoothcert  # noqa: E402
from smoothcert import certify, classifiers, pipeline  # noqa: E402

import suite  # noqa: E402
import tracing  # noqa: E402

_IMPORTED = time.monotonic()

MODULES = {"classifiers": classifiers, "certify": certify, "pipeline": pipeline}


def _git_head(root: str):
    """Commit of a git checkout, read without running git; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    package = os.path.dirname(smoothcert.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "commit": _git_head(ROOT),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _check_registry(out_dir: str, key: str, digest: str) -> list:
    """Record the output digest of a run's inputs and program; flag a change."""
    path = os.path.join(out_dir, "digests.json")
    known = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    if key in known:
        if known[key] != digest:
            return [f"output differs from an earlier run with the same seed ({key})"]
        return []
    known[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def _rate(passes, traced: bool) -> float:
    """Points per second of the passes of one kind, traced or untraced.

    Every pass repeats the same units of work, and on a shared host other
    tenants can only slow a unit down, so each unit counts with the time of
    its fastest repeat: the rate is points over the sum of those times.
    """
    units = [u for _, _, t, u in passes if t is traced]
    if not units:
        return 0.0
    points = next(n for _, n, t, _ in passes if t is traced)
    return points / sum(min(repeats) for repeats in zip(*units))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(suite.SHAPES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(suite.SHAPES), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if os.path.dirname(os.path.abspath(smoothcert.__file__)) != os.path.join(SRC, "smoothcert"):
        print(f"smoothcert was imported from {smoothcert.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    out_dir = os.path.dirname(os.path.abspath(args.result))
    workload = suite.build(args.workload, args.size, args.seed, out_dir)
    ready = time.monotonic()
    result = {
        "setup_s": ready - args.spawned_at,
        "setup.import_s": _IMPORTED - _STARTED,
        "setup.workload_s": ready - _IMPORTED,
    }
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    digests = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        saved = tracing.install(tracer, MODULES) if traced else []
        try:
            start = time.perf_counter()
            if traced:
                points = tracer.call("bench.pass", workload.run_pass)
            else:
                points = workload.run_pass()
            seconds = time.perf_counter() - start
        finally:
            tracing.uninstall(saved)
        passes.append((seconds, points, traced, list(workload.unit_seconds)))
        digests.append(hashlib.sha256(workload.output()).hexdigest())
        elapsed = time.perf_counter() - begin
        if len(passes) >= 2 and elapsed + 0.5 * seconds >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = workload.check()
    problems = list(check["problems"])
    if len(set(digests)) != 1:
        problems.append("passes over the same inputs gave different output bytes")
    key = "|".join([args.workload, str(args.seed), repr(workload.shape),
                    workload.input_digest()[:16], _source_digest()[:16]])
    problems += _check_registry(out_dir, key, digests[0])

    metrics = {
        "points_per_s": _rate(passes, False),
        "setup_s": result["setup_s"],
        "peak_rss_mb": peak_rss_mb,
        "gain_over_zeroth": check["gain_over_zeroth"],
    }
    if tracer is not None:
        traced_points = sum(n for _, n, t, _ in passes if t)
        tracing.require(tracer, workload.traced, args.workload)
        metrics = tracing.summarize(tracer, "bench.pass", traced_points, workload.jobs)
        metrics.update({
            "setup.import_s": result["setup.import_s"],
            "setup.workload_s": result["setup.workload_s"],
            "trace.overhead_frac": 1.0 - _rate(passes, True) / _rate(passes, False),
            "unsafe_frac": check["unsafe_frac"],
            "failed_frac": check["failed"] / check["points"],
        })
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl.gz"))

    result.update({
        "correct": not problems,
        "problems": problems,
        "attempted": sum(n for _, n, _, _ in passes),
        "failed": check["failed"] * len(passes),
        "metrics": metrics,
        "passes": [{"seconds": dt, "points": n, "traced": t} for dt, n, t, _ in passes],
        "input_sha256": workload.input_digest(),
        "output_sha256": digests[0],
        "env": environment(),
    })
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as err:
        print(f"trace error: {err}", file=sys.stderr)
        sys.exit(3)
