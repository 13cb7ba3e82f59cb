"""The benchmark's own smoke test: every workload at tiny size.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0.0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_the_inputs(workload, tmp_path):
    def digest(seed):
        return suite.build(workload, "smoke", seed, str(tmp_path)).input_digest()

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_wide_jobs2_csv_matches_a_serial_run(tmp_path):
    outputs = []
    for jobs in (2, 1):
        out_dir = tmp_path / f"jobs{jobs}"
        out_dir.mkdir()
        workload = suite.build("wide_jobs2", "smoke", 5, str(out_dir), jobs=jobs)
        assert workload.jobs == jobs
        workload.run_pass()
        outputs.append(workload.output())
    assert outputs[0] == outputs[1]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "c9", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracing_a_missing_name_fails_loudly():
    from smoothcert import certify, classifiers

    stub = types.ModuleType("pipeline")
    with pytest.raises(tracing.TraceError, match="sample_class_sums"):
        tracing.install(tracing.Tracer(), {"classifiers": classifiers, "certify": certify,
                                           "pipeline": stub})
    # a failed install leaves every name it had wrapped as it was
    assert classifiers.RngSpec.generator.__qualname__ == "RngSpec.generator"


# certify.dual_residual spans are what numerics.residual_evals counts
@pytest.mark.parametrize("workload, counter", [("c9", "classifiers.normals"),
                                               ("solve_grid", "certify.dual_residual")])
def test_a_required_counter_left_at_zero_fails_loudly(workload, counter, tmp_path):
    traced = suite.build(workload, "smoke", 1, str(tmp_path)).traced
    tracer = tracing.Tracer()
    for name in traced:
        tracer.add(name, 0 if name == counter else 1)
    with pytest.raises(tracing.TraceError, match=f"nothing for {counter}$"):
        tracing.require(tracer, traced, workload)
