"""Tiny-size smoke runs of the benchmark, with no timing gate.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
Each test starts ``run.py`` as its own process, as the benchmark is run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_line(run_bench(workload, 0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", ["train_text", "train_fused"])
def test_traced_run_reports_every_per_layer_metric(workload):
    result = result_line(run_bench(workload, 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # graph size of one B=32 training step per mode, counted exactly
    assert metrics["autograd.nodes_per_step.text_only"] == 2280
    assert metrics["autograd.nodes_per_step.image_only"] == 55
    assert metrics["autograd.nodes_per_step.fused"] == 2329
    if workload == "train_text":
        assert metrics["autograd.conv2d.calls"] == 0
        assert metrics["image_encoder.calls"] == 0
    else:
        assert metrics["autograd.conv2d.calls"] > 0
        assert metrics["autograd.conv2d.col2im_bytes_computed"] > 0


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("train_text", 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stretch_excludes_probes_and_scales_by_their_mean(monkeypatch):
    # meter, stretch start, probe 1.0-1.5, probe 10.5-12.5, stretch end
    clock = iter([0.0, 0.0, 1.0, 1.5, 1.5, 10.5, 12.5, 12.5, 13.0])
    monkeypatch.setattr(hostspeed, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(hostspeed, "probe_work", lambda: 0.0)
    meter = hostspeed.HostMeter()
    with meter.stretch() as s:
        pass
    assert s.probes == [0.5, 2.0]
    assert s.raw_s == pytest.approx(13.0 - 0.0 - 2.5)
    assert s.factor == pytest.approx(1.25 / hostspeed.REFERENCE_PROBE_S)
    assert s.seconds == pytest.approx(s.raw_s / s.factor)
