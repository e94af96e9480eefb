"""The benchmark's gated workloads run and pass their own output checks.

``perfbench/bench.py`` reads ``cli.COMPARE_TRAIN``, ``workflow.desk_model``,
``training.model_from_bundle`` and other package names directly, so a change
that breaks one of them fails the benchmark; this test makes it fail here
too. Each run starts from a copy of ``perfbench/`` beside a link to ``src/``,
so nothing is written into the checkout's ``perfbench/out``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(os.path.join(ROOT, "perfbench"), root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), root / "src")
    return root


@pytest.mark.parametrize("workload", ["train_text", "infer"])
def test_workload_runs_and_checks_its_outputs(bench_root, workload):
    proc = subprocess.run(
        [sys.executable, str(bench_root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "0"],
        cwd=bench_root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    # the result went to the copy
    assert (bench_root / "perfbench" / "out"
            / f"result-{workload}-seed3-trace0.json").is_file()
