"""Work split over threads: a graph-free CNN forward and ``gen-data``'s
writer thread give the same bits on one CPU and on two, each helper thread
runs on the CPUs other than the caller's, and the forward leaves nothing
running after it.

Each test runs a job of ``thread_jobs.py`` in a subprocess, so the CPU
affinity and the BLAS thread pool are set before numpy loads.
``OPENBLAS_NUM_THREADS`` is removed from (or set in) the job's
environment, whatever the caller's is.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = os.path.join(ROOT, "tests", "thread_jobs.py")


def run_job(*args, python_options=(), blas_threads=None) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *python_options, JOBS, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fused_run_is_bitwise_the_same_on_one_cpu_and_on_two():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip(f"this process may run on {len(cpus)} CPU, the split needs 2")
    serial = run_job("fused_hashes", str(cpus[0]))
    split = run_job("fused_hashes")
    assert serial.pop("cpus") == 1
    assert split.pop("cpus") >= 2
    assert serial["test_rows"] == 64
    assert split == serial


def test_corpus_is_bytewise_the_same_on_one_cpu_and_on_two():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip(f"this process may run on {len(cpus)} CPU, the test needs 2")
    one = run_job("corpus_hash", str(cpus[0]))
    two = run_job("corpus_hash")
    assert (one.pop("cpus"), one.pop("writer_cpus")) == (1, [1])
    assert two.pop("cpus") == len(cpus)
    # the writer leaves the caller's CPU to the caller
    assert two.pop("writer_cpus") == [len(cpus) - 1]
    assert one["files"] == 404
    assert two == one


def test_forward_leaves_no_thread_and_restores_the_blas_count():
    got = run_job("lifetime", python_options=("-X", "dev", "-W", "error"),
                  blas_threads=2)
    assert got["after_import"] == 1
    assert got["after_forward"] == 1
    assert not got["futures"]
    if got["blas_before"] is None:
        pytest.skip("no OpenBLAS thread-count functions found, so no split")
    assert got["ran_groups"] > 1 or len(got["cpus"]) == 1
    assert got["blas_before"] == 2
    assert got["blas_after"] == 2
    if len(got["cpus"]) == 2:
        # the worker leaves the caller's CPU to the caller
        (caller,) = got["caller_cpu"]
        assert got["worker_cpus"]
        assert all(cpus == [c for c in got["cpus"] if c != caller]
                   for cpus in got["worker_cpus"])
