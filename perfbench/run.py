"""Run one reviewfuse benchmark workload and print its result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_fused --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, one process each. The program is
imported from ``src/`` of the same checkout; the run stops with exit code 2
if it is not there. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from time import perf_counter

WORKLOAD_NAMES = ("train_fused", "train_text", "infer")
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "reviewfuse", "__init__.py")):
        print(f"error: no program source at {src}/reviewfuse", file=sys.stderr)
        return 2
    # pinned before numpy loads OpenBLAS: its thread pool is sized once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # compile from source on every run, so import time does not depend on
    # whether an earlier run left bytecode behind
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, here]
    t0 = perf_counter()
    import bench  # numpy and the whole package
    import_s = perf_counter() - t0
    import reviewfuse
    if not os.path.abspath(reviewfuse.__file__).startswith(src + os.sep):
        print(f"error: reviewfuse imported from {reviewfuse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    return bench.run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s)


if __name__ == "__main__":
    sys.exit(main())
