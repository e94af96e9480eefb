"""Repeat benchmark runs over seeds and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads train_text,infer --seeds 1-10 [--out FILE]

Runs ``run.py`` once per workload and seed, one process at a time, and
prints for every metric of the result line its median, quartiles and
spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to a third of
the bound in BENCHMARK.json. ``--out`` writes the figures, the raw values and
the provenance of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def measure(spec: dict, workload: str, seeds: list[int], trace: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    provenance = None
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if provenance is None:
            path = os.path.join(HERE, "out",
                                f"result-{workload}-seed{seed}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                provenance = json.load(fh)["provenance"]
        status = "ok" if result["correct"] else "INCORRECT"
        print(f"{workload} seed {seed}: {status}, {result['failed']}/"
              f"{result['attempted']} checks failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}:")
    print(f"  {'metric':<42}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound/3':>9}")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        third = bounds[name] / 3 if name in bounds else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": vals}
        wide = "  WIDE" if name != "setup_s" and spread > third else ""
        print(f"  {name:<42}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
              f"{third:>9.4f}{wide}")
    return {"seeds": seeds, "trace": trace, "provenance": provenance,
            "metrics": summary}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True,
                   help="comma-separated workload names")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {w: measure(spec, w, args.seeds, args.trace)
              for w in args.workloads.split(",")}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
