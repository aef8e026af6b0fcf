"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/steady.py [--seeds 1 2 ... 10] [--seconds 20] [--trace 0|1]
                                [--workloads W ...] [--out FILE]

It makes one run per seed and workload, one run at a time. For every metric
it prints the median and the distance between the first and third quartile
as a share of the median, as ``statistics.quantiles(values, n=4)`` gives
them. Repeating a seed (``--seeds 1 1``) checks that traced counts repeat.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main() -> None:
    sys.path.insert(0, ROOT)
    from perfbench.spec import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--out", help="write every run and the summary here as JSON")
    args = ap.parse_args()
    seeds = args.seeds
    report = {
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": f"local[{min(4, len(os.sched_getaffinity(0)))}]",
        "machine": platform.platform(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"wall={r['wall_s']:.1f}s", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            summary[name] = {"median": med, "iqr_share": iqr,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:<40} median {med:>14.6g}  iqr/median {iqr:7.4f}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
