"""Benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It runs the program from ``src/`` and prints,
as its last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Scratch
files go to ``.perfbench_runs/`` in the checkout, and traced runs leave their
spans there as JSON lines.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from perfbench import workloads
    from perfbench.spark_stream import stream_adult_sex

    os.makedirs(RUNS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    trace_path = os.path.join(RUNS, f"spans-{tag}.jsonl") if args.trace else None
    sizes = workloads.Sizes()
    if args.workload == "stream-adult-sex":
        work = os.path.join(RUNS, f"work-{tag}-{os.getpid()}")
        try:
            out = stream_adult_sex(sizes, args.seed, args.seconds, bool(args.trace),
                                   trace_path, src=SRC, work=work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        run = {"table2-adult-sex": workloads.table2_adult_sex,
               "census-m14-anytime": workloads.census_m14_anytime}[args.workload]
        out = run(sizes, args.seed, args.seconds, bool(args.trace), trace_path)

    units = {n: u for n, (u, _) in END_TO_END.items()} if not args.trace else PER_LAYER
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": float(out.metrics[n]), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
