"""Repository benchmark: Table II row, anytime SFDM2 queries, Structured Streaming drain.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
