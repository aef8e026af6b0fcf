"""The benchmark wraps program names from outside: its traced mode
(``perfbench/run.py --trace 1``) through ``tracing.install``, and every
workload through ``workloads.Capture``. On this tree each name must resolve,
and restoring the patches must put every original back."""
from perfbench import tracing, workloads

from repro.harness import measures
from repro.spark import streaming  # imported, so install() wraps the Spark names too


class _Recording(tracing.Patches):
    """Patches that also remember what each attribute was before its first
    wrap (``measures.gmm``, say, is wrapped twice)."""

    def __init__(self):
        super().__init__()
        self.first = {}

    def wrap(self, owner, attr, make):
        self.first.setdefault((owner, attr), getattr(owner, attr))
        super().wrap(owner, attr, make)


def test_tracer_and_captures_install_and_restore_every_hook():
    p = _Recording()
    try:
        tracing.install(tracing.Tracer("hooks"), p)
        workloads.Capture(p, measures, ("gmm", "fair_swap", "fair_flow"), "make_algo")
        workloads.Capture(p, streaming, solver_factory="make_algo")
        wrapped = {(getattr(o, "__name__", None), a) for o, a in p.first}
        for want in [
            ("SFDM1", "update"), ("SFDM1", "solve"), ("SFDM2", "solve"),
            ("repro.core.sfdm1", "swap_balance"),
            ("repro.core.sfdm2", "threshold_clusters"),
            ("repro.core.sfdm2", "max_common_independent_set"),
            ("repro.core.stream_dm", "div"),
            ("repro.harness.measures", "make_algo"),
            ("repro.spark.streaming", "make_algo"),
            ("repro.spark.streaming", "run_streaming_fdm"),
        ]:
            assert want in wrapped
        for (owner, attr), old in p.first.items():
            assert getattr(owner, attr) is not old
    finally:
        p.restore()
    for (owner, attr), old in p.first.items():
        assert getattr(owner, attr) is old, f"{owner}.{attr} not restored"
