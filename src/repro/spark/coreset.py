"""Composable-coreset batch runner (``mapInPandas`` physical operator).

Each input partition independently runs the paper's stream phase (Algorithm
1's candidate maintenance, blind + per-group banks) over its rows and emits
only its bounded element store — the classic composable-coreset idiom for
diversity maximization (Indyk et al.; Ceccarello et al.). The driver then
feeds the union of the per-partition stores (small: ``O(P·km·logΔ/ε)``)
through the exact sequential SFDM algorithm and post-processes as usual.

A true JVM Catalyst operator is out of scope in this Python-only container
(DESIGN.md §3); ``mapInPandas`` over Arrow batches is the supported PySpark
route for custom per-partition physical operators.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..core.stream_dm import DMResult
from ..metrics import get_metric
from .._stream_common import make_algo


def _partition_coreset_fn(metric_name: str, mus, dim: int, k: int, group_caps):
    """Builds the mapInPandas function: per-partition stream-phase candidates."""
    from ..core.bank import StreamState

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        state = StreamState(get_metric(metric_name), mus, dim, k, group_caps=dict(group_caps))
        for pdf in batches:
            if len(pdf):
                state.update(
                    np.stack(pdf["features"].to_numpy()),
                    pdf["group"].to_numpy(),
                    pdf["id"].to_numpy(),
                )
        yield pd.DataFrame(
            {
                "id": state.ids.copy(),
                "group": state.groups.copy(),
                "features": list(state.feats.copy()),
            }
        )

    return fn


def run_fair_coreset(
    df: DataFrame,
    *,
    metric: str,
    ks: dict[int, int],
    eps: float,
    d_min: float,
    d_max: float,
    dim: int,
    algo: str = "sfdm2",
) -> tuple[DMResult, int]:
    """Distributed FDM over a (id, group, features) DataFrame.

    Returns ``(result, coreset_size)``. ``algo`` is ``"sfdm1"`` or ``"sfdm2"``.
    """
    solver = make_algo(
        algo, metric, ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=dim
    )
    st = solver.state
    group_caps = tuple((g, b.cap) for g, b in st.group_banks.items())
    fn = _partition_coreset_fn(metric, st.mus, dim, st.k, group_caps)
    core = df.select("id", "group", "features").mapInPandas(fn, schema=df.schema)
    pdf = core.toPandas().sort_values("id").reset_index(drop=True)
    solver.update(
        np.stack(pdf["features"].to_numpy()),
        pdf["group"].to_numpy(),
        pdf["id"].to_numpy(),
    )
    return solver.solve(), len(pdf)
