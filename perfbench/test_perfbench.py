"""Fast self-test of the benchmark, at tiny input sizes.

    python3 -m pytest perfbench -q

It checks the metric names against ``BENCHMARK.json``, that every workload
reports every metric it names in both modes, that the counts of a traced run
repeat exactly, and that the output checks reject corrupted solutions.
"""
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench import checks, spec, workloads  # noqa: E402
from perfbench.spark_stream import stream_adult_sex  # noqa: E402

TINY = workloads.Sizes(adult_n=3_000, census_n=3_000, chunk=500, files=4, warmup_n=500)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload, trace, tmp_path, seed=3):
    if workload == "stream-adult-sex":
        return stream_adult_sex(TINY, seed, 0, trace, src=SRC, work=str(tmp_path / "work"))
    fn = {"table2-adult-sex": workloads.table2_adult_sex,
          "census-m14-anytime": workloads.census_m14_anytime}[workload]
    return fn(TINY, seed, 0, trace)


def test_metric_names_and_units_are_valid():
    units = {n: u for n, (u, _) in spec.END_TO_END.items()} | spec.PER_LAYER
    assert len(units) == len(spec.END_TO_END) + len(spec.PER_LAYER)
    for name, unit in units.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert bench["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_workload_reports_every_metric(workload, trace, tmp_path):
    out = run(workload, trace, tmp_path)
    assert out.problems == []
    assert out.failed == 0 and out.attempted > 0
    if trace:
        assert set(out.metrics) == set(spec.PER_LAYER)
    else:
        assert set(out.metrics) == set(spec.END_TO_END)
        assert all(v > 0 for v in out.metrics.values()), out.metrics


@pytest.mark.parametrize("workload", ["table2-adult-sex", "census-m14-anytime"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    a = run(workload, True, tmp_path).metrics
    b = run(workload, True, tmp_path).metrics
    assert {n: a[n] for n in spec.EXACT_COUNTS} == {n: b[n] for n in spec.EXACT_COUNTS}
    assert a["core.bank.update.rows_seen"] > 0


@pytest.fixture(scope="module")
def solved():
    """A real SFDM2 solution over a small two-group stream."""
    from repro._stream_common import make_algo
    from repro.datasets import blobs
    from repro.extent import exact_extent

    ds = blobs(400, 2, seed=4)
    ks = {0: 3, 1: 3}
    lo, hi = exact_extent(ds.feats, ds.metric)
    solver = make_algo("sfdm2", "euclidean", ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=2)
    solver.update(ds.feats, ds.groups)
    stream = dict(stream_feats=ds.feats, stream_groups=ds.groups, ks=ks, metric="euclidean")
    return solver.solve(), stream


def test_checks_accept_a_correct_solution(solved):
    res, stream = solved
    assert checks.result_problems("sfdm2", res, **stream) == []


def corruptions(res, stream):
    ids = res.ids
    other = next(i for i in range(len(stream["stream_feats"]))
                 if i not in ids and stream["stream_groups"][i] != stream["stream_groups"][ids[0]])
    yield "dropped id", ids[1:], res.diversity, None
    yield "repeated id", np.r_[ids[:-1], ids[0]], res.diversity, None
    yield "id past the stream", np.r_[ids[:-1], len(stream["stream_feats"])], res.diversity, None
    yield "unfair swap", np.r_[other, ids[1:]], checks.min_distance(
        stream["stream_feats"][np.r_[other, ids[1:]]], "euclidean"), None
    yield "wrong diversity", ids, res.diversity * 1.01, None
    yield "wrong rows", ids, res.diversity, res.feats[::-1]


def test_checks_reject_corrupted_solutions(solved):
    res, stream = solved
    for label, ids, div, rows in corruptions(res, stream):
        assert checks.solution_problems(label, ids, div, rows=rows, **stream), label


def test_differential_check_rejects_a_different_result(solved):
    import dataclasses

    res, _ = solved
    assert checks.differential_problems("same", res, res) == []
    for change in ({"ids": res.ids[::-1]}, {"mu": res.mu * 2}, {"n_stored": res.n_stored + 1}):
        assert checks.differential_problems("changed", dataclasses.replace(res, **change), res)


def test_timed_update_in_pieces_matches_one_update():
    """Pieces, and replays of them, leave the solver as one update does."""
    from repro._stream_common import make_algo
    from repro.datasets import blobs
    from repro.extent import exact_extent

    ds = blobs(400, 2, seed=4)
    lo, hi = exact_extent(ds.feats, ds.metric)
    kw = dict(ks={0: 3, 1: 3}, eps=0.1, d_min=lo, d_max=hi, dim=2)
    whole, pieces = make_algo("sfdm2", "euclidean", **kw), make_algo("sfdm2", "euclidean", **kw)
    whole.update(ds.feats, ds.groups)
    steps = workloads.Steps()
    workloads.timed_update(steps, ("update",), pieces, ds.feats, ds.groups, piece=37)
    steps.sweep()
    assert len(steps.samples) == 11
    assert all(len(v) == 2 and v[0] > 0 for v in steps.samples.values())
    a, b = whole.solve(), pieces.solve()
    assert checks.differential_problems("pieces", b, a) == []
