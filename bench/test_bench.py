"""Tests of the benchmark's own code, at a tiny scale.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import omnibench  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the three workloads' shapes, shrunk so a run takes a fraction of a second
TINY = {
    "long-clip": dict(T=6, n_v=24, n_a=6),
    "many-windows": dict(T=48, n_v=4, n_a=2),
    "short-clip": dict(T=2, n_v=24, n_a=6),
}


def tiny(name, **changes):
    fields = dict(tail_pct=50, probe_reps=1, digest=None, **TINY[name])
    return dataclasses.replace(omnibench.WORKLOADS[name],
                               **{**fields, **changes})


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_workload_runs_clean_at_tiny_scale(name, traced):
    res = omnibench.Runner(tiny(name), seed=3, seconds=0.05,
                           traced=traced).run()
    assert res.attempted > 0
    assert res.failed == 0, res.problems
    assert res.correct
    listed = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert set(res.metrics) == {m["name"] for m in listed}
    assert {res.units[m["name"]] for m in listed} == {m["unit"] for m in listed}
    if not traced:
        assert res.metrics["success_rate"] == 1.0
        assert res.details["error_rate"] == 0.0


def test_failed_output_check_counts_as_error():
    w = tiny("short-clip", digest="0" * 64)
    res = omnibench.Runner(w, seed=omnibench.DEFAULT_SEED, seconds=0.05,
                           traced=False).run()
    assert res.attempted > 0 and res.failed == res.attempted
    assert not res.correct
    assert any("recorded" in p for p in res.problems)
    assert res.metrics["success_rate"] == 0.0
    assert res.details["error_rate"] == 1.0


def test_recorded_digest_is_checked_only_at_the_default_seed():
    w = tiny("short-clip", digest="0" * 64)
    res = omnibench.Runner(w, seed=omnibench.DEFAULT_SEED + 1, seconds=0.05,
                           traced=False).run()
    assert res.failed == 0


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),     # overlaps a
        Span(3, "c", 8.0, 12.0, 0, 0),    # runs past its parent's end
        Span(4, "a.x", 2.0, 3.0, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 2, 1: 3 - 1, 2: 3, 3: 4, 4: 1})


def test_phases_partition_run_pipeline():
    spans = [
        Span(0, "pipeline.run_pipeline", 0.0, 10.0, None, 0),
        Span(1, "pipeline.ContainerOracle.query_probs", 4.0, 4.5, 0, 0, 17),
        Span(2, "pipeline.ContainerOracle.query_probs", 5.0, 5.5, 0, 0, 17),
        Span(3, "pipeline.ContainerOracle.query_probs", 7.0, 7.5, 0, 0, 19),
        Span(4, "selector.late_removal", 9.0, 9.5, 0, 0),
    ]
    got = tracing.phases(spans, late_layer=24)
    assert got == pytest.approx({"stage1": 4, "layer17": 3, "layer19": 2,
                                 "layer24": 1})


def test_traced_run_restores_every_wrapped_object():
    targets = tracing.engine_targets()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    res = omnibench.Runner(tiny("many-windows"), seed=3, seconds=0.05,
                           traced=True).run()
    assert res.spans, "the traced run recorded no spans"
    names = {s.name for s in res.spans}
    assert {"divprune.greedy_maxmin", "selector.select_topk",
            "core.WindowLayout.from_stream", "core.TokenStream.take",
            "pipeline.ContainerOracle.query_probs"} <= names
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_wrappers_are_restored_when_a_request_raises():
    from omniprefill import pipeline

    original = vars(pipeline)["run_pipeline"]
    tracer = tracing.Tracer([(pipeline, "run_pipeline")])
    with pytest.raises(TypeError):
        with tracer.request(0):
            pipeline.run_pipeline()
    assert pipeline.run_pipeline is original
    assert [s.name for s in tracer.spans] == ["request",
                                              "pipeline.run_pipeline"]


def test_phase_times_add_up_in_a_traced_run():
    res = omnibench.Runner(tiny("long-clip"), seed=3, seconds=0.05,
                           traced=True).run()
    m = res.metrics
    split = m["pipeline.stage1.s"] + sum(
        m[f"pipeline.layer{layer}.s"] for layer in (17, 19, 21, 24))
    # medians of per-request values, so only approximately additive
    assert split == pytest.approx(m["pipeline.run_pipeline.s"], rel=0.25)
    assert m["divprune.greedy_maxmin.calls"] == 2 * 6


def test_tail_percentile_lies_above_the_median():
    samples = [float(i) for i in range(1000)]
    value, beyond = omnibench.tail(samples, 99)
    assert (value, beyond) == (989.0, 10)
    value, beyond = omnibench.tail(samples[:20], 75)
    assert (value, beyond) == (14.0, 5)
    for w in omnibench.WORKLOADS.values():
        value, _ = omnibench.tail(samples[:w.min_requests], w.tail_pct)
        assert value > statistics.median(samples[:w.min_requests])


def test_seconds_default_is_run_seconds():
    import run

    assert run.parse_args([]).seconds == SPEC["run_seconds"]
    assert run.parse_args(["--seconds", "3"]).seconds == 3.0


def test_run_fails_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short-clip",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
