"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import endpoint  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracedistill import cli  # noqa: E402
from tracer import Span, self_times  # noqa: E402

SAMPLE = ROOT / "sample_data"


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()}


def test_inputs_are_a_function_of_the_seed(tmp_path):
    inputs.write_inputs(tmp_path / "a", SAMPLE, seed=7, n_pool=50)
    inputs.write_inputs(tmp_path / "b", SAMPLE, seed=7, n_pool=50)
    inputs.write_inputs(tmp_path / "c", SAMPLE, seed=8, n_pool=50)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["pool.jsonl"] != _files(tmp_path / "c")["pool.jsonl"]
    seeds = inputs.seed_rows(SAMPLE, 7)
    pool, gold = inputs.pool_rows(SAMPLE, 7, 50)
    assert len(seeds) == 24
    assert len({row["question"] for row in seeds}) == 24
    assert len({row["question"] for row in pool}) == 50
    assert [row["id"] for row in pool] == [row["id"] for row in gold]
    assert all(row["cot"] for row in pool)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "cli.infer", None, 0.0, 10.0),
        Span(2, 1, "cascade.parser", None, 1.0, 3.0),
        Span(3, 1, "cascade.parser", None, 2.0, 5.0),  # overlaps span 2 (worker thread)
        Span(4, 1, "corpus.save", None, 8.0, 12.0),  # runs past its parent
        Span(5, 3, "backends.generate", None, 2.5, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (4.0 + 2.0)
    assert selfs[2] == 2.0
    assert selfs[3] == 3.0 - 1.5
    assert selfs[4] == 4.0
    assert selfs[5] == 1.5


def test_percentile_reports_its_sample_count():
    assert metrics.percentile([3.0], 90) == (3.0, 1)
    value, n = metrics.percentile([float(x) for x in range(1, 11)], 90)
    assert n == 10
    assert abs(value - 9.1) < 1e-9
    assert metrics.percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.5, 4)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(e["name"], e["unit"], e["better"], e["bound"]) for e in spec["end_to_end"]] == [
        tuple(e) for e in metrics.END_TO_END
    ]
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == [
        e[:3] for e in metrics.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def _small_workload(tmp_path):
    harness = run.Harness(cli, endpoint)
    workload = run.DistillCold(harness, tmp_path, seed=3)
    workload.n_pool = 6
    workload.make_inputs(0)
    return harness, workload


def test_tampered_predictions_count_as_a_failed_op(tmp_path):
    harness, workload = _small_workload(tmp_path)
    it = workload.pipeline(harness.farm(latency=False), traced=False)
    assert [op.command for op in it.ops] == list(run.DISTILL)
    assert run.failed_ops(it.ops) == []

    pred = workload.workdir / "predictions.jsonl"
    lines = pred.read_text(encoding="utf-8").splitlines()
    pred.write_text("\n".join(lines[:-1] + [lines[0]]) + "\n", encoding="utf-8")
    for op in it.ops:
        op.problems.clear()
    workload.check_outputs(it.ops)
    failed = run.failed_ops(it.ops)
    assert [op.command for op in failed] == ["infer"]


def test_traced_pipeline_covers_every_layer_and_restores_the_package(tmp_path):
    import tracedistill.retrieval as retrieval
    import tracedistill.synthesis as synthesis

    originals = (cli.main, synthesis.top_k, retrieval.top_k, cli.evaluate)
    harness, workload = _small_workload(tmp_path)
    it = workload.pipeline(harness.farm(latency=False, transient_rate=0.2), traced=True)
    assert run.failed_ops(it.ops) == []
    assert (cli.main, synthesis.top_k, retrieval.top_k, cli.evaluate) == originals

    layers = {span.layer for span in it.tracer.spans}
    assert set(metrics.LAYERS) <= layers
    roots = [span for span in it.tracer.spans if span.parent is None]
    assert sorted(span.name for span in roots) == sorted(f"cli.{c}" for c in run.DISTILL)
    # worker-thread spans (synthesis, scoring, cascade instances) sit under
    # the span that fanned them out, inside their subcommand
    by_id = {span.sid: span for span in it.tracer.spans}
    for span in it.tracer.spans:
        if span.name == "synthesis.synthesize":
            assert by_id[span.parent].name == "synthesis.batch"
            assert span.command == "synthesize"

    result = metrics.layer_metrics([it], {role: 4 for role in metrics.ROLES})
    assert set(result) | {"trace.overhead_s"} == {name for name, *_ in metrics.PER_LAYER}
    assert result["backends.retries"] > 0
    assert result["retrieval.query_cached_ratio.infer"] == 1.0
    assert result["retrieval.query_cached_ratio.synthesize"] == 0.0

    # two traced iterations report the mean of each one's figures
    again = workload.pipeline(harness.farm(latency=False), traced=True)
    both = metrics.layer_metrics([it, again], {role: 4 for role in metrics.ROLES})
    alone = metrics.layer_metrics([again], {role: 4 for role in metrics.ROLES})
    for name in ("prompts.self_s", "cli.self_s", "trace.spans", "retrieval.topk_calls"):
        assert abs(both[name] - (result[name] + alone[name]) / 2) < 1e-9, name
