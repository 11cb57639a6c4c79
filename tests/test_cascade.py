import json

import pytest

from conftest import (
    GOLD_QP,
    GOLD_STEPS,
    GOLD_VERDICTS,
    gold_instance,
    make_example,
)
from tracedistill import prompts
from tracedistill.backends import BackendError, CachingBackend, GenParams, MockBackend
from tracedistill.cascade import (
    AGENTS,
    STAGES,
    CascadeError,
    CascadePipeline,
    decompose_cot,
    demo_pairs_full,
    extract_evidence,
    output_to_prediction,
    verify_steps,
    write_predictions,
)
from tracedistill.retrieval import build_index, top_k

GOLD_STATEMENTS = [s["statement"] for s in GOLD_STEPS]
GOLD_EVIDENCE = [s["evidence"] for s in GOLD_STEPS]


def _gold_script():
    return {
        prompts.OUTPUT_HEADERS["QP"]: json.dumps(GOLD_QP, ensure_ascii=False),
        prompts.OUTPUT_HEADERS["CP"]: json.dumps(GOLD_STATEMENTS, ensure_ascii=False),
        prompts.OUTPUT_HEADERS["CV_evidence"]: json.dumps(GOLD_EVIDENCE, ensure_ascii=False),
        prompts.OUTPUT_HEADERS["CV_verify"]: json.dumps(
            ["True", "True", "False", "False"]
        ),
    }


def _pipeline(script=None, backend=None, k=2):
    seeds = [make_example(f"seed-{i}", n_steps=2) for i in range(3)]
    seed_by_id = {e.instance.id: e for e in seeds}
    embedder = MockBackend(embed_dim=16)
    index = build_index(seeds, embedder.embed)
    backend = backend or CachingBackend(MockBackend(script=script or {}))
    return CascadePipeline(dict.fromkeys(AGENTS, backend), index, seed_by_id, k=k), embedder


def test_gold_pipeline_reproduces_gold_record():
    pipeline, _ = _pipeline(script=_gold_script())
    output = pipeline.run(gold_instance("test-1"))
    assert output.qp == GOLD_QP
    assert output.statements == GOLD_STATEMENTS
    assert output.evidence == GOLD_EVIDENCE
    assert output.verdicts == GOLD_VERDICTS
    assert output.flags == []


def test_pipeline_retrieves_once_per_instance():
    pipeline, embedder = _pipeline(script=_gold_script())
    before = embedder.calls["embed"]
    pipeline.run(gold_instance("test-1"))
    assert embedder.calls["embed"] == before + 1


def test_pipeline_rerun_is_deterministic():
    pipeline, _ = _pipeline(script=_gold_script())
    first = pipeline.run(gold_instance("test-1"))
    second = pipeline.run(gold_instance("test-1"))
    assert output_to_prediction(first) == output_to_prediction(second)


def test_parser_prose_only_flags_stage_failure():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["QP"]] = "I am not able to answer in JSON."
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert output.qp == []
    assert "parser_failed" in output.flags
    # downstream stages still ran on best effort
    assert output.statements == GOLD_STATEMENTS


def test_decompose_requires_cot():
    pipeline, _ = _pipeline(script=_gold_script())
    instance = gold_instance("test-1")
    instance.cot = None
    with pytest.raises(CascadeError):
        pipeline.run(instance)


def test_evidence_count_mismatch_padded_and_flagged():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["CV_evidence"]] = json.dumps(GOLD_EVIDENCE[:3])
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert len(output.evidence) == 4
    assert output.evidence[:3] == GOLD_EVIDENCE[:3]
    assert output.evidence[3] == ""
    assert "evidence_missing:4" in output.flags
    # the evidence stage saw exactly one reprompt
    assert len(output.stages["evidence"].raw) == 2


def test_single_statement_gets_single_evidence():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["CP"]] = json.dumps([GOLD_STATEMENTS[0]])
    script[prompts.OUTPUT_HEADERS["CV_evidence"]] = json.dumps([GOLD_EVIDENCE[0]])
    script[prompts.OUTPUT_HEADERS["CV_verify"]] = json.dumps(["True"])
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert output.statements == [GOLD_STATEMENTS[0]]
    assert output.evidence == [GOLD_EVIDENCE[0]]
    assert output.verdicts == [True]


def test_unparseable_verdict_defaults_false_with_flag():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["CV_verify"]] = json.dumps(
        ["True", "maybe", "False", "False"]
    )
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert output.verdicts == [True, False, False, False]
    assert "verdict_defaulted:2" in output.flags


def test_verdict_array_missing_entries_flagged_false():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["CV_verify"]] = json.dumps(["True", "True"])
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert output.verdicts == [True, True, False, False]
    assert "verdict_defaulted:3" in output.flags
    assert "verdict_defaulted:4" in output.flags


def test_unparseable_verifier_answers_flag_both_verifier_stages():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["CV_evidence"]] = "I cannot find any evidence."
    script[prompts.OUTPUT_HEADERS["CV_verify"]] = "Every statement looks fine to me."
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert output.statements == GOLD_STATEMENTS
    assert output.evidence == [""] * 4
    assert output.verdicts == [False] * 4
    assert output.flags == (
        [f"evidence_missing:{slot}" for slot in range(1, 5)]
        + ["evidence_failed"]
        + [f"verdict_defaulted:{slot}" for slot in range(1, 5)]
        + ["verify_failed"]
    )
    assert output.stages["evidence"].failed and output.stages["verify"].failed
    assert len(output.stages["evidence"].raw) == 2
    assert len(output.stages["verify"].raw) == 1


def test_alignment_invariant_holds_on_failures():
    script = dict(_gold_script())
    script[prompts.OUTPUT_HEADERS["CP"]] = "no structure here"
    pipeline, _ = _pipeline(script=script)
    output = pipeline.run(gold_instance("test-1"))
    assert len(output.statements) == len(output.evidence) == len(output.verdicts) == 0
    assert "no_statements" in output.flags


def test_stage_order_timestamps_monotone():
    pipeline, _ = _pipeline(script=_gold_script())
    output = pipeline.run(gold_instance("test-1"))
    stages = output.stages
    assert stages["question_parsing"].finished <= stages["cot_parsing"].started + 1e-9
    assert stages["cot_parsing"].finished <= stages["evidence"].started + 1e-9
    assert stages["evidence"].finished <= stages["verify"].started + 1e-9


class _PromptRecorder(MockBackend):
    """Mock backend that keeps every prompt it is sent."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.prompts = []

    def generate(self, messages, params):
        self.prompts.append(messages[-1].content)
        return super().generate(messages, params)


def test_demo_block_byte_identical_across_stages():
    backend = _PromptRecorder(script=_gold_script())
    pipeline, _ = _pipeline(backend=backend)
    pipeline.run(gold_instance("test-1"))

    def demo_section(prompt):
        assert prompts.SECTION_EXAMPLES in prompt
        return prompt.split(prompts.SECTION_EXAMPLES)[1].split(prompts.SECTION_INPUT)[0]

    assert len(backend.prompts) == 4
    sections = {demo_section(prompt) for prompt in backend.prompts}
    assert len(sections) == 1


def test_batch_outputs_sorted_by_id():
    pipeline, _ = _pipeline(script=_gold_script())
    instances = [gold_instance(f"t-{i:02d}") for i in (3, 1, 2)]
    for i, inst in enumerate(instances):
        inst.question = f"{inst.question} v{i}"
    outputs = pipeline.run_batch(instances)
    assert [o.instance_id for o in outputs] == ["t-01", "t-02", "t-03"]


def test_missing_binding_rejected():
    seeds = [make_example("s")]
    index = build_index(seeds, MockBackend(embed_dim=8).embed)
    with pytest.raises(CascadeError):
        CascadePipeline({"parser": MockBackend()}, index, {})


def test_write_predictions_schema(tmp_path):
    pipeline, _ = _pipeline(script=_gold_script())
    outputs = pipeline.run_batch([gold_instance("t-1")])
    path = tmp_path / "predictions.jsonl"
    write_predictions(path, outputs)
    row = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert row["id"] == "t-1"
    assert row["question_parsing"] == GOLD_QP
    assert row["cot_parsing"][0]["verification"] == "True"
    assert row["cot_parsing"][2]["verification"] == "False"
    assert len(row["cot_parsing"]) == 4


def test_decompose_cot_direct_precondition():
    seeds = [make_example("s", n_steps=2)]
    seed_by_id = {e.instance.id: e for e in seeds}
    index = build_index(seeds, MockBackend(embed_dim=8).embed)
    hits = top_k(index, "q", 1)
    demos = demo_pairs_full(hits, seed_by_id)
    instance = gold_instance("x")
    instance.cot = "   "
    with pytest.raises(CascadeError):
        decompose_cot(instance, demos, MockBackend(), GenParams())


def test_verifier_stages_require_statements():
    instance, backend, params = gold_instance("x"), MockBackend(), GenParams()
    with pytest.raises(CascadeError):
        extract_evidence(instance, [], [], backend, params)
    with pytest.raises(CascadeError):
        verify_steps(instance, [], [], [], backend, params)


def test_hostile_nesting_is_flagged_not_fatal():
    hostile = "[" * 3000
    script = {prompts.OUTPUT_HEADERS[s]: hostile for s in ("QP", "CP", "CV_evidence", "CV_verify")}
    pipeline, _ = _pipeline(script=script)
    instances = [gold_instance(f"t-{i}") for i in range(2)]
    outputs = pipeline.run_batch(instances)
    assert [o.instance_id for o in outputs] == ["t-0", "t-1"]
    for output in outputs:
        assert output.flags == ["parser_failed", "decomposer_failed", "no_statements"]
        assert len(output.stages["question_parsing"].raw) == 2


class _FailingFor(MockBackend):
    """Fails every generation whose prompt contains ``marker``, as a null completion does."""

    def __init__(self, marker):
        super().__init__()
        self.marker = marker

    def generate(self, messages, params):
        if self.marker in messages[-1].content:
            raise BackendError("malformed chat response: null content")
        return super().generate(messages, params)


def test_backend_failure_ends_only_its_own_instance():
    pipeline, _ = _pipeline(backend=CachingBackend(_FailingFor("Puzzle pool-1:")))
    outputs = pipeline.run_batch([make_example(f"pool-{i}").instance for i in range(3)])
    by_id = {o.instance_id: o for o in outputs}
    failed = by_id["pool-1"]
    assert failed.flags == ["backend_failed"]
    assert sorted(failed.stages) == sorted(STAGES)
    assert all(stage.failed for stage in failed.stages.values())
    assert output_to_prediction(failed) == {
        "id": "pool-1", "question_parsing": [], "cot_parsing": []
    }
    for ident in ("pool-0", "pool-2"):
        assert "backend_failed" not in by_id[ident].flags
        assert by_id[ident].qp and by_id[ident].statements


def test_batch_where_every_instance_fails_raises_backend_error():
    pipeline, _ = _pipeline(backend=CachingBackend(_FailingFor("Puzzle pool-")))
    with pytest.raises(BackendError, match="all 3 instances failed"):
        pipeline.run_batch([make_example(f"pool-{i}").instance for i in range(3)])
