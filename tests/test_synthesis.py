import json

import pytest

from conftest import GOLD_QP, GOLD_STEPS, gold_example, gold_instance, make_example
from tracedistill import prompts
from tracedistill.backends import CachingBackend, MockBackend
from tracedistill.corpus import trace_to_json
from tracedistill.retrieval import build_index
from tracedistill.synthesis import (
    ParseFailure,
    demo_pairs_qp,
    demo_pairs_ucot,
    extract_json,
    parse_qp,
    parse_ucot,
    record_from_json,
    record_to_json,
    resolve_status,
    synthesize,
    synthesize_batch,
)


GOLD_STEPS_CAPITALIZED = [
    {"Statement": s["statement"], "Verification": s["verification"], "Evidence": s["evidence"]}
    for s in GOLD_STEPS
]


def test_parse_ucot_gold_block():
    raw = json.dumps(GOLD_STEPS_CAPITALIZED, indent=2)
    trace = parse_ucot(raw)
    assert not isinstance(trace, ParseFailure)
    assert len(trace.steps) == 4
    assert [s.verification for s in trace.steps] == [True, True, False, False]


def test_parse_ucot_fenced_empty_array_is_valid_zero_steps():
    trace = parse_ucot("```json [] ```")
    assert not isinstance(trace, ParseFailure)
    assert trace.steps == []


def test_parse_ucot_single_quoted_keys_malformed():
    raw = "[{'statement': 'a', 'evidence': 'b', 'verification': 'True'}]"
    failure = parse_ucot(raw)
    assert isinstance(failure, ParseFailure)
    assert failure.code == "ucot_malformed"


def test_parse_ucot_reports_byte_offset():
    prefix = "Here is my answer: "
    raw = prefix + '{"cot_steps": 5}'
    failure = parse_ucot(raw)
    assert isinstance(failure, ParseFailure)
    assert failure.offset == len(prefix.encode("utf-8"))


def test_parse_ucot_accepts_wrapped_object():
    raw = json.dumps({"cot_steps": GOLD_STEPS_CAPITALIZED})
    trace = parse_ucot(raw)
    assert not isinstance(trace, ParseFailure)
    assert len(trace.steps) == 4

    raw = json.dumps({"cot_parsing": GOLD_STEPS_CAPITALIZED})
    trace = parse_ucot(raw)
    assert not isinstance(trace, ParseFailure)


def test_parse_ucot_missing_field_malformed():
    steps = [{"statement": "a", "verification": "True"}, {"statement": "b", "verification": "False", "evidence": "e"}]
    failure = parse_ucot(json.dumps(steps))
    assert isinstance(failure, ParseFailure)
    assert "steps[0].evidence" in failure.message


def test_parse_ucot_idempotent_on_own_serialization():
    trace = parse_ucot(json.dumps(GOLD_STEPS_CAPITALIZED))
    reparsed = parse_ucot(json.dumps(trace_to_json(trace)))
    assert reparsed == trace


def test_parse_ucot_prose_wrapped_json_extracted():
    raw = "Sure! Here you go:\n```json\n" + json.dumps(GOLD_STEPS_CAPITALIZED) + "\n```\nHope that helps."
    trace = parse_ucot(raw)
    assert not isinstance(trace, ParseFailure)
    assert len(trace.steps) == 4


def test_parse_qp_accepts_bare_array_and_wrapper():
    assert parse_qp('["a", "b"]') == ["a", "b"]
    assert parse_qp('{"question_parsing": ["a"]}') == ["a"]
    failure = parse_qp("no json here at all")
    assert isinstance(failure, ParseFailure)
    assert failure.code == "qp_malformed"


def test_extract_json_takes_longest_balanced_value():
    raw = 'small [1] then {"cot_steps": [1, 2, 3, 4, 5]} end'
    value, offset = extract_json(raw)
    assert value == {"cot_steps": [1, 2, 3, 4, 5]}
    assert raw[offset] == "{"


def _hits_and_seeds(k=2):
    seeds = [gold_example("seed-0")] + [make_example(f"seed-{i}") for i in range(1, 4)]
    seed_by_id = {e.instance.id: e for e in seeds}
    backend = MockBackend(embed_dim=16)
    index = build_index(seeds, backend.embed)
    from tracedistill.retrieval import top_k

    hits = top_k(index, seeds[0].instance.question, k, exclude=None)
    return hits, seed_by_id, index, seeds


def _qp_prompt(instance, hits, seed_by_id):
    demos = demo_pairs_qp(hits, seed_by_id)
    query = prompts.question_block(instance)
    return demos, prompts.render("QP", prompts.QP_INSTRUCTION, demos, query)


def _ucot_prompt(instance, hits, seed_by_id):
    demos = demo_pairs_ucot(hits, seed_by_id)
    query = prompts.question_block(instance, cot=True)
    return demos, prompts.render("UCoT", prompts.UCOT_INSTRUCTION, demos, query)


def test_build_qp_prompt_demo_rank_order_and_verbatim_conditions():
    hits, seed_by_id, _, _ = _hits_and_seeds(k=3)
    demos, rendered = _qp_prompt(gold_instance("query-1"), hits, seed_by_id)
    assert [h.rank for h in hits] == [1, 2, 3]
    assert len(demos) == 3
    # the top hit is the gold seed; its conditions appear verbatim in its demo
    assert "Only one person in the group knew 3 people." in rendered
    assert rendered.index(demos[0][0]) < rendered.index(demos[1][0]) < rendered.index(demos[2][0])
    assert json.loads(demos[0][1].split(":", 1)[1]) == GOLD_QP


def test_build_qp_prompt_zero_hits_is_valid():
    demos, rendered = _qp_prompt(gold_instance(), [], {})
    assert demos == []
    assert prompts.SECTION_EXAMPLES not in rendered
    assert rendered.endswith(prompts.OUTPUT_HEADERS["QP"])


def test_build_ucot_prompt_contains_notice_verbatim():
    hits, seed_by_id, _, _ = _hits_and_seeds()
    _, rendered = _ucot_prompt(gold_instance("query-1"), hits, seed_by_id)
    assert prompts.DOUBLE_QUOTE_NOTICE in rendered


def test_build_ucot_prompt_zero_hits_is_valid_zero_shot():
    demos, rendered = _ucot_prompt(gold_instance("query-1"), [], {})
    assert demos == []
    assert prompts.SECTION_EXAMPLES not in rendered
    assert rendered.endswith(prompts.OUTPUT_HEADERS["UCoT"])


def test_build_ucot_demo_serialization_uses_lowercase_keys():
    hits, seed_by_id, _, _ = _hits_and_seeds()
    demos, _ = _ucot_prompt(gold_instance("query-1"), hits, seed_by_id)
    demo_out = demos[0][1]
    assert '"statement"' in demo_out
    assert '"evidence"' in demo_out
    assert '"verification"' in demo_out


def test_demo_count_is_min_k_and_pool_after_exclusion():
    _, seed_by_id, index, seeds = _hits_and_seeds()
    from tracedistill.retrieval import top_k

    hits = top_k(index, seeds[0].instance.question, 10, exclude={seeds[0].instance.id})
    demos, rendered = _qp_prompt(seeds[0].instance, hits, seed_by_id)
    assert len(demos) == min(10, len(seeds) - 1)
    assert rendered.count("Question:") == len(demos) + 1


def test_render_rejects_unknown_subtask():
    with pytest.raises(KeyError):
        prompts.render("nope", "x", [], "q")


def test_resolve_status_precedence():
    failure = ParseFailure("qp_malformed", 0, "x")
    trace = parse_ucot(json.dumps(GOLD_STEPS_CAPITALIZED))
    assert resolve_status(failure, trace) == "qp_malformed"
    ucot_failure = ParseFailure("ucot_malformed", 0, "x")
    assert resolve_status(["cond"], ucot_failure) == "ucot_malformed"
    one_step = parse_ucot(json.dumps(GOLD_STEPS_CAPITALIZED[:1]))
    assert resolve_status(["cond"], one_step) == "too_few_steps"
    assert resolve_status(["cond"], trace) == "ok"


def test_synthesize_ok_with_wellformed_mock():
    _, seed_by_id, index, seeds = _hits_and_seeds()
    backend = CachingBackend(MockBackend())
    record = synthesize(gold_instance("pool-1"), index, seed_by_id, backend, k=2)
    assert record.parse_status == "ok"
    assert record.qp_raw and record.ucot_raw
    assert record.qp and record.trace is not None
    assert len(record.trace.steps) >= 2


def test_synthesize_too_few_steps_via_script():
    _, seed_by_id, index, _ = _hits_and_seeds()
    one_step = json.dumps(trace_to_json(gold_example().trace)[:1])
    backend = CachingBackend(
        MockBackend(script={prompts.OUTPUT_HEADERS["UCoT"]: one_step})
    )
    record = synthesize(gold_instance("pool-1"), index, seed_by_id, backend, k=2)
    assert record.parse_status == "too_few_steps"
    assert record.trace is not None and len(record.trace.steps) == 1


def test_synthesize_preserves_raw_on_parse_failure():
    _, seed_by_id, index, _ = _hits_and_seeds()
    backend = CachingBackend(
        MockBackend(script={prompts.OUTPUT_HEADERS["UCoT"]: "not json at all"})
    )
    record = synthesize(gold_instance("pool-1"), index, seed_by_id, backend, k=2)
    assert record.parse_status == "ucot_malformed"
    assert record.ucot_raw == "not json at all"
    assert record.trace is None
    assert record.failures


def test_synthesize_batch_rerun_is_identical():
    _, seed_by_id, index, _ = _hits_and_seeds()
    pool = [gold_instance(f"pool-{i:03d}") for i in range(8)]
    for i, inst in enumerate(pool):
        inst.question = f"{inst.question} (variant {i})"
    backend = CachingBackend(MockBackend())
    first, errors_a = synthesize_batch(pool, index, seed_by_id, backend, k=2, workers=4)
    second, errors_b = synthesize_batch(pool, index, seed_by_id, backend, k=2, workers=4)
    assert errors_a == errors_b == []
    assert [record_to_json(r) for r in first] == [record_to_json(r) for r in second]
    assert [r.instance.id for r in first] == sorted(r.instance.id for r in first)


def test_record_json_round_trip():
    _, seed_by_id, index, _ = _hits_and_seeds()
    backend = CachingBackend(MockBackend())
    record = synthesize(gold_instance("pool-1"), index, seed_by_id, backend, k=2)
    recovered = record_from_json(json.loads(json.dumps(record_to_json(record))))
    assert recovered == record
