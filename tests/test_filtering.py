import json
import random

import pytest

from conftest import (
    GOLD_REWARD_AVG,
    GOLD_REWARD_FEW,
    GOLD_REWARD_ZERO,
    gold_example,
    gold_instance,
    make_example,
)
from tracedistill.backends import BackendError, CachingBackend, MockBackend
from tracedistill.corpus import SFT_HEADER, compute_stats, export_sft, trace_to_json
from tracedistill.filtering import (
    STRATEGIES,
    FilterOutcome,
    RewardRecord,
    apply_strategy,
    build_reward_prompts,
    run_filter,
    score_record,
    structural_filter,
    strategy_score,
    to_training_example,
)
from tracedistill.prompts import input_block
from tracedistill.retrieval import build_index, top_k
from tracedistill.synthesis import SynthesizedRecord


def _record(ident, status="ok", qp=None, n_steps=3, rewards=None):
    example = make_example(ident, n_steps=n_steps)
    trace = example.trace if status not in ("ucot_malformed",) else None
    return SynthesizedRecord(
        instance=example.instance,
        qp_raw="[...]",
        ucot_raw=json.dumps(trace_to_json(example.trace), ensure_ascii=False),
        qp=example.question_parsing if qp is None else qp,
        trace=trace,
        parse_status=status,
        rewards=rewards,
    )


def test_reward_record_average_is_exact():
    rewards = RewardRecord(s_few=GOLD_REWARD_FEW, s_zero=GOLD_REWARD_ZERO)
    assert rewards.s_avg == GOLD_REWARD_AVG


def test_reward_record_average_simple_cases():
    assert RewardRecord(0.0, 0.0).s_avg == 0.0
    assert RewardRecord(-1.0, 3.0).s_avg == 1.0


def test_structural_filter_drops_one_step_trace():
    outcome = structural_filter(_record("r1", status="too_few_steps", n_steps=1))
    assert outcome.decision == "drop"
    assert outcome.reason == "too_few_steps"
    assert outcome.scores is None


def test_structural_filter_keeps_gold_shape():
    example = gold_example()
    record = SynthesizedRecord(
        instance=example.instance,
        qp_raw="[]",
        ucot_raw=json.dumps(trace_to_json(example.trace)),
        qp=example.question_parsing,
        trace=example.trace,
        parse_status="ok",
    )
    outcome = structural_filter(record)
    assert outcome.decision == "keep"
    assert outcome.stage == "structural"


def test_structural_filter_drops_empty_qp():
    outcome = structural_filter(_record("r1", qp=[]))
    assert outcome.decision == "drop"
    assert outcome.reason == "empty_qp"


def test_structural_filter_drops_malformed():
    for status in ("qp_malformed", "ucot_malformed"):
        outcome = structural_filter(_record("r1", status=status))
        assert outcome.decision == "drop"
        assert outcome.reason == status


def _scoring_setup():
    seeds = [make_example(f"seed-{i}") for i in range(6)]
    seed_by_id = {e.instance.id: e for e in seeds}
    index = build_index(seeds, MockBackend(embed_dim=16).embed)
    return seeds, seed_by_id, index


def test_build_reward_prompts_demo_counts_and_shared_instruction():
    seeds, seed_by_id, index = _scoring_setup()
    hits = top_k(index, "a new question", 5)
    few, zero = build_reward_prompts(gold_instance("x"), hits, seed_by_id)
    assert len(few) == len(zero) == 1
    few_text, zero_text = few[0].content, zero[0].content
    assert "###Examples###" in few_text
    assert "###Examples###" not in zero_text
    # identical instruction section
    assert few_text.split("###Examples###")[0] == zero_text.split("###Input###")[0]
    assert few_text.count("Question:") == 6  # 5 demos + the query


def test_score_record_two_reward_calls_and_exact_average():
    seeds, seed_by_id, index = _scoring_setup()
    hits = top_k(index, "q", 3)
    inner = MockBackend()
    backend = CachingBackend(inner)
    record = _record("r1")
    rewards = score_record(record, hits, seed_by_id, backend)
    assert inner.calls["reward"] == 2
    assert rewards.s_avg == (rewards.s_few + rewards.s_zero) / 2


def test_apply_strategy_keeps_gold_fixture_under_average():
    record = _record("r1", rewards=RewardRecord(GOLD_REWARD_FEW, GOLD_REWARD_ZERO))
    kept = apply_strategy([record], "average")
    assert kept == [record]


def test_apply_strategy_drops_exact_zero_score():
    record = _record("r1", rewards=RewardRecord(0.0, 0.0))
    for strategy in ("zero", "few", "average"):
        assert apply_strategy([record], strategy) == []


def test_apply_strategy_branches_disagree():
    record = _record("r1", rewards=RewardRecord(s_few=1.0, s_zero=-3.0))
    assert apply_strategy([record], "few") == [record]
    assert apply_strategy([record], "zero") == []
    assert apply_strategy([record], "average") == []  # avg = -1


def test_apply_strategy_structure_keeps_everything():
    records = [_record(f"r{i}") for i in range(3)]
    assert apply_strategy(records, "structure") == records


def test_apply_strategy_unknown_strategy():
    with pytest.raises(ValueError):
        apply_strategy([], "percentile")


def test_strategy_score_selects_component():
    rewards = RewardRecord(s_few=1.0, s_zero=2.0)
    assert strategy_score(rewards, "few") == 1.0
    assert strategy_score(rewards, "zero") == 2.0
    assert strategy_score(rewards, "average") == 1.5


def _cv_rows(examples, tmp_path):
    """CV export rows: export_sft expands CV to one row per step."""
    path = tmp_path / "cv.jsonl"
    count = export_sft(examples, "CV", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SFT_HEADER
    rows = [json.loads(line) for line in lines[1:]]
    assert count == len(rows)
    return rows


def test_expand_cv_row_count_and_labels(tmp_path):
    example = gold_example()
    rows = _cv_rows([example], tmp_path)
    assert len(rows) == 4
    assert [json.loads(r["target"]) for r in rows] == [["True"], ["True"], ["False"], ["False"]]
    for row, step in zip(rows, example.trace.steps):
        query = input_block("CV_verify", example.instance, [step.statement], [step.evidence])
        assert row["input"] == query


def test_expand_cv_counts_match_stats(tmp_path):
    examples = [make_example("a", n_steps=3), make_example("b", n_steps=4)]
    rows = _cv_rows(examples, tmp_path)
    assert len(rows) == 7 == compute_stats([e.trace for e in examples]).cv_count


def test_cv_export_of_no_records_is_header_only(tmp_path):
    assert _cv_rows([], tmp_path) == []


def test_run_filter_reward_calls_only_for_structural_survivors():
    seeds, seed_by_id, index = _scoring_setup()
    records = [
        _record("a1"),
        _record("a2", status="ucot_malformed"),
        _record("a3", qp=[]),
        _record("a4"),
        _record("a5", status="too_few_steps", n_steps=1),
    ]
    inner = MockBackend()
    backend = CachingBackend(inner)
    result = run_filter(records, index, seed_by_id, backend, k=2)
    survivors = result.kept["structure"]
    assert [r.instance.id for r in survivors] == ["a1", "a4"]
    assert inner.calls["reward"] == 2 * len(survivors)
    for strategy in ("zero", "few", "average"):
        assert set(r.instance.id for r in result.kept[strategy]) <= {"a1", "a4"}
    # structurally kept sets are step-level rich: every trace has >= 2 steps
    stats = compute_stats([r.trace for r in survivors])
    assert stats.cv_count >= 2 * stats.total_traces


def test_run_filter_membership_law_for_average():
    seeds, seed_by_id, index = _scoring_setup()
    records = [_record(f"m{i}") for i in range(20)]
    backend = CachingBackend(MockBackend(seed=3))
    result = run_filter(records, index, seed_by_id, backend, k=2)
    kept_avg = {r.instance.id for r in result.kept["average"]}
    for record in result.kept["structure"]:
        expected = record.rewards is not None and record.rewards.s_few + record.rewards.s_zero > 0
        assert (record.instance.id in kept_avg) == expected


class _FailingReward(MockBackend):
    def __init__(self, fail_marker):
        super().__init__()
        self.fail_marker = fail_marker

    def reward(self, context, response):
        if self.fail_marker in response:
            raise BackendError("reward backend rejected this response")
        return super().reward(context, response)


def test_run_filter_unscored_records_excluded_and_audited():
    seeds, seed_by_id, index = _scoring_setup()
    records = [_record("u1"), _record("u2")]
    marker = records[0].ucot_raw[:40]
    backend = CachingBackend(_FailingReward(marker), retry_budget=0)
    result = run_filter(records, index, seed_by_id, backend, k=2)
    for strategy in ("zero", "few", "average"):
        assert all(r.instance.id != "u1" for r in result.kept[strategy])
    unscored = [o for o in result.outcomes if o.reason == "unscored"]
    assert [o.record_id for o in unscored] == ["u1"]
    assert records[0].rewards is None


def test_filter_outcome_audit_serialization():
    outcome = FilterOutcome(
        record_id="x",
        stage="reward",
        decision="keep",
        reason="kept",
        scores=RewardRecord(GOLD_REWARD_FEW, GOLD_REWARD_ZERO),
        strategy="average",
    )
    row = outcome.to_json()
    assert row["scores"]["s_avg"] == GOLD_REWARD_AVG
    assert row["strategy"] == "average"


def test_to_training_example_round_trip_fields():
    record = _record("t1")
    example = to_training_example(record)
    assert example.instance.id == "t1"
    assert example.question_parsing == record.qp
    assert example.trace is record.trace


def test_subset_relations_random():
    seeds, seed_by_id, index = _scoring_setup()
    rng = random.Random(0)
    records = []
    for i in range(40):
        status = rng.choice(["ok", "ok", "ok", "ucot_malformed", "too_few_steps"])
        records.append(_record(f"s{i}", status=status, n_steps=1 if status == "too_few_steps" else 3))
    backend = CachingBackend(MockBackend(seed=8))
    result = run_filter(records, index, seed_by_id, backend, k=2)
    structure_ids = {r.instance.id for r in result.kept["structure"]}
    for strategy in STRATEGIES:
        assert {r.instance.id for r in result.kept[strategy]} <= structure_ids
