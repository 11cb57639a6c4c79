import random
from itertools import permutations

import pytest

from conftest import gold_record_dict, write_jsonl
from tracedistill.corpus import DatasetError, SchemaError
from tracedistill.evalharness import (
    EXHAUSTIVE_LIMIT,
    EvalError,
    MatchPolicy,
    _pair_tuple,
    evaluate,
    format_report,
    match_sets,
    match_steps,
    normalize_text,
    token_f1,
)

EXACT = MatchPolicy()
TOKEN = MatchPolicy(mode="token_f1_threshold", threshold=0.5)


def oracle_counts(pred_steps, gold_steps, policy):
    """Exhaustive one-to-one assignment maximizing (stmt, evid, reason)."""
    best = (0, 0, 0)
    if len(pred_steps) <= len(gold_steps):
        for perm in permutations(range(len(gold_steps)), len(pred_steps)):
            totals = [0, 0, 0]
            for i, j in enumerate(perm):
                tup = _pair_tuple(pred_steps[i], gold_steps[j], policy)
                if tup:
                    totals = [a + b for a, b in zip(totals, tup)]
            best = max(best, tuple(totals))
    else:
        for perm in permutations(range(len(pred_steps)), len(gold_steps)):
            totals = [0, 0, 0]
            for j, i in enumerate(perm):
                tup = _pair_tuple(pred_steps[i], gold_steps[j], policy)
                if tup:
                    totals = [a + b for a, b in zip(totals, tup)]
            best = max(best, tuple(totals))
    return best


def _steps(*triples):
    return [(s, e, v) for s, e, v in triples]


def _write_pair(tmp_path, pred_rows, gold_rows):
    pred = write_jsonl(tmp_path / "pred.jsonl", pred_rows)
    gold = write_jsonl(tmp_path / "gold.jsonl", gold_rows)
    return pred, gold


def _row(ident, conditions, steps):
    return {
        "id": ident,
        "question_parsing": conditions,
        "cot_parsing": [
            {"statement": s, "evidence": e, "verification": "True" if v else "False"}
            for s, e, v in steps
        ],
    }


def test_perfect_predictions_score_one(tmp_path):
    gold = gold_record_dict()
    pred, gold_path = _write_pair(tmp_path, [gold], [gold])
    report = evaluate(pred, gold_path)
    assert report.ques_f1 == report.stmt_f1 == report.evid_f1 == report.reason_f1 == 1.0


def test_all_empty_predictions_score_zero(tmp_path):
    gold = gold_record_dict()
    empty = {"id": gold["id"], "question_parsing": [], "cot_parsing": []}
    pred, gold_path = _write_pair(tmp_path, [empty], [gold])
    report = evaluate(pred, gold_path)
    assert report.ques_f1 == 0.0
    assert report.stmt_f1 == report.evid_f1 == report.reason_f1 == 0.0


def test_macro_average_hand_computed(tmp_path):
    gold_rows = [
        _row("a", ["c1", "c2"], []),
        _row("b", ["c1", "c2"], []),
    ]
    pred_rows = [
        _row("a", ["c1", "c2"], []),          # F1 = 1.0
        _row("b", ["c1", "wrong"], []),       # tp=1, |pred|=|gold|=2 -> F1 = 0.5
    ]
    pred, gold = _write_pair(tmp_path, pred_rows, gold_rows)
    assert evaluate(pred, gold).ques_f1 == pytest.approx(0.75)


def test_flipped_verdicts_zero_reasoning_same_evidence(tmp_path):
    gold = gold_record_dict()
    flipped = gold_record_dict()
    for step in flipped["cot_parsing"]:
        step["verification"] = "False" if step["verification"] == "True" else "True"
    pred, gold_path = _write_pair(tmp_path, [flipped], [gold])
    report = evaluate(pred, gold_path)
    assert report.reason_f1 == 0.0
    assert report.evid_f1 == 1.0
    assert report.stmt_f1 == 1.0


def test_match_sets_identity_and_empty():
    tp, fp, fn = match_sets(["x", "y"], ["x", "y"], EXACT)
    assert (tp, fp, fn) == (2, 0, 0)
    tp, fp, fn = match_sets([], ["a", "b", "c", "d"], EXACT)
    assert (tp, fp, fn) == (0, 0, 4)


def test_match_sets_normalization_variants():
    assert match_sets(["The  Group, has 8 People!"], ["the group has 8 people"], EXACT) == (1, 0, 0)


def test_match_sets_token_mode_matches_oracle_three_by_three():
    pred = ["the cat sat on the mat", "a dog barked loudly", "birds fly south"]
    gold = ["the cat sat on a mat", "the dog barked", "fish swim north"]
    tp, fp, fn = match_sets(pred, gold, TOKEN)
    steps_p = [(p, "", True) for p in pred]
    steps_g = [(g, "", True) for g in gold]
    assert tp == oracle_counts(steps_p, steps_g, TOKEN)[0]
    assert tp == 2  # hand check: pair 1 and pair 2 clear 0.5; pair 3 does not
    assert (fp, fn) == (1, 1)


def test_token_f1_values():
    assert token_f1("a b", "a b") == 1.0
    assert token_f1("a b", "c d") == 0.0
    assert token_f1("a b", "a c") == pytest.approx(0.5)
    assert token_f1("", "") == 1.0


def test_match_steps_one_wrong_evidence_matches_oracle():
    gold = _steps(("s1", "e1", True), ("s2", "e2", True), ("s3", "e3", False), ("s4", "e4", False))
    pred = _steps(("s1", "e1", True), ("s2", "WRONG", True), ("s3", "e3", False), ("s4", "e4", False))
    counts = match_steps(pred, gold, EXACT)
    assert counts == oracle_counts(pred, gold, EXACT)
    assert counts == (4, 3, 3)


def test_match_steps_duplicate_statements_resolved_maximally():
    gold = _steps(("s", "e1", True), ("s", "e2", False))
    pred = _steps(("s", "e2", False), ("s", "e1", True))
    assert match_steps(pred, gold, EXACT) == (2, 2, 2)
    # a pairing that ignored evidence would find 2 statement matches but
    # fewer evidence matches; the matcher must pick the maximal pairing
    pred_partial = _steps(("s", "e2", True), ("s", "xx", True))
    counts = match_steps(pred_partial, gold, EXACT)
    assert counts == oracle_counts(pred_partial, gold, EXACT)
    assert counts == (2, 1, 0)


def test_greedy_exact_equals_oracle_small_lists():
    rng = random.Random(7)
    statements = ["s1", "s2", "s3"]
    evidences = ["e1", "e2"]
    for _ in range(300):
        pred = _steps(
            *[
                (rng.choice(statements), rng.choice(evidences), rng.random() < 0.5)
                for _ in range(rng.randint(0, 5))
            ]
        )
        gold = _steps(
            *[
                (rng.choice(statements), rng.choice(evidences), rng.random() < 0.5)
                for _ in range(rng.randint(0, 5))
            ]
        )
        assert match_steps(pred, gold, EXACT) == oracle_counts(pred, gold, EXACT)


def test_token_mode_equals_oracle_small_lists():
    rng = random.Random(11)
    vocab = ["red", "blue", "fast", "slow", "bird", "fish", "stone", "cloud"]

    def sentence():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 4)))

    for _ in range(60):
        pred = _steps(*[(sentence(), sentence(), rng.random() < 0.5) for _ in range(rng.randint(0, 4))])
        gold = _steps(*[(sentence(), sentence(), rng.random() < 0.5) for _ in range(rng.randint(0, 4))])
        assert match_steps(pred, gold, TOKEN) == oracle_counts(pred, gold, TOKEN)


def test_token_mode_past_exhaustive_limit_matches_greedily():
    # pred 0 ("a b c d") matches gold 0 and gold 1 fully, pred 1 ("a c x y") only gold 0:
    # the greedy pass takes (0, 0) first and leaves pred 1 and gold 1 unmatched,
    # where the exhaustive assignment would pair (0, 1) and (1, 0)
    gold = _steps(("a b c", "e shared", True), ("a b d", "e shared", True))
    pred = _steps(("a b c d", "e shared", True), ("a c x y", "e shared", True))
    for i in range(2, 13):
        statement = f"s{i}a s{i}b s{i}c"
        gold.append((statement, f"ev{i} text", True))
        # evidence agrees on steps 2-8 and differs on 9-12; steps 2-3 flip the verdict
        pred.append((statement, f"ev{i} text" if i <= 8 else f"other{i}", i > 3))
    assert len(pred) == len(gold) == EXHAUSTIVE_LIMIT + 1
    # statements: 1 + 11; evidence: 1 + 7 (steps 2-8); reasoning: 1 + 5 (steps 4-8)
    assert match_steps(pred, gold, TOKEN) == (12, 8, 6)


def test_monotonicity_on_randomized_fixtures():
    rng = random.Random(13)
    statements = [f"s{i}" for i in range(4)]
    evidences = [f"e{i}" for i in range(3)]
    for _ in range(200):
        pred = _steps(
            *[
                (rng.choice(statements), rng.choice(evidences), rng.random() < 0.5)
                for _ in range(rng.randint(0, 6))
            ]
        )
        gold = _steps(
            *[
                (rng.choice(statements), rng.choice(evidences), rng.random() < 0.5)
                for _ in range(rng.randint(0, 6))
            ]
        )
        stmt, evid, reason = match_steps(pred, gold, EXACT)
        assert reason <= evid <= stmt


def test_self_score_is_one_including_empty_steps(tmp_path):
    rows = [
        _row("a", ["c1"], [("s", "e", True)]),
        _row("b", ["c1", "c2"], []),
    ]
    pred, gold = _write_pair(tmp_path, rows, rows)
    report = evaluate(pred, gold)
    assert report.ques_f1 == report.stmt_f1 == report.evid_f1 == report.reason_f1 == 1.0


def test_id_mismatch_lists_missing_ids(tmp_path):
    pred, gold = _write_pair(
        tmp_path,
        [_row("a", ["c"], [])],
        [_row("a", ["c"], []), _row("b", ["c"], [])],
    )
    with pytest.raises(DatasetError) as err:
        evaluate(pred, gold)
    assert "b" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    [
        [1, 2],
        {"id": "b", "question_parsing": ["c"], "cot_parsing": ["a step as text"]},
        {"id": "b", "question_parsing": "abc", "cot_parsing": []},
        {"id": "b", "question_parsing": ["c"], "cot_parsing": {"statement": "s"}},
        {"id": "b", "question_parsing": ["c"],
         "cot_parsing": [{"statement": "s", "evidence": "e", "verification": "maybe"}]},
    ],
    ids=["line-not-an-object", "step-not-an-object", "qp-not-a-list", "cot-not-a-list",
         "verification-unrecognised"],
)
def test_malformed_record_is_an_eval_error_naming_file_and_line(tmp_path, bad):
    rows = [_row("a", ["c"], [("s", "e", True)])]
    pred, gold = _write_pair(tmp_path, rows + [bad], rows + [_row("b", ["c"], [])])
    with pytest.raises(SchemaError) as err:
        evaluate(pred, gold)
    assert str(pred) in str(err.value)
    assert "line 2" in str(err.value)


def test_step_f1_levels_on_identical_files(tmp_path):
    gold = gold_record_dict()
    pred, gold_path = _write_pair(tmp_path, [gold], [gold])
    report = evaluate(pred, gold_path)
    assert report.stmt_f1 == report.evid_f1 == report.reason_f1 == 1.0


def test_policy_validation():
    with pytest.raises(EvalError):
        MatchPolicy(mode="fuzzy")
    with pytest.raises(EvalError):
        MatchPolicy(mode="token_f1_threshold", threshold=0.0)


def test_normalize_text_toggles():
    policy = MatchPolicy(lowercase=False, strip_punctuation=False, collapse_whitespace=False)
    assert normalize_text("A  b!", policy) == "A  b!"
    assert normalize_text("A  b!", EXACT) == "a b"


def test_format_report_column_order():
    from tracedistill.evalharness import EvalReport

    table = format_report(EvalReport(0.5687, 0.3672, 0.1080, 0.0520))
    header, row = table.splitlines()
    assert header.split() == ["Ques.", "F1", "Stmt.", "F1", "Evid.", "F1", "Reason.", "F1"]
    assert row.split() == ["56.87", "36.72", "10.80", "5.20"]
