"""Acceptance suite: one test per release gate, tolerances pinned inline.

Run `pytest tests/test_acceptance.py -v` for a pass/fail line per gate.
"""

import json
import random
import shutil
from itertools import permutations

import numpy as np

from conftest import (
    GOLD_QP,
    GOLD_REWARD_AVG,
    GOLD_REWARD_FEW,
    GOLD_REWARD_ZERO,
    GOLD_STEPS,
    GOLD_VERDICTS,
    gold_instance,
    gold_record_dict,
    make_example,
    write_jsonl,
)
from test_cli import make_config

from tracedistill import prompts
from tracedistill.backends import CachingBackend, MockBackend
from tracedistill.cascade import AGENTS, CascadePipeline, write_predictions
from tracedistill.cli import main
from tracedistill.corpus import compute_stats, export_sft, trace_to_json
from tracedistill.evalharness import MatchPolicy, _pair_tuple, evaluate, match_steps
from tracedistill.filtering import (
    RewardRecord,
    apply_strategy,
    run_filter,
    structural_filter,
)
from tracedistill.retrieval import SeedIndex, build_index, top_k, top_k_vector
from tracedistill.synthesis import (
    ParseFailure,
    SynthesizedRecord,
    parse_qp,
    parse_ucot,
    resolve_status,
)


def test_acceptance_reward_averaging_exact():
    """Mean of the two recorded reward scores, zero tolerance."""
    rewards = RewardRecord(s_few=1.873046875, s_zero=2.28125)
    assert rewards.s_avg == 2.0771484375
    assert RewardRecord(GOLD_REWARD_FEW, GOLD_REWARD_ZERO).s_avg == GOLD_REWARD_AVG


def _synth_record(ident, status, n_steps=3, qp_override=None):
    example = make_example(ident, n_steps=n_steps)
    return SynthesizedRecord(
        instance=example.instance,
        qp_raw="[]",
        ucot_raw=json.dumps(trace_to_json(example.trace), ensure_ascii=False),
        qp=example.question_parsing if qp_override is None else qp_override,
        trace=None if status == "ucot_malformed" else example.trace,
        parse_status=status,
    )


def test_acceptance_filtering_laws_on_1000_records():
    """Membership law, strict threshold, stage order, and subset relations."""
    rng = random.Random(42)
    records = []
    for i in range(1000):
        roll = rng.random()
        if roll < 0.6:
            records.append(_synth_record(f"r{i:04d}", "ok"))
        elif roll < 0.72:
            records.append(_synth_record(f"r{i:04d}", "ucot_malformed"))
        elif roll < 0.84:
            records.append(_synth_record(f"r{i:04d}", "too_few_steps", n_steps=1))
        elif roll < 0.92:
            records.append(_synth_record(f"r{i:04d}", "qp_malformed"))
        else:
            records.append(_synth_record(f"r{i:04d}", "ok", qp_override=[]))

    seeds = [make_example(f"seed-{i}") for i in range(4)]
    seed_by_id = {e.instance.id: e for e in seeds}
    index = build_index(seeds, MockBackend(embed_dim=16).embed)
    inner = MockBackend(seed=9)
    result = run_filter(records, index, seed_by_id, CachingBackend(inner), k=2)

    survivors = result.kept["structure"]
    survivor_ids = {r.instance.id for r in survivors}

    # reward stage ran only for structural survivors, twice per record
    assert inner.calls["reward"] == 2 * len(survivors)

    # membership law for the averaging strategy: keep <=> s_few + s_zero > 0
    kept_avg = {r.instance.id for r in result.kept["average"]}
    for record in survivors:
        assert record.rewards is not None
        expected = record.rewards.s_few + record.rewards.s_zero > 0
        assert (record.instance.id in kept_avg) == expected

    # strict boundary: a score of exactly zero is dropped
    boundary = _synth_record("boundary", "ok")
    boundary.rewards = RewardRecord(s_few=0.0, s_zero=0.0)
    for strategy in ("zero", "few", "average"):
        assert apply_strategy([boundary], strategy) == []

    # every reward-kept set is contained in the structural-kept set
    for strategy in ("zero", "few", "average"):
        assert {r.instance.id for r in result.kept[strategy]} <= survivor_ids


def _fuzz_words(rng):
    vocab = ["logic", "puzzle", "group", "eight", "people", "meeting", "knew", "true",
             "claim", "holds", "follows", "therefore", "seat", "row", "color", "täst"]
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 8)))


def _valid_trace_raw(rng):
    n_steps = rng.randint(2, 5)
    steps = []
    for i in range(n_steps):
        verification = rng.choice([True, False, "True", "False", "true", "false"])
        steps.append(
            {
                "statement": f"Step {i + 1}: {_fuzz_words(rng)}.",
                "evidence": f"Because {_fuzz_words(rng)}.",
                "verification": verification,
            }
        )
    raw = json.dumps(steps, ensure_ascii=False, indent=2 if rng.random() < 0.5 else None)
    wrap = rng.random()
    if wrap < 0.3:
        return f"Here is the structured reasoning you asked for.\n```json\n{raw}\n```"
    if wrap < 0.5:
        return f"Sure thing: {raw}\nLet me know if anything is unclear."
    return raw


def _mutate(raw, rng):
    mode = rng.randrange(5)
    if mode == 0:  # truncate strictly inside the serialization
        end = raw.rindex("]")
        pos = rng.randint(min(4, end - 1), end - 1)
        return raw[:pos], "truncated"
    if mode == 1:  # single quotes are not JSON
        return raw.replace('"', "'"), "single_quotes"
    if mode == 2:  # drop a required field from one step
        steps = json.loads(raw[raw.index("[") : raw.rindex("]") + 1])
        victim = rng.randrange(len(steps))
        del steps[victim][rng.choice(["statement", "evidence", "verification"])]
        return json.dumps(steps, ensure_ascii=False), "missing_field"
    if mode == 3:  # unrecognized verification token
        steps = json.loads(raw[raw.index("[") : raw.rindex("]") + 1])
        steps[rng.randrange(len(steps))]["verification"] = rng.choice(["yes", "no", "maybe", "1"])
        return json.dumps(steps, ensure_ascii=False), "bad_verification"
    return f"I am sorry, I could not format that. {_fuzz_words(rng)}", "prose_only"


def _structural_decision(qp_raw, ucot_raw):
    qp = parse_qp(qp_raw)
    trace = parse_ucot(ucot_raw)
    status = resolve_status(qp, trace)
    instance = make_example("fuzz", n_steps=2).instance
    record = SynthesizedRecord(
        instance=instance,
        qp_raw=qp_raw,
        ucot_raw=ucot_raw,
        qp=None if isinstance(qp, ParseFailure) else qp,
        trace=None if isinstance(trace, ParseFailure) else trace,
        parse_status=status,
    )
    return structural_filter(record)


def test_acceptance_structural_filter_fuzz_corpus():
    """100% rejection of malformed or short traces; zero false rejections."""
    rng = random.Random(2024)
    good_qp = json.dumps(["The group has 8 people.", "Four people knew 1 person."])

    rejected = 0
    for i in range(10_000):
        base = _valid_trace_raw(rng)
        if i % 5 == 4:  # valid arrays that are simply too short
            steps = json.loads(base[base.index("[") : base.rindex("]") + 1])
            mutant = json.dumps(steps[: rng.randint(0, 1)], ensure_ascii=False)
            reason = "too_short"
        else:
            mutant, reason = _mutate(base, rng)
        outcome = _structural_decision(good_qp, mutant)
        assert outcome.decision == "drop", f"mutant survived ({reason}): {mutant[:120]!r}"
        rejected += 1
    assert rejected == 10_000

    for _ in range(2_000):
        outcome = _structural_decision(good_qp, _valid_trace_raw(rng))
        assert outcome.decision == "keep"

    # empty condition lists are structurally rejected even with a valid trace
    outcome = _structural_decision("[]", _valid_trace_raw(rng))
    assert outcome.decision == "drop"
    assert outcome.reason == "empty_qp"


def test_acceptance_retrieval_matches_brute_force():
    """Exact top-k ordering against a full-scan oracle; unit self-similarity."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((200, 32))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    ids = [f"v-{i:03d}" for i in range(200)]
    index = SeedIndex(ids=ids, matrix=matrix)
    queries = rng.standard_normal((25, 32))
    for k in (1, 5, 10):
        for query in queries:
            query = query / np.linalg.norm(query)
            hits = top_k_vector(index, query, k)
            scores = [float(np.dot(row, query)) for row in matrix]
            oracle = sorted(range(200), key=lambda i: (-scores[i], i))[:k]
            assert [h.id for h in hits] == [ids[i] for i in oracle]

    examples = [make_example(f"ex-{i}") for i in range(20)]
    text_index = build_index(examples, MockBackend(embed_dim=64).embed)
    for example in examples:
        hits = top_k(text_index, example.instance.question, 1)
        assert hits[0].id == example.instance.id
        assert abs(hits[0].score - 1.0) <= 1e-6


def test_acceptance_counting_semantics_up_to_5000_traces(tmp_path):
    """CV lines = total steps; QP and CP lines = trace count."""
    rng = random.Random(17)
    for size in (1, 37, 5000):
        records = [
            make_example(f"c{size}-{i}", n_steps=rng.randint(2, 6)) for i in range(size)
        ]
        stats = compute_stats([r.trace for r in records])
        cv_lines = export_sft(records, "CV", tmp_path / f"cv-{size}.jsonl")
        qp_lines = export_sft(records, "QP", tmp_path / f"qp-{size}.jsonl")
        cp_lines = export_sft(records, "CP", tmp_path / f"cp-{size}.jsonl")
        assert cv_lines == stats.cv_count == sum(len(r.trace.steps) for r in records)
        assert qp_lines == cp_lines == stats.total_traces == size
        on_disk = (tmp_path / f"cv-{size}.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(on_disk) - 1 == cv_lines  # minus the format header


def test_acceptance_gold_record_end_to_end(tmp_path):
    """Scripted agents reproduce the gold record; the scorer reports 1.0."""
    script = {
        prompts.OUTPUT_HEADERS["QP"]: json.dumps(GOLD_QP, ensure_ascii=False),
        prompts.OUTPUT_HEADERS["CP"]: json.dumps(
            [s["statement"] for s in GOLD_STEPS], ensure_ascii=False
        ),
        prompts.OUTPUT_HEADERS["CV_evidence"]: json.dumps(
            [s["evidence"] for s in GOLD_STEPS], ensure_ascii=False
        ),
        prompts.OUTPUT_HEADERS["CV_verify"]: json.dumps(["True", "True", "False", "False"]),
    }
    seeds = [make_example(f"seed-{i}", n_steps=2) for i in range(3)]
    seed_by_id = {e.instance.id: e for e in seeds}
    index = build_index(seeds, MockBackend(embed_dim=16).embed)
    backend = CachingBackend(MockBackend(script=script))
    bindings = dict.fromkeys(AGENTS, backend)
    pipeline = CascadePipeline(bindings, index, seed_by_id, k=2)

    output = pipeline.run(gold_instance("gold-1"))
    assert output.qp == GOLD_QP
    assert output.statements == [s["statement"] for s in GOLD_STEPS]
    assert output.evidence == [s["evidence"] for s in GOLD_STEPS]
    assert output.verdicts == GOLD_VERDICTS

    pred_path = tmp_path / "predictions.jsonl"
    gold_path = write_jsonl(tmp_path / "gold.jsonl", [gold_record_dict()])
    write_predictions(pred_path, [output])
    report = evaluate(pred_path, gold_path)
    assert report.ques_f1 == 1.0
    assert report.stmt_f1 == 1.0
    assert report.evid_f1 == 1.0
    assert report.reason_f1 == 1.0


def _oracle_counts(pred_steps, gold_steps, policy):
    best = (0, 0, 0)
    if len(pred_steps) <= len(gold_steps):
        options = [
            [(i, j) for i, j in enumerate(perm)]
            for perm in permutations(range(len(gold_steps)), len(pred_steps))
        ]
    else:
        options = [
            [(i, j) for j, i in enumerate(perm)]
            for perm in permutations(range(len(pred_steps)), len(gold_steps))
        ]
    for assignment in options:
        totals = [0, 0, 0]
        for i, j in assignment:
            tup = _pair_tuple(pred_steps[i], gold_steps[j], policy)
            if tup:
                totals = [a + b for a, b in zip(totals, tup)]
        best = max(best, tuple(totals))
    return best


def test_acceptance_metric_properties_on_randomized_fixtures():
    """Level monotonicity, self-score identity, and oracle equivalence."""
    policy = MatchPolicy()
    rng = random.Random(99)
    statements = [f"claim {c}" for c in "abcd"]
    evidences = [f"grounds {c}" for c in "xyz"]
    checked = 0
    for _ in range(500):
        pred = [
            (rng.choice(statements), rng.choice(evidences), rng.random() < 0.5)
            for _ in range(rng.randint(0, 6))
        ]
        gold = [
            (rng.choice(statements), rng.choice(evidences), rng.random() < 0.5)
            for _ in range(rng.randint(0, 6))
        ]
        stmt, evid, reason = match_steps(pred, gold, policy)
        assert reason <= evid <= stmt
        assert match_steps(gold, gold, policy) == (len(gold), len(gold), len(gold))
        assert (stmt, evid, reason) == _oracle_counts(pred, gold, policy)
        checked += 1
    assert checked == 500


def _artifact_snapshot(workdir):
    skip = {"logs", "cache", ".lock"}
    snapshot = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_dir():
            continue
        relative = path.relative_to(workdir)
        if relative.parts[0] in skip:
            continue
        snapshot[str(relative)] = path.read_bytes()
    return snapshot


def test_acceptance_full_pipeline_determinism(tmp_path):
    """Two mock-backed runs: byte-identical artifacts, zero calls on rerun."""
    config = make_config(tmp_path, n_seed=5, n_pool=6)
    workdir = tmp_path / "work"
    stages = ("induce", "synthesize", "filter", "export")
    for stage in stages:
        assert main([stage, "--config", str(config)]) == 0

    first = _artifact_snapshot(workdir)
    assert first, "first run produced no artifacts"

    # drop every artifact but keep the backend cache, then rerun
    for child in list(workdir.iterdir()):
        if child.name in ("cache", "logs"):
            continue
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()
    for stage in stages:
        assert main([stage, "--config", str(config)]) == 0

    second = _artifact_snapshot(workdir)
    assert first == second

    for stage in ("induce", "synthesize", "filter"):
        stats = json.loads(
            (workdir / "logs" / f"{stage}_stats.json").read_text(encoding="utf-8")
        )
        assert stats["backend_calls"] == 0, f"{stage} hit the backend on rerun"
        assert stats["cache_hits"] > 0
