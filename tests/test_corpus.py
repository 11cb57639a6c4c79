import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from conftest import GOLD_QP, gold_example, gold_record_dict, make_example, write_jsonl
from tracedistill.corpus import (
    SFT_HEADER,
    DatasetStats,
    EmptyDatasetError,
    ReasoningTrace,
    SchemaError,
    canonicalize_verification,
    compute_stats,
    export_sft,
    instance_to_json,
    load_questions,
    load_seed,
    save_jsonl,
    seed_to_json,
    sha256_file,
    verification_str,
)

SAMPLE_SEED = Path(__file__).resolve().parent.parent / "sample_data" / "seed.jsonl"


def test_load_seed_gold_fixture(tmp_path):
    record = gold_record_dict()
    # the canonical serialization capitalizes step keys; ingest must accept it
    record["cot_parsing"] = [
        {"Statement": s["statement"], "Verification": s["verification"], "Evidence": s["evidence"]}
        for s in record["cot_parsing"]
    ]
    path = write_jsonl(tmp_path / "seed.jsonl", [record])
    examples = load_seed(path)
    assert len(examples) == 1
    example = examples[0]
    assert example.question_parsing == GOLD_QP
    assert len(example.trace.steps) == 4
    assert [s.verification for s in example.trace.steps] == [True, True, False, False]
    assert example.instance.gold_answer == "C"


def test_load_seed_top_level_array(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps([gold_record_dict()]), encoding="utf-8")
    assert len(load_seed(path)) == 1


def test_load_seed_empty_array_is_an_empty_dataset_error(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(EmptyDatasetError):
        load_seed(path)


def test_load_seed_empty_file_distinct_error(tmp_path):
    path = tmp_path / "seed.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyDatasetError):
        load_seed(path)


def test_load_seed_missing_evidence_names_field_path(tmp_path):
    record = gold_record_dict()
    del record["cot_parsing"][1]["evidence"]
    path = write_jsonl(tmp_path / "seed.jsonl", [record])
    with pytest.raises(SchemaError) as err:
        load_seed(path)
    assert "steps[1].evidence" in str(err.value)
    assert "line 1" in str(err.value)


def test_load_seed_duplicate_ids_rejected(tmp_path):
    path = write_jsonl(tmp_path / "seed.jsonl", [gold_record_dict(), gold_record_dict()])
    with pytest.raises(SchemaError) as err:
        load_seed(path)
    assert "duplicate id" in str(err.value)


def test_load_seed_rejects_answer_outside_options(tmp_path):
    record = gold_record_dict()
    record["answer"] = "E"
    path = write_jsonl(tmp_path / "seed.jsonl", [record])
    with pytest.raises(SchemaError) as err:
        load_seed(path)
    assert "answer" in str(err.value)


def test_load_seed_rejects_empty_question_parsing(tmp_path):
    record = gold_record_dict()
    record["question_parsing"] = []
    path = write_jsonl(tmp_path / "seed.jsonl", [record])
    with pytest.raises(SchemaError):
        load_seed(path)


def test_load_questions_ignores_annotations(tmp_path):
    record = gold_record_dict()
    path = write_jsonl(tmp_path / "pool.jsonl", [record])
    instances = load_questions(path)
    assert len(instances) == 1
    assert instances[0].cot is not None


def test_canonicalize_verification_accepted_forms():
    assert canonicalize_verification("True") is True
    assert canonicalize_verification("true") is True
    assert canonicalize_verification("TRUE") is True
    assert canonicalize_verification(True) is True
    assert canonicalize_verification(False) is False
    assert canonicalize_verification("False") is False
    assert canonicalize_verification("false") is False
    assert canonicalize_verification("FALSE") is False


def test_canonicalize_verification_rejects_other_tokens():
    with pytest.raises(SchemaError) as err:
        canonicalize_verification("yes")
    assert "yes" in str(err.value)
    with pytest.raises(SchemaError):
        canonicalize_verification(1)


def test_canonicalize_round_trips_emission():
    for value in (True, False):
        assert canonicalize_verification(verification_str(value)) is value


def test_compute_stats_counts_steps():
    traces = [make_example("a", n_steps=3).trace, make_example("b", n_steps=4).trace]
    assert compute_stats(traces) == DatasetStats(2, 2, 2, 7)


def test_compute_stats_empty():
    assert compute_stats([]) == DatasetStats(0, 0, 0, 0)


def test_round_trip_load_emit_load(tmp_path):
    examples = [gold_example(), make_example("syn-1", n_steps=3), make_example("syn-2")]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_jsonl(first, (seed_to_json(e) for e in examples))
    loaded = load_seed(first)
    assert loaded == examples
    save_jsonl(second, (seed_to_json(e) for e in loaded))
    assert first.read_text(encoding="utf-8") == second.read_text(encoding="utf-8")


def _data_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SFT_HEADER
    return lines[1:]


def test_export_sft_cv_one_line_per_step(tmp_path):
    records = [make_example("a", n_steps=3), make_example("b", n_steps=4)]
    path = tmp_path / "cv.jsonl"
    count = export_sft(records, "CV", path)
    lines = _data_lines(path)
    assert count == 7
    assert len(lines) == 7
    row = json.loads(lines[0])
    assert set(row) == {"instruction", "input", "target"}
    assert json.loads(row["target"]) in (["True"], ["False"])


def test_export_sft_qp_serializes_condition_list(tmp_path):
    records = [gold_example(), make_example("syn-1")]
    path = tmp_path / "qp.jsonl"
    assert export_sft(records, "QP", path) == 2
    lines = _data_lines(path)
    assert json.loads(json.loads(lines[0])["target"]) == GOLD_QP


def test_export_sft_cv_count_matches_stats(tmp_path):
    records = [make_example(f"r{i}", n_steps=2 + i % 3) for i in range(10)]
    stats = compute_stats([r.trace for r in records])
    count = export_sft(records, "CV", tmp_path / "cv.jsonl")
    assert count == stats.cv_count


def test_export_sft_empty_input_writes_no_data_lines(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert export_sft([], "QP", path) == 0
    assert _data_lines(path) == []


def test_export_sft_unknown_subtask():
    with pytest.raises(ValueError):
        export_sft([], "XX", "unused.jsonl")


def test_too_many_options_rejected(tmp_path):
    record = gold_record_dict()
    record["options"] = [f"opt {i}" for i in range(27)]
    record["answer"] = "A"
    path = write_jsonl(tmp_path / "seed.jsonl", [record])
    with pytest.raises(SchemaError):
        load_seed(path)


def test_trace_allows_duplicate_statements(tmp_path):
    record = gold_record_dict()
    record["cot_parsing"].append(dict(record["cot_parsing"][0]))
    path = write_jsonl(tmp_path / "seed.jsonl", [record])
    example = load_seed(path)[0]
    assert len(example.trace.steps) == 5
    assert example.trace.steps[0] == example.trace.steps[4]


def test_compute_stats_is_pure():
    trace = ReasoningTrace(steps=[])
    before = compute_stats([trace])
    after = compute_stats([trace])
    assert before == after == DatasetStats(1, 1, 1, 0)


def test_save_jsonl_that_fails_partway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    save_jsonl(path, [{"n": 1}, {"n": 2}])
    before = path.read_bytes()

    def rows():
        yield {"n": 3}
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        save_jsonl(path, rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


def test_a_written_record_with_unicode_line_separators_reads_back(tmp_path):
    """``save_jsonl`` leaves U+2028, U+0085 and U+001C unescaped; they end no line."""
    instance = make_example("sep").instance
    instance.question = "first\u2028second\x85third\x1cfourth"
    path = tmp_path / "pool.jsonl"
    save_jsonl(path, [instance_to_json(instance), instance_to_json(make_example("next").instance)])
    assert [x.question for x in load_questions(path)][0] == instance.question


def test_the_first_defect_in_file_order_is_reported(tmp_path):
    """A torn line before a line that is not UTF-8 is the error, read line by line."""
    good = json.dumps(instance_to_json(make_example("a").instance)).encode("utf-8")
    path = tmp_path / "pool.jsonl"
    path.write_bytes(good + b'\n{"id": "b"\n{"id": "caf\xe9"}\n')
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
        load_questions(path)
    path.write_bytes(good + b'\n{"id": "caf\xe9"}\n{"id": "b"\n')
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: line 2: not UTF-8"):
        load_questions(path)


def test_an_array_file_after_blank_lines_is_one_document(tmp_path):
    rows = [instance_to_json(make_example(name).instance) for name in "ab"]
    path = tmp_path / "pool.json"
    path.write_text("\n \n" + json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    assert [x.id for x in load_questions(path)] == ["a", "b"]
    path.write_text("\n \n[\n" + json.dumps(rows[0]) + ",\n{torn\n]\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: line 5: invalid JSON"):
        load_questions(path)


def _large_seed_file(path, size=10 << 20):
    """At least ``size`` bytes of seed records, each a copy of the sample seed's first
    record (about 2 KB) under its own id."""
    row = json.loads(SAMPLE_SEED.read_text(encoding="utf-8").splitlines()[0])
    with open(path, "w", encoding="utf-8") as fh:
        count = 0
        while fh.tell() < size:
            fh.write(json.dumps({**row, "id": f"big-{count}"}, ensure_ascii=False) + "\n")
            count += 1
    return count


def _transient_bytes(fn, *args):
    """``fn(*args)`` and the bytes its call allocated at peak beyond what it left held."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def test_reading_a_large_dataset_holds_one_line_of_it(tmp_path):
    """Beyond the records it returns, a read holds one line and its set of ids, not the
    file (a whole-file read peaks about twice the file size above them)."""
    path = tmp_path / "seed.jsonl"
    count = _large_seed_file(path)
    records, transient = _transient_bytes(load_seed, path)
    assert len(records) == count
    assert transient < 1 << 20


def test_hashing_a_large_file_holds_one_block(tmp_path):
    path = tmp_path / "seed.jsonl"
    _large_seed_file(path)
    digest, transient = _transient_bytes(sha256_file, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert transient < 1 << 20
