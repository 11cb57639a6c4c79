"""Data model and file I/O for reasoning-trace datasets.

Datasets are line-delimited JSON (UTF-8); a single top-level JSON array is
also accepted on ingest. Canonical record fields:

    id                unique identifier within the file
    question          problem statement text
    options           answer-choice texts, labelled "A".. by position
    answer            optional gold choice label
    cot               optional free-text chain of thought
    question_parsing  list of extracted condition strings
    cot_parsing       list of {statement, evidence, verification} steps

Step keys are accepted in any capitalisation ("Statement" == "statement")
and verification is accepted as a JSON boolean or a "True"/"False" string;
emission always uses lowercase keys and the string form. SFT exports are
line-delimited instruction/input/target triples under a `#sft-v1` header
line. Every output, stats and manifest file the package writes goes through
``replacing``, so a write that fails leaves the previous file as it was.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import prompts

CHOICE_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
SFT_HEADER = "#sft-v1"
SUBTASKS = ("QP", "CP", "CV")


class DatasetError(Exception):
    """Base class for dataset ingestion problems."""


class EmptyDatasetError(DatasetError):
    pass


class SchemaError(DatasetError):
    """A record violated the dataset schema.

    Carries the bare message, the field path (e.g. "steps[1].evidence") and,
    when known, the line number of the offending record.
    """

    def __init__(self, message, path="", line=None, record=None):
        self.message = message
        self.path = path
        self.line = line
        self.record = record
        where = []
        if line is not None:
            where.append(f"line {line}")
        if record is not None:
            where.append(f"record {record}")
        prefix = ", ".join(where)
        full = f"{path}: {message}" if path else message
        if prefix:
            full = f"{prefix}: {full}"
        super().__init__(full)

    def at(self, line=None, record=None):
        return SchemaError(self.message, path=self.path, line=line, record=record)


@dataclass
class QuestionInstance:
    id: str
    question: str
    options: list[str] = field(default_factory=list)
    gold_answer: str | None = None
    cot: str | None = None


@dataclass
class CoTStep:
    statement: str
    evidence: str
    verification: bool


@dataclass
class ReasoningTrace:
    steps: list[CoTStep] = field(default_factory=list)


@dataclass
class SeedExample:
    instance: QuestionInstance
    question_parsing: list[str]
    trace: ReasoningTrace


@dataclass
class DatasetStats:
    total_traces: int
    qp_count: int
    cp_count: int
    cv_count: int


_TRUE_FORMS = frozenset(("True", "true", "TRUE"))
_FALSE_FORMS = frozenset(("False", "false", "FALSE"))


def canonicalize_verification(raw):
    """Map a JSON boolean or a "True"/"False" string onto a bool."""
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        if raw in _TRUE_FORMS:
            return True
        if raw in _FALSE_FORMS:
            return False
    raise SchemaError(f"unrecognized verification value {raw!r}", path="verification")


def verification_str(value):
    return "True" if value else "False"


def format_question(instance):
    """Render a question with its labelled answer choices."""
    lines = [instance.question]
    for label, text in zip(CHOICE_LABELS, instance.options):
        lines.append(f"{label}. {text}")
    return "\n".join(lines)


def _norm_key(key):
    return str(key).strip().lower().replace(" ", "_")


def _index_keys(obj):
    out = {}
    for k, v in obj.items():
        out.setdefault(_norm_key(k), v)
    return out


def _require_text(value, path, allow_blank=False):
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {type(value).__name__}", path=path)
    if not allow_blank and not value.strip():
        raise SchemaError("must be non-empty", path=path)
    return value


def parse_step(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError("step must be a JSON object", path=path)
    fields = _index_keys(obj)
    for name in ("statement", "evidence", "verification"):
        if name not in fields:
            raise SchemaError("missing required field", path=f"{path}.{name}")
    statement = _require_text(fields["statement"], f"{path}.statement")
    evidence = _require_text(fields["evidence"], f"{path}.evidence")
    try:
        verification = canonicalize_verification(fields["verification"])
    except SchemaError as exc:
        raise SchemaError(exc.message, path=f"{path}.verification") from None
    return CoTStep(statement=statement, evidence=evidence, verification=verification)


def parse_trace(value, path="steps"):
    if not isinstance(value, list):
        raise SchemaError("expected a JSON array of steps", path=path)
    return ReasoningTrace(steps=[parse_step(s, f"{path}[{i}]") for i, s in enumerate(value)])


def parse_question_parsing(value, path="question_parsing"):
    if not isinstance(value, list):
        raise SchemaError("expected a JSON array of condition strings", path=path)
    return [_require_text(c, f"{path}[{i}]") for i, c in enumerate(value)]


def parse_instance(fields):
    if "id" not in fields:
        raise SchemaError("missing required field", path="id")
    ident = _require_text(fields["id"] if isinstance(fields["id"], str) else str(fields["id"]), "id")
    question = _require_text(fields.get("question"), "question")
    options = fields.get("options", [])
    if options is None:
        options = []
    if not isinstance(options, list):
        raise SchemaError("expected a JSON array", path="options")
    if len(options) > len(CHOICE_LABELS):
        raise SchemaError(f"at most {len(CHOICE_LABELS)} options supported", path="options")
    options = [_require_text(o, f"options[{i}]") for i, o in enumerate(options)]
    answer = fields.get("answer")
    if answer is not None:
        answer = _require_text(answer, "answer")
        if answer not in CHOICE_LABELS[: len(options)]:
            raise SchemaError(f"answer {answer!r} is not an option label", path="answer")
    cot = fields.get("cot")
    if cot is not None:
        cot = _require_text(cot, "cot")
    return QuestionInstance(id=ident, question=question, options=options, gold_answer=answer, cot=cot)


def parse_seed_record(obj):
    """Parse one fully-annotated record into a SeedExample."""
    if not isinstance(obj, dict):
        raise SchemaError("record must be a JSON object")
    fields = _index_keys(obj)
    instance = parse_instance(fields)
    if "question_parsing" not in fields:
        raise SchemaError("missing required field", path="question_parsing")
    question_parsing = parse_question_parsing(fields["question_parsing"])
    if not question_parsing:
        raise SchemaError("must contain at least one condition", path="question_parsing")
    steps_value = fields.get("cot_parsing")
    if steps_value is None:
        raise SchemaError("missing required field", path="cot_parsing")
    trace = parse_trace(steps_value)
    if not trace.steps:
        raise SchemaError("must contain at least one step", path="steps")
    return SeedExample(instance=instance, question_parsing=question_parsing, trace=trace)


def _read_raw_records(path):
    """Yield (line_number_or_None, record_index, raw_object) for a dataset file."""
    raw = Path(path).read_text(encoding="utf-8")
    if not raw.strip():
        raise EmptyDatasetError(f"dataset file is empty: {path}")
    if raw.lstrip().startswith("["):
        try:
            array = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON array: {exc}") from None
        if not isinstance(array, list):
            raise SchemaError("top-level JSON value must be an array")
        return [(None, i, obj) for i, obj in enumerate(array)]
    records = []
    index = 0
    for line_no, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from None
        records.append((line_no, index, obj))
        index += 1
    return records


def _check_unique_ids(seen, ident, line, record):
    if ident in seen:
        raise SchemaError(f"duplicate id {ident!r}", path="id", line=line, record=record)
    seen.add(ident)


def load_seed(path):
    """Load a fully-annotated dataset (question_parsing + cot_parsing required)."""
    out = []
    seen = set()
    for line, index, obj in _read_raw_records(path):
        try:
            example = parse_seed_record(obj)
        except SchemaError as exc:
            raise exc.at(line=line, record=index) from None
        _check_unique_ids(seen, example.instance.id, line, index)
        out.append(example)
    return out


def load_questions(path):
    """Load bare question instances (pool / test files); annotations are ignored."""
    out = []
    seen = set()
    for line, index, obj in _read_raw_records(path):
        if not isinstance(obj, dict):
            raise SchemaError("record must be a JSON object", line=line, record=index)
        try:
            instance = parse_instance(_index_keys(obj))
        except SchemaError as exc:
            raise exc.at(line=line, record=index) from None
        _check_unique_ids(seen, instance.id, line, index)
        out.append(instance)
    return out


def instance_to_json(instance):
    out = {"id": instance.id, "question": instance.question, "options": list(instance.options)}
    if instance.gold_answer is not None:
        out["answer"] = instance.gold_answer
    if instance.cot is not None:
        out["cot"] = instance.cot
    return out


def step_to_json(step):
    return {
        "statement": step.statement,
        "evidence": step.evidence,
        "verification": verification_str(step.verification),
    }


def trace_to_json(trace):
    return [step_to_json(s) for s in trace.steps]


def seed_to_json(example):
    out = instance_to_json(example.instance)
    out["question_parsing"] = list(example.question_parsing)
    out["cot_parsing"] = trace_to_json(example.trace)
    return out


@contextmanager
def replacing(path, binary=False):
    """A file open for writing beside ``path`` that is renamed over it on a clean exit.

    The temporary file is ``path`` plus ``.tmp``. A write that raises, or a
    run that dies mid-write, leaves the old file, never a torn one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    done = False
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
        done = True
    finally:
        if not done:
            tmp.unlink(missing_ok=True)


def save_jsonl(path, rows):
    with replacing(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def compute_stats(traces):
    """Trace-level counts for QP/CP and the step-level count for CV."""
    total = len(traces)
    return DatasetStats(
        total_traces=total,
        qp_count=total,
        cp_count=total,
        cv_count=sum(len(t.steps) for t in traces),
    )


def _sft_rows(example, subtask):
    rendered = format_question(example.instance)
    if subtask == "QP":
        yield {
            "instruction": prompts.QP_INSTRUCTION,
            "input": rendered,
            "target": json.dumps(example.question_parsing, ensure_ascii=False),
        }
    elif subtask == "CP":
        text = rendered
        if example.instance.cot:
            text = f"{rendered}\n\nCoT:\n{example.instance.cot}"
        yield {
            "instruction": prompts.CP_INSTRUCTION,
            "input": text,
            "target": json.dumps([s.statement for s in example.trace.steps], ensure_ascii=False),
        }
    else:
        conditions = json.dumps(example.question_parsing, ensure_ascii=False)
        for step in example.trace.steps:
            yield {
                "instruction": prompts.CV_VERIFY_INSTRUCTION,
                "input": (
                    f"{rendered}\n\nConditions:\n{conditions}\n\n"
                    f"Statement:\n{step.statement}\n\nEvidence:\n{step.evidence}"
                ),
                "target": verification_str(step.verification),
            }


def export_sft(records, subtask, path):
    """Write instruction/input/target triples for one subtask; returns the line count.

    QP and CP emit one line per trace; CV emits one line per step. Output
    order follows input order. The first line of the file is the format
    header.
    """
    if subtask not in SUBTASKS:
        raise ValueError(f"unknown subtask {subtask!r}; expected one of {SUBTASKS}")
    count = 0
    with replacing(path) as fh:
        fh.write(SFT_HEADER + "\n")
        for example in records:
            for row in _sft_rows(example, subtask):
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
                count += 1
    return count
