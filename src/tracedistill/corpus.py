"""Data model and file I/O for reasoning-trace datasets.

Every dataset file the package reads (seed, pool, synthesized and filtered
records, predictions and gold) goes through ``read_records``, which holds
the one file rule: a file is UTF-8, and is either JSON lines (blank lines
skipped) or one top-level JSON array. Each record is an object with an
``id`` unique within its file; its keys are normalised once and the fields
handed to the reader's own ``parse``. JSON lines are read, decoded and
parsed one line at a time, so a file is never held beside its records; only
a file whose first non-blank line opens an array is read whole. The first
defect in file order (bad JSON, nesting too deep to decode, a line that is
not UTF-8, a record that is not an object, a missing or duplicate id, a
field ``parse`` rejects) is a ``SchemaError`` naming the file, the line and
the record. A file with no records reads as ``[]``; readers that need
records raise ``EmptyDatasetError`` on it. ``sha256_file`` hashes a file
64 KiB at a time, for manifests and the config hash.
Canonical record fields:

    id                unique identifier within the file
    question          problem statement text
    options           answer-choice texts, labelled "A".. by position
    answer            optional gold choice label
    cot               optional free-text chain of thought
    question_parsing  list of extracted condition strings
    cot_parsing       list of {statement, evidence, verification} steps

Step keys are accepted in any capitalisation ("Statement" == "statement")
and verification is accepted as a JSON boolean or a "True"/"False" string;
emission always uses lowercase keys and the string form. An SFT export
file is the `#sft-v2` header line, then one instruction/input/target row
per line, each built by ``prompts.sft_rows``. Every output, stats and
manifest file the package writes goes through ``replacing``, so a write
that fails leaves the previous file as it was.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from . import prompts

CHOICE_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
SFT_HEADER = "#sft-v2"
SUBTASKS = ("QP", "CP", "CV", "CV_evidence")
HASH_BLOCK = 1 << 16


class DatasetError(Exception):
    """Base class for dataset ingestion problems."""


class EmptyDatasetError(DatasetError):
    pass


class SchemaError(DatasetError):
    """A record violated the dataset schema.

    Carries the bare message, the field path (e.g. "steps[1].evidence") and,
    when known, the file, line number and index of the offending record.
    """

    def __init__(self, message, path="", file=None, line=None, record=None):
        self.message = message
        self.path = path
        where = [f"{name} {n}" for name, n in (("line", line), ("record", record)) if n is not None]
        parts = [str(file)] if file is not None else []
        parts += [", ".join(where)] if where else []
        parts += [path] if path else []
        super().__init__(": ".join(parts + [message]))

    def at(self, file, line, record):
        return SchemaError(self.message, path=self.path, file=file, line=line, record=record)


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


# every record of a file repeats the same few keys; the bound keeps a file of
# distinct keys from growing the memo. Keys come from JSON objects, so all are
# ``str`` and none collides with an equal key of another type (1, 1.0, True).
@lru_cache(maxsize=256)
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
    """A bare question instance; annotations are ignored."""
    ident = _require_text(str(fields["id"]), "id")
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


def parse_seed_record(fields):
    """Parse one fully-annotated record into a SeedExample."""
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


def read_records(path, parse):
    """``parse(fields)`` of each record in the dataset file ``path``, in file order.

    ``fields`` is the record object with its keys normalised. The file rule
    is the module docstring's; the first defect in file order is a
    ``SchemaError`` naming ``path``, the line (in an array file, only the
    JSON error's) and the record.
    """
    records = []
    seen = set()
    with open(path, "rb") as fh:
        for line_no, text in _json_texts(fh, path):
            try:
                value = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"invalid JSON: {exc.msg}", file=path, line=(line_no or 1) + exc.lineno - 1
                ) from None
            except RecursionError:
                raise SchemaError("JSON nested too deeply", file=path, line=line_no) from None
            for obj in value if line_no is None else (value,):
                try:
                    if not isinstance(obj, dict):
                        raise SchemaError("record must be a JSON object")
                    fields = _index_keys(obj)
                    if "id" not in fields:
                        raise SchemaError("missing required field", path="id")
                    ident = str(fields["id"])
                    if ident in seen:
                        raise SchemaError(f"duplicate id {ident!r}", path="id")
                    seen.add(ident)
                    records.append(parse(fields))
                except SchemaError as exc:
                    raise exc.at(path, line_no, len(records)) from None
    return records


def _json_texts(fh, path):
    """(line number, text) of each non-blank line of the open dataset file ``fh``,
    one line held at a time; or, when the first non-blank line opens a top-level
    array, one (None, the whole file)."""
    first = True
    for line_no, raw in enumerate(fh, start=1):
        line = _decoded(raw, path, line_no)
        if not line.strip():
            continue
        if first and line.lstrip().startswith("["):
            fh.seek(0)
            yield None, "".join(_decoded(each, path, n) for n, each in enumerate(fh, start=1))
            return
        first = False
        yield line_no, line.removesuffix("\n")


def _decoded(raw, path, line_no):
    """Line ``line_no`` of the file ``path`` as text; a line that is not UTF-8 is a
    ``SchemaError`` naming it."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc.reason}", file=path, line=line_no) from None


def require_records(records, path):
    """``records``, or an ``EmptyDatasetError`` when the file ``path`` held none."""
    if not records:
        raise EmptyDatasetError(f"{path}: dataset file has no records")
    return records


def load_seed(path):
    """Load a fully-annotated dataset (question_parsing + cot_parsing required)."""
    return require_records(read_records(path, parse_seed_record), path)


def load_questions(path):
    """Load bare question instances (pool / test files); annotations are ignored."""
    return require_records(read_records(path, parse_instance), path)


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


def sha256_file(path):
    """The hex sha256 of the file ``path``, read 64 KiB at a time."""
    digest = hashlib.sha256()
    block = bytearray(HASH_BLOCK)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(memoryview(block)[:size])
    return digest.hexdigest()


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


def export_sft(records, subtask, path):
    """Write one subtask's ``prompts.sft_rows`` of ``records``; returns the line count.

    QP, CP and CV_evidence emit one line per trace; CV emits one line per
    step. Output order follows input order, under the format header.
    """
    if subtask not in SUBTASKS:
        raise ValueError(f"unknown subtask {subtask!r}; expected one of {SUBTASKS}")
    count = 0
    with replacing(path) as fh:
        fh.write(SFT_HEADER + "\n")
        for example in records:
            for row in prompts.sft_rows(example, subtask):
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
                count += 1
    return count
