"""Retrieval-augmented synthesis of QP and UCoT annotations for pool questions.

For each unlabeled question we retrieve similar seed examples once, build a
QP prompt and a UCoT prompt that share those demonstrations, generate both
completions, and parse them strictly into the trace schema. The raw model
output is always preserved next to the parsed form so that every downstream
decision can be audited.

JSON extraction takes the longest balanced JSON value found anywhere in the
raw text, which tolerates surrounding prose and code fences without ever
attempting repair.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from . import prompts
from .backends import BackendError, ChatMessage, GenParams, fan_out
from .corpus import (
    QuestionInstance,
    ReasoningTrace,
    SchemaError,
    instance_to_json,
    parse_instance,
    parse_question_parsing,
    parse_trace,
    trace_to_json,
    _index_keys,
    _require_text,
)
from .prompts import demo_pairs_qp, demo_pairs_ucot
from .retrieval import top_k

log = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_QP_MALFORMED = "qp_malformed"
STATUS_UCOT_MALFORMED = "ucot_malformed"
STATUS_TOO_FEW_STEPS = "too_few_steps"
PARSE_STATUSES = (STATUS_OK, STATUS_QP_MALFORMED, STATUS_UCOT_MALFORMED, STATUS_TOO_FEW_STEPS)

MIN_STEPS = 2


@dataclass
class RewardRecord:
    """Reward-model scores of one record under the few-shot and zero-shot prompts."""

    s_few: float
    s_zero: float

    @property
    def s_avg(self):
        return (self.s_few + self.s_zero) / 2


@dataclass
class ParseFailure:
    code: str
    offset: int
    message: str


@dataclass
class SynthesizedRecord:
    instance: QuestionInstance
    qp_raw: str
    ucot_raw: str
    qp: list[str] | None
    trace: ReasoningTrace | None
    parse_status: str
    rewards: object = None
    failures: list[str] = field(default_factory=list)


def _byte_offset(text, char_index):
    return len(text[:char_index].encode("utf-8"))


_DECODER = json.JSONDecoder()
_OPENING = re.compile(r"[\[{]")


def extract_json(raw):
    """Find the longest balanced JSON value in the text.

    Returns (value, char_offset) or None when no JSON value decodes.
    """
    best = None
    for match in _OPENING.finditer(raw):
        i = match.start()
        try:
            value, end = _DECODER.raw_decode(raw, i)
        except (ValueError, RecursionError):  # deep nesting fails like bad JSON
            continue
        length = end - i
        if best is None or length > best[2]:
            best = (value, i, length)
    if best is None:
        return None
    return best[0], best[1]


def _parse_array(raw, code, keys, expected, parse):
    """Parse the completion's JSON array, unwrapped from the first of ``keys`` a dict holds."""
    found = extract_json(raw)
    if found is None:
        return ParseFailure(code, 0, "no JSON value found")
    value, start = found
    if isinstance(value, dict):
        keyed = _index_keys(value)
        value = next((keyed[key] for key in keys if key in keyed), None)
    message = expected
    if isinstance(value, list):
        try:
            return parse(value)
        except SchemaError as exc:
            message = str(exc)
    return ParseFailure(code, _byte_offset(raw, start), message)


def parse_qp(raw):
    """Parse a question-parsing completion into a condition list."""
    return _parse_array(
        raw, STATUS_QP_MALFORMED, ("question_parsing",),
        "expected a JSON array of condition strings", parse_question_parsing,
    )


def parse_ucot(raw):
    """Parse a UCoT completion into a ReasoningTrace.

    Accepts a bare array of step objects or an object wrapping it under
    "cot_steps"/"cot_parsing". Step keys are case-tolerant; verification is
    canonicalized. Failures carry the byte offset of the extracted value.
    """
    return _parse_array(
        raw, STATUS_UCOT_MALFORMED, ("cot_steps", "cot_parsing"),
        "expected a JSON array of step objects", parse_trace,
    )


def resolve_status(qp, trace):
    if isinstance(qp, ParseFailure):
        return STATUS_QP_MALFORMED
    if isinstance(trace, ParseFailure):
        return STATUS_UCOT_MALFORMED
    if len(trace.steps) < MIN_STEPS:
        return STATUS_TOO_FEW_STEPS
    return STATUS_OK


def synthesize(instance, index, cards, backend, qp_instruction=prompts.QP_INSTRUCTION,
               ucot_instruction=prompts.UCOT_INSTRUCTION, k=5, params=None):
    """Generate and parse QP + UCoT annotations for one question.

    ``cards`` maps each seed id to its demo cards (``prompts.seed_cards``).
    """
    params = params or GenParams()
    hits = top_k(index, instance.question, k, exclude={instance.id})
    qp_prompt = prompts.render_prompt("QP", qp_instruction, demo_pairs_qp(hits, cards), instance)
    ucot_prompt = prompts.render_prompt(
        "UCoT", ucot_instruction, demo_pairs_ucot(hits, cards), instance
    )
    qp_raw = backend.generate([ChatMessage(role="user", content=qp_prompt)], params)
    ucot_raw = backend.generate([ChatMessage(role="user", content=ucot_prompt)], params)
    qp = parse_qp(qp_raw)
    trace = parse_ucot(ucot_raw)
    status = resolve_status(qp, trace)
    failures = []
    for result in (qp, trace):
        if isinstance(result, ParseFailure):
            failures.append(f"{result.code}@{result.offset}: {result.message}")
    return SynthesizedRecord(
        instance=instance,
        qp_raw=qp_raw,
        ucot_raw=ucot_raw,
        qp=None if isinstance(qp, ParseFailure) else qp,
        trace=None if isinstance(trace, ParseFailure) else trace,
        parse_status=status,
        failures=failures,
    )


def synthesize_batch(pool, index, cards, backend, qp_instruction=prompts.QP_INSTRUCTION,
                     ucot_instruction=prompts.UCOT_INSTRUCTION, k=5, params=None):
    """Synthesize a pool concurrently; returns (records sorted by id, errors), and
    raises ``BackendError`` when every question failed at the backend."""

    def job(instance):
        try:
            return synthesize(
                instance, index, cards, backend,
                qp_instruction=qp_instruction, ucot_instruction=ucot_instruction,
                k=k, params=params,
            ), None
        except BackendError as exc:
            log.warning("synthesis failed for %s: %s", instance.id, exc)
            return None, {"id": instance.id, "error": str(exc)}

    results = fan_out(backend, job, pool)
    records = sorted((r for r, _ in results if r is not None), key=lambda r: r.instance.id)
    errors = sorted((e for _, e in results if e is not None), key=lambda e: e["id"])
    if errors and not records:
        raise BackendError(f"every question failed at the backend; first: {errors[0]['error']}")
    return records, errors


def record_to_json(record):
    out = instance_to_json(record.instance)
    out["qp_raw"] = record.qp_raw
    out["ucot_raw"] = record.ucot_raw
    out["question_parsing"] = list(record.qp) if record.qp is not None else None
    out["cot_parsing"] = trace_to_json(record.trace) if record.trace is not None else None
    out["parse_status"] = record.parse_status
    if record.failures:
        out["parse_failures"] = list(record.failures)
    return out


def record_from_json(fields):
    """A ``SynthesizedRecord`` from one record of ``synthesized.jsonl``, keys normalised.
    An ``ok`` record carries both parses, at least ``MIN_STEPS`` steps and the
    non-blank ``ucot_raw`` that filter scores."""
    instance = parse_instance(fields)
    qp = fields.get("question_parsing")
    if qp is not None:
        qp = parse_question_parsing(qp)
    steps = fields.get("cot_parsing")
    trace = parse_trace(steps) if steps is not None else None
    failures = fields.get("parse_failures", [])
    if not isinstance(failures, list):
        raise SchemaError("expected a JSON array", path="parse_failures")
    status = fields.get("parse_status")
    if status not in PARSE_STATUSES:
        raise SchemaError(f"unknown parse_status {status!r}", path="parse_status")
    ok = status == STATUS_OK
    for path, value in (("question_parsing", qp), ("cot_parsing", trace)):
        if ok and value is None:
            raise SchemaError("required when parse_status is ok", path=path)
    if ok and len(trace.steps) < MIN_STEPS:
        raise SchemaError(
            f"must hold at least {MIN_STEPS} steps when parse_status is ok", path="cot_parsing"
        )
    return SynthesizedRecord(
        instance=instance,
        qp_raw=_require_text(fields.get("qp_raw", ""), "qp_raw", allow_blank=True),
        ucot_raw=_require_text(fields.get("ucot_raw", ""), "ucot_raw", allow_blank=not ok),
        qp=qp,
        trace=trace,
        parse_status=status,
        failures=list(failures),
    )
