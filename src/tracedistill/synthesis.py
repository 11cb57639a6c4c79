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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import prompts
from .backends import ChatMessage, GenParams
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
)
from .prompts import demo_pairs_qp, demo_pairs_ucot, question_block
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


def extract_json(raw):
    """Find the longest balanced JSON value in the text.

    Returns (value, char_offset) or None when no JSON value decodes.
    """
    decoder = json.JSONDecoder()
    best = None
    for i, ch in enumerate(raw):
        if ch not in "[{":
            continue
        try:
            value, end = decoder.raw_decode(raw, i)
        except (ValueError, RecursionError):  # deep nesting fails like bad JSON
            continue
        length = end - i
        if best is None or length > best[2]:
            best = (value, i, length)
    if best is None:
        return None
    return best[0], best[1]


def parse_qp(raw):
    """Parse a question-parsing completion into a condition list."""
    found = extract_json(raw)
    if found is None:
        return ParseFailure(STATUS_QP_MALFORMED, 0, "no JSON value found")
    value, start = found
    if isinstance(value, dict):
        value = _index_keys(value).get("question_parsing")
    if not isinstance(value, list):
        return ParseFailure(
            STATUS_QP_MALFORMED,
            _byte_offset(raw, start),
            "expected a JSON array of condition strings",
        )
    try:
        return parse_question_parsing(value)
    except SchemaError as exc:
        return ParseFailure(STATUS_QP_MALFORMED, _byte_offset(raw, start), str(exc))


def parse_ucot(raw):
    """Parse a UCoT completion into a ReasoningTrace.

    Accepts a bare array of step objects or an object wrapping it under
    "cot_steps"/"cot_parsing". Step keys are case-tolerant; verification is
    canonicalized. Failures carry the byte offset of the extracted value.
    """
    found = extract_json(raw)
    if found is None:
        return ParseFailure(STATUS_UCOT_MALFORMED, 0, "no JSON value found")
    value, start = found
    if isinstance(value, dict):
        keyed = _index_keys(value)
        value = keyed.get("cot_steps", keyed.get("cot_parsing"))
    if not isinstance(value, list):
        return ParseFailure(
            STATUS_UCOT_MALFORMED,
            _byte_offset(raw, start),
            "expected a JSON array of step objects",
        )
    try:
        return parse_trace(value)
    except SchemaError as exc:
        return ParseFailure(STATUS_UCOT_MALFORMED, _byte_offset(raw, start), str(exc))


def resolve_status(qp, trace):
    if isinstance(qp, ParseFailure):
        return STATUS_QP_MALFORMED
    if isinstance(trace, ParseFailure):
        return STATUS_UCOT_MALFORMED
    if len(trace.steps) < MIN_STEPS:
        return STATUS_TOO_FEW_STEPS
    return STATUS_OK


def synthesize(instance, index, seed_by_id, backend, qp_instruction=None,
               ucot_instruction=None, k=5, params=None, leave_one_out=True):
    """Generate and parse QP + UCoT annotations for one question."""
    params = params or GenParams()
    exclude = {instance.id} if leave_one_out else None
    hits = top_k(index, instance.question, k, exclude=exclude)
    qp_prompt = prompts.render(
        "QP", qp_instruction or prompts.QP_INSTRUCTION,
        demo_pairs_qp(hits, seed_by_id), question_block(instance),
    )
    ucot_prompt = prompts.render(
        "UCoT", ucot_instruction or prompts.UCOT_INSTRUCTION,
        demo_pairs_ucot(hits, seed_by_id), question_block(instance, cot=True),
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


def synthesize_batch(pool, index, seed_by_id, backend, qp_instruction=None,
                     ucot_instruction=None, k=5, params=None, leave_one_out=True,
                     workers=4):
    """Synthesize a pool concurrently; returns (records sorted by id, errors)."""
    records = []
    errors = []

    def job(instance):
        return synthesize(
            instance, index, seed_by_id, backend,
            qp_instruction=qp_instruction, ucot_instruction=ucot_instruction,
            k=k, params=params, leave_one_out=leave_one_out,
        )

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool_exec:
        futures = {pool_exec.submit(job, x): x for x in pool}
        for future, instance in futures.items():
            try:
                records.append(future.result())
            except Exception as exc:
                log.warning("synthesis failed for %s: %s", instance.id, exc)
                errors.append({"id": instance.id, "error": str(exc)})
    records.sort(key=lambda r: r.instance.id)
    errors.sort(key=lambda e: e["id"])
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
    if record.rewards is not None:
        out["rewards"] = {
            "s_few": record.rewards.s_few,
            "s_zero": record.rewards.s_zero,
            "s_avg": record.rewards.s_avg,
        }
    return out


def record_from_json(obj):
    fields = _index_keys(obj)
    instance = parse_instance(fields)
    qp = fields.get("question_parsing")
    if qp is not None:
        qp = parse_question_parsing(qp)
    steps = fields.get("cot_parsing")
    trace = parse_trace(steps) if steps is not None else None
    rewards = None
    if fields.get("rewards") is not None:
        raw = fields["rewards"]
        rewards = RewardRecord(s_few=float(raw["s_few"]), s_zero=float(raw["s_zero"]))
    status = fields.get("parse_status")
    if status not in PARSE_STATUSES:
        raise SchemaError(f"unknown parse_status {status!r}", path="parse_status")
    return SynthesizedRecord(
        instance=instance,
        qp_raw=fields.get("qp_raw", ""),
        ucot_raw=fields.get("ucot_raw", ""),
        qp=qp,
        trace=trace,
        parse_status=status,
        rewards=rewards,
        failures=list(fields.get("parse_failures", [])),
    )
