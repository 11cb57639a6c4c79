"""Three-agent inference cascade: Parser, Decomposer, Verifier.

One retrieval pass per instance feeds all four stages; the rendered
demonstration block (`prompts.demo_pairs_full`) is byte-identical across
them. Stages run strictly in order, each consuming the previous stage's
output:

    conditions  = Parser(question)
    statements  = Decomposer(question, cot)
    evidence    = Verifier(question, statements)          # evidence pass
    verdicts    = Verifier(question, statements, evidence)  # verify pass

Each stage renders its prompt (`prompts.render_prompt`, which derives the
input from the subtask) and sends it through `run_stage`: generate, extract
the JSON array. The Parser and Decomposer reprompt once when they get no
non-empty array of strings, and the evidence pass reprompts once when its
array does not have one entry per statement; the verify pass never
reprompts. A retry that parses replaces the first answer, even when it is
an empty array; the first answer stands only when the retry does not
parse. Stage failures are recorded and flagged rather than fatal;
downstream stages continue on best-effort inputs so a batch always yields
aligned, schema-valid predictions. A call that fails at the backend
(``BackendError``) ends only its own instance, which is emitted empty and
flagged ``backend_failed``; a batch in which every instance failed so
raises ``BackendError``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from . import prompts
from .backends import BackendError, ChatMessage, GenParams, fan_out
from .corpus import CoTStep, SchemaError, canonicalize_verification, save_jsonl, step_to_json
from .prompts import demo_pairs_full
from .retrieval import top_k
from .synthesis import extract_json

PARSER = "parser"
DECOMPOSER = "decomposer"
VERIFIER = "verifier"
AGENTS = (PARSER, DECOMPOSER, VERIFIER)
STAGES = ("question_parsing", "cot_parsing", "evidence", "verify")
BACKEND_FAILED = "backend_failed"

log = logging.getLogger(__name__)

REPROMPT_SUFFIX = (
    "Your previous answer could not be used: {problem}. "
    "Return only the JSON array requested, nothing else."
)


class CascadeError(Exception):
    pass


@dataclass
class StageResult:
    raw: list[str] = field(default_factory=list)
    failed: bool = False
    started: float = 0.0
    finished: float = 0.0


def _skipped():
    """A stage that did not run: failed, and zero seconds long."""
    now = time.monotonic()
    return StageResult(failed=True, started=now, finished=now)


@dataclass
class CascadeOutput:
    instance_id: str
    stages: dict[str, StageResult]
    qp: list[str] = field(default_factory=list)
    statements: list[str] = field(default_factory=list)
    evidence: list[str] = field(default_factory=list)
    verdicts: list[bool] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    error: str = ""


def run_stage(prompt, backend, params, problem=None):
    """Send one stage's prompt (`prompts.render_prompt`) and extract its JSON array.

    Returns (array or None, StageResult). When `problem(array)` names a
    defect, the prompt is sent again with REPROMPT_SUFFIX and its last line,
    the output header, appended; a retry that parses replaces the first
    answer. A stage with no parsed answer is failed; callers may tighten that.
    """
    stage = StageResult(started=time.monotonic())
    text, value = prompt, None
    for attempt in range(2):
        raw = backend.generate([ChatMessage(role="user", content=text)], params)
        stage.raw.append(raw)
        found = extract_json(raw)
        if found is not None and isinstance(found[0], list):
            value = found[0]
        defect = problem(value) if problem is not None and attempt == 0 else None
        if not defect:
            break
        header = prompt.rsplit("\n", 1)[-1]
        text = "\n".join([prompt, "", REPROMPT_SUFFIX.format(problem=defect), header])
    stage.failed = value is None
    stage.finished = time.monotonic()
    return value, stage


def _strings(value):
    """The non-blank entries of a JSON array of strings; [] for anything else."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        return []
    return [v for v in value if v.strip()]


def _no_strings(value):
    return None if _strings(value) else "no non-empty JSON array of strings found"


def _string_stage(prompt, backend, params):
    value, stage = run_stage(prompt, backend, params, _no_strings)
    items = _strings(value)
    stage.failed = not items
    return items, stage


def parse_question(instance, demos, backend, params):
    """Stage 1: extract the condition list; one reprompt, then a flagged
    empty list."""
    prompt = prompts.render_prompt("QP", prompts.QP_INSTRUCTION, demos, instance)
    return _string_stage(prompt, backend, params)


def decompose_cot(instance, demos, backend, params):
    """Stage 2: split the chain of thought into ordered statements."""
    if not instance.cot or not instance.cot.strip():
        raise CascadeError(f"instance {instance.id!r} carries no CoT text to decompose")
    prompt = prompts.render_prompt("CP", prompts.CP_INSTRUCTION, demos, instance)
    return _string_stage(prompt, backend, params)


def extract_evidence(instance, statements, demos, backend, params):
    """Stage 3: one evidence string per statement, order-aligned.

    A count mismatch triggers one reprompt naming the expected count; any
    still-missing slots are filled with empty strings and flagged.
    """
    if not statements:
        raise CascadeError("extract_evidence requires at least one statement")

    def problem(value):
        if value is not None and len(value) == len(statements):
            return None
        got = "nothing parseable" if value is None else f"{len(value)} entries"
        return f"expected exactly {len(statements)} evidence strings, got {got}"

    prompt = prompts.render_prompt(
        "CV_evidence", prompts.CV_EVIDENCE_INSTRUCTION, demos, instance, statements
    )
    value, stage = run_stage(prompt, backend, params, problem)
    evidence = [str(e) for e in (value or [])[: len(statements)]]
    flags = [f"evidence_missing:{slot + 1}" for slot in range(len(evidence), len(statements))]
    evidence += [""] * len(flags)
    return evidence, stage, flags


def verify_steps(instance, statements, evidence, demos, backend, params):
    """Stage 4: one boolean verdict per aligned (statement, evidence) pair.

    Unparseable or missing verdicts default to False and are flagged.
    """
    if not statements or len(statements) != len(evidence):
        raise CascadeError("verify_steps requires at least one statement, aligned with evidence")
    prompt = prompts.render_prompt(
        "CV_verify", prompts.CV_VERIFY_INSTRUCTION, demos, instance, statements, evidence
    )
    values, stage = run_stage(prompt, backend, params)
    verdicts = []
    flags = []
    for i in range(len(statements)):
        raw_value = values[i] if values is not None and i < len(values) else None
        try:
            verdicts.append(canonicalize_verification(raw_value))
        except SchemaError:
            verdicts.append(False)
            flags.append(f"verdict_defaulted:{i + 1}")
    return verdicts, stage, flags


class CascadePipeline:
    """Wire the three agents over one shared retrieval pass per instance.

    `backends` maps every name in AGENTS to a backend; the Verifier's runs
    both its evidence and its verify pass. `cards` maps each seed id to its
    demo cards (`prompts.seed_cards`).
    """

    def __init__(self, backends, index, cards, k=5, params=None):
        missing = [a for a in AGENTS if a not in backends]
        if missing:
            raise CascadeError(f"missing agent backends: {missing}")
        self.backends = backends
        self.index = index
        self.cards = cards
        self.k = k
        self.params = params or GenParams()

    def run(self, instance):
        try:
            return self._run(instance)
        except BackendError as exc:
            log.warning("cascade failed for %s: %s", instance.id, exc)
            return CascadeOutput(
                instance_id=instance.id,
                stages={name: _skipped() for name in STAGES},
                flags=[BACKEND_FAILED],
                error=str(exc),
            )

    def _run(self, instance):
        hits = top_k(self.index, instance.question, self.k, exclude={instance.id})
        demos = demo_pairs_full(hits, self.cards)
        flags = []

        qp, qp_stage = parse_question(instance, demos, self.backends[PARSER], self.params)
        if qp_stage.failed:
            flags.append("parser_failed")

        statements, cp_stage = decompose_cot(
            instance, demos, self.backends[DECOMPOSER], self.params
        )
        if cp_stage.failed:
            flags.append("decomposer_failed")

        if statements:
            evidence, ev_stage, ev_flags = extract_evidence(
                instance, statements, demos, self.backends[VERIFIER], self.params
            )
            flags.extend(ev_flags)
            if ev_stage.failed:
                flags.append("evidence_failed")
            verdicts, vf_stage, vf_flags = verify_steps(
                instance, statements, evidence, demos, self.backends[VERIFIER], self.params
            )
            flags.extend(vf_flags)
            if vf_stage.failed:
                flags.append("verify_failed")
        else:
            evidence, verdicts = [], []
            ev_stage, vf_stage = _skipped(), _skipped()
            flags.append("no_statements")

        return CascadeOutput(
            instance_id=instance.id,
            qp=qp,
            statements=statements,
            evidence=evidence,
            verdicts=verdicts,
            stages=dict(zip(STAGES, (qp_stage, cp_stage, ev_stage, vf_stage))),
            flags=flags,
        )

    def run_batch(self, instances):
        # every instance starts with the Parser; by default all agents share its backend
        outputs = fan_out(self.backends[PARSER], self.run, instances)
        if outputs and all(BACKEND_FAILED in o.flags for o in outputs):
            raise BackendError(
                f"all {len(outputs)} instances failed at the backend; first: {outputs[0].error}"
            )
        outputs.sort(key=lambda o: o.instance_id)
        return outputs


def output_to_prediction(output):
    """Submission-schema record: question_parsing plus cot_parsing steps."""
    return {
        "id": output.instance_id,
        "question_parsing": list(output.qp),
        "cot_parsing": [
            step_to_json(CoTStep(statement, evidence, verdict))
            for statement, evidence, verdict in zip(
                output.statements, output.evidence, output.verdicts
            )
        ],
    }


def write_predictions(path, outputs):
    save_jsonl(path, (output_to_prediction(o) for o in outputs))
