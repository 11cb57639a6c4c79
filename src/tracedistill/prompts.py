"""Instruction templates, and the one module that knows a prompt's text layout.

Rendered prompts use ###Instruction### / ###Examples### / ###Input###
section markers. `render_prompt` builds every subtask prompt from the
subtask, an instruction, demonstration cards and the instance; the last
line of every rendered prompt is the output header for the artifact being
requested (e.g. "Question Parsing:"). Only this module reads the layout back:
`output_header` is the mock backend's template cue, `statement_count` sizes
its Verifier answers, and `reprompt` builds the cascade's second try.

The subtask alone decides what the input block shows (`_query`): the
question with its choices; its CoT for UCoT and CP; the statements for both
Verifier passes; the evidence for the verify pass. A card is an (input,
output) pair of text blocks for one retrieved seed example, its input built
by the same rule: `demo_pairs_qp` and `demo_pairs_ucot` feed synthesis and
reward scoring, and `demo_pairs_full` is the block every cascade stage
shares byte for byte. `seed_cards` renders each seed's three cards once, so
a command that builds it up front only looks cards up per prompt. The
induction meta-prompts (reverse and judge) live here too, and so does
`sft_rows`: an SFT row is a cascade stage's instruction, the `input_block`
that ends its prompts, and as target the gold block that stage parses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring

from . import corpus

SECTION_INSTRUCTION = "###Instruction###"
SECTION_EXAMPLES = "###Examples###"
SECTION_INPUT = "###Input###"

# Output headers, one per subtask. The final line of a rendered prompt.
OUTPUT_HEADERS = {
    "QP": "Question Parsing:",
    "UCoT": "CoT Steps:",
    "CP": "Statements:",
    "CV_evidence": "Evidence:",
    "CV_verify": "Verdicts:",
}

QP_INSTRUCTION = (
    "Extract the constraints and key details from a problem description, "
    "ignoring any specific questions or answer choices.\n\n"
    "Focus on the rules or conditions given that are necessary to solve the "
    "problem, and extract these in a clear, descriptive list.\n\n"
    "Input: A textual problem or scenario containing multiple rules or "
    "conditions within a specific context.\n"
    "Output: An ordered JSON array of extracted conditions and essential "
    "details needed to address the problem stated in the input. Each "
    "extracted condition should be clearly and concisely formatted, "
    "capturing only the facts necessary for determining the problem's "
    "solution."
)

UCOT_INSTRUCTION = (
    "The goal is to systematically dissect the problem using logical "
    "reasoning, providing detailed evidence for each derived statement, and "
    "verifying the correctness of these statements against the given "
    "problem conditions.\n\n"
    "- For each condition or rule, analyze its implications step by step.\n"
    "- Provide verification for each logical statement using evidence from "
    "the given problem.\n"
    "- Ensure that each step follows logically from the previous, with "
    "clear conclusions and validations.\n\n"
    "Output: A JSON array of steps, each an object with keys \"statement\", "
    "\"evidence\", and \"verification\"."
)

DOUBLE_QUOTE_NOTICE = (
    "**Notice:** The JSON output must use **double quotes** (\") for all "
    "keys and string values, as required by JSON syntax."
)

CP_INSTRUCTION = (
    "You are an expert in logical reasoning and structural analysis. Your "
    "task is to identify and extract all distinct statements from the given "
    "question conditions and chain-of-thought (CoT) content.\n\n"
    "- Extract explicitly stated and logically implied statements within "
    "the context.\n"
    "- Each statement should be independent and clearly structured.\n"
    "- Clearly state how each constraint impacts potential solutions based "
    "on the scenario.\n\n"
    "Input: A question scenario with a set of constraints and a "
    "chain-of-thought explanation.\n"
    "Output: A JSON array of statements extracted from the given "
    "constraints and reasoning."
)

CV_EVIDENCE_INSTRUCTION = (
    "You are an expert in logical analysis and evidence validation. Your "
    "task is to identify and extract specific supporting evidence for each "
    "derived statement from the given problem conditions.\n\n"
    "- Locate precise textual or logical evidence that directly supports "
    "each statement.\n"
    "- Ensure the evidence is explicitly stated in the problem conditions "
    "or logically inferred.\n"
    "- Maintain clarity, accuracy, and relevance in evidence selection.\n\n"
    "Output: A JSON array of evidence strings, one per statement and in the "
    "same order."
)

CV_VERIFY_INSTRUCTION = (
    "You are an expert in logical reasoning and verification. Your task is "
    "to verify the logical correctness of each derived statement based on "
    "evidence from the problem context.\n\n"
    "- Assess whether each statement logically follows from the provided "
    "evidence.\n"
    "- Clearly indicate valid statements and invalid statements.\n"
    "- Do not introduce new assumptions; base verification strictly on the "
    "provided evidence.\n\n"
    "Output: A JSON array with one \"True\" or \"False\" entry per "
    "statement, in the same order."
)

# Default meta-prompt for inducing a task instruction from worked examples.
# Ships as a config default; override via InductionConfig.reverse_prompt.
REVERSE_INSTRUCTION = (
    "You are shown input-output pairs from a single task. Study the pairs "
    "and write the one instruction that, given a new input, would lead a "
    "capable assistant to produce an output in exactly the same structure.\n\n"
    "- State the task directly; do not mention the examples.\n"
    "- Describe the required output format precisely.\n"
    "- Return only the instruction text."
)

INDUCTION_HEADER = "Instruction:"

JUDGE_INSTRUCTION = (
    "You are comparing two candidate instructions by the outputs they "
    "produced on the same inputs. Judge which output set matches the gold "
    "outputs more closely in content and structure."
)

JUDGE_ANSWER_LINE = "Answer with exactly one of: A, B, tie."

REPROMPT_SUFFIX = (
    "Your previous answer could not be used: {problem}. "
    "Return only the JSON array requested, nothing else."
)
_STATEMENTS = "\n\nStatements:\n"  # the block `_query` writes for both Verifier passes
_DECODER = json.JSONDecoder()


def render_prompt(subtask, instruction, demos, instance, statements=None, evidence=None):
    """The full prompt for one subtask; its input block is ``_query``'s.

    ``demos`` is a list of (input_block, output_block) strings, already
    rendered, in the order they should appear. UCoT prompts carry the
    double-quote notice; an unknown subtask is a ``KeyError``.
    """
    parts = [SECTION_INSTRUCTION, instruction.strip()]
    if subtask == "UCoT":
        parts += ["", DOUBLE_QUOTE_NOTICE]
    if demos:
        parts += ["", SECTION_EXAMPLES]
        for demo_in, demo_out in demos:
            parts += ["", demo_in.strip(), "", demo_out.strip()]
    parts += ["", input_block(subtask, instance, statements, evidence)]
    return "\n".join(parts)


def input_block(subtask, instance, statements=None, evidence=None):
    """The ###Input### marker, ``_query``'s block and the output header."""
    query = _query(subtask, instance, statements, evidence).strip()
    return "\n".join([SECTION_INPUT, "", query, "", OUTPUT_HEADERS[subtask]])


def _dump(value):
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2)`` writes it.

    A non-empty list of plain strings, such as the statements and evidence
    of every Verifier query, is joined here from the C string encoder that
    ``json.dumps`` itself uses for each string, in a quarter of the time:
    ``indent`` makes ``json.dumps`` build its text in pure Python, from
    nested functions that refer to each other, so each call also leaves a
    reference cycle for the garbage collector. Any other value, a ``str``
    subclass included, goes through ``json.dumps``.
    """
    if type(value) is list and value and all(type(item) is str for item in value):
        return "[\n  " + ",\n  ".join(map(encode_basestring, value)) + "\n]"
    return json.dumps(value, ensure_ascii=False, indent=2)


def _cot_suffix(instance):
    return f"\n\nCoT:\n{instance.cot}" if instance.cot else ""


def _query(subtask, instance, statements=None, evidence=None):
    """What a ``subtask`` prompt's input shows: the question with its choices,
    then its CoT (UCoT, CP), the statements (both CV passes) and the
    evidence (CV_verify)."""
    text = f"Question:\n{corpus.format_question(instance)}"
    if subtask in ("UCoT", "CP"):
        text += _cot_suffix(instance)
    if subtask in ("CV_evidence", "CV_verify"):
        text += f"{_STATEMENTS}{_dump(statements)}"
    if subtask == "CV_verify":
        text += f"\n\nEvidence:\n{_dump(evidence)}"
    return text


def output_header(prompt):
    """A prompt's output header: its last non-blank line, stripped."""
    return prompt.rstrip().rpartition("\n")[2].strip()


def statement_count(prompt, missing=None):
    """The length of the statements block ``_query`` writes for both Verifier passes, or
    ``missing`` without one; ``_dump`` escapes every newline, so its label comes last."""
    start = prompt.rfind(_STATEMENTS)
    try:
        value = _DECODER.raw_decode(prompt, start + len(_STATEMENTS))[0] if start >= 0 else None
    except ValueError:
        value = None
    return len(value) if isinstance(value, list) else missing


def reprompt(prompt, problem):
    """``prompt``, a blank line, REPROMPT_SUFFIX naming ``problem``, its output header."""
    return "\n".join([prompt, "", REPROMPT_SUFFIX.format(problem=problem), output_header(prompt)])


def gold_output(example, subtask):
    """A seed example's QP condition list or UCoT steps as indented JSON."""
    if subtask == "QP":
        return _dump(example.question_parsing)
    return _dump(corpus.trace_to_json(example.trace))


def sft_rows(example, subtask):
    """An example's rows for export file ``subtask``, targets dumped as ``gold_output``
    does: one row for QP, CP and CV_evidence, one CV_verify row per step for CV."""
    instance, steps = example.instance, example.trace.steps
    statements = [step.statement for step in steps]
    if subtask == "QP":
        rows = [(QP_INSTRUCTION, input_block("QP", instance), example.question_parsing)]
    elif subtask == "CP":
        rows = [(CP_INSTRUCTION, input_block("CP", instance), statements)]
    elif subtask == "CV_evidence":
        block = input_block("CV_evidence", instance, statements)
        rows = [(CV_EVIDENCE_INSTRUCTION, block, [step.evidence for step in steps])]
    else:
        rows = [(CV_VERIFY_INSTRUCTION,
                 input_block("CV_verify", instance, [s.statement], [s.evidence]),
                 [corpus.verification_str(s.verification)]) for s in steps]
    return [{"instruction": instruction, "input": block, "target": _dump(target)}
            for instruction, block, target in rows]


def _answer_block(example, subtask):
    return f"{OUTPUT_HEADERS[subtask]}\n{gold_output(example, subtask)}"


@dataclass(frozen=True)
class Cards:
    """One seed example's QP, UCoT and full cards, each an (input, output) pair."""

    qp: tuple[str, str]
    ucot: tuple[str, str]
    full: tuple[str, str]


def _render_cards(example):
    """Render a seed example's three cards; each gold block is dumped once."""
    qp, ucot = _answer_block(example, "QP"), _answer_block(example, "UCoT")
    question = _query("QP", example.instance)
    return Cards(
        qp=(question, qp),
        ucot=(_query("UCoT", example.instance), ucot),
        full=(question, f"{qp}{_cot_suffix(example.instance)}\n\n{ucot}"),
    )


def seed_cards(seed):
    """Seed id -> `Cards` for every example of the seed set, rendered once."""
    return {e.instance.id: _render_cards(e) for e in seed}


def _cards(hits, cards):
    """The hits' cards. `cards` maps seed id to `Cards` (see `seed_cards`), or
    to the `SeedExample` itself, whose cards are then rendered on the spot."""
    found = [cards[hit.id] for hit in hits]
    return [c if isinstance(c, Cards) else _render_cards(c) for c in found]


def demo_pairs_qp(hits, cards):
    """QP cards: the question, then its conditions."""
    return [c.qp for c in _cards(hits, cards)]


def demo_pairs_ucot(hits, cards):
    """UCoT cards: the question and its CoT, then its steps."""
    return [c.ucot for c in _cards(hits, cards)]


def demo_pairs_full(hits, cards):
    """Full cards shared verbatim by every cascade stage prompt."""
    return [c.full for c in _cards(hits, cards)]


def reverse_prompt(instruction, shown, subtask):
    """Meta-prompt asking for the instruction that maps each input to its gold output.

    ``shown`` holds (seed example, its gold block for ``subtask``) pairs, in order.
    """
    parts = [SECTION_INSTRUCTION, instruction.strip(), "", SECTION_EXAMPLES]
    for example, gold in shown:
        parts += ["", _query(subtask, example.instance), "", "Output:\n" + gold]
    parts += ["", INDUCTION_HEADER]
    return "\n".join(parts)


def judge_prompt(gold_blocks, outputs_a, outputs_b):
    """Pairwise comparison of two candidates' outputs against the gold outputs."""
    return "\n".join([
        JUDGE_INSTRUCTION, "", "Gold outputs:", *gold_blocks,
        "", "Outputs A:", *outputs_a,
        "", "Outputs B:", *outputs_b,
        "", JUDGE_ANSWER_LINE,
    ])
