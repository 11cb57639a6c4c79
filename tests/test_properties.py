"""Property tests: the parsers of model output never raise on any text.

`extract_json`, `parse_qp` and `parse_ucot` read whatever a model returned,
so every input must end in a value or a `ParseFailure`;
`canonicalize_verification` must end in a bool or a `SchemaError`.
`prompts._dump` writes every value byte for byte as `json.dumps` with
`indent=2` does, on its fast path for lists of strings and off it. Eval's
exact matching (`normalize_text`, `match_sets`, `match_steps`) counts what
a `str.translate` normaliser and `Counter` intersections count, under every
policy. `prompts.output_header` and `prompts.statement_count` read back
what `render_prompt` and `reprompt` wrote, whatever the question and
statements hold, and `MockBackend` answers a Verifier prompt with one entry
per statement.
"""

import itertools
import json
import string
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracedistill import prompts
from tracedistill.backends import ChatMessage, GenParams, MockBackend
from tracedistill.corpus import (
    QuestionInstance,
    ReasoningTrace,
    SchemaError,
    canonicalize_verification,
)
from tracedistill.evalharness import MatchPolicy, match_sets, match_steps, normalize_text
from tracedistill.prompts import _dump
from tracedistill.synthesis import ParseFailure, extract_json, parse_qp, parse_ucot

# keys the parsers look for, mixed with arbitrary ones, so the schema paths run
KEYS = st.one_of(
    st.sampled_from(
        ["statement", "Evidence", "verification", "question_parsing", "cot_steps", "cot_parsing"]
    ),
    st.text(max_size=8),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from(["True", "False", "true", "false", "yes"]),
    st.text(max_size=20),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(KEYS, children, max_size=5)
    ),
    max_leaves=25,
)
RAW = st.one_of(
    st.text(),
    st.tuples(st.text(max_size=20), JSON_VALUES, st.text(max_size=20)).map(
        lambda parts: parts[0] + json.dumps(parts[1]) + parts[2]
    ),
)

SETTINGS = settings(max_examples=200, deadline=None)

# prompt text that could mislead a reader of the layout: brackets, quotes, newlines,
# characters outside the BMP and the statements block's own label
PROMPT_TEXT = st.lists(
    st.one_of(
        st.text(st.characters(codec="utf-8"), max_size=6),
        st.sampled_from(["[", "]", '"', "\n", "\n\nStatements:\n", '["a", "b"]', "\U0001f9e9"]),
    ),
    max_size=6,
).map("".join)
INSTRUCTIONS = {
    "QP": prompts.QP_INSTRUCTION,
    "UCoT": prompts.UCOT_INSTRUCTION,
    "CP": prompts.CP_INSTRUCTION,
    "CV_evidence": prompts.CV_EVIDENCE_INSTRUCTION,
    "CV_verify": prompts.CV_VERIFY_INSTRUCTION,
}


@SETTINGS
@given(
    question=PROMPT_TEXT,
    cot=PROMPT_TEXT,
    demo=st.tuples(PROMPT_TEXT, PROMPT_TEXT),
    steps=st.lists(st.tuples(PROMPT_TEXT, PROMPT_TEXT), min_size=1, max_size=8),
)
def test_prompt_readers_and_the_mock_read_back_what_was_rendered(question, cot, demo, steps):
    instance = QuestionInstance("q", question, ["[A]", "Statements:"], "A", cot or None)
    statements = [statement for statement, _ in steps]
    evidence = [found for _, found in steps]
    backend = MockBackend()
    for subtask, instruction in INSTRUCTIONS.items():
        prompt = prompts.render_prompt(subtask, instruction, [demo], instance, statements, evidence)
        retry = prompts.reprompt(prompt, f"expected exactly {len(steps)} evidence strings")
        for text in (prompt, retry):
            assert prompts.output_header(text) == text.rsplit("\n", 1)[-1]
            assert prompts.output_header(text) == prompts.OUTPUT_HEADERS[subtask]
            if subtask in ("CV_evidence", "CV_verify"):
                assert prompts.statement_count(text) == len(statements)
                answer = backend.generate([ChatMessage("user", text)], GenParams())
                assert len(json.loads(answer)) == len(statements)


@SETTINGS
@given(RAW)
def test_extract_json_finds_a_value_at_an_opening_bracket_or_nothing(raw):
    found = extract_json(raw)
    if found is not None:
        _, i = found
        assert raw[i] in "[{"


@SETTINGS
@given(RAW)
def test_parsers_return_a_value_or_a_parse_failure(raw):
    qp = parse_qp(raw)
    assert isinstance(qp, (list, ParseFailure))
    trace = parse_ucot(raw)
    assert isinstance(trace, (ReasoningTrace, ParseFailure))


@SETTINGS
@given(JSON_VALUES)
def test_canonicalize_verification_is_a_bool_or_a_schema_error(value):
    try:
        assert isinstance(canonicalize_verification(value), bool)
    except SchemaError:
        pass


def _extract_json_reference(raw):
    """``extract_json`` as it stood before its scan used a regex, kept as the reference."""
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


def _mutate(parts):
    """Cut, insert or duplicate one character of serialized JSON, so it is nearly JSON."""
    text, at, mode, char = parts
    at %= len(text) + 1
    if mode == 0:
        return text[:at] + text[at + 1 :]
    if mode == 1:
        return text[:at] + char + text[at:]
    return text[:at] + text[at:][:1] * 2 + text[at + 1 :]


BRACKETS = '[]{}",: '
# values whose strings are mostly brackets and quotes, so an opening bracket
# inside one value can start a longer value that runs past its end
BRACKETED_LEAVES = st.one_of(
    st.text(alphabet=BRACKETS + "1a", max_size=6), st.sampled_from("[{"), st.integers(0, 9)
)
BRACKETED_VALUES = st.recursive(
    BRACKETED_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(alphabet=BRACKETS + "a", max_size=3), children, max_size=3),
    ),
    max_leaves=8,
)
NEAR_JSON = st.lists(
    st.one_of(
        RAW,
        st.one_of(JSON_VALUES, BRACKETED_VALUES).map(
            lambda value: json.dumps(value, ensure_ascii=False)
        ),
        st.tuples(
            st.one_of(JSON_VALUES, BRACKETED_VALUES).map(json.dumps),
            st.integers(min_value=0),
            st.integers(0, 2),
            st.sampled_from(BRACKETS),
        ).map(_mutate),
        st.text(alphabet=BRACKETS + "0123456789-.eEtrufalsnNI\\\n", max_size=40),
        st.tuples(st.integers(0, 300), st.integers(0, 300)).map(lambda n: "[" * n[0] + "]" * n[1]),
        # a value, then what closes a value opened by a bracket inside its strings
        st.tuples(
            st.lists(BRACKETED_LEAVES, min_size=1, max_size=3).map(json.dumps),
            st.sampled_from(['"]', ' "]', '"]]', '": 1}']),
        ).map("".join),
    ),
    max_size=4,
).map("".join)


@SETTINGS
@given(NEAR_JSON)
@example('["[", 1] "]')  # the value at offset 2 outruns the one at offset 0
def test_extract_json_matches_the_reference_scan(raw):
    # repr, not ==, so a NaN or a -0.0 value must match too
    assert repr(extract_json(raw)) == repr(_extract_json_reference(raw))


class Label(str):
    """A ``str`` subclass: ``_dump`` leaves it to ``json.dumps``."""


# what the string encoder escapes or passes through: quotes, backslashes, control
# characters, line separators, non-BMP characters and lone surrogates
AWKWARD = st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001f600", "\ud800", "\udfff"]
)
STRINGS = st.text(alphabet=st.one_of(AWKWARD, st.characters()), max_size=12)
DUMPED = st.one_of(
    st.lists(STRINGS, max_size=6),
    st.lists(STRINGS.map(Label), min_size=1, max_size=3),
    st.lists(st.one_of(STRINGS, STRINGS.map(Label), JSON_VALUES), max_size=4),
    JSON_VALUES,
)


@SETTINGS
@given(DUMPED)
@example([])
@example([""])
@example(["", ""])
@example({"statement": "a", "evidence": "b"})
@example(1.5)
def test_dump_writes_what_json_dumps_writes(value):
    assert _dump(value) == json.dumps(value, ensure_ascii=False, indent=2)


def test_dump_joins_a_list_of_strings_without_json_dumps(monkeypatch):
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", pure_python_encoder)
    assert _dump(["a", 'say "b"']) == '[\n  "a",\n  "say \\"b\\""\n]'


def _normalize_reference(text, policy):
    if policy.lowercase:
        text = text.lower()
    if policy.strip_punctuation:
        text = text.translate(str.maketrans("", "", string.punctuation))
    if policy.collapse_whitespace:
        text = " ".join(text.split())
    return text


def _overlap_reference(pred, gold):
    return sum((Counter(pred) & Counter(gold)).values())


# few characters, so equal strings after normalisation are common; case, ASCII
# punctuation and non-ASCII letters, punctuation and whitespace (U+2028)
MATCH_TEXT = st.text(alphabet=st.sampled_from(list("aA .,!-\t") + ["İ", "ß", "，", "\u2028", "É"]),
                     max_size=6)
STEPS = st.lists(st.tuples(MATCH_TEXT, MATCH_TEXT, st.booleans()), max_size=5)
FLAGS = list(itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("flags", FLAGS)
@SETTINGS
@given(st.lists(MATCH_TEXT, max_size=5), st.lists(MATCH_TEXT, max_size=5), STEPS, STEPS)
@example(["İ", "ß", "a，b", "a\u2028b"], ["i̇", "SS", "ab", "a b"], [], [])
def test_exact_matching_counts_what_counters_count(flags, pred, gold, pred_steps, gold_steps):
    policy = MatchPolicy(*flags)

    def norm(text):
        return _normalize_reference(text, policy)

    for text in pred + gold:
        assert normalize_text(text, policy) == norm(text)
    tp = _overlap_reference(map(norm, pred), map(norm, gold))
    assert match_sets(pred, gold, policy) == (tp, len(pred) - tp, len(gold) - tp)

    def keys(steps):
        return [(norm(stmt), norm(evid), verif) for stmt, evid, verif in steps]

    pred_keys, gold_keys = keys(pred_steps), keys(gold_steps)
    assert match_steps(pred_steps, gold_steps, policy) == tuple(
        _overlap_reference([k[:width] for k in pred_keys], [k[:width] for k in gold_keys])
        for width in (1, 2, 3)
    )
