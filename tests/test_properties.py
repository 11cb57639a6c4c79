"""Property tests: the parsers of model output never raise on any text.

`extract_json`, `parse_qp` and `parse_ucot` read whatever a model returned,
so every input must end in a value or a `ParseFailure`;
`canonicalize_verification` must end in a bool or a `SchemaError`.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tracedistill.corpus import ReasoningTrace, SchemaError, canonicalize_verification
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
