import gc
import hashlib
import json
import math
import random
import shutil
import sqlite3
import struct
import sys
import threading
import time
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest
import requests

from tracedistill import backends as backends_module
from tracedistill import prompts
from tracedistill.backends import (
    BackendError,
    CachingBackend,
    CapabilityError,
    ChatMessage,
    ConfigError,
    GenParams,
    HttpBackend,
    BackendProfile,
    MockBackend,
    RequestsTransport,
    TransientBackendError,
    build_reward_payload,
    fan_out,
)
from tracedistill.synthesis import parse_ucot, ParseFailure

from conftest import GOLD_REWARD_ZERO, ROWID_CACHE_SETUP, cached_rows, inflated


def _user(content):
    return [ChatMessage(role="user", content=content)]


PARAMS = GenParams()


def _raw_deflate(data):
    packer = zlib.compressobj(wbits=-15)
    return packer.compress(data) + packer.flush()


def _f8(values):
    """The little-endian float64 bytes of ``values``, as an embedding row holds them."""
    return struct.pack(f"<{len(values)}d", *values)


def _set_every_row(cache_dir, row):
    with closing(sqlite3.connect(cache_dir / "calls.sqlite")) as db, db:
        return db.execute("UPDATE calls SET result = ?", (row,)).rowcount


def test_mock_generate_deterministic():
    backend = MockBackend(seed=7)
    first = backend.generate(_user("Say something.\n\nQuestion Parsing:"), PARAMS)
    second = backend.generate(_user("Say something.\n\nQuestion Parsing:"), PARAMS)
    assert first == second


def test_mock_seed_changes_output():
    messages = _user("Say something.\n\nQuestion Parsing:")
    assert MockBackend(seed=1).generate(messages, PARAMS) != MockBackend(seed=2).generate(
        messages, PARAMS
    )


def test_mock_gen_params_seed_changes_output():
    backend = MockBackend()
    messages = _user("anything\n\nInstruction:")
    a = backend.generate(messages, GenParams(seed=1))
    b = backend.generate(messages, GenParams(seed=2))
    assert a != b


def test_mock_templates_produce_parseable_structures():
    backend = MockBackend()
    qp_raw = backend.generate(_user("stuff\n\nQuestion Parsing:"), PARAMS)
    conditions = json.loads(qp_raw)
    assert isinstance(conditions, list) and all(isinstance(c, str) for c in conditions)

    ucot_raw = backend.generate(_user("stuff\n\nCoT Steps:"), PARAMS)
    trace = parse_ucot(ucot_raw)
    assert not isinstance(trace, ParseFailure)

    verdict_prompt = 'statements:\n["a", "b", "c"]\n\nVerdicts:'
    verdicts = json.loads(backend.generate(_user(verdict_prompt), PARAMS))
    assert len(verdicts) == 3
    assert all(v in ("True", "False") for v in verdicts)


def test_mock_malformed_rate_one_always_unparseable():
    backend = MockBackend(malformed_rate=1.0)
    for i in range(20):
        raw = backend.generate(_user(f"variant {i}\n\nCoT Steps:"), PARAMS)
        assert isinstance(parse_ucot(raw), ParseFailure)


def test_mock_script_matches_last_line():
    backend = MockBackend(script={"Question Parsing:": '["scripted"]'})
    raw = backend.generate(_user("Question Parsing:\n[demo]\n\nfinal query\n\nQuestion Parsing:"), PARAMS)
    assert raw == '["scripted"]'


def test_mock_queue_served_fifo():
    backend = MockBackend(queue=["one", "two"])
    assert backend.generate(_user("a\n\nInstruction:"), PARAMS) == "one"
    assert backend.generate(_user("b\n\nInstruction:"), PARAMS) == "two"
    # queue exhausted: falls back to the hash scheme
    assert backend.generate(_user("c\n\nInstruction:"), PARAMS).startswith("Work through")


def test_score_completion_bounds_and_determinism():
    backend = MockBackend()
    messages = _user("prompt")
    score = backend.score_completion(messages, "a modest completion")
    assert -100.0 <= score <= 0.0
    assert score == backend.score_completion(messages, "a modest completion")


def test_score_completion_prefix_extension_never_raises_score():
    backend = MockBackend()
    messages = _user("prompt")
    prefix = "step one is sound"
    extended = prefix + " and step two follows"
    assert backend.score_completion(messages, extended) <= backend.score_completion(
        messages, prefix
    )


def test_score_completion_empty_completion_rejected():
    with pytest.raises(ValueError):
        MockBackend().score_completion(_user("prompt"), "")


def test_embed_unit_norm_and_dim():
    backend = MockBackend(embed_dim=64)
    vec = backend.embed("any text at all")
    assert type(vec) is tuple and len(vec) == 64
    assert all(type(value) is float for value in vec)
    assert abs(math.hypot(*vec) - 1.0) <= 1e-6
    assert vec == backend.embed("any text at all")


def test_embed_custom_dimension():
    assert len(MockBackend(embed_dim=16).embed("text")) == 16


def test_reward_deterministic_and_requires_response():
    backend = MockBackend()
    context = _user("scoring context")
    assert backend.reward(context, "resp") == backend.reward(context, "resp")
    with pytest.raises(ValueError):
        backend.reward(context, "")


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage(role="robot", content="hi")
    with pytest.raises(ValueError):
        ChatMessage(role="user", content="")


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(temperature=2.5)
    with pytest.raises(ValueError):
        GenParams(temperature=-0.1)
    with pytest.raises(ValueError):
        GenParams(max_tokens=0)


def test_backend_profile_validation():
    with pytest.raises(ConfigError):
        BackendProfile(max_inflight=0)
    with pytest.raises(ConfigError):
        BackendProfile(kind="carrier-pigeon")
    with pytest.raises(ConfigError):
        BackendProfile(kind="http", endpoint="")


def test_cache_second_call_hits_no_inner_request(tmp_path):
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path)
    messages = _user("cache me\n\nQuestion Parsing:")
    first = backend.generate(messages, PARAMS)
    second = backend.generate(messages, PARAMS)
    assert first == second
    assert inner.calls["generate"] == 1
    assert backend.cache_hits == 1


def test_cache_hit_is_served_from_its_file(tmp_path):
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path / "c")
    messages = _user("read me back\n\nQuestion Parsing:")
    first = backend.generate(messages, PARAMS)
    backend.close()
    shutil.rmtree(tmp_path / "c")
    assert backend.generate(messages, PARAMS) == first
    assert inner.calls["generate"] == 2
    assert backend.cache_hits == 0


def test_no_cache_dir_means_every_call_reaches_the_backend():
    inner = MockBackend()
    backend = CachingBackend(inner)
    messages = _user("uncached\n\nQuestion Parsing:")
    assert backend.generate(messages, PARAMS) == backend.generate(messages, PARAMS)
    assert inner.calls["generate"] == 2
    assert backend.cache_hits == 0
    assert backend.cache_misses == 2


@pytest.mark.parametrize("content", ['{"result": "torn', "[]", '{"other": 1}'])
def test_unusable_cache_file_is_a_miss(tmp_path, content):
    # a reward row holds float64 bytes, so any text in it is unusable
    messages = _user("damaged")
    first = CachingBackend(MockBackend(), cache_dir=tmp_path)
    expected = first.reward(messages, "response")
    first.close()
    assert _set_every_row(tmp_path, content) == 1
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path)
    assert backend.reward(messages, "response") == expected
    assert inner.calls["reward"] == 1
    assert cached_rows(tmp_path) == [struct.pack("<d", expected)]


def test_store_connection_shared_by_many_threads(tmp_path):
    messages = [_user(f"stress {i}\n\nQuestion Parsing:") for i in range(40)]
    expected = [CachingBackend(MockBackend()).generate(m, PARAMS) for m in messages]
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path, max_inflight=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda m: backend.generate(m, PARAMS), messages * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    backend.close()
    assert got == expected * 3
    assert backend.cache_hits + backend.cache_misses == 120
    assert sorted(cached_rows(tmp_path)) == sorted(expected)
    reopened = CachingBackend(MockBackend(), cache_dir=tmp_path)
    assert [reopened.generate(m, PARAMS) for m in messages] == expected
    assert reopened.cache_hits == 40


def test_cache_persists_on_disk(tmp_path):
    messages = _user("persist me\n\nQuestion Parsing:")
    first = CachingBackend(MockBackend(), cache_dir=tmp_path / "c").generate(messages, PARAMS)
    fresh_inner = MockBackend()
    reopened = CachingBackend(fresh_inner, cache_dir=tmp_path / "c")
    assert reopened.generate(messages, PARAMS) == first
    assert sum(fresh_inner.calls.values()) == 0


def test_cache_covers_all_four_operations(tmp_path):
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path / "c")
    messages = _user("payload")
    backend.score_completion(messages, "completion")
    backend.embed("text")
    backend.reward(messages, "response")
    counts = dict(inner.calls)
    backend.score_completion(messages, "completion")
    backend.embed("text")
    backend.reward(messages, "response")
    assert dict(inner.calls) == counts


CALLS = {
    "generate": lambda backend: backend.generate(_user("parse me\n\nQuestion Parsing:"), PARAMS),
    "score": lambda backend: backend.score_completion(_user("prompt"), "completion"),
    "embed": lambda backend: backend.embed("a question"),
    "reward": lambda backend: backend.reward(_user("context"), "response"),
}


def test_cached_embedding_is_the_vector_bit_for_bit_as_float64_bytes(tmp_path):
    expected = MockBackend(embed_dim=48).embed("a question")
    first = CachingBackend(MockBackend(embed_dim=48), cache_dir=tmp_path)
    miss = first.embed("a question")
    first.close()
    inner = MockBackend(embed_dim=48)
    hit = CachingBackend(inner, cache_dir=tmp_path).embed("a question")
    assert inner.calls["embed"] == 0
    for vec in (miss, hit):
        assert type(vec) is tuple and all(type(value) is float for value in vec)
        assert _f8(vec) == _f8(expected)
    assert cached_rows(tmp_path) == [_f8(expected)]
    assert len(cached_rows(tmp_path)[0]) == 8 * 48


@pytest.mark.parametrize(
    "op, row",
    [
        ("embed", b""),
        ("embed", bytes(12)),
        ("embed", _f8([0.6, float("nan"), 0.8])),
        ("embed", _f8([float("inf")])),
        ("embed", '{"result": "abc"}'),
        ("embed", '{"result": []}'),
        ("embed", bytes(16)),
        ("embed", '{"result": [0, 0.0]}'),
        ("embed", '{"result": [[0.6, 0.8]]}'),
        ("embed", '{"result": [0.6, NaN]}'),
        ("embed", '{"result": [1e999]}'),
        ("embed", '{"result": [true, false]}'),
        ("embed", '{"result": ["0.6", "0.8"]}'),
        ("embed", '{"result": [1, 0.5]}'),
        pytest.param("embed", _f8([0.6, 0.8]), id="embed-of-another-embed-dim"),
        ("embed", None),
        ("generate", bytes(8)),
        ("generate", None),
        pytest.param("generate", _raw_deflate(b'["Condition"]')[:-2], id="generate-torn-deflate"),
        pytest.param("generate", _raw_deflate(b"\xff\xfe" * 20), id="generate-deflated-not-utf8"),
        ("reward", '{"result": NaN}'),
        ("reward", '{"result": Infinity}'),
        ("reward", '{"result": true}'),
        ("reward", '{"result": "1.5"}'),
        pytest.param("reward", '{"result": ' + "9" * 400 + "}", id="reward-int-past-float"),
        ("reward", struct.pack("<d", float("nan"))),
        ("reward", bytes(16)),
        ("reward", struct.pack("<f", 1.5)),
        ("reward", None),
        ("score", '{"result": null}'),
        ("score", '{"result": -Infinity}'),
        ("score", struct.pack("<d", float("-inf"))),
        ("score", b""),
    ],
)
def test_cached_value_the_operation_could_not_return_is_a_miss(tmp_path, op, row):
    first = CachingBackend(MockBackend(), cache_dir=tmp_path)
    expected = CALLS[op](first)
    first.close()
    written = cached_rows(tmp_path)
    assert _set_every_row(tmp_path, row) == 1
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path)
    assert CALLS[op](backend) == expected
    assert inner.calls[op] == 1
    assert backend.cache_misses == 1
    assert cached_rows(tmp_path) == written


@pytest.mark.parametrize(
    "op, row, value",
    [
        ("generate", "", ""),
        ("generate", '{"result": 5}', '{"result": 5}'),
        ("generate", '["Condition 1"]', '["Condition 1"]'),
        ("generate", _raw_deflate('["Condition é"]'.encode()), '["Condition é"]'),
        ("reward", struct.pack("<d", 3.0), 3.0),
        ("reward", bytes(8), 0.0),
        ("score", struct.pack("<d", -1.5), -1.5),
        ("embed", _f8([1.0] + [0.5] * 63), (1.0,) + (0.5,) * 63),
    ],
)
def test_cached_value_the_operation_could_return_is_a_hit(tmp_path, op, row, value):
    first = CachingBackend(MockBackend(), cache_dir=tmp_path)
    CALLS[op](first)
    first.close()
    assert _set_every_row(tmp_path, row) == 1
    inner = MockBackend()
    got = CALLS[op](CachingBackend(inner, cache_dir=tmp_path))
    assert type(got) is type(value)
    assert got == value
    assert sum(inner.calls.values()) == 0


class _WidthlessEmbedder:
    """An embedder that, as an HTTP model does, declares no ``embed_dim``."""

    model = MockBackend().model

    def embed(self, text):
        raise AssertionError("a cached vector should be served")


def test_cached_vector_of_any_length_is_a_hit_when_the_backend_declares_no_width(tmp_path):
    first = CachingBackend(MockBackend(embed_dim=8), cache_dir=tmp_path)
    expected = first.embed("a question")
    first.close()
    assert len(expected) == 8
    assert CachingBackend(_WidthlessEmbedder(), cache_dir=tmp_path).embed("a question") == expected


# sha256 over ("2", "mock-model", op, *fields), each as its 8-byte little-endian
# UTF-8 length then its UTF-8 bytes; generate's fields are the message count,
# each message's role and content, then "(0.1, 1024, None)"
GOLDEN_KEYS = {
    "generate": "6ed5bc89d5ada4bec80a38cf1e4974dd999b92c3c2101d7654d9eccff45aa02d",
    "score": "f962358ff1aa40a03c193858eb08c350b5d818ddcb37951fb06cea50c8c58ee8",
    "embed": "c227f394b29beeae331f840723a5e054db6f8f5ad1bf6e6e080031828fb1459b",
    "reward": "302a394542beb9a3fe12719e9c5293dd0d6a384be75fa9304add445f756828b2",
}


def _stored(cache_dir):
    """Every ``(key, result)`` row as stored, in key order: text keys sort before BLOB ones."""
    with closing(sqlite3.connect(cache_dir / "calls.sqlite")) as db:
        return db.execute("SELECT key, result FROM calls ORDER BY key").fetchall()


def test_each_operation_keys_its_call_by_these_bytes(tmp_path):
    for op, call in CALLS.items():
        backend = CachingBackend(MockBackend(), cache_dir=tmp_path / op)
        call(backend)
        backend.close()
        [(key, _)] = _stored(tmp_path / op)
        assert key == bytes.fromhex(GOLDEN_KEYS[op])


def _two_users(first, second):
    return [ChatMessage(role="user", content=first), ChatMessage(role="user", content=second)]


CALLS_ONE_FIELD_APART = {
    "seed-None-and-0": (
        lambda b: b.generate(_user("q"), GenParams(seed=None)),
        lambda b: b.generate(_user("q"), GenParams(seed=0)),
    ),
    "temperature-1-and-1.0": (
        lambda b: b.generate(_user("q"), GenParams(temperature=1)),
        lambda b: b.generate(_user("q"), GenParams(temperature=1.0)),
    ),
    "content-response-split": (
        lambda b: b.reward(_user("ab"), "c"),
        lambda b: b.reward(_user("a"), "bc"),
    ),
    "content-completion-split": (
        lambda b: b.score_completion(_user("ab"), "c"),
        lambda b: b.score_completion(_user("a"), "bc"),
    ),
    "swapped-message-order": (
        lambda b: b.generate(
            [ChatMessage(role="system", content="a"), ChatMessage(role="user", content="b")], PARAMS
        ),
        lambda b: b.generate(
            [ChatMessage(role="user", content="b"), ChatMessage(role="system", content="a")], PARAMS
        ),
    ),
    "one-merged-message-and-two": (
        lambda b: b.generate(_user("ab"), PARAMS),
        lambda b: b.generate(_two_users("a", "b"), PARAMS),
    ),
    "one-merged-context-and-two": (
        lambda b: b.reward(_user("ab"), "r"),
        lambda b: b.reward(_two_users("a", "b"), "r"),
    ),
    "reward-and-score": (
        lambda b: b.reward(_user("p"), "x"),
        lambda b: b.score_completion(_user("p"), "x"),
    ),
}


@pytest.mark.parametrize(
    "first, second", CALLS_ONE_FIELD_APART.values(), ids=list(CALLS_ONE_FIELD_APART)
)
def test_calls_one_field_apart_have_their_own_keys(tmp_path, first, second):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path)
    first(backend)
    second(backend)
    assert backend.cache_misses == 2
    assert len(_stored(tmp_path)) == 2


def test_key_fields_are_length_prefixed_and_cover_model_op_and_version(tmp_path, monkeypatch):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path)
    key = backend._key
    # ("ab", "c") against ("a", "bc") across role/content, then content/response
    assert key("generate", "1", "ab", "c", "p") != key("generate", "1", "a", "bc", "p")
    assert key("reward", "user", "ab", "c") != key("reward", "user", "a", "bc")
    assert key("reward", "user", "a", "r") != key("score", "user", "a", "r")
    other = CachingBackend(MockBackend(model="mock-model-2"), cache_dir=tmp_path)
    assert other._key("embed", "t") != key("embed", "t")
    before = key("embed", "t")
    monkeypatch.setattr(backends_module, "CACHE_SCHEMA_VERSION", 3)
    assert key("embed", "t") != before
    CALLS["embed"](backend)
    CALLS["embed"](other)
    assert (backend.cache_misses, other.cache_misses) == (1, 1)


def _v1_key(op, payload, model="mock-model"):
    """The hex key schema version 1 gave a call: sha256 of sorted-key JSON text."""
    blob = json.dumps(
        {"v": 1, "model": model, "op": op, "payload": payload}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _v1_messages(content):
    return [{"role": "user", "content": content}]


V1_PAYLOADS = {
    "generate": {
        "messages": _v1_messages("parse me\n\nQuestion Parsing:"),
        "params": {"temperature": 0.1, "max_tokens": 1024, "seed": None},
    },
    "score": {"messages": _v1_messages("prompt"), "completion": "completion"},
    "embed": {"text": "a question"},
    "reward": {"messages": _v1_messages("context"), "response": "response"},
}


def test_store_primed_by_schema_version_1_is_served_as_misses(tmp_path):
    expected = {op: call(CachingBackend(MockBackend())) for op, call in CALLS.items()}
    # rows as version 1 wrote them: JSON text, and an embedding's float64 bytes
    v1_rows = [
        (
            _v1_key(op, V1_PAYLOADS[op]),
            _f8(value) if op == "embed" else json.dumps({"result": value}),
        )
        for op, value in expected.items()
    ]
    with closing(sqlite3.connect(tmp_path / "calls.sqlite")) as db:
        db.executescript(backends_module.CACHE_SETUP)
        with db:
            db.executemany("INSERT INTO calls (key, result) VALUES (?, ?)", v1_rows)
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path)
    for op, call in CALLS.items():
        assert call(backend) == expected[op]
    backend.close()
    assert inner.calls == {"generate": 1, "score": 1, "embed": 1, "reward": 1}
    assert backend.cache_misses == 4
    stored = _stored(tmp_path)
    assert stored[:4] == sorted(v1_rows)
    assert [key for key, _ in stored[4:]] == sorted(bytes.fromhex(k) for k in GOLDEN_KEYS.values())


def test_completion_that_deflate_shortens_is_stored_as_its_raw_deflate_bytes(tmp_path):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path)
    text = CALLS["generate"](backend)
    backend.close()
    [(_, row)] = _stored(tmp_path)
    assert isinstance(row, bytes)
    assert len(row) < len(text.encode("utf-8"))
    assert zlib.decompress(row, -15).decode("utf-8") == text
    packer = zlib.compressobj(1, zlib.DEFLATED, -12, 2)
    assert row == packer.compress(text.encode("utf-8")) + packer.flush()
    inner = MockBackend()
    assert CALLS["generate"](CachingBackend(inner, cache_dir=tmp_path)) == text
    assert inner.calls["generate"] == 0


@pytest.mark.parametrize("text", ["", "A", "[]", "tie", "fact-9"])
def test_completion_that_deflate_would_lengthen_stays_text(tmp_path, text):
    backend = CachingBackend(MockBackend(queue=[text]), cache_dir=tmp_path)
    assert CALLS["generate"](backend) == text
    backend.close()
    assert [row for _, row in _stored(tmp_path)] == [text]
    inner = MockBackend()
    assert CALLS["generate"](CachingBackend(inner, cache_dir=tmp_path)) == text
    assert inner.calls["generate"] == 0


def test_a_new_store_keeps_each_key_once(tmp_path):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path)
    for call in CALLS.values():
        call(backend)
    backend.close()
    with closing(sqlite3.connect(tmp_path / "calls.sqlite")) as db:
        assert db.execute("SELECT type, name FROM sqlite_master").fetchall() == [
            ("table", "calls")
        ]
        with pytest.raises(sqlite3.OperationalError, match="rowid"):
            db.execute("SELECT rowid FROM calls")
    assert len(_stored(tmp_path)) == 4


def test_store_with_a_rowid_table_and_text_rows_is_served_and_kept(tmp_path):
    expected = {op: call(CachingBackend(MockBackend())) for op, call in CALLS.items()}
    first = CachingBackend(MockBackend(), cache_dir=tmp_path)
    for call in CALLS.values():
        call(first)
    first.close()
    rows = [(key, inflated(row)) for key, row in _stored(tmp_path)]
    (tmp_path / "calls.sqlite").unlink()
    with closing(sqlite3.connect(tmp_path / "calls.sqlite")) as db:
        db.executescript(ROWID_CACHE_SETUP)
        with db:
            db.executemany("INSERT INTO calls (key, result) VALUES (?, ?)", rows)
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path)
    for op, call in CALLS.items():
        assert call(backend) == expected[op]
    assert sum(inner.calls.values()) == 0
    assert backend.cache_hits == 4
    new = backend.generate(_user("not cached yet\n\nQuestion Parsing:"), PARAMS)
    backend.close()
    with closing(sqlite3.connect(tmp_path / "calls.sqlite")) as db:
        names = [name for (name,) in db.execute("SELECT name FROM sqlite_master")]
        by_rowid = db.execute("SELECT key, result FROM calls ORDER BY rowid").fetchall()
    assert names == ["calls", "sqlite_autoindex_calls_1"]
    assert by_rowid[:4] == rows
    assert inflated(by_rowid[4][1]) == new
    assert isinstance(by_rowid[4][1], bytes)


def test_a_cache_hit_does_no_json_work(tmp_path, monkeypatch):
    first = CachingBackend(MockBackend(), cache_dir=tmp_path)
    expected = {op: call(first) for op, call in CALLS.items()}
    first.close()

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit called into json")

    assert backends_module.json is json
    for owner, name in (
        (json, "dumps"),
        (json, "loads"),
        (json.JSONEncoder, "encode"),
        (json.JSONDecoder, "decode"),
        (json.JSONDecoder, "raw_decode"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    inner = MockBackend()
    backend = CachingBackend(inner, cache_dir=tmp_path)
    got = {op: call(backend) for op, call in CALLS.items()}
    monkeypatch.undo()
    assert sum(inner.calls.values()) == 0
    assert backend.cache_hits == 4
    assert got["generate"] == expected["generate"]
    for op in ("score", "reward"):
        assert type(got[op]) is float
        assert struct.pack("<d", got[op]) == struct.pack("<d", expected[op])
    assert type(got["embed"]) is tuple
    assert _f8(got["embed"]) == _f8(expected["embed"])


def test_cache_key_distinguishes_models():
    a = CachingBackend(MockBackend(model="model-a"))
    b = CachingBackend(MockBackend(model="model-b"))
    messages = _user("same payload\n\nInstruction:")
    assert a.generate(messages, PARAMS) != b.generate(messages, PARAMS)


def test_retries_are_idempotent():
    messages = _user("flaky\n\nQuestion Parsing:")
    clean = CachingBackend(MockBackend()).generate(messages, PARAMS)
    flaky_inner = MockBackend(transient_failures=2)
    flaky = CachingBackend(flaky_inner, retry_budget=2)
    assert flaky.generate(messages, PARAMS) == clean
    assert flaky_inner.calls["generate"] == 3


def test_retry_budget_exhaustion_is_backend_error():
    inner = MockBackend(transient_failures=5)
    backend = CachingBackend(inner, retry_budget=2)
    with pytest.raises(BackendError):
        backend.generate(_user("flaky\n\nQuestion Parsing:"), PARAMS)


def test_stats_count_retries_and_transient_failures():
    backend = CachingBackend(MockBackend(transient_failures=4), retry_budget=2)
    with pytest.raises(BackendError):
        backend.generate(_user("flaky\n\nQuestion Parsing:"), PARAMS)
    backend.generate(_user("flaky\n\nQuestion Parsing:"), PARAMS)
    backend.generate(_user("steady\n\nQuestion Parsing:"), PARAMS)
    stats = backend.stats()
    # three failed attempts, then one failure retried once; the last call needs no retry
    assert (stats["transient_failures"], stats["retries"]) == (4, 3)
    assert (stats["cache_misses"], stats["inner_calls"]["generate"]) == (2, 6)


def test_inflight_bound_respected_under_concurrency():
    inner = MockBackend(latency=0.01)
    backend = CachingBackend(inner, max_inflight=2)
    threads = [
        threading.Thread(
            target=backend.generate, args=(_user(f"load {i}\n\nQuestion Parsing:"), PARAMS)
        )
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert inner.max_inflight_observed <= 2
    assert inner.calls["generate"] == 8


def test_capability_error_propagates_uncached():
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    backend = CachingBackend(HttpBackend(profile, transport=lambda url, payload: {}))
    with pytest.raises(CapabilityError):
        backend.score_completion(_user("prompt"), "completion")


def test_a_score_the_wrapped_backend_cannot_serve_takes_no_key_store_worker_or_slot(tmp_path):
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    backend = CachingBackend(
        HttpBackend(profile, transport=lambda url, payload: {}), cache_dir=tmp_path, max_inflight=4
    )
    threads = set()

    def job(item):
        threads.add(threading.get_ident())
        with pytest.raises(CapabilityError, match="remote cannot score completions"):
            backend.score_completion(_user(f"prompt {item}"), "completion")

    fan_out(backend, job, range(40))
    assert len(threads) == 1
    assert backend.peak_inflight == 0
    assert not (tmp_path / "calls.sqlite").exists()
    assert (backend.cache_hits, backend.cache_misses) == (0, 0)


def test_http_generate_parses_chat_response():
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    calls = []

    def transport(url, payload):
        calls.append((url, payload))
        return {"choices": [{"message": {"content": "hello"}}]}

    backend = HttpBackend(profile, transport=transport)
    assert backend.generate(_user("hi"), PARAMS) == "hello"
    url, payload = calls[0]
    assert url.endswith("/chat/completions")
    assert payload["model"] == "remote"
    assert payload["messages"][0]["role"] == "user"


def test_http_null_chat_content_is_backend_error_and_not_cached(tmp_path):
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    calls = []

    def transport(url, payload):
        calls.append(url)
        return {"choices": [{"message": {"content": None}}]}

    for attempt in (1, 2):
        backend = CachingBackend(HttpBackend(profile, transport=transport), cache_dir=tmp_path)
        with pytest.raises(BackendError, match="malformed chat response"):
            backend.generate(_user("hi"), PARAMS)
        assert len(calls) == attempt
    assert cached_rows(tmp_path) == []


@pytest.mark.parametrize("embedding", [None, [1.0, float("nan")], [], [0.0, 0.0]])
def test_http_non_finite_embedding_is_backend_error_and_not_cached(tmp_path, embedding):
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    calls = []

    def transport(url, payload):
        calls.append(url)
        return {"data": [{"embedding": embedding}]}

    for attempt in (1, 2):
        backend = CachingBackend(HttpBackend(profile, transport=transport), cache_dir=tmp_path)
        with pytest.raises(BackendError, match="embedding"):
            backend.embed("a question")
        assert len(calls) == attempt
    assert cached_rows(tmp_path) == []


@pytest.mark.parametrize(
    "response", [{"score": float("nan")}, {"choices": [{"message": {"content": "inf"}}]}]
)
def test_http_non_finite_reward_is_backend_error_and_not_cached(tmp_path, response):
    profile = BackendProfile(kind="http", endpoint="https://rm.test/v1", model="rm")
    calls = []

    def transport(url, payload):
        calls.append(url)
        return response

    for attempt in (1, 2):
        backend = CachingBackend(HttpBackend(profile, transport=transport), cache_dir=tmp_path)
        with pytest.raises(BackendError, match="not finite"):
            backend.reward(_user("context"), "the synthesized reasoning")
        assert len(calls) == attempt
    assert cached_rows(tmp_path) == []


def test_http_reward_reads_top_level_score():
    """A top-level "score" field is the reward, as sent over the wire format."""
    profile = BackendProfile(kind="http", endpoint="https://rm.test/v1", model="rm")
    context = _user("zero-shot scoring context")
    payload = build_reward_payload("rm", context, "the synthesized reasoning")

    def transport(url, sent):
        assert (url, sent) == ("https://rm.test/v1/chat/completions", payload)
        return {"score": GOLD_REWARD_ZERO}

    backend = HttpBackend(profile, transport=transport)
    assert backend.reward(context, "the synthesized reasoning") == GOLD_REWARD_ZERO


def test_http_reward_parses_content_float():
    profile = BackendProfile(kind="http", endpoint="https://rm.test/v1", model="rm")
    backend = HttpBackend(
        profile, transport=lambda url, payload: {"choices": [{"message": {"content": "1.5"}}]}
    )
    assert backend.reward(_user("ctx"), "resp") == 1.5


def test_http_embedding_comes_back_l2_normalised():
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    backend = HttpBackend(profile, transport=lambda url, payload: {"data": [{"embedding": [3, 4]}]})
    assert backend.embed("a question") == pytest.approx((0.6, 0.8))


# Each response shape's outcome, recorded from the numpy-based parser this one
# replaced: the unit vector it returned, or None where it raised BackendError.
EMBEDDING_SHAPES = {
    "int-list": ([3, 4], (0.6, 0.8)),
    "float-list": ([0.6, 0.8], (0.6, 0.8)),
    "negative-entries": ([-1.0, 2.0, -2.0], (-1 / 3, 2 / 3, -2 / 3)),
    "one-entry": ([2.0], (1.0,)),
    "bool-entries": ([True, False], (1.0, 0.0)),
    "bool-and-int-entries": ([True, 1, 1], (3**-0.5,) * 3),
    "numeric-string-entries": (["3", "4"], (0.6, 0.8)),
    "padded-float-string-entries": (["0.6", " 0.8 "], (0.6, 0.8)),
    "nested-list": ([[3, 4]], None),
    "nested-single": ([[1.0]], None),
    "ragged-nested": ([[1], [1, 2]], None),
    "list-entry": ([[1.0], 1.0], None),
    "dict-entry": ([{"x": 1}, 1.0], None),
    "word-entry": (["abc", 1.0], None),
    "none-entry": ([None, 1.0], None),
    "int": (5, None),
    "float": (1.5, None),
    "bool": (True, None),
    "none": (None, None),
    "string": ("3,4", None),
    "numeric-string": ("34", None),
    "dict": ({"a": 1}, None),
    "empty": ([], None),
    "nan-entry": ([float("nan"), 1.0], None),
    "nan-string-entry": (["nan", 1.0], None),
    "inf-entry": ([float("inf"), 1.0], None),
    "minus-inf-entry": ([1.0, float("-inf")], None),
    "zero-vector": ([0.0, 0.0], None),
    "zero-int-vector": ([0, 0], None),
}


@pytest.mark.parametrize(
    "embedding, expected", EMBEDDING_SHAPES.values(), ids=EMBEDDING_SHAPES.keys()
)
def test_http_embedding_response_shapes_keep_their_outcome(embedding, expected):
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    response = {"data": [{"embedding": embedding}]}
    backend = HttpBackend(profile, transport=lambda url, payload: response)
    if expected is None:
        with pytest.raises(BackendError, match="embedding"):
            backend.embed("a question")
        return
    got = backend.embed("a question")
    assert type(got) is tuple and all(type(value) is float for value in got)
    assert len(got) == len(expected)
    assert all(abs(value - want) <= 1e-12 for value, want in zip(got, expected))


@pytest.mark.parametrize(
    "embedding, expected",
    [
        # the numpy norm overflowed to inf and returned an all-zero vector
        ([1e308, 1e308], (0.5**0.5, 0.5**0.5)),
        # the numpy norm underflowed to 0 and called the vector zero-norm
        ([1e-200, 1e-200], (0.5**0.5, 0.5**0.5)),
        # an integer past float range escaped as a raw OverflowError
        ([10**400], None),
    ],
    ids=["huge-entries", "tiny-entries", "int-past-float"],
)
def test_http_embedding_normalises_without_overflow(embedding, expected):
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    response = {"data": [{"embedding": embedding}]}
    backend = HttpBackend(profile, transport=lambda url, payload: response)
    if expected is None:
        with pytest.raises(BackendError, match="malformed embeddings response"):
            backend.embed("a question")
    else:
        assert backend.embed("a question") == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "call, response, message",
    [
        ("generate", {"id": "chat-1"}, "malformed chat response"),
        ("embed", {"object": "list"}, "malformed embeddings response"),
        ("reward", {"id": "rm-1"}, "no reward score"),
    ],
)
def test_http_response_missing_its_payload_is_backend_error(call, response, message):
    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    backend = HttpBackend(profile, transport=lambda url, payload: response)
    calls = {
        "generate": lambda: backend.generate(_user("hi"), PARAMS),
        "embed": lambda: backend.embed("a question"),
        "reward": lambda: backend.reward(_user("ctx"), "resp"),
    }
    with pytest.raises(BackendError, match=message):
        calls[call]()


def test_requests_transport_requires_auth_token(monkeypatch):
    monkeypatch.delenv("MISSING_TOKEN", raising=False)
    transport = RequestsTransport(auth_env="MISSING_TOKEN")
    with pytest.raises(ConfigError):
        transport("https://example.test/v1/chat/completions", {})


class _FakeResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


def _fake_post(status, text, sent=None):
    def post(url, **kwargs):
        if sent is not None:
            sent.append((url, kwargs))
        if isinstance(text, Exception):
            raise text
        return _FakeResponse(status, text)

    return post


def test_requests_transport_posts_json_with_bearer_token(monkeypatch):
    monkeypatch.setenv("RM_TOKEN", "s3cret")
    sent = []
    transport = RequestsTransport(auth_env="RM_TOKEN", timeout=5.0)
    monkeypatch.setattr(
        requests.Session, "post", staticmethod(_fake_post(200, '{"score": 1.5}', sent))
    )
    url = "https://rm.test/v1/chat/completions"
    assert transport(url, {"model": "rm"}) == {"score": 1.5}
    headers = {"Content-Type": "application/json", "Authorization": "Bearer s3cret"}
    assert sent == [(url, {"json": {"model": "rm"}, "headers": headers, "timeout": 5.0})]


@pytest.mark.parametrize(
    "status, text, error",
    [
        (429, "slow down", TransientBackendError),
        (500, "internal error", TransientBackendError),
        (503, "unavailable", TransientBackendError),
        (None, requests.ConnectionError("refused"), TransientBackendError),
        (400, "bad request", BackendError),
        (404, "no such route", BackendError),
        (200, "<html>not json</html>", BackendError),
    ],
    ids=["429", "500", "503", "connection", "400", "404", "not-json"],
)
def test_requests_transport_maps_failures(monkeypatch, status, text, error):
    transport = RequestsTransport()
    monkeypatch.setattr(requests.Session, "post", staticmethod(_fake_post(status, text)))
    with pytest.raises(BackendError) as exc:
        transport("https://example.test/v1/chat/completions", {})
    assert type(exc.value) is error


def test_requests_transport_builds_one_session_for_concurrent_first_requests(monkeypatch):
    built = []
    ready = threading.Barrier(8, timeout=10)

    class CountingSession:
        def __init__(self):
            built.append(self)
            time.sleep(0.01)  # widen the window in which a second build could start

        def mount(self, prefix, adapter):
            pass

        post = staticmethod(_fake_post(200, '{"ok": true}'))

    monkeypatch.setattr(requests, "Session", CountingSession)
    transport = RequestsTransport()

    def first_request(_):
        ready.wait()
        return transport("https://example.test/v1/chat/completions", {})

    with ThreadPoolExecutor(8) as pool:
        answers = list(pool.map(first_request, range(8), timeout=10))
    assert answers == [{"ok": True}] * 8
    assert len(built) == 1


@pytest.mark.parametrize("max_inflight", [1, 32])
def test_http_session_keeps_a_connection_per_request_in_flight(monkeypatch, max_inflight):
    sent = []
    answer = '{"data": [{"embedding": [1.0]}]}'
    monkeypatch.setattr(requests.Session, "post", staticmethod(_fake_post(200, answer, sent)))
    profile = BackendProfile(
        kind="http", endpoint="https://example.test/v1", model="remote", max_inflight=max_inflight
    )
    backend = HttpBackend(profile)
    assert backend.embed("text") == (1.0,)
    assert [url for url, _ in sent] == ["https://example.test/v1/embeddings"]
    for url in ("https://example.test/v1/embeddings", "http://plain.test/v1"):
        adapter = backend.transport._session.get_adapter(url)
        assert adapter.poolmanager.connection_from_url(url).pool.maxsize == max_inflight


def test_http_backend_counts_each_request_sent_per_operation():
    failures = [TransientBackendError("HTTP 503 from endpoint")]

    def transport(url, payload):
        if failures:
            raise failures.pop()
        return {"choices": [{"message": {"content": "ok"}}]}

    profile = BackendProfile(kind="http", endpoint="https://example.test/v1", model="remote")
    backend = CachingBackend(HttpBackend(profile, transport=transport), retry_budget=1)
    assert backend.generate(_user("hi"), PARAMS) == "ok"
    assert backend.stats()["inner_calls"] == {"generate": 2, "score": 0, "embed": 0, "reward": 0}


def test_mock_judge_line_yields_single_verdict():
    backend = MockBackend()
    raw = backend.generate(_user(f"judging...\n\n{prompts.JUDGE_ANSWER_LINE}"), PARAMS)
    assert raw in ("A", "B", "tie")


def _ask(backend, item):
    return backend.generate(_user(f"item {item}\n\nQuestion Parsing:"), PARAMS)


def test_fan_out_keeps_item_order_under_shuffled_latency():
    backend = CachingBackend(MockBackend(), max_inflight=4)
    rng = random.Random(7)
    delays = [rng.uniform(0, 0.01) for _ in range(24)]

    def job(item):
        _ask(backend, item)
        time.sleep(delays[item])
        return item * 10

    assert fan_out(backend, job, range(24)) == [item * 10 for item in range(24)]


def test_fan_out_raises_the_first_failing_item_in_item_order():
    backend = CachingBackend(MockBackend(), max_inflight=4)
    started = set()

    def job(item):
        _ask(backend, item)
        started.add(item)
        if item == 1:
            time.sleep(0.1)
            raise KeyError(1)
        if item == 3:
            raise KeyError(3)
        return item

    with pytest.raises(KeyError) as caught:
        fan_out(backend, job, range(6))
    assert caught.value.args == (1,)
    assert {1, 3} <= started


def test_fan_out_starts_no_item_after_one_raised():
    backend = CachingBackend(MockBackend(), max_inflight=4)
    started = []

    def job(item):
        _ask(backend, item)
        started.append(item)
        if item == 0:
            raise ValueError("first item fails")
        time.sleep(0.2)
        return item

    with pytest.raises(ValueError):
        fan_out(backend, job, range(20))
    # items 1-7 may have started beside item 0 (2 x max_inflight workers), none after it raised
    assert set(started) <= set(range(8))


def test_fan_out_over_cache_hits_uses_one_worker_thread(tmp_path):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path, max_inflight=4)
    for item in range(16):
        _ask(backend, item)
    threads = set()

    def job(item):
        threads.add(threading.get_ident())
        return _ask(backend, item)

    fan_out(backend, job, range(16))
    assert backend.cache_hits == 16
    assert len(threads) == 1
    assert threading.get_ident() not in threads


def test_fan_out_that_misses_the_cache_reaches_max_inflight(tmp_path):
    inner = MockBackend(latency=0.02)
    backend = CachingBackend(inner, cache_dir=tmp_path, max_inflight=4)
    threads = set()

    def job(item):
        threads.add(threading.get_ident())
        return _ask(backend, item)

    fan_out(backend, job, range(16))
    assert inner.calls["generate"] == 16
    assert inner.max_inflight_observed == 4
    assert len(threads) == 8


def test_cold_fan_out_runs_twice_max_inflight_workers_under_fast_switching():
    inner = MockBackend(latency=0.005)
    backend = CachingBackend(inner, max_inflight=4)
    threads = set()
    got = []

    def job(item):
        threads.add(threading.get_ident())
        _ask(backend, item)
        return item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.extend(fan_out(backend, job, range(64))))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == list(range(64))
    assert len(threads) == 8
    assert inner.max_inflight_observed <= 4
    assert backend.peak_inflight <= 4


def test_peak_inflight_counts_calls_inside_the_semaphore(tmp_path):
    def cold_pass(backend):
        fan_out(backend, lambda item: _ask(backend, item), range(16))
        return backend.stats()

    cold = cold_pass(CachingBackend(MockBackend(latency=0.02), cache_dir=tmp_path, max_inflight=4))
    assert (cold["cache_misses"], cold["peak_inflight"]) == (16, 4)
    warm = cold_pass(CachingBackend(MockBackend(latency=0.02), cache_dir=tmp_path, max_inflight=4))
    assert (warm["cache_hits"], warm["peak_inflight"]) == (16, 0)


def test_cold_fan_out_nested_in_a_warm_one_grows_only_its_own_workers(tmp_path):
    warm = CachingBackend(MockBackend(), cache_dir=tmp_path, max_inflight=4)
    for item in range(4):
        _ask(warm, item)
    cold_inner = MockBackend(latency=0.02)
    cold = CachingBackend(cold_inner, max_inflight=4)
    outer_threads = set()

    def inner_job(item):
        return _ask(cold, item)

    def outer_job(item):
        outer_threads.add(threading.get_ident())
        _ask(warm, item)
        return fan_out(cold, inner_job, range(item * 4, item * 4 + 4))

    fan_out(warm, outer_job, range(4))
    assert warm.cache_hits == 4
    assert cold_inner.max_inflight_observed == 4
    assert len(outer_threads) == 1


@pytest.mark.parametrize("cached", [False, True])
def test_fan_out_keeps_no_item_alive_once_it_returns(tmp_path, cached):
    class Item:
        def __init__(self, n):
            self.n = n

    backend = CachingBackend(MockBackend(), cache_dir=tmp_path if cached else None)
    if cached:
        for n in range(8):
            _ask(backend, n)
    items = [Item(n) for n in range(8)]
    refs = [weakref.ref(item) for item in items]
    gc.disable()
    try:
        assert fan_out(backend, lambda item: len(_ask(backend, item.n)) > 0, items) == [True] * 8
        del items
        assert [ref() for ref in refs] == [None] * 8
    finally:
        gc.enable()


def test_fan_out_cursor_hands_each_item_to_one_worker_under_fast_switching():
    # a few ms per call keeps several calls in flight at once, whatever else shares the CPUs
    inner = MockBackend(latency=0.005)
    backend = CachingBackend(inner, max_inflight=8)
    ran = []
    got = []

    def job(item):
        _ask(backend, item)
        ran.append(item)
        return item * 3

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.extend(fan_out(backend, job, range(300))))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [item * 3 for item in range(300)]
    assert sorted(ran) == list(range(300))
    assert inner.max_inflight_observed > 1


def test_cold_fan_out_over_an_in_process_backend_ends_up_on_one_worker(tmp_path):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path, max_inflight=4)
    ran_on = [None] * 200

    def job(item):
        ran_on[item] = threading.get_ident()
        return _ask(backend, item)

    fan_out(backend, job, range(200))
    assert backend.cache_misses == 200
    # the first call starts all 8 workers, each runs one item, then one worker runs the rest
    # (7-8 handoffs); each stray slow call starts them again for about 8 more, and 8 workers
    # running throughout hand off on most of the 199 item boundaries
    handoffs = sum(a != b for a, b in zip(ran_on, ran_on[1:]))
    assert handoffs <= 50


def test_fan_out_over_a_1_ms_endpoint_keeps_max_inflight_busy():
    inner = MockBackend(latency=0.001)
    backend = CachingBackend(inner, max_inflight=4)
    assert fan_out(backend, lambda item: _ask(backend, item), range(64)) == [
        _ask(CachingBackend(MockBackend()), item) for item in range(64)
    ]
    assert inner.max_inflight_observed == 4


def test_fan_out_grows_back_once_its_endpoint_starts_to_wait():
    inner = MockBackend()
    backend = CachingBackend(inner, max_inflight=4)

    def job(item):
        if item == 200:  # by now one worker runs the items
            inner.latency = 0.02
            inner.max_inflight_observed = 0
        return _ask(backend, item)

    fan_out(backend, job, range(300))
    assert inner.max_inflight_observed == 4


@pytest.mark.parametrize("end", ["store", "close"])
def test_a_row_another_connection_commits_is_served_by_the_next_store_or_close(tmp_path, end):
    holder_inner = MockBackend()
    holder = CachingBackend(holder_inner, cache_dir=tmp_path)
    held = _user("held\n\nQuestion Parsing:")
    holder.generate(held, PARAMS)
    holder.generate(held, PARAMS)  # a hit: its read transaction stays open
    assert holder._db.in_transaction
    writer = CachingBackend(MockBackend(queue=["written elsewhere"]), cache_dir=tmp_path)
    shared = _user("shared\n\nQuestion Parsing:")
    assert writer.generate(shared, PARAMS) == "written elsewhere"
    writer.close()
    if end == "store":
        holder.generate(_user("another\n\nQuestion Parsing:"), PARAMS)
    else:
        holder.close()
    calls = holder_inner.calls["generate"]
    assert holder.generate(shared, PARAMS) == "written elsewhere"
    assert holder_inner.calls["generate"] == calls
    holder.close()


def test_close_ends_the_read_transaction_and_leaves_no_side_file(tmp_path):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path)
    messages = _user("snapshot\n\nQuestion Parsing:")
    backend.generate(messages, PARAMS)
    backend.generate(messages, PARAMS)
    assert backend._db.in_transaction
    backend.close()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["calls.sqlite"]
    assert backend.cache_hits == 1


class FailingConnection:
    """A store connection whose ``statement`` fails once, as on a damaged file."""

    def __init__(self, db, statement):
        self.db, self.statement = db, statement

    @property
    def in_transaction(self):
        return self.db.in_transaction

    def execute(self, sql, args=()):
        if sql == self.statement:
            self.statement = None
            raise sqlite3.DatabaseError("database disk image is malformed")
        return self.db.execute(sql, args)

    def close(self):
        self.db.close()


@pytest.mark.parametrize(
    "statement, end", [("BEGIN", "load"), ("COMMIT", "store"), ("COMMIT", "close")]
)
def test_a_failed_begin_or_commit_is_a_cache_error_naming_the_file(tmp_path, statement, end):
    backend = CachingBackend(MockBackend(), cache_dir=tmp_path)
    messages = _user("kept\n\nQuestion Parsing:")
    backend.generate(messages, PARAMS)
    if statement == "COMMIT":
        backend.generate(messages, PARAMS)  # opens the read transaction
    backend._db = FailingConnection(backend._db, statement)
    with pytest.raises(backends_module.CacheError, match=str(tmp_path / "calls.sqlite")):
        if end == "close":
            backend.close()
        else:
            backend.generate(_user("new\n\nQuestion Parsing:"), PARAMS)
    backend.close()


def test_a_finished_call_gives_back_its_slot_while_another_thread_runs_a_statement(tmp_path):
    class BlockingConnection:
        in_transaction = True  # so the statement that blocks is the SELECT itself

        def __init__(self):
            self.entered = threading.Event()
            self.release = threading.Event()

        def execute(self, sql, args):
            self.entered.set()
            self.release.wait(timeout=10)
            return self

        def fetchone(self):
            return None

    backend = CachingBackend(MockBackend(), cache_dir=tmp_path, max_inflight=2)
    backend._db = db = BlockingConnection()
    statement = threading.Thread(target=backend._execute, args=("SELECT 1", ()))
    statement.start()
    try:
        assert db.entered.wait(timeout=10)

        slot = threading.Thread(target=backend._reach, args=("generate", lambda: "x"))
        slot.start()
        slot.join(timeout=5)
        assert not slot.is_alive()
        assert backend._inflight == 0
    finally:
        db.release.set()
        statement.join(timeout=10)
    assert backend.peak_inflight == 1
