import json
import threading

import numpy as np
import pytest

from tracedistill import prompts
from tracedistill.backends import (
    BackendError,
    CachingBackend,
    CapabilityError,
    CassetteTransport,
    ChatMessage,
    ConfigError,
    GenParams,
    HttpBackend,
    BackendProfile,
    MockBackend,
    RequestsTransport,
    build_reward_payload,
)
from tracedistill.synthesis import parse_ucot, ParseFailure

from conftest import GOLD_REWARD_ZERO


def _user(content):
    return [ChatMessage(role="user", content=content)]


PARAMS = GenParams()


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
    assert vec.shape == (64,)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6
    assert np.array_equal(vec, backend.embed("any text at all"))


def test_embed_custom_dimension():
    assert MockBackend(embed_dim=16).embed("text").shape == (16,)


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


def test_cache_second_call_hits_no_inner_request():
    inner = MockBackend()
    backend = CachingBackend(inner)
    messages = _user("cache me\n\nQuestion Parsing:")
    first = backend.generate(messages, PARAMS)
    second = backend.generate(messages, PARAMS)
    assert first == second
    assert inner.calls["generate"] == 1
    assert backend.cache_hits == 1


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
    assert not list(tmp_path.rglob("*.json"))


def test_http_reward_replayed_from_cassette(tmp_path):
    """The recorded fixture value comes back over the wire format with zero network."""
    cassette_path = tmp_path / "reward.json"
    profile = BackendProfile(
        kind="http",
        endpoint="https://rm.test/v1",
        model="rm",
        cassette=str(cassette_path),
        replay=True,
    )
    context = _user("zero-shot scoring context")
    payload = build_reward_payload("rm", context, "the synthesized reasoning")
    cassette = CassetteTransport(cassette_path)
    cassette.add("https://rm.test/v1/chat/completions", payload, {"score": GOLD_REWARD_ZERO})
    cassette.save()

    backend = HttpBackend(profile)
    assert backend.reward(context, "the synthesized reasoning") == GOLD_REWARD_ZERO


def test_cassette_miss_is_backend_error(tmp_path):
    cassette_path = tmp_path / "empty.json"
    CassetteTransport(cassette_path).save()
    profile = BackendProfile(
        kind="http", endpoint="https://rm.test/v1", model="rm",
        cassette=str(cassette_path), replay=True,
    )
    backend = HttpBackend(profile)
    with pytest.raises(BackendError):
        backend.generate(_user("unrecorded"), PARAMS)


def test_http_reward_parses_content_float():
    profile = BackendProfile(kind="http", endpoint="https://rm.test/v1", model="rm")
    backend = HttpBackend(
        profile, transport=lambda url, payload: {"choices": [{"message": {"content": "1.5"}}]}
    )
    assert backend.reward(_user("ctx"), "resp") == 1.5


def test_requests_transport_requires_auth_token(monkeypatch):
    monkeypatch.delenv("MISSING_TOKEN", raising=False)
    transport = RequestsTransport(auth_env="MISSING_TOKEN")
    with pytest.raises(ConfigError):
        transport("https://example.test/v1/chat/completions", {})


def test_mock_judge_line_yields_single_verdict():
    backend = MockBackend()
    raw = backend.generate(_user(f"judging...\n\n{prompts.JUDGE_ANSWER_LINE}"), PARAMS)
    assert raw in ("A", "B", "tie")
