"""Backends for text generation, sequence scoring, embedding, and reward.

Three implementations share one call surface:

* ``MockBackend``: fully deterministic stand-in for hosted models. Every
  response is a pure function of (constructor seed, model name, request
  payload) via sha256.
* ``HttpBackend``: OpenAI-compatible chat-completions/embeddings client
  with bearer-token auth and cassette record/replay for offline tests.
* ``CachingBackend``: wraps either of the above with an on-disk result
  cache, a bounded in-flight semaphore, and retries for transient failures.

Mock response scheme (tests rely on this being stable):

* ``generate`` keys on the last non-empty line of the rendered prompt:
  "Question Parsing:" yields a JSON array of condition strings; "CoT
  Steps:" yields a JSON array of {statement, evidence, verification}
  objects (corrupted at ``malformed_rate``); "Statements:" yields a JSON
  array of statements; "Evidence:" and "Verdicts:" yield arrays sized to
  the last JSON array found in the prompt; "Instruction:" yields a
  one-line induced instruction; a line ending in "A, B, tie." yields one
  of "A"/"B"/"tie". Scripted overrides match markers against that same
  last line; queued responses are served FIFO before anything else.
* ``score_completion`` charges each completion character a hash-derived
  cost in [0.02, 0.10] and returns the negated running sum clamped to
  [-100, 0], so extending a completion never raises its score.
* ``embed`` expands sha256 blocks into ``embed_dim`` floats in [-1, 1],
  then L2-normalizes.
* ``reward`` maps a hash of (context, response) into [-2.0, 4.0).
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import requests

from . import prompts

log = logging.getLogger(__name__)

CACHE_SCHEMA_VERSION = 1
ROLES = ("system", "user", "assistant")


class BackendError(Exception):
    """A backend call failed for good."""


class TransientBackendError(BackendError):
    """A backend call failed but may succeed on retry."""


class CapabilityError(BackendError):
    """The backend does not implement the requested operation."""


class ConfigError(Exception):
    """Invalid profile or run configuration."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class GenParams:
    temperature: float = 0.1
    max_tokens: int = 1024
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")


@dataclass
class BackendProfile:
    """Where a capability lives and how hard we may hit it."""

    kind: str = "mock"
    model: str = "mock-model"
    endpoint: str = ""
    auth_env: str = ""
    max_inflight: int = 4
    retry_budget: int = 2
    cache_dir: str | None = None
    # mock-only knobs
    seed: int = 0
    embed_dim: int = 64
    malformed_rate: float = 0.0
    empty_qp_rate: float = 0.0
    # http-only knobs
    cassette: str | None = None
    replay: bool = False
    timeout: float = 60.0

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.kind == "http" and not self.endpoint and not self.replay:
            raise ConfigError("http backend requires an endpoint")


def _check_messages(messages):
    if not messages:
        raise ValueError("messages must be non-empty")
    for m in messages:
        if not isinstance(m, ChatMessage):
            raise ValueError(f"expected ChatMessage, got {type(m).__name__}")


def messages_payload(messages):
    return [{"role": m.role, "content": m.content} for m in messages]


def prompt_text(messages):
    return "\n\n".join(m.content for m in messages)


def _last_line(text):
    for line in reversed(text.splitlines()):
        stripped = line.strip()
        if stripped:
            return stripped
    return ""


def _last_json_array(text):
    """Return the last JSON array that decodes cleanly from the text, if any."""
    decoder = json.JSONDecoder()
    found = None
    pos = 0
    while True:
        start = text.find("[", pos)
        if start < 0:
            break
        try:
            value, end = decoder.raw_decode(text, start)
        except ValueError:
            pos = start + 1
            continue
        if isinstance(value, list):
            found = value
            pos = end
        else:
            pos = start + 1
    return found


class Backend:
    """Interface; concrete backends override what they can serve."""

    model = "unbound"

    def generate(self, messages, params):
        raise CapabilityError(f"{self.model} cannot generate")

    def score_completion(self, messages, completion):
        raise CapabilityError(f"{self.model} cannot score completions")

    def embed(self, text):
        raise CapabilityError(f"{self.model} cannot embed")

    def reward(self, context, response):
        raise CapabilityError(f"{self.model} cannot score rewards")


class MockBackend(Backend):
    """Deterministic offline backend; see module docstring for the scheme."""

    def __init__(
        self,
        model="mock-model",
        seed=0,
        embed_dim=64,
        malformed_rate=0.0,
        empty_qp_rate=0.0,
        script=None,
        queue=None,
        transient_failures=0,
        latency=0.0,
    ):
        self.model = model
        self.seed = seed
        self.embed_dim = embed_dim
        self.malformed_rate = malformed_rate
        self.empty_qp_rate = empty_qp_rate
        self.script = list(script.items()) if isinstance(script, dict) else list(script or [])
        self.queue = list(queue or [])
        self.latency = latency
        self.calls = {"generate": 0, "score": 0, "embed": 0, "reward": 0}
        self.max_inflight_observed = 0
        self._inflight = 0
        self._transient_left = int(transient_failures)
        self._lock = threading.Lock()

    @contextmanager
    def _track(self, op):
        with self._lock:
            self.calls[op] += 1
            self._inflight += 1
            if self._inflight > self.max_inflight_observed:
                self.max_inflight_observed = self._inflight
            fail = self._transient_left > 0
            if fail:
                self._transient_left -= 1
        try:
            if fail:
                raise TransientBackendError("injected transient failure")
            if self.latency:
                time.sleep(self.latency)
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    def _digest(self, *parts):
        h = hashlib.sha256()
        h.update(str(self.seed).encode("utf-8"))
        for part in parts:
            h.update(b"\x1f")
            h.update(str(part).encode("utf-8"))
        return h.digest()

    @staticmethod
    def _sub(digest, index):
        return hashlib.sha256(digest + index.to_bytes(4, "big")).digest()

    @staticmethod
    def _unit(digest):
        return int.from_bytes(digest[:8], "big") / 2**64

    def _phrase(self, digest, index):
        sub = self._sub(digest, index)
        return f"fact-{sub[:4].hex()} relates to item {sub[4] % 10}"

    def generate(self, messages, params):
        _check_messages(messages)
        with self._track("generate"):
            text = prompt_text(messages)
            last = _last_line(text)
            with self._lock:
                if self.queue:
                    return self.queue.pop(0)
            for marker, response in self.script:
                if marker in last:
                    return response
            digest = self._digest(
                "generate", self.model, params.temperature, params.max_tokens, params.seed, text
            )
            return self._templated(last, text, digest)

    def _templated(self, last, text, digest):
        if prompts.OUTPUT_HEADERS["QP"] in last:
            if self._unit(self._sub(digest, 90)) < self.empty_qp_rate:
                return "[]"
            n = 2 + digest[0] % 3
            conditions = [f"Condition {i + 1}: {self._phrase(digest, i)}" for i in range(n)]
            return json.dumps(conditions, ensure_ascii=False)
        if prompts.OUTPUT_HEADERS["UCoT"] in last:
            return self._ucot(digest)
        if prompts.OUTPUT_HEADERS["CP"] in last:
            n = 2 + digest[0] % 3
            statements = [f"Statement {i + 1}: {self._phrase(digest, 10 + i)}" for i in range(n)]
            return json.dumps(statements, ensure_ascii=False)
        if prompts.OUTPUT_HEADERS["CV_evidence"] in last:
            wanted = _last_json_array(text)
            n = len(wanted) if wanted is not None else 3
            evidence = [f"Evidence {i + 1}: {self._phrase(digest, 20 + i)}" for i in range(n)]
            return json.dumps(evidence, ensure_ascii=False)
        if prompts.OUTPUT_HEADERS["CV_verify"] in last:
            wanted = _last_json_array(text)
            n = len(wanted) if wanted is not None else 3
            verdicts = ["True" if self._sub(digest, 30 + i)[0] % 2 else "False" for i in range(n)]
            return json.dumps(verdicts, ensure_ascii=False)
        if prompts.INDUCTION_HEADER in last:
            return (
                f"Work through the input and return the required structured "
                f"output (style {digest[:4].hex()})."
            )
        if last.endswith("A, B, tie."):
            return ("A", "B", "tie")[digest[0] % 3]
        return f"mock response {digest[:6].hex()}"

    def _ucot(self, digest):
        n_steps = 1 + digest[1] % 4
        steps = []
        for i in range(n_steps):
            sub = self._sub(digest, 40 + i)
            steps.append(
                {
                    "statement": f"Statement {i + 1}: {self._phrase(digest, 50 + i)}",
                    "evidence": f"Evidence {i + 1}: {self._phrase(digest, 60 + i)}",
                    "verification": "True" if sub[0] % 2 else "False",
                }
            )
        raw = json.dumps(steps, ensure_ascii=False, indent=2)
        if self._unit(self._sub(digest, 91)) < self.malformed_rate:
            mode = digest[2] % 3
            if mode == 0:
                return raw.replace('"', "'")
            if mode == 1:
                return raw[: max(4, len(raw) * 2 // 3)]
            return "I could not produce a structured answer this time."
        if digest[3] % 2:
            return f"Here is the structured reasoning:\n```json\n{raw}\n```"
        return raw

    def score_completion(self, messages, completion):
        _check_messages(messages)
        if not completion:
            raise ValueError("completion must be non-empty")
        with self._track("score"):
            base = self._digest("score", self.model, prompt_text(messages))
            total = 0.0
            for i, ch in enumerate(completion):
                sub = hashlib.sha256(base + i.to_bytes(4, "big") + ch.encode("utf-8")).digest()
                total += 0.02 + 0.08 * self._unit(sub)
            return -min(100.0, total)

    def embed(self, text):
        if not text:
            raise ValueError("text must be non-empty")
        with self._track("embed"):
            base = self._digest("embed", self.model, self.embed_dim, text)
            values = []
            counter = 0
            while len(values) < self.embed_dim:
                block = hashlib.sha256(base + counter.to_bytes(4, "big")).digest()
                for offset in range(0, 32, 4):
                    if len(values) >= self.embed_dim:
                        break
                    u = int.from_bytes(block[offset : offset + 4], "big") / 2**32
                    values.append(2.0 * u - 1.0)
                counter += 1
            vec = np.asarray(values, dtype=float)
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                vec[0] = 1.0
                norm = 1.0
            return vec / norm

    def reward(self, context, response):
        _check_messages(context)
        if not response:
            raise ValueError("response must be non-empty")
        with self._track("reward"):
            digest = self._digest("reward", self.model, prompt_text(context), response)
            return self._unit(digest) * 6.0 - 2.0


def build_chat_payload(model, messages, params):
    payload = {
        "model": model,
        "messages": messages_payload(messages),
        "temperature": params.temperature,
        "max_tokens": params.max_tokens,
    }
    if params.seed is not None:
        payload["seed"] = params.seed
    return payload


def build_reward_payload(model, context, response):
    messages = messages_payload(context) + [{"role": "assistant", "content": response}]
    return {"model": model, "messages": messages}


def build_embed_payload(model, text):
    return {"model": model, "input": [text]}


class RequestsTransport:
    """POST JSON over HTTP with bearer-token auth from an env var."""

    def __init__(self, auth_env="", timeout=60.0):
        self.auth_env = auth_env
        self.timeout = timeout
        self._session = requests.Session()

    def __call__(self, url, payload):
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env, "")
            if not token:
                raise ConfigError(f"auth token env var {self.auth_env!r} is not set")
            headers["Authorization"] = f"Bearer {token}"
        try:
            resp = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransientBackendError(str(exc)) from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientBackendError(f"HTTP {resp.status_code} from {url}")
        if resp.status_code >= 400:
            raise BackendError(f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise BackendError(f"non-JSON response from {url}") from exc


class CassetteTransport:
    """Replay (and optionally record) wire responses keyed by request hash."""

    def __init__(self, path, record_with=None):
        self.path = Path(path)
        self.record_with = record_with
        self.entries = {}
        if self.path.exists():
            data = json.loads(self.path.read_text(encoding="utf-8"))
            self.entries = data.get("entries", {})

    @staticmethod
    def request_key(url, payload):
        blob = json.dumps({"url": url, "payload": payload}, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def add(self, url, payload, response):
        key = self.request_key(url, payload)
        self.entries[key] = {"url": url, "payload": payload, "response": response}
        return key

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps({"entries": self.entries}, sort_keys=True, ensure_ascii=False, indent=1)
        self.path.write_text(body + "\n", encoding="utf-8")

    def __call__(self, url, payload):
        key = self.request_key(url, payload)
        if key in self.entries:
            return copy.deepcopy(self.entries[key]["response"])
        if self.record_with is not None:
            response = self.record_with(url, payload)
            self.add(url, payload, response)
            self.save()
            return response
        raise BackendError(f"no cassette entry for request {key[:12]} against {url}")


class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client.

    ``reward`` posts the scored response as the final assistant message and
    reads the score from a top-level "score" field or from the returned
    message content parsed as a float. ``score_completion`` is not served
    over this wire; callers fall back per their own contracts.
    """

    def __init__(self, profile, transport=None):
        self.profile = profile
        self.model = profile.model
        if transport is not None:
            self.transport = transport
        elif profile.cassette and profile.replay:
            self.transport = CassetteTransport(profile.cassette)
        elif profile.cassette:
            self.transport = CassetteTransport(
                profile.cassette, record_with=RequestsTransport(profile.auth_env, profile.timeout)
            )
        else:
            self.transport = RequestsTransport(profile.auth_env, profile.timeout)

    def _url(self, route):
        return self.profile.endpoint.rstrip("/") + route

    def generate(self, messages, params):
        _check_messages(messages)
        payload = build_chat_payload(self.model, messages, params)
        resp = self.transport(self._url("/chat/completions"), payload)
        try:
            content = resp["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response: {resp!r}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed chat response: {resp!r}")
        return content

    def embed(self, text):
        if not text:
            raise ValueError("text must be non-empty")
        payload = build_embed_payload(self.model, text)
        resp = self.transport(self._url("/embeddings"), payload)
        try:
            vec = np.asarray(resp["data"][0]["embedding"], dtype=float)
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed embeddings response: {resp!r}") from exc
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise BackendError("embedding has zero norm")
        return vec / norm

    def reward(self, context, response):
        _check_messages(context)
        if not response:
            raise ValueError("response must be non-empty")
        payload = build_reward_payload(self.model, context, response)
        resp = self.transport(self._url("/chat/completions"), payload)
        if isinstance(resp, dict) and "score" in resp:
            return float(resp["score"])
        try:
            content = resp["choices"][0]["message"]["content"]
            return float(str(content).strip())
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"no reward score in response: {resp!r}") from exc


_MISS = object()


class CachingBackend(Backend):
    """Disk-cached, retrying, concurrency-bounded wrapper around a backend.

    Cache keys cover the model name, the operation, the full payload, and a
    schema version, so identical calls return identical bytes without
    touching the wrapped backend.
    """

    def __init__(self, inner, cache_dir=None, max_inflight=4, retry_budget=2):
        self.inner = inner
        self.model = inner.model
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.retry_budget = retry_budget
        self._sem = threading.BoundedSemaphore(max_inflight)
        self._mem = {}
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    def stats(self):
        return {
            "model": self.model,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "inner_calls": dict(getattr(self.inner, "calls", {})),
        }

    def _key(self, op, payload):
        blob = json.dumps(
            {"v": CACHE_SCHEMA_VERSION, "model": self.model, "op": op, "payload": payload},
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key):
        return self.cache_dir / key[:2] / f"{key}.json"

    def _load(self, key):
        with self._lock:
            if key in self._mem:
                return self._mem[key]
        if self.cache_dir is not None:
            path = self._path(key)
            if path.exists():
                try:
                    value = json.loads(path.read_text(encoding="utf-8"))["result"]
                except (ValueError, KeyError):
                    return _MISS
                with self._lock:
                    self._mem[key] = value
                return value
        return _MISS

    def _store(self, key, value):
        with self._lock:
            self._mem[key] = value
        if self.cache_dir is not None:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(json.dumps({"result": value}, ensure_ascii=False), encoding="utf-8")
            os.replace(tmp, path)

    def _call(self, op, payload, compute):
        key = self._key(op, payload)
        cached = self._load(key)
        if cached is not _MISS:
            with self._lock:
                self.cache_hits += 1
            return cached
        with self._sem:
            last = None
            value = _MISS
            for attempt in range(self.retry_budget + 1):
                try:
                    value = compute()
                    break
                except TransientBackendError as exc:
                    last = exc
                    log.warning("transient %s failure (attempt %d): %s", op, attempt + 1, exc)
            if value is _MISS:
                raise BackendError(
                    f"{op} failed after {self.retry_budget} retries: {last}"
                ) from last
        with self._lock:
            self.cache_misses += 1
        self._store(key, value)
        return value

    def generate(self, messages, params):
        payload = {
            "messages": messages_payload(messages),
            "params": {
                "temperature": params.temperature,
                "max_tokens": params.max_tokens,
                "seed": params.seed,
            },
        }
        return self._call("generate", payload, lambda: self.inner.generate(messages, params))

    def score_completion(self, messages, completion):
        payload = {"messages": messages_payload(messages), "completion": completion}
        return self._call(
            "score", payload, lambda: self.inner.score_completion(messages, completion)
        )

    def embed(self, text):
        values = self._call("embed", {"text": text}, lambda: self.inner.embed(text).tolist())
        return np.asarray(values, dtype=float)

    def reward(self, context, response):
        payload = {"messages": messages_payload(context), "response": response}
        return self._call("reward", payload, lambda: self.inner.reward(context, response))


def make_backend(profile, cache_dir=None):
    """Build the configured backend wrapped in a cache."""
    if profile.kind == "mock":
        inner = MockBackend(
            model=profile.model,
            seed=profile.seed,
            embed_dim=profile.embed_dim,
            malformed_rate=profile.malformed_rate,
            empty_qp_rate=profile.empty_qp_rate,
        )
    else:
        inner = HttpBackend(profile)
    return CachingBackend(
        inner,
        cache_dir=cache_dir if cache_dir is not None else profile.cache_dir,
        max_inflight=profile.max_inflight,
        retry_budget=profile.retry_budget,
    )
