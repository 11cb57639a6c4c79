"""Backends for text generation, sequence scoring, embedding, and reward.

Three implementations share one call surface:

* ``MockBackend``: fully deterministic stand-in for hosted models. Every
  response is a pure function of (constructor seed, model name, request
  payload) via sha256.
* ``HttpBackend``: OpenAI-compatible chat-completions/embeddings client
  with bearer-token auth; tests inject a transport instead of the network.
  It counts the requests it sends per operation in ``calls``, as
  ``MockBackend`` counts the calls it answers.
* ``CachingBackend``: wraps either of the above with an on-disk result
  cache (one SQLite file per cache dir, no in-memory copy; each call keyed
  by a sha256 over its raw UTF-8 fields, each result kept as text or
  float64 bytes, so a hit does no JSON work), a bounded in-flight
  semaphore, and retries for transient failures.

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

``requests`` is not imported with this module: ``RequestsTransport``
imports it, and builds its session, when its first request is sent. That
is the one function-local import in the package. Start-up is the largest
cost of a small or fully cached command, and the HTTP stack (``requests``,
``urllib3``, ``charset_normalizer``, ``idna``, ``certifi``, ``ssl``) is
about a third of it, while a mock run, ``export``, ``eval``, ``stats`` or
a rerun that the cache answers in full never sends a request.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sqlite3
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import prompts

log = logging.getLogger(__name__)

CACHE_SCHEMA_VERSION = 2
CACHE_FILE = "calls.sqlite"
# WAL lets a reader in another process share the file; the small page cache
# keeps each open connection's memory near the interpreter's own.
CACHE_SETUP = """
PRAGMA journal_mode=WAL;
PRAGMA synchronous=NORMAL;
PRAGMA cache_size=-256;
CREATE TABLE IF NOT EXISTS calls (key TEXT PRIMARY KEY, result TEXT);
"""
ROLES = ("system", "user", "assistant")


class BackendError(Exception):
    """A backend call failed for good."""


class TransientBackendError(BackendError):
    """A backend call failed but may succeed on retry."""


class CapabilityError(BackendError):
    """The backend does not implement the requested operation."""


class ConfigError(Exception):
    """Invalid profile or run configuration."""


class CacheError(Exception):
    """The call cache file cannot be opened, read or written as a SQLite store."""


def is_finite_number(value):
    """Whether ``value`` is a finite number other than a bool."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


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
    # http-only knob
    timeout: float = 60.0

    def __post_init__(self):
        for key in ("kind", "model", "endpoint", "auth_env"):
            value = getattr(self, key)
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ConfigError(f"cache_dir must be a string or null, got {self.cache_dir!r}")
        if self.kind not in ("mock", "http"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        for key in ("max_inflight", "retry_budget", "seed", "embed_dim"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for key in ("malformed_rate", "empty_qp_rate"):
            value = getattr(self, key)
            if not (is_finite_number(value) and 0.0 <= value <= 1.0):
                raise ConfigError(f"{key} must be a number in [0, 1], got {value!r}")
        if not (is_finite_number(self.timeout) and self.timeout > 0):
            raise ConfigError(f"timeout must be a finite number above 0, got {self.timeout!r}")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.retry_budget < 0:
            raise ConfigError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if self.kind == "http" and not self.endpoint:
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
    """POST JSON over HTTP with bearer-token auth from an env var.

    ``requests`` is imported, and the one ``Session`` built, by the first
    request, under a lock, since fan-out workers may send their first
    requests at once (see the module docstring).
    """

    def __init__(self, auth_env="", timeout=60.0):
        self.auth_env = auth_env
        self.timeout = timeout
        self._session = None
        self._session_lock = threading.Lock()

    def __call__(self, url, payload):
        import requests

        if self._session is None:
            with self._session_lock:
                if self._session is None:
                    self._session = requests.Session()
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
        self.transport = transport or RequestsTransport(profile.auth_env, profile.timeout)
        self.calls = {"generate": 0, "score": 0, "embed": 0, "reward": 0}
        self._lock = threading.Lock()

    def _send(self, op, route, payload):
        """POST ``payload`` to ``route`` under the endpoint, counting one ``op`` request."""
        with self._lock:
            self.calls[op] += 1
        return self.transport(self.profile.endpoint.rstrip("/") + route, payload)

    def generate(self, messages, params):
        _check_messages(messages)
        payload = build_chat_payload(self.model, messages, params)
        resp = self._send("generate", "/chat/completions", payload)
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
        resp = self._send("embed", "/embeddings", payload)
        try:
            vec = np.asarray(resp["data"][0]["embedding"], dtype=float)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed embeddings response: {resp!r}") from exc
        if vec.ndim != 1 or not vec.size or not np.isfinite(vec).all():
            raise BackendError(f"embedding is not a finite non-empty vector: {resp!r}")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise BackendError("embedding has zero norm")
        return vec / norm

    def reward(self, context, response):
        _check_messages(context)
        if not response:
            raise ValueError("response must be non-empty")
        payload = build_reward_payload(self.model, context, response)
        resp = self._send("reward", "/chat/completions", payload)
        try:
            if isinstance(resp, dict) and "score" in resp:
                score = float(resp["score"])
            else:
                score = float(str(resp["choices"][0]["message"]["content"]).strip())
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"no reward score in response: {resp!r}") from exc
        if not math.isfinite(score):
            raise BackendError(f"reward score is not finite: {resp!r}")
        return score


_MISS = object()


def _message_fields(messages):
    """Each message's role and content, in order: the key fields of a message list."""
    return [part for m in messages for part in (m.role, m.content)]


def _open_store(cache_dir):
    """A connection to ``cache_dir/calls.sqlite``, created if absent, that any thread may use."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    db = sqlite3.connect(cache_dir / CACHE_FILE, isolation_level=None, check_same_thread=False)
    try:
        db.executescript(CACHE_SETUP)
    except sqlite3.DatabaseError:
        db.close()
        raise
    return db


class CachingBackend(Backend):
    """Disk-cached, retrying, concurrency-bounded wrapper around a backend.

    A call's key is the sha256 of the schema version, the model name, the
    operation and the call's own fields (each message's role and content,
    then the response, completion, text or generation parameters), each
    encoded as UTF-8 behind its 8-byte length, so distinct calls never hash
    the same bytes and no JSON is built to make a key. Results live only in the SQLite file
    ``cache_dir/calls.sqlite``, one ``(key, result)`` row per call under the
    32-byte digest, read on every hit. A completion row is the completion's
    text; a reward or score row is its little-endian float64 bytes, and an
    embedding row the vector's. A missing row, or one holding a value the
    operation could not have returned, is a miss and is overwritten:
    ``generate`` returns a string, ``score`` and ``reward`` one finite
    float, ``embed`` a finite vector that is not empty or all zero. One
    connection is opened on the first cache access and shared by every
    thread under its own ``_db_lock``, so a call giving back its slot never
    waits on another thread's statement; ``_lock`` guards only the counters.
    ``close()`` releases the connection, and the next access opens it
    again. A file there that SQLite cannot use is a ``CacheError``. With no
    ``cache_dir`` nothing is cached, and every call reaches the wrapped
    backend (still retried and bounded). Each call that reaches it first
    calls ``reaching_endpoint``, then, holding its slot, times its attempts
    in wall and thread CPU seconds and reports them to
    ``endpoint_answered``, so a ``fan_out`` running on the thread keeps its
    full width only while calls wait on an endpoint. That width is twice
    ``max_inflight``; the semaphore alone caps the calls in flight, and
    ``peak_inflight`` records the most that held it at once.
    """

    def __init__(self, inner, cache_dir=None, max_inflight=4, retry_budget=2):
        self.inner = inner
        self.model = inner.model
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.retry_budget = retry_budget
        self.max_inflight = max_inflight
        self._sem = threading.BoundedSemaphore(max_inflight)
        self._lock = threading.Lock()
        self._db_lock = threading.Lock()
        self._db = None
        self._inflight = 0
        self.peak_inflight = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def stats(self):
        return {
            "model": self.model,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "peak_inflight": self.peak_inflight,
            "inner_calls": dict(getattr(self.inner, "calls", {})),
        }

    def close(self):
        """Close the store connection, which folds SQLite's side files back into it."""
        with self._db_lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def _key(self, op, *fields):
        """The 32-byte digest of this call: each field's 8-byte length, then its UTF-8."""
        h = hashlib.sha256()
        for field in (str(CACHE_SCHEMA_VERSION), self.model, op, *fields):
            data = field.encode("utf-8")
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
        return h.digest()

    def _execute(self, sql, args):
        """Run one statement on the store, opening it first if need be; the first row."""
        with self._db_lock:
            try:
                if self._db is None:
                    self._db = _open_store(self.cache_dir)
                return self._db.execute(sql, args).fetchone()
            except sqlite3.DatabaseError as exc:
                path = self.cache_dir / CACHE_FILE
                raise CacheError(f"call cache {path} is unusable: {exc}") from None

    def _load(self, op, key):
        """The result cached for ``op`` at ``key``, or ``_MISS`` if ``op`` could not return it."""
        row = self._execute("SELECT result FROM calls WHERE key = ?", (key,))
        raw = None if row is None else row[0]
        if op == "generate":
            return raw if isinstance(raw, str) else _MISS
        if not isinstance(raw, bytes):  # no row, a NULL or a text
            return _MISS
        if op != "embed":
            if len(raw) != 8:
                return _MISS
            (value,) = struct.unpack("<d", raw)
            return value if math.isfinite(value) else _MISS
        if len(raw) % 8:
            return _MISS
        vec = np.frombuffer(raw, "<f8").copy()
        # every backend returns a unit vector, so an all-zero one is as corrupt as a NaN
        return vec if vec.any() and np.isfinite(vec).all() else _MISS

    def _store(self, key, value):
        row = value if isinstance(value, str) else np.asarray(value, "<f8").tobytes()
        self._execute("INSERT OR REPLACE INTO calls (key, result) VALUES (?, ?)", (key, row))

    @contextmanager
    def _slot(self):
        """Hold one of the ``max_inflight`` slots, counting how many are held at once."""
        with self._sem:
            with self._lock:
                self._inflight += 1
                self.peak_inflight = max(self.peak_inflight, self._inflight)
            try:
                yield
            finally:
                with self._lock:
                    self._inflight -= 1

    def _call(self, op, fields, compute):
        key = None if self.cache_dir is None else self._key(op, *fields)
        cached = _MISS if key is None else self._load(op, key)
        if cached is not _MISS:
            with self._lock:
                self.cache_hits += 1
            return cached
        reaching_endpoint()
        with self._slot():
            started, started_cpu = time.perf_counter(), time.thread_time()
            last = None
            value = _MISS
            for attempt in range(self.retry_budget + 1):
                try:
                    value = compute()
                    break
                except TransientBackendError as exc:
                    last = exc
                    log.warning("transient %s failure (attempt %d): %s", op, attempt + 1, exc)
            endpoint_answered(time.perf_counter() - started, time.thread_time() - started_cpu)
            if value is _MISS:
                raise BackendError(
                    f"{op} failed after {self.retry_budget} retries: {last}"
                ) from last
        with self._lock:
            self.cache_misses += 1
        if key is not None:
            self._store(key, value)
        return value

    def generate(self, messages, params):
        fields = (
            str(len(messages)),
            *_message_fields(messages),
            repr((params.temperature, params.max_tokens, params.seed)),
        )
        return self._call("generate", fields, lambda: self.inner.generate(messages, params))

    def score_completion(self, messages, completion):
        return self._call(
            "score",
            (*_message_fields(messages), completion),
            lambda: float(self.inner.score_completion(messages, completion)),
        )

    def embed(self, text):
        return self._call(
            "embed", (text,), lambda: np.asarray(self.inner.embed(text), dtype=float)
        )

    def reward(self, context, response):
        return self._call(
            "reward",
            (*_message_fields(context), response),
            lambda: float(self.inner.reward(context, response)),
        )


class _Drain:
    """One fan-out's shared cursor, and the tasks that take items from it.

    Each task runs the next unclaimed item until none is left or ``stop``
    is set, and records in ``at`` the index it is running, so a task that
    raised names its item. ``live`` counts the tasks submitted and not yet
    ended, ``waited`` is the verdict on the latest endpoint call one of them
    made, and the tasks leave the drain on their threads for
    ``reaching_endpoint`` and ``endpoint_answered`` to find. These are
    methods, not closures that refer to one another, so no reference cycle
    keeps the items alive once the fan-out returns.
    """

    def __init__(self, fn, items, pool, width):
        self.fn = fn
        self.items = items
        self.pool = pool
        self.width = width
        self.results = [None] * len(items)
        self.at = []
        self.futures = []
        self.next = 0
        self.live = 0
        self.stop = False
        self.waited = True
        self.lock = threading.Lock()

    def submit(self):
        """Start one more task; the caller holds ``lock``."""
        self.live += 1
        self.at.append(None)
        self.futures.append(self.pool.submit(self.run, len(self.at) - 1))

    def grow(self):
        """Top the tasks up to ``width`` while calls wait and unclaimed items remain."""
        # checked without the lock first, so a call that starts no task never takes it
        if not self.waited or self.live >= self.width or self.next == len(self.items):
            return
        with self.lock:
            if not self.stop:
                for _ in range(min(self.width - self.live, len(self.items) - self.next)):
                    self.submit()

    def run(self, task):
        _fanning.drain = self
        ran = False
        try:
            while True:
                with self.lock:
                    # a task that has run an item leaves while calls compute in-process,
                    # so one worker does not hand the interpreter lock back and forth
                    if (
                        self.stop
                        or self.next == len(self.items)
                        or (ran and not self.waited and self.live > 1)
                    ):
                        self.live -= 1
                        return
                    index = self.at[task] = self.next
                    self.next += 1
                done = False
                try:
                    self.results[index] = self.fn(self.items[index])
                    done = True
                finally:
                    if not done:  # still counted in ``live``, but no task starts after ``stop``
                        self.stop = True
                ran = True
        finally:
            _fanning.drain = None


# holds the ``_Drain`` whose task runs on each worker thread
_fanning = threading.local()


def reaching_endpoint():
    """Tell the fan-out running on this thread, if any, that a call is about to reach an endpoint."""
    drain = getattr(_fanning, "drain", None)
    if drain is not None:
        drain.grow()


def endpoint_answered(wall, cpu):
    """Tell the fan-out running on this thread, if any, how an endpoint call spent its time.

    A call of at least one switch interval waited on its endpoint; a
    shorter one that kept the CPU for half its ``wall`` seconds or more was
    computed in-process. Anything else (a short socket wait, a call
    stretched by waiting for the interpreter lock) leaves the verdict as it
    was.
    """
    drain = getattr(_fanning, "drain", None)
    if drain is not None:
        if wall >= sys.getswitchinterval():
            drain.waited = True
        elif 2 * cpu >= wall:
            drain.waited = False


def fan_out(backend, fn, items):
    """Map ``fn`` over ``items`` in order on up to ``2 * backend.max_inflight`` workers.

    Items run on one worker thread while the cache answers every call they
    make, since more threads would only contend for the interpreter lock.
    A call that reaches a wrapped backend (``reaching_endpoint``) while the
    latest such call waited on its endpoint tops the workers up to twice
    ``max_inflight``: each worker spends part of every item away from the
    endpoint (rendering, parsing, the cache store, another role's call), so
    a second worker per slot has a request ready whenever a slot frees. The
    first call counts as one that waited. Once a call comes back computed
    in-process (``endpoint_answered``), each worker that finishes an item
    leaves while another is still running, down to one. The backend's
    semaphore still caps the calls in flight at ``max_inflight``. Workers
    take items in order from one cursor and the caller only waits. Results
    come back in item order. Once an item raises no new item starts, and
    the error of the first item in item order that raised is raised. A
    fan-out nested inside an item grows only its own workers. A backend
    without ``max_inflight`` (an uncached fake) runs the items one at a
    time.
    """
    width = 2 * backend.max_inflight if hasattr(backend, "max_inflight") else 1
    with ThreadPoolExecutor(width) as pool:
        drain = _Drain(fn, list(items), pool, width)
        with drain.lock:
            drain.submit()
        try:
            # only a running task submits another, so this loop sees every task
            for future in drain.futures:
                future.exception()
        finally:  # a wait cut short, by an interrupt say, starts no new item
            drain.stop = True
    failed = [
        (drain.at[task], future.exception())
        for task, future in enumerate(drain.futures)
        if future.exception() is not None
    ]
    if failed:
        raise min(failed, key=lambda pair: pair[0])[1]
    return drain.results


def make_backend(profile, cache_dir):
    """Build the configured backend wrapped in a cache under ``cache_dir``."""
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
        cache_dir=cache_dir,
        max_inflight=profile.max_inflight,
        retry_budget=profile.retry_budget,
    )
