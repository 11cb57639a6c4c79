"""Simulated model endpoints around the package's ``MockBackend``.

``installed(farm)`` patches ``tracedistill.config.make_backend`` so that
every backend the CLI builds keeps its ``CachingBackend`` (cache, retries,
in-flight semaphore) but reaches the mock through a ``SimEndpoint``. The
endpoint adds what a hosted model has and the mock lacks:

* latency that is a pure function of the request: the median for the
  operation times a factor in [0.5, 1.5) taken from a hash of the request,
  so reruns of one input wait exactly as long;
* a deterministic share of requests whose first attempt fails with
  ``TransientBackendError`` (the retry then succeeds);
* counters for attempts, retries, prompt characters, busy time and peak
  in-flight requests per role.

Responses are the mock's, so outputs are byte-identical with and without
the simulation.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from tracedistill import config as td_config
from tracedistill.backends import Backend, TransientBackendError, prompt_text

OPS = ("generate", "embed", "reward", "score")


class EndpointFarm:
    """Settings and counters shared by every simulated endpoint of one run."""

    def __init__(self, latency_ms=None, transient_rate=0.0):
        self.latency_ms = dict(latency_ms or {})
        self.transient_rate = transient_rate
        self.tracer = None
        self.built = []
        self._lock = threading.Lock()
        self._failed = set()
        self._inflight = {}
        self.calls = dict.fromkeys(OPS, 0)
        self.retries = 0
        self.prompt_chars = 0
        self.busy = {}
        self.peak = {}

    def snapshot(self):
        with self._lock:
            return {
                "calls": sum(self.calls.values()),
                "by_op": dict(self.calls),
                "retries": self.retries,
                "prompt_chars": self.prompt_chars,
                "busy": dict(self.busy),
            }

    def call(self, role, op, text, compute):
        digest = hashlib.blake2b(f"{role}\x1f{op}\x1f{text}".encode("utf-8"), digest_size=16).digest()
        u_latency = int.from_bytes(digest[:8], "big") / 2**64
        u_fail = int.from_bytes(digest[8:], "big") / 2**64
        with self._lock:
            self.calls[op] += 1
            self.prompt_chars += len(text)
            fail = u_fail < self.transient_rate and digest not in self._failed
            if fail:
                self._failed.add(digest)
                self.retries += 1
            else:
                inflight = self._inflight[role] = self._inflight.get(role, 0) + 1
                self.peak[role] = max(self.peak.get(role, 0), inflight)
        if fail:
            raise TransientBackendError(f"simulated transient {op} failure")
        tracer = self.tracer
        start = time.perf_counter()
        try:
            delay = self.latency_ms.get(op, 0.0) * (0.5 + u_latency) / 1000.0
            if delay:
                time.sleep(delay)
            return compute()
        finally:
            end = time.perf_counter()
            with self._lock:
                self._inflight[role] -= 1
                self.busy[role] = self.busy.get(role, 0.0) + (end - start)
            if tracer is not None:
                tracer.endpoint_call(op, start, end)


class SimEndpoint(Backend):
    """One role's endpoint: the mock's answers behind the farm's latency."""

    def __init__(self, inner, role, farm):
        self.inner = inner
        self.role = role
        self.farm = farm
        self.model = inner.model

    @property
    def calls(self):
        # read by CachingBackend.stats(); keeps logs/<cmd>_stats.json unchanged
        return self.inner.calls

    def generate(self, messages, params):
        return self.farm.call(
            self.role, "generate", prompt_text(messages),
            lambda: self.inner.generate(messages, params),
        )

    def score_completion(self, messages, completion):
        return self.farm.call(
            self.role, "score", prompt_text(messages) + completion,
            lambda: self.inner.score_completion(messages, completion),
        )

    def embed(self, text):
        return self.farm.call(self.role, "embed", text, lambda: self.inner.embed(text))

    def reward(self, context, response):
        return self.farm.call(
            self.role, "reward", prompt_text(context) + response,
            lambda: self.inner.reward(context, response),
        )


@contextmanager
def installed(farm):
    """Route every backend built by ``config.build_backends`` through ``farm``."""
    original = td_config.make_backend

    def make_backend(profile, cache_dir=None):
        backend = original(profile, cache_dir=cache_dir)
        # build_backends passes <workdir>/cache/<role> as the cache dir
        backend.inner = SimEndpoint(backend.inner, Path(cache_dir).name, farm)
        farm.built.append(backend)
        return backend

    td_config.make_backend = make_backend
    try:
        yield farm
    finally:
        td_config.make_backend = original
