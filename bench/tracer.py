"""Span tracing of the ``tracedistill`` package from the outside.

``Tracer.patched()`` wraps the public functions listed in ``TARGETS`` for
the duration of a ``with`` block. Every name bound to the original function
in any ``tracedistill`` module is replaced, so consumers that did
``from .retrieval import top_k`` see the wrapper too; methods are patched
on their class. Spans are kept in memory and written out by the caller.

A span's parent is the innermost open span on its thread. A worker-pool
thread has none of its own, so its spans attach to the innermost span open
on the subcommand's thread when they start (the function that fanned the
work out), which keeps them under their subcommand. Endpoint calls made by
the simulated endpoints are spans too, and each span counts the endpoint
calls and endpoint time made on its thread while it was open: a backend
call that made none was a cache hit.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _reprompts(tracer, args, result):
    stage = result[1]
    tracer.count("cascade.reprompts", len(stage.raw) - 1)


def _instance(tracer, args, result):
    tracer.count("cascade.instances")
    tracer.count("cascade.flagged", 1 if result.flags else 0)


def _synthesized(tracer, args, result):
    tracer.count("synthesis.records")
    tracer.count("synthesis.ok", 1 if result.parse_status == "ok" else 0)


def _filtered(tracer, args, result):
    survivors = sum(1 for o in result.outcomes if o.stage == "structural" and o.decision == "keep")
    tracer.count("filtering.records", len(args[0]))
    tracer.count("filtering.survivors", survivors)
    for strategy, kept in result.kept.items():
        tracer.count(f"filtering.kept.{strategy}", len(kept))


# (module, function or Class.method, span name, result hook). A span's layer
# is the part of its name before the first dot; the demo-card renderers live
# in synthesis and cascade but belong to the prompts layer.
TARGETS = [
    ("config", "load_config", "config.load", None),
    ("config", "build_backends", "config.build_backends", None),
    ("corpus", "load_seed", "corpus.load", None),
    ("corpus", "load_questions", "corpus.load", None),
    ("corpus", "save_jsonl", "corpus.save", None),
    ("corpus", "export_sft", "corpus.export", None),
    ("backends", "CachingBackend.generate", "backends.generate", None),
    ("backends", "CachingBackend.embed", "backends.embed", None),
    ("backends", "CachingBackend.reward", "backends.reward", None),
    ("backends", "CachingBackend.score_completion", "backends.score", None),
    ("prompts", "render_prompt", "prompts.render", None),
    ("synthesis", "demo_pairs_qp", "prompts.demo", None),
    ("synthesis", "demo_pairs_ucot", "prompts.demo", None),
    ("cascade", "demo_pairs_full", "prompts.demo", None),
    ("retrieval", "top_k", "retrieval.topk", None),
    ("retrieval", "top_k_vector", "retrieval.search", None),
    ("retrieval", "build_index", "retrieval.index_build", None),
    ("retrieval", "load_index", "retrieval.index_load", None),
    ("retrieval", "save_index", "retrieval.index_save", None),
    ("synthesis", "extract_json", "synthesis.extract_json", None),
    ("synthesis", "parse_qp", "synthesis.parse", None),
    ("synthesis", "parse_ucot", "synthesis.parse", None),
    ("synthesis", "synthesize", "synthesis.synthesize", _synthesized),
    ("synthesis", "synthesize_batch", "synthesis.batch", None),
    ("filtering", "run_filter", "filtering.run", _filtered),
    ("filtering", "score_record", "filtering.score", None),
    ("cascade", "parse_question", "cascade.parser", _reprompts),
    ("cascade", "decompose_cot", "cascade.decomposer", _reprompts),
    ("cascade", "extract_evidence", "cascade.evidence", _reprompts),
    ("cascade", "verify_steps", "cascade.verify", _reprompts),
    ("cascade", "CascadePipeline.run", "cascade.instance", _instance),
    ("cascade", "CascadePipeline.run_batch", "cascade.batch", None),
    ("induction", "generate_candidates", "induction.candidates", None),
    ("induction", "score_gen", "induction.score_gen", None),
    ("induction", "score_pref", "induction.score_pref", None),
    ("evalharness", "evaluate", "evalharness.evaluate", None),
    ("evalharness", "match_sets", "evalharness.match", None),
    ("evalharness", "match_steps", "evalharness.match", None),
    ("cli", "write_manifest", "cli.manifest", None),
    ("cli", "write_run_stats", "cli.manifest", None),
]


class Span:
    __slots__ = ("sid", "parent", "name", "command", "start", "end", "ep_calls", "ep_time")

    def __init__(self, sid, parent, name, command, start, end=0.0, ep_calls=0, ep_time=0.0):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.command = command
        self.start = start
        self.end = end
        self.ep_calls = ep_calls
        self.ep_time = ep_time

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = None
        self._root_stack = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.ep_calls = 0
            local.ep_time = 0.0
        return local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1].sid
        try:
            return self._root_stack[-1].sid
        except (IndexError, TypeError):  # no subcommand open, or it just closed
            return None

    def _open(self, name):
        stack = self._stack()
        local = self._local
        span = Span(next(self._ids), self._parent(stack), name, self.command,
                    time.perf_counter(), ep_calls=local.ep_calls, ep_time=local.ep_time)
        stack.append(span)
        return span

    def _close(self, span):
        local = self._local
        span.end = time.perf_counter()
        span.ep_calls = local.ep_calls - span.ep_calls
        span.ep_time = local.ep_time - span.ep_time
        local.stack.pop()
        self.spans.append(span)

    def endpoint_call(self, op, start, end):
        """Record one simulated endpoint call made on the current thread."""
        stack = self._stack()
        local = self._local
        local.ep_calls += 1
        local.ep_time += end - start
        self.spans.append(Span(next(self._ids), self._parent(stack), f"endpoint.{op}",
                               self.command, start, end, 1, end - start))

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _wrap_main(self, fn):
        tracer = self

        @functools.wraps(fn)
        def main(argv=None):
            tracer.command = argv[0]
            tracer._root_stack = tracer._stack()
            span = tracer._open(f"cli.{argv[0]}")
            try:
                return fn(argv)
            finally:
                tracer._close(span)
                tracer.command = None
                tracer._root_stack = None

        return main

    @contextmanager
    def patched(self):
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "tracedistill"]
        undo = []

        def rebind(original, wrapper):
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

        try:
            for module_name, target, name, hook in TARGETS:
                owner = sys.modules[f"tracedistill.{module_name}"]
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(original, name, hook))
                else:
                    original = getattr(owner, target)
                    rebind(original, self._wrap(original, name, hook))
            cli = sys.modules["tracedistill.cli"]
            rebind(cli.main, self._wrap_main(cli.main))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def self_times(spans):
    """sid -> span duration minus the part of it that child spans cover.

    Children may overlap one another (worker threads), so the covered part
    is the length of the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[span.sid] = span.duration - covered
    return out
