"""Metric catalogue and the arithmetic behind it.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a test keeps
them equal). Each per-layer entry also records which end-to-end metric it
should move, and on which workload, so a change to one layer can be checked
against the number it is expected to move. Layers are the package's
modules; ``trace`` describes the tracing itself.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import self_times

ROLES = ("generation", "embedding", "reward", "judge")
COMMANDS = ("induce", "synthesize", "filter", "export", "infer", "eval")
LAYERS = ("cli", "config", "corpus", "backends", "prompts", "retrieval",
          "induction", "synthesis", "filtering", "cascade", "evalharness")

# (name, unit, better, bound)
# Bounds: on a shared 2-vCPU VM the speed of pure-Python work drifts by up
# to a half for minutes at a time, which moves every time here (ten seeds of
# infer_small_batch spread by 0.21 across such a phase, rerun_warm by 0.13
# without one), so the times take the widest bound; sizes are steady.
END_TO_END = [
    ("pipeline_s", "s", "lower", 0.25),
    ("infer_qps", "instances/s", "higher", 0.25),
    ("infer_call_p50_ms", "ms", "lower", 0.25),
    ("cache_mb", "MB", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

_WARM = "synthesize_s/filter_s/infer_qps on rerun_warm"
_CALLS = "backend_calls on every workload"
_WAIT = "pipeline_s floor on distill_cold and infer_small_batch"
_FILL = "distill_qps/infer_qps on distill_cold, infer_call_p50_ms on infer_small_batch"
_CASCADE = "infer_call_p50_ms/p90_ms on infer_small_batch, infer_qps on distill_cold"
_RETRIEVAL = "synthesize_s/filter_s on rerun_warm, infer_call_p50_ms on infer_small_batch"
_SYNTH = "synthesize_s/infer_qps on rerun_warm"
_FILTER = "filter_s on every distill workload (ratios must not move)"
_PIPE_WARM = "pipeline_s on rerun_warm"
_CLI = "pipeline_s on every workload, infer_call_p50_ms on infer_small_batch"

# (name, unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = [
    ("backends.calls", "count", "lower", _CALLS),
    *[(f"backends.calls.{op}", "count", "lower", _CALLS) for op in ("generate", "embed", "reward", "score")],
    ("backends.retries", "count", "lower", _CALLS),
    ("backends.prompt_kchars", "kchars", "lower", "prompt_kchars on distill_cold and infer_small_batch"),
    ("backends.wait_s", "s", "lower", _WAIT),
    ("backends.cache_hits", "count", "higher", _WARM),
    ("backends.cache_misses", "count", "lower", _WARM),
    ("backends.hit_ratio", "ratio", "higher", _WARM),
    ("backends.hit_s", "s", "lower", _WARM),
    ("backends.miss_overhead_s", "s", "lower", "distill_qps and cache_mb on distill_cold"),
    *[(f"backends.inflight_mean.{role}", "count", "higher", _FILL) for role in ROLES],
    *[(f"backends.inflight_util.{role}", "ratio", "higher", _FILL) for role in ROLES],
    ("backends.inflight_peak", "count", "higher", _FILL),
    ("backends.self_s", "s", "lower", _WARM),
    ("prompts.render_calls", "count", "lower", "infer_qps and synthesize_s on rerun_warm"),
    ("prompts.render_s", "s", "lower", "infer_qps and synthesize_s on rerun_warm"),
    ("prompts.demo_s", "s", "lower", "infer_qps and synthesize_s on rerun_warm"),
    ("prompts.self_s", "s", "lower", "infer_qps and synthesize_s on rerun_warm"),
    ("retrieval.topk_calls", "count", "lower", _RETRIEVAL),
    ("retrieval.topk_s", "s", "lower", _RETRIEVAL),
    ("retrieval.search_s", "s", "lower", _RETRIEVAL),
    ("retrieval.index_builds", "count", "lower", _RETRIEVAL),
    ("retrieval.index_build_s", "s", "lower", _RETRIEVAL),
    ("retrieval.index_load_s", "s", "lower", _RETRIEVAL),
    ("retrieval.index_save_s", "s", "lower", _RETRIEVAL),
    *[(f"retrieval.query_cached_ratio.{cmd}", "ratio", "higher", _RETRIEVAL)
      for cmd in ("synthesize", "filter", "infer")],
    ("retrieval.self_s", "s", "lower", _RETRIEVAL),
    ("synthesis.extract_json_calls", "count", "lower", _SYNTH),
    ("synthesis.extract_json_s", "s", "lower", _SYNTH),
    ("synthesis.parse_s", "s", "lower", _SYNTH),
    ("synthesis.synthesize_s", "s", "lower", _SYNTH),
    ("synthesis.ok_ratio", "ratio", "higher", _SYNTH + " (must not move)"),
    ("synthesis.self_s", "s", "lower", _SYNTH),
    ("filtering.structural_keep_ratio", "ratio", "higher", _FILTER),
    *[(f"filtering.kept_ratio.{s}", "ratio", "higher", _FILTER) for s in ("zero", "few", "average")],
    ("filtering.score_s", "s", "lower", _FILTER),
    ("filtering.self_s", "s", "lower", _FILTER),
    ("cascade.parser_s", "s", "lower", _CASCADE),
    ("cascade.decomposer_s", "s", "lower", _CASCADE),
    ("cascade.evidence_s", "s", "lower", _CASCADE),
    ("cascade.verify_s", "s", "lower", _CASCADE),
    ("cascade.instance_s", "s", "lower", _CASCADE),
    ("cascade.reprompts", "count", "lower", _CASCADE),
    ("cascade.flagged_ratio", "ratio", "lower", _CASCADE),
    ("cascade.self_s", "s", "lower", _CASCADE),
    ("induction.candidates_s", "s", "lower", "distill_qps on distill_cold"),
    ("induction.score_gen_s", "s", "lower", "distill_qps on distill_cold"),
    ("induction.score_pref_s", "s", "lower", "distill_qps on distill_cold"),
    ("induction.self_s", "s", "lower", "distill_qps on distill_cold"),
    ("evalharness.evaluate_s", "s", "lower", _PIPE_WARM),
    ("evalharness.match_s", "s", "lower", _PIPE_WARM),
    ("evalharness.self_s", "s", "lower", _PIPE_WARM),
    ("corpus.load_s", "s", "lower", _PIPE_WARM),
    ("corpus.save_s", "s", "lower", _PIPE_WARM),
    ("corpus.export_s", "s", "lower", _PIPE_WARM),
    ("corpus.self_s", "s", "lower", _PIPE_WARM),
    *[(f"cli.{cmd}_s", "s", "lower", _CLI) for cmd in COMMANDS],
    ("cli.manifest_s", "s", "lower", _CLI),
    ("cli.self_s", "s", "lower", _CLI),
    ("config.load_s", "s", "lower", "infer_call_p50_ms on infer_small_batch"),
    ("config.build_backends_s", "s", "lower", "infer_call_p50_ms on infer_small_batch"),
    ("config.self_s", "s", "lower", "infer_call_p50_ms on infer_small_batch"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced pipeline_s"),
    ("trace.spans", "count", "lower", "none: spans recorded per iteration"),
]

# per-layer metric -> span name whose summed duration it reports
_SPAN_TIMES = {
    "prompts.render_s": "prompts.render",
    "prompts.demo_s": "prompts.demo",
    "retrieval.topk_s": "retrieval.topk",
    "retrieval.search_s": "retrieval.search",
    "retrieval.index_build_s": "retrieval.index_build",
    "retrieval.index_load_s": "retrieval.index_load",
    "retrieval.index_save_s": "retrieval.index_save",
    "synthesis.extract_json_s": "synthesis.extract_json",
    "synthesis.parse_s": "synthesis.parse",
    "synthesis.synthesize_s": "synthesis.synthesize",
    "filtering.score_s": "filtering.score",
    "cascade.parser_s": "cascade.parser",
    "cascade.decomposer_s": "cascade.decomposer",
    "cascade.evidence_s": "cascade.evidence",
    "cascade.verify_s": "cascade.verify",
    "cascade.instance_s": "cascade.instance",
    "induction.candidates_s": "induction.candidates",
    "induction.score_gen_s": "induction.score_gen",
    "induction.score_pref_s": "induction.score_pref",
    "evalharness.evaluate_s": "evalharness.evaluate",
    "evalharness.match_s": "evalharness.match",
    "corpus.load_s": "corpus.load",
    "corpus.save_s": "corpus.save",
    "corpus.export_s": "corpus.export",
    "cli.manifest_s": "cli.manifest",
    "config.load_s": "config.load",
    "config.build_backends_s": "config.build_backends",
    **{f"cli.{cmd}_s": f"cli.{cmd}" for cmd in COMMANDS},
}

# per-layer metric -> span name whose call count it reports
_SPAN_CALLS = {
    "prompts.render_calls": "prompts.render",
    "retrieval.topk_calls": "retrieval.topk",
    "retrieval.index_builds": "retrieval.index_build",
    "synthesis.extract_json_calls": "synthesis.extract_json",
}


def percentile(values, q):
    """(q-th percentile by linear interpolation, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    pos = (n - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low), n


def ratio(num, den):
    return num / den if den else 0.0


def inflight(ops, max_inflight):
    """role -> (mean requests in flight while the role was busy, utilisation).

    Mean in flight is endpoint busy time over the wall time of the
    subcommands that used the role; utilisation divides it by the role's
    ``max_inflight``.
    """
    busy, wall = Counter(), Counter()
    for op in ops:
        for role, seconds in op.busy.items():
            if seconds > 0:
                busy[role] += seconds
                wall[role] += op.seconds
    out = {}
    for role in ROLES:
        mean = ratio(busy[role], wall[role])
        out[role] = (mean, mean / max_inflight.get(role, 1))
    return out


def layer_metrics(iterations, max_inflight):
    """Per-layer metrics per traced iteration (counts and seconds are means
    over the iterations; ratios use the summed numerators and bases).

    Span seconds add up over spans, so work that ran on several worker
    threads at once counts once per thread and can exceed the wall time.
    """
    n = len(iterations)
    counts = sum((it.tracer.counts for it in iterations), Counter())
    ops = [op for it in iterations for op in it.ops]

    times, calls, layer_self = defaultdict(float), Counter(), defaultdict(float)
    hit_s = miss_overhead_s = 0.0
    topk, topk_cached = Counter(), Counter()
    n_spans = 0
    for it in iterations:  # span ids are unique within one tracer only
        selfs = self_times(it.tracer.spans)
        n_spans += len(it.tracer.spans)
        for span in it.tracer.spans:
            times[span.name] += span.duration
            calls[span.name] += 1
            layer_self[span.layer] += selfs[span.sid]
            if span.layer == "backends":
                if span.ep_calls:
                    miss_overhead_s += span.duration - span.ep_time
                else:
                    hit_s += span.duration
            elif span.name == "retrieval.topk":
                topk[span.command] += 1
                topk_cached[span.command] += span.ep_calls == 0

    hits = sum(op.hits for op in ops)
    misses = sum(op.misses for op in ops)
    m = {
        "backends.calls": sum(op.calls for op in ops) / n,
        "backends.retries": sum(op.retries for op in ops) / n,
        "backends.prompt_kchars": sum(op.prompt_chars for op in ops) / 1000.0 / n,
        "backends.wait_s": sum(sum(op.busy.values()) for op in ops) / n,
        "backends.cache_hits": hits / n,
        "backends.cache_misses": misses / n,
        "backends.hit_ratio": ratio(hits, hits + misses),
        "backends.hit_s": hit_s / n,
        "backends.miss_overhead_s": miss_overhead_s / n,
        "backends.inflight_peak": max((p for it in iterations for p in it.peak.values()), default=0),
        "synthesis.ok_ratio": ratio(counts["synthesis.ok"], counts["synthesis.records"]),
        "filtering.structural_keep_ratio": ratio(counts["filtering.survivors"], counts["filtering.records"]),
        "cascade.reprompts": counts["cascade.reprompts"] / n,
        "cascade.flagged_ratio": ratio(counts["cascade.flagged"], counts["cascade.instances"]),
        "trace.spans": n_spans / n,
    }
    for op_name in ("generate", "embed", "reward", "score"):
        m[f"backends.calls.{op_name}"] = sum(op.by_op[op_name] for op in ops) / n
    for role, (mean, util) in inflight(ops, max_inflight).items():
        m[f"backends.inflight_mean.{role}"] = mean
        m[f"backends.inflight_util.{role}"] = util
    for cmd in ("synthesize", "filter", "infer"):
        m[f"retrieval.query_cached_ratio.{cmd}"] = ratio(topk_cached[cmd], topk[cmd])
    for strategy in ("zero", "few", "average"):
        m[f"filtering.kept_ratio.{strategy}"] = ratio(
            counts[f"filtering.kept.{strategy}"], counts["filtering.survivors"]
        )
    for name, span_name in _SPAN_TIMES.items():
        m[name] = times[span_name] / n
    for name, span_name in _SPAN_CALLS.items():
        m[name] = calls[span_name] / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n
    return m
