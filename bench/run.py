"""tracedistill benchmark: the real CLI on simulated endpoints.

    python3 bench/run.py --workload distill_cold --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload generates its inputs from the
seed (``inputs.py``), then runs iterations of fixed work through
``tracedistill.cli.main`` in this process for about ``--seconds`` (the
iteration count whose total lands nearest to it), and reports medians over
the iterations. Endpoint latency and transient failures come from
``endpoint.py``; one client thread drives the CLI, which keeps its own
``workers=4`` and ``max_inflight=4``. ``setup_s`` is the median of five
rounds of starting a fresh interpreter that imports the CLI and generating
the inputs, plus the priming run on ``rerun_warm``.

* ``distill_cold``: induce, synthesize, filter, export, infer and eval on
  an empty workdir and cache with a 200-question pool, 20 ms median
  generate/reward/score latency, 5 ms embed latency, and 2% of first
  attempts failing transiently.
* ``rerun_warm``: set-up primes the cache with the same six subcommands on
  a 1,000-question pool with no latency; each iteration deletes every
  output but the cache and runs them again, which must make zero endpoint
  calls and reproduce the primed manifests.
* ``infer_small_batch``: a closed loop of one client making 30 ``infer``
  invocations of 4 instances each on an empty workdir and cache.

Every subcommand invocation is an op. An op fails on a nonzero exit code or
on a failed output check (``checks.py``); ``correct`` is false if any op
failed. With ``--trace 0`` the last line of stdout is the end-to-end result;
with ``--trace 1`` iterations alternate untraced and traced, and it carries
the per-layer metrics from the traced ones plus the tracing overhead. Work
files live under ``.bench_run/`` and are removed at exit; traced runs leave
their spans in ``.bench_run/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import metrics as m
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLE = ROOT / "sample_data"
RUN_ROOT = ROOT / ".bench_run"

LATENCY_MS = {"generate": 20.0, "score": 20.0, "reward": 20.0, "embed": 5.0}
TRANSIENT_RATE = 0.02
DISTILL = ("induce", "synthesize", "filter", "export", "infer", "eval")
DISTILL_STAGES = ("induce", "synthesize", "filter", "export")
SETUP_REPEATS = 5
BATCHES, BATCH_SIZE = 30, 4


@dataclass
class Op:
    """One subcommand invocation and what the endpoints saw during it."""

    command: str
    seconds: float
    code: int
    calls: int = 0
    by_op: dict = field(default_factory=dict)
    retries: int = 0
    prompt_chars: int = 0
    busy: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Iteration:
    ops: list
    tracer: object = None
    peak: dict = field(default_factory=dict)
    cache_mb: float = 0.0
    distilled: int = 0
    inferred: int = 0

    @property
    def pipeline_s(self):
        return sum(op.seconds for op in self.ops)

    def seconds(self, *commands):
        return sum(op.seconds for op in self.ops if op.command in commands)


class Harness:
    """Runs subcommands through the CLI with the endpoint farm installed."""

    def __init__(self, cli, endpoint):
        self.cli = cli
        self.endpoint = endpoint

    def farm(self, latency=True, transient_rate=0.0):
        return self.endpoint.EndpointFarm(LATENCY_MS if latency else None, transient_rate)

    def instrumented(self, farm, traced):
        """Context that installs the farm and, when traced, the span patches."""
        stack = ExitStack()
        stack.enter_context(self.endpoint.installed(farm))
        tracer = None
        if traced:
            tracer = Tracer()
            farm.tracer = tracer
            stack.enter_context(tracer.patched())
        return stack, tracer

    def op(self, farm, config, command, workdir):
        farm.built.clear()
        before = farm.snapshot()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main([command, "--config", str(config)])
        seconds = time.perf_counter() - start
        after = farm.snapshot()
        stats = [backend.stats() for backend in farm.built]
        op = Op(
            command=command,
            seconds=seconds,
            code=code,
            calls=after["calls"] - before["calls"],
            by_op={k: after["by_op"][k] - before["by_op"][k] for k in after["by_op"]},
            retries=after["retries"] - before["retries"],
            prompt_chars=after["prompt_chars"] - before["prompt_chars"],
            busy={r: t - before["busy"].get(r, 0.0) for r, t in after["busy"].items()},
            hits=sum(s["cache_hits"] for s in stats),
            misses=sum(s["cache_misses"] for s in stats),
            outputs=checks.manifest_outputs(workdir, command),
        )
        if code != 0:
            op.problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        return op


def cache_mb(workdir):
    """Disk space the cache takes, as ``du`` counts it (allocated blocks)."""
    total = 0
    for dirpath, _, files in os.walk(Path(workdir) / "cache"):
        total += sum(os.stat(os.path.join(dirpath, f)).st_blocks * 512 for f in files)
    return total / 1e6


def clear_outputs(workdir, keep=()):
    workdir = Path(workdir)
    if not workdir.exists():
        return
    for child in workdir.iterdir():
        if child.name in keep:
            continue
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def failed_ops(ops):
    return [op for op in ops if op.problems]


class Workload:
    """Inputs under ``base``; ``reference`` holds the ops whose manifests
    later iterations must reproduce."""

    n_pool = 200

    def __init__(self, harness, base, seed):
        self.h = harness
        self.base, self.seed = base, seed
        self.reference = None

    def make_inputs(self, rep):
        self.dir = self.base / f"inputs{rep}"
        self.config = inputs.write_inputs(self.dir, SAMPLE, self.seed, self.n_pool)
        self.workdir = self.dir / "workdir"
        self.pool = inputs.pool_rows(SAMPLE, self.seed, self.n_pool)[0]

    def prime(self):
        """Set-up work after input generation; returns the ops it ran."""
        return []

    def keep_reference(self, ops, what):
        if self.reference is None:
            self.reference = ops
            return
        for op, ref in zip(ops, self.reference):
            if op.outputs != ref.outputs:
                op.problems.append(f"{op.command} outputs differ from the {what}")


class DistillWorkload(Workload):
    """Shared by distill_cold and rerun_warm: the six-subcommand pipeline."""

    def check_outputs(self, ops):
        by_command = {op.command: op for op in ops}
        pool_ids = [row["id"] for row in self.pool]
        for command, problem in (
            ("export", checks.cv_export_problem(self.workdir)),
            ("infer", checks.predictions_problem(self.workdir / "predictions.jsonl", pool_ids)),
            ("eval", checks.eval_report_problem(self.workdir / "eval_report.json")),
        ):
            if problem:
                by_command[command].problems.append(problem)

    def pipeline(self, farm, traced):
        stack, tracer = self.h.instrumented(farm, traced)
        with stack:
            ops = [self.h.op(farm, self.config, command, self.workdir) for command in DISTILL]
        self.check_outputs(ops)
        return Iteration(ops, tracer, dict(farm.peak), cache_mb(self.workdir),
                         distilled=len(self.pool), inferred=len(self.pool))


class DistillCold(DistillWorkload):
    def iteration(self, traced):
        clear_outputs(self.workdir)
        it = self.pipeline(self.h.farm(transient_rate=TRANSIENT_RATE), traced)
        self.keep_reference(it.ops, "first iteration's")
        return it


class RerunWarm(DistillWorkload):
    n_pool = 1000

    def prime(self):
        it = self.pipeline(self.h.farm(latency=False), traced=False)
        self.keep_reference(it.ops, "priming run's")
        return it.ops

    def iteration(self, traced):
        clear_outputs(self.workdir, keep=("cache",))
        it = self.pipeline(self.h.farm(), traced)
        self.keep_reference(it.ops, "priming run's")
        for op in it.ops:
            if op.calls:
                op.problems.append(f"{op.command} made {op.calls} endpoint calls over a warm cache")
        return it


class InferSmallBatch(Workload):
    n_pool = BATCHES * BATCH_SIZE

    def iteration(self, traced):
        clear_outputs(self.workdir)
        farm = self.h.farm()
        ops = []
        stack, tracer = self.h.instrumented(farm, traced)
        with stack:
            for start in range(0, len(self.pool), BATCH_SIZE):
                batch = self.pool[start:start + BATCH_SIZE]
                inputs.write_jsonl(self.dir / "pool.jsonl", batch)
                op = self.h.op(farm, self.config, "infer", self.workdir)
                problem = checks.predictions_problem(
                    self.workdir / "predictions.jsonl", [row["id"] for row in batch]
                )
                if problem:
                    op.problems.append(problem)
                ops.append(op)
        self.keep_reference(ops, "first iteration's")
        return Iteration(ops, tracer, dict(farm.peak), cache_mb(self.workdir), inferred=len(self.pool))


WORKLOADS = {
    "distill_cold": DistillCold,
    "rerun_warm": RerunWarm,
    "infer_small_batch": InferSmallBatch,
}


def start_cli():
    """Start a fresh interpreter that imports the CLI, as every CLI run does."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import tracedistill.cli",
         str(SRC)],
        cwd=ROOT, check=True, capture_output=True,
    )


def run_iterations(workload, seconds, trace):
    """Iterate while another iteration would end nearer to ``seconds`` than
    stopping now; a traced run alternates untraced and traced iterations and
    makes at least one of each."""
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(workload.iteration(traced=trace and len(iterations) % 2 == 1))
        elapsed = time.perf_counter() - start
        if trace and len(iterations) < 2:
            continue
        if elapsed + elapsed / len(iterations) / 2 > seconds:
            return iterations


def end_to_end(iterations, setup_s):
    """Every end-to-end metric of the run as name -> (value, unit), plus the
    number of infer calls behind the percentiles. Metrics of the distill
    stages are None on a workload that does not distill."""

    def med(per_iteration, its=iterations):
        return statistics.median(per_iteration(it) for it in its) if its else None

    infer_ms = [op.seconds * 1000.0 for it in iterations for op in it.ops if op.command == "infer"]
    p50, n = m.percentile(infer_ms, 50)
    p90, _ = m.percentile(infer_ms, 90)
    distill = [it for it in iterations if it.distilled]
    table = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (med(lambda it: it.pipeline_s), "s"),
        "distill_qps": (med(lambda it: it.distilled / it.seconds(*DISTILL_STAGES), distill), "questions/s"),
        "infer_qps": (med(lambda it: it.inferred / it.seconds("infer")), "instances/s"),
        "synthesize_s": (med(lambda it: it.seconds("synthesize"), distill), "s"),
        "filter_s": (med(lambda it: it.seconds("filter"), distill), "s"),
        "infer_call_p50_ms": (p50, "ms"),
        "infer_call_p90_ms": (p90, "ms"),
        "backend_calls": (med(lambda it: sum(op.calls for op in it.ops)), "count"),
        "prompt_kchars": (med(lambda it: sum(op.prompt_chars for op in it.ops) / 1000.0), "kchars"),
        "cache_mb": (med(lambda it: it.cache_mb), "MB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return table, n


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tracedistill" / "cli.py").is_file() or not (SAMPLE / "config.json").is_file():
        print(f"{ROOT} is not a tracedistill checkout: src/tracedistill/ and sample_data/ are needed",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only after the check above: both import the package from src/
    import endpoint
    from tracedistill import cli

    base = RUN_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](Harness(cli, endpoint), base, args.seed)
    try:
        samples = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            start_cli()
            workload.make_inputs(rep)
            samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        primed = workload.prime()
        setup_s = statistics.median(samples) + (time.perf_counter() - start)
        iterations = run_iterations(workload, args.seconds, bool(args.trace))
        ops = primed + [op for it in iterations for op in it.ops]
        failed = failed_ops(ops)
        config = json.loads(workload.config.read_text(encoding="utf-8"))
        max_inflight = {role: p.get("max_inflight", 4) for role, p in config["backends"].items()}
        traced = [it for it in iterations if it.tracer is not None]
        untraced = [it for it in iterations if it.tracer is None]

        print(f"workload {args.workload} seed {args.seed}: {len(iterations)} iterations "
              f"({len(traced)} traced), {len(ops)} ops, {len(failed)} failed, "
              f"output digest {checks.digest([op.outputs for op in workload.reference])}")
        for op in failed[:10]:
            print(f"  FAILED {op.command}: {'; '.join(op.problems)}", file=sys.stderr)
        table, n_infer = end_to_end(untraced, setup_s)
        for name, (value, unit) in table.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            extra = f"  (n={n_infer})" if name.startswith("infer_call") else ""
            print(f"  {name:<20} {shown:>12} {unit}{extra}")
        print(f"  {'iteration_s':<20} " + " ".join(f"{it.pipeline_s:.4g}" for it in iterations))
        print(f"  {'ops_attempted':<20} {len(ops):>12} count")
        print(f"  {'ops_failed':<20} {len(failed):>12} count")

        if args.trace:
            result = m.layer_metrics(traced, max_inflight)
            result["trace.overhead_s"] = (statistics.median([it.pipeline_s for it in traced])
                                          - statistics.median([it.pipeline_s for it in untraced]))
            for name, unit, _, _ in m.PER_LAYER:
                print(f"  {name:<40} {result[name]:>12.6g} {unit}")
            metrics = {name: {"value": result[name], "unit": unit} for name, unit, _, _ in m.PER_LAYER}
            RUN_ROOT.mkdir(exist_ok=True)
            spans_path = RUN_ROOT / f"spans-{args.workload}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for i, it in enumerate(traced):
                    for span in it.tracer.spans:
                        fh.write(json.dumps({"iteration": i, **span.to_json()}) + "\n")
        else:
            metrics = {name: {"value": table[name][0], "unit": unit} for name, unit, _, _ in m.END_TO_END}
        print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
