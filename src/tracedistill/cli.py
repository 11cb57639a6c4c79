"""Command-line entry point: the pipeline stages as subcommands.

    tracedistill induce     --config cfg.json
    tracedistill synthesize --config cfg.json
    tracedistill filter     --config cfg.json
    tracedistill export     --config cfg.json [--strategy average]
    tracedistill infer      --config cfg.json [--out predictions.jsonl]
    tracedistill eval       --config cfg.json [--pred ...] [--gold ...]
    tracedistill stats      --config cfg.json [--data file.jsonl | --strategy few]

Retrieval depth comes only from the config's `k`; filter writes every
strategy's dataset and export all four subtask files of its strategy.
Every run writes <workdir>/logs/<cmd>_stats.json (call counts and retries,
and for infer each cascade stage's count, sum, p50, p95 and max seconds,
whatever the pool's size), then, last, its manifest
<workdir>/manifests/<cmd>.json (config hash, input hashes, output hashes,
format versions); a run that fails writes neither. Manifests contain no
timestamps: rerunning a subcommand on unchanged inputs reproduces it byte
for byte. Manifests, stats, induce reports and eval_report.json are each
one JSON document that ``write_json`` encodes straight into its file, and
every hash is taken a block at a time, so no whole file or document is held
as one string. The on-disk call cache is the only state reused across runs, and
every subcommand closes its cache connections before it returns; index.bin
is written by synthesize and read by no stage. Concurrent invocations
against one working directory are rejected: each holds an exclusive flock
on <workdir>/.lock, which the kernel drops when its holder exits (POSIX only).
Failures print a machine-readable JSON error on stderr and exit nonzero.
Every dataset file is read through ``corpus.read_records``, so bad data
exits 5 naming the file and line. A path the user names (``--pred``,
``--gold``, ``--data``, the config's paths) that is not a file exits 2; a
missing artifact of an earlier stage exits 3 and names that stage. Exit 6,
with nothing written, when every pool question (synthesize), structural
survivor (filter) or instance (infer) failed at the backend.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .backends import CACHE_SCHEMA_VERSION, BackendError, CacheError, ConfigError
from .cascade import BACKEND_FAILED, STAGES, CascadeError, CascadePipeline, write_predictions
from .config import CONFIG_SCHEMA_VERSION, build_backends, load_config
from .corpus import (
    SFT_HEADER,
    SUBTASKS,
    DatasetError,
    compute_stats,
    export_sft,
    load_questions,
    load_seed,
    parse_seed_record,
    read_records,
    replacing,
    save_jsonl,
    seed_to_json,
    sha256_file,
)
from .evalharness import evaluate, format_report
from .filtering import STRATEGIES, run_filter, to_training_example
from .induction import InductionConfig, InductionError, induce_prompt
from .prompts import seed_cards
from .retrieval import INDEX_FORMAT, RetrievalError, build_index, save_index
from .synthesis import record_from_json, record_to_json, synthesize_batch


class MissingArtifactError(Exception):
    def __init__(self, path, needed_command):
        super().__init__(
            f"missing required artifact {path}; run `tracedistill {needed_command}` first"
        )


class WorkdirLockedError(Exception):
    pass


EXIT_CODES = {
    ConfigError: 2,
    InductionError: 2,
    MissingArtifactError: 3,
    WorkdirLockedError: 4,
    DatasetError: 5,
    CacheError: 5,
    CascadeError: 5,
    RetrievalError: 5,
    BackendError: 6,
}


def write_json(path, value):
    """Write ``value`` to ``path`` as one sorted, indented JSON document and a
    newline, encoded straight into the file rather than built as one string."""
    with replacing(path) as fh:
        json.dump(value, fh, sort_keys=True, ensure_ascii=False, indent=1)
        fh.write("\n")


@contextmanager
def workdir_lock(workdir):
    """Hold an exclusive ``flock`` on ``<workdir>/.lock`` for the block.

    The kernel releases it when its holder exits, however it exits, so a
    leftover file never blocks; a lock held by a live invocation is a
    ``WorkdirLockedError``. The file is never unlinked: a second holder
    could then lock a new inode while the first still holds the old one.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / ".lock", "a") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise WorkdirLockedError(
                f"workdir {workdir} is in use by another invocation"
            ) from None
        yield


@contextmanager
def open_backends(config):
    """The run's backends (``build_backends``), every one closed when the block exits."""
    backends = build_backends(config)
    try:
        yield backends
    finally:
        for backend in set(backends.values()):
            backend.close()


def write_manifest(config, command, inputs, outputs):
    manifest = {
        "command": command,
        "package_version": __version__,
        "config_hash": config.config_hash,
        "schema_versions": {
            "config": CONFIG_SCHEMA_VERSION,
            "cache": CACHE_SCHEMA_VERSION,
            "sft": SFT_HEADER,
            "index": INDEX_FORMAT,
        },
        "inputs": {name: sha256_file(path) for name, path in sorted(inputs.items())},
        "outputs": {
            str(Path(path).relative_to(config.workdir)): sha256_file(path)
            for path in sorted(outputs, key=str)
        },
    }
    write_json(config.workdir / "manifests" / f"{command}.json", manifest)


def write_run_stats(config, command, backends, **counts):
    """Cache/call diagnostics plus the command's own ``counts``; lives under
    logs/ and is not manifest-tracked."""
    unique = {}
    for role, backend in backends.items():
        unique.setdefault(id(backend), (role, backend))
    per_role = {role: b.stats() for role, b in sorted(unique.values())}
    payload = {
        "command": command,
        "backend_calls": sum(s["cache_misses"] for s in per_role.values()),
        "cache_hits": sum(s["cache_hits"] for s in per_role.values()),
        "backends": per_role,
        **counts,
    }
    write_json(config.workdir / "logs" / f"{command}_stats.json", payload)


class Run:
    """One subcommand's config, arguments and open backends, and the files it
    declares as its manifest inputs."""

    def __init__(self, config, args, backends):
        self.config = config
        self.args = args
        self.backends = backends
        self.inputs = {}

    def read(self, name, path, upstream=None):
        """Declare ``path`` the manifest input ``name``. A path that is not a file
        is a ``MissingArtifactError`` naming ``upstream``, the command that writes
        it, or without one a ``ConfigError``: the user named it."""
        path = Path(path)
        if not path.is_file():
            if upstream is not None:
                raise MissingArtifactError(path, upstream)
            raise ConfigError(f"{name} is not a file: {path}")
        self.inputs[name] = path
        return path

    def instruction(self, subtask):
        """The instruction that ``induce`` wrote for ``subtask``; a file with no
        non-blank text is a ``DatasetError``, never a cue to use the built-in one."""
        name = f"prompts/{subtask}.txt"
        path = self.read(name, self.config.workdir / name, "induce")
        text = path.read_text(encoding="utf-8").rstrip("\n")
        if not text.strip():
            raise DatasetError(f"{path} holds no instruction; run `tracedistill induce` again")
        return text

    def retrieval(self):
        """The seed's cards and index, embedded anew each run (the cache makes that cheap)."""
        seed = load_seed(self.read("seed", self.config.seed_path))
        embed = self.backends["embedding"].embed
        index = build_index(seed, embed, encoder=self.config.profiles["embedding"].model)
        return seed_cards(seed), index

    def examples(self, name, path, upstream=None):
        """The annotated examples of a dataset file; a file with no records holds none."""
        return read_records(self.read(name, path, upstream), parse_seed_record)


def cmd_induce(run):
    config = run.config
    seed = load_seed(run.read("seed", config.seed_path))
    outputs = []
    for subtask in ("QP", "UCoT"):
        icfg = InductionConfig(
            subtask=subtask,
            n_candidates=config.n_candidates,
            held_out_fraction=config.held_out_fraction,
            normalization=config.normalization,
            temperature=config.params.temperature,
            max_tokens=config.params.max_tokens,
            base_seed=config.params.seed,
        )
        winner, report = induce_prompt(
            icfg,
            seed,
            run.backends["generation"],
            judge_backend=run.backends["judge"],
            reward_backend=run.backends["reward"],
        )
        report["backends"] = {
            role: config.profiles[role].model for role in ("generation", "judge", "reward")
        }
        text_path = config.workdir / "prompts" / f"{subtask}.txt"
        report_path = text_path.with_suffix(".json")
        with replacing(text_path) as fh:
            fh.write(winner.text + "\n")
        write_json(report_path, report)
        outputs += [text_path, report_path]
    return outputs, {}, f"induced prompts for QP and UCoT -> {config.workdir / 'prompts'}"


def cmd_synthesize(run):
    config = run.config
    qp_instruction = run.instruction("QP")
    ucot_instruction = run.instruction("UCoT")
    pool = load_questions(run.read("pool", config.pool_path))
    cards, index = run.retrieval()
    index_path = config.workdir / "index.bin"
    save_index(index, index_path)
    records, errors = synthesize_batch(
        pool,
        index,
        cards,
        run.backends["generation"],
        qp_instruction=qp_instruction,
        ucot_instruction=ucot_instruction,
        k=config.k,
        params=config.params,
    )
    out_path = config.workdir / "synthesized.jsonl"
    save_jsonl(out_path, (record_to_json(r) for r in records))
    save_jsonl(config.workdir / "logs" / "synthesize_errors.jsonl", errors)
    ok = sum(1 for r in records if r.parse_status == "ok")
    message = f"synthesized {len(records)} records ({ok} parsed clean) -> {out_path}"
    return [out_path, index_path], {}, message


def _filtered_path(config, strategy):
    return config.workdir / f"filtered_{strategy}.jsonl"


def cmd_filter(run):
    config = run.config
    synth_path = run.read("synthesized", config.workdir / "synthesized.jsonl", "synthesize")
    instruction = run.instruction("UCoT")
    records = read_records(synth_path, record_from_json)
    cards, index = run.retrieval()
    result = run_filter(
        records,
        index,
        cards,
        run.backends["reward"],
        k=config.k,
        threshold=config.reward_threshold,
        instruction=instruction,
    )
    outputs = []
    for strategy in STRATEGIES:
        path = _filtered_path(config, strategy)
        save_jsonl(path, (seed_to_json(to_training_example(r)) for r in result.kept[strategy]))
        outputs.append(path)
    audit_path = config.workdir / "filter_audit.jsonl"
    save_jsonl(audit_path, (o.to_json() for o in result.outcomes))
    sizes = ", ".join(f"{s}={len(result.kept[s])}" for s in STRATEGIES)
    message = f"filtered {len(records)} records -> kept {sizes}; audit -> {audit_path}"
    return outputs + [audit_path], {}, message


def cmd_export(run):
    config = run.config
    strategy = run.args.strategy or config.strategy
    examples = run.examples("filtered", _filtered_path(config, strategy), "filter")
    paths = {s: config.workdir / "sft" / f"{strategy}_{s}.jsonl" for s in SUBTASKS}
    lines = {s: export_sft(examples, s, path) for s, path in paths.items()}
    rendered = ", ".join(f"{s}: {lines[s]} lines" for s in SUBTASKS)
    message = f"exported strategy {strategy} ({rendered}) -> {config.workdir / 'sft'}"
    return list(paths.values()), {"sft_lines": lines}, message


def cmd_infer(run):
    config = run.config
    instances = load_questions(run.read("pool", config.pool_path))
    missing_cot = [x.id for x in instances if not (x.cot or "").strip()]
    if missing_cot:
        raise CascadeError(
            f"inference instances must carry CoT text; missing for ids {missing_cot[:5]}"
            + ("..." if len(missing_cot) > 5 else "")
        )
    cards, index = run.retrieval()
    pipeline = CascadePipeline(run.backends, index, cards, k=config.k, params=config.params)
    results = pipeline.run_batch(instances)
    out_path = Path(run.args.out) if run.args.out else config.workdir / "predictions.jsonl"
    write_predictions(out_path, results)
    backend_failed = sum(1 for r in results if BACKEND_FAILED in r.flags)
    flagged = sum(1 for r in results if r.flags)
    # however ``--out`` spells it, the manifest holds the file if it lies in the workdir
    workdir, written = config.workdir.resolve(), out_path.resolve()
    inside = written.is_relative_to(workdir)
    return (
        [config.workdir / written.relative_to(workdir)] if inside else [],
        {"backend_failed": backend_failed, "stage_seconds": stage_seconds(results)},
        f"ran cascade on {len(results)} instances ({flagged} flagged, "
        f"{backend_failed} failed at the backend) -> {out_path}",
    )


def _nearest_rank(ordered, percent):
    """The nearest-rank ``percent`` percentile of the sorted, non-empty ``ordered``."""
    return ordered[-(-len(ordered) * percent // 100) - 1]


def stage_seconds(results):
    """Per cascade stage: the count, sum, p50, p95 and max of its seconds over the
    instances it ran on (a stage that ran holds a raw answer; a stage that never
    ran has None for p50, p95 and max), and how many instances skipped it."""
    summary = {}
    for name in STAGES:
        stages = [r.stages[name] for r in results]
        seconds = sorted(round(s.finished - s.started, 6) for s in stages if s.raw)
        summary[name] = {
            "count": len(seconds),
            "sum": round(sum(seconds), 6),
            "p50": _nearest_rank(seconds, 50) if seconds else None,
            "p95": _nearest_rank(seconds, 95) if seconds else None,
            "max": seconds[-1] if seconds else None,
            "skipped": len(stages) - len(seconds),
        }
    return summary


def cmd_eval(run):
    config, args = run.config, run.args
    pred = args.pred or config.workdir / "predictions.jsonl"
    pred = run.read("pred", pred, None if args.pred else "infer")
    gold = args.gold or config.gold_path
    if gold is None:
        raise ConfigError("no gold file: pass --gold or set paths.gold in the config")
    report = evaluate(pred, run.read("gold", gold), config.policy)
    report_path = config.workdir / "eval_report.json"
    write_json(report_path, vars(report))
    return [report_path], {}, format_report(report)


def cmd_stats(run):
    config, args = run.config, run.args
    data = args.data or _filtered_path(config, args.strategy or config.strategy)
    examples = run.examples("data", data, None if args.data else "filter")
    stats = compute_stats([e.trace for e in examples])
    rows = [("Total", "QP", "CP", "CV")]
    rows.append((stats.total_traces, stats.qp_count, stats.cp_count, stats.cv_count))
    return [], {}, "\n".join(" ".join(f"{cell:>8}" for cell in row) for row in rows)


COMMANDS = {
    "induce": cmd_induce,
    "synthesize": cmd_synthesize,
    "filter": cmd_filter,
    "export": cmd_export,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "stats": cmd_stats,
}


def run_command(config, args):
    """Run the body of ``args.command`` with the run's backends open, then
    write its stats and, last, its manifest; a body that raises writes neither."""
    with open_backends(config) as backends:
        run = Run(config, args, backends)
        outputs, counts, message = COMMANDS[args.command](run)
        write_run_stats(config, args.command, backends, **counts)
        write_manifest(config, args.command, run.inputs, outputs)
    print(message)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ``ConfigError``s, so a bad
    command line exits 2 with the JSON error as every other failure does."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="tracedistill",
        description="Distill structured reasoning training data and run the inference cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        return p

    add("induce", "induce task prompts from the seed set")

    add("synthesize", "synthesize QP/UCoT annotations for the question pool")
    add("filter", "structural + reward filtering into every strategy's dataset")

    p = add("export", "write the QP/CP/CV/CV_evidence SFT files for a filtered dataset")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)

    p = add("infer", "run the Parser/Decomposer/Verifier cascade on a test file")
    p.add_argument("--out", default=None, help="prediction file (default: workdir)")

    p = add("eval", "score predictions against a gold file")
    p.add_argument("--pred", default=None)
    p.add_argument("--gold", default=None)

    p = add("stats", "dataset size table (QP/CP trace-level, CV step-level)")
    p.add_argument("--data", default=None, help="dataset file to summarize")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config)
        with workdir_lock(config.workdir):
            return run_command(config, args)
    except Exception as exc:  # machine-readable failure surface
        for exc_type, code in EXIT_CODES.items():
            if isinstance(exc, exc_type):
                break
        else:
            code = 1
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
