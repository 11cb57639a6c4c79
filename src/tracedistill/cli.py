"""Command-line entry point: the pipeline stages as subcommands.

    tracedistill induce     --config cfg.json
    tracedistill synthesize --config cfg.json
    tracedistill filter     --config cfg.json
    tracedistill export     --config cfg.json [--strategy average]
    tracedistill infer      --config cfg.json [--out predictions.jsonl]
    tracedistill eval       --config cfg.json [--pred ...] [--gold ...]
    tracedistill stats      --config cfg.json [--data file.jsonl | --strategy few]

Retrieval depth comes only from the config's `k`; filter writes every
strategy's dataset and export all three subtask files of its strategy.
Every run writes a manifest (config hash, input hashes, output hashes,
format versions) under <workdir>/manifests/ and call-count diagnostics
under <workdir>/logs/. Manifests contain no timestamps: rerunning a
subcommand on unchanged inputs reproduces it byte for byte. The on-disk
call cache is the only state reused across runs, and every subcommand
closes its cache connections before it returns; index.bin is written by
synthesize and read by no stage. Concurrent invocations against one
working directory are rejected: each holds an exclusive flock on
<workdir>/.lock, which the kernel drops when its holder exits (POSIX only).
Failures print a machine-readable JSON error on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .backends import CACHE_SCHEMA_VERSION, BackendError, CacheError, ConfigError
from .cascade import BACKEND_FAILED, CascadeError, CascadePipeline, write_predictions
from .config import CONFIG_SCHEMA_VERSION, build_backends, load_config
from .corpus import (
    SFT_HEADER,
    SUBTASKS,
    DatasetError,
    compute_stats,
    export_sft,
    load_questions,
    load_seed,
    save_jsonl,
    seed_to_json,
)
from .evalharness import EvalError, evaluate, format_report
from .filtering import STRATEGIES, run_filter, to_training_example
from .induction import InductionConfig, InductionError, induce_prompt
from .prompts import seed_cards
from .retrieval import INDEX_FORMAT, RetrievalError, build_index, save_index
from .synthesis import load_records, record_to_json, synthesize_batch


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
    EvalError: 2,
    MissingArtifactError: 3,
    WorkdirLockedError: 4,
    DatasetError: 5,
    CacheError: 5,
    CascadeError: 5,
    RetrievalError: 5,
    BackendError: 6,
}


def _sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        "inputs": {name: _sha256_file(path) for name, path in sorted(inputs.items())},
        "outputs": {
            str(Path(path).relative_to(config.workdir)): _sha256_file(path)
            for path in sorted(outputs, key=str)
        },
    }
    path = config.workdir / "manifests" / f"{command}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8",
    )
    return path


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
    path = config.workdir / "logs" / f"{command}_stats.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return payload


def _require(path, needed_command):
    if not Path(path).exists():
        raise MissingArtifactError(path, needed_command)
    return Path(path)


def _prompt_paths(config, subtask):
    return (
        config.workdir / "prompts" / f"{subtask}.txt",
        config.workdir / "prompts" / f"{subtask}.json",
    )


def _load_instruction(config, subtask):
    text_path = _require(_prompt_paths(config, subtask)[0], "induce")
    return text_path.read_text(encoding="utf-8").rstrip("\n")


def _seed_index(config, backends, seed):
    """Embed the seed questions; every run rebuilds it, and the cache makes that cheap."""
    return build_index(
        seed, backends["embedding"].embed, encoder=config.profiles["embedding"].model
    )


def cmd_induce(config, args):
    with open_backends(config) as backends:
        seed = load_seed(config.seed_path)
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
                backends["generation"],
                judge_backend=backends["judge"],
                reward_backend=backends["reward"],
            )
            report["backends"] = {
                "generation": config.profiles["generation"].model,
                "judge": config.profiles["judge"].model,
                "reward": config.profiles["reward"].model,
            }
            text_path, report_path = _prompt_paths(config, subtask)
            text_path.parent.mkdir(parents=True, exist_ok=True)
            text_path.write_text(winner.text + "\n", encoding="utf-8")
            report_path.write_text(
                json.dumps(report, sort_keys=True, ensure_ascii=False, indent=1) + "\n",
                encoding="utf-8",
            )
            outputs += [text_path, report_path]
        write_run_stats(config, "induce", backends)
        write_manifest(config, "induce", {"seed": config.seed_path}, outputs)
        print(f"induced prompts for QP and UCoT -> {config.workdir / 'prompts'}")
        return 0


def cmd_synthesize(config, args):
    qp_instruction = _load_instruction(config, "QP")
    ucot_instruction = _load_instruction(config, "UCoT")
    with open_backends(config) as backends:
        seed = load_seed(config.seed_path)
        pool = load_questions(config.pool_path)
        cards = seed_cards(seed)
        index = _seed_index(config, backends, seed)
        index_path = config.workdir / "index.bin"
        save_index(index, index_path)

        records, errors = synthesize_batch(
            pool,
            index,
            cards,
            backends["generation"],
            qp_instruction=qp_instruction,
            ucot_instruction=ucot_instruction,
            k=config.k,
            params=config.params,
        )
        out_path = config.workdir / "synthesized.jsonl"
        save_jsonl(out_path, (record_to_json(r) for r in records))
        save_jsonl(config.workdir / "logs" / "synthesize_errors.jsonl", errors)
        write_run_stats(config, "synthesize", backends)
        inputs = {
            "seed": config.seed_path,
            "pool": config.pool_path,
            "prompts/QP.txt": _prompt_paths(config, "QP")[0],
            "prompts/UCoT.txt": _prompt_paths(config, "UCoT")[0],
        }
        write_manifest(config, "synthesize", inputs, [out_path, index_path])
        ok = sum(1 for r in records if r.parse_status == "ok")
        print(f"synthesized {len(records)} records ({ok} parsed clean) -> {out_path}")
        return 0


def _filtered_path(config, strategy):
    return config.workdir / f"filtered_{strategy}.jsonl"


def cmd_filter(config, args):
    synth_path = _require(config.workdir / "synthesized.jsonl", "synthesize")
    instruction = _load_instruction(config, "UCoT")
    with open_backends(config) as backends:
        seed = load_seed(config.seed_path)
        cards = seed_cards(seed)
        records = load_records(synth_path)
        index = _seed_index(config, backends, seed)
        result = run_filter(
            records,
            index,
            cards,
            backends["reward"],
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
        outputs.append(audit_path)
        write_run_stats(config, "filter", backends)
        inputs = {
            "synthesized": synth_path,
            "seed": config.seed_path,
            "prompts/UCoT.txt": _prompt_paths(config, "UCoT")[0],
        }
        write_manifest(config, "filter", inputs, outputs)
        sizes = ", ".join(f"{s}={len(result.kept[s])}" for s in STRATEGIES)
        print(f"filtered {len(records)} records -> kept {sizes}; audit -> {audit_path}")
        return 0


def cmd_export(config, args):
    strategy = args.strategy or config.strategy
    filtered = _require(_filtered_path(config, strategy), "filter")
    examples = [] if _file_is_empty(filtered) else load_seed(filtered)
    outputs = []
    counts = {}
    for subtask in SUBTASKS:
        path = config.workdir / "sft" / f"{strategy}_{subtask}.jsonl"
        counts[subtask] = export_sft(examples, subtask, path)
        outputs.append(path)
    write_manifest(config, "export", {"filtered": filtered}, outputs)
    rendered = ", ".join(f"{s}: {counts[s]} lines" for s in SUBTASKS)
    print(f"exported strategy {strategy} ({rendered}) -> {config.workdir / 'sft'}")
    return 0


def _file_is_empty(path):
    return not Path(path).read_text(encoding="utf-8").strip()


def cmd_infer(config, args):
    with open_backends(config) as backends:
        seed = load_seed(config.seed_path)
        cards = seed_cards(seed)
        instances = load_questions(config.pool_path)
        missing_cot = [x.id for x in instances if not (x.cot or "").strip()]
        if missing_cot:
            raise CascadeError(
                f"inference instances must carry CoT text; missing for ids {missing_cot[:5]}"
                + ("..." if len(missing_cot) > 5 else "")
            )
        index = _seed_index(config, backends, seed)
        pipeline = CascadePipeline(
            backends, index, cards, k=config.k, params=config.params
        )
        outputs = pipeline.run_batch(instances)
        out_path = Path(args.out) if args.out else config.workdir / "predictions.jsonl"
        write_predictions(out_path, outputs)
        timings = {
            o.instance_id: {
                name: round(stage.finished - stage.started, 6) for name, stage in o.stages.items()
            }
            for o in outputs
        }
        timings_path = config.workdir / "logs" / "infer_timings.json"
        timings_path.parent.mkdir(parents=True, exist_ok=True)
        timings_path.write_text(json.dumps(timings, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        backend_failed = sum(1 for o in outputs if BACKEND_FAILED in o.flags)
        write_run_stats(config, "infer", backends, backend_failed=backend_failed)
        write_manifest(
            config,
            "infer",
            {"seed": config.seed_path, "pool": config.pool_path},
            [out_path] if out_path.is_relative_to(config.workdir) else [],
        )
        flagged = sum(1 for o in outputs if o.flags)
        print(
            f"ran cascade on {len(outputs)} instances ({flagged} flagged, "
            f"{backend_failed} failed at the backend) -> {out_path}"
        )
        return 0


def cmd_eval(config, args):
    pred = Path(args.pred) if args.pred else config.workdir / "predictions.jsonl"
    if not pred.exists():
        raise MissingArtifactError(pred, "infer")
    gold = Path(args.gold) if args.gold else config.gold_path
    if gold is None:
        raise ConfigError("no gold file: pass --gold or set paths.gold in the config")
    report = evaluate(pred, gold, config.policy)
    report_path = config.workdir / "eval_report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(
        json.dumps(report.to_json(), sort_keys=True, ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8",
    )
    write_manifest(config, "eval", {"pred": pred, "gold": gold}, [report_path])
    print(format_report(report))
    return 0


def cmd_stats(config, args):
    if args.data:
        data = Path(args.data)
        if not data.exists():
            raise MissingArtifactError(data, "filter")
    else:
        strategy = args.strategy or config.strategy
        data = _require(_filtered_path(config, strategy), "filter")
    examples = [] if _file_is_empty(data) else load_seed(data)
    stats = compute_stats([e.trace for e in examples])
    print(f"{'Total':>8} {'QP':>8} {'CP':>8} {'CV':>8}")
    print(
        f"{stats.total_traces:>8} {stats.qp_count:>8} {stats.cp_count:>8} {stats.cv_count:>8}"
    )
    write_manifest(config, "stats", {"data": data}, [])
    return 0


COMMANDS = {
    "induce": cmd_induce,
    "synthesize": cmd_synthesize,
    "filter": cmd_filter,
    "export": cmd_export,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "stats": cmd_stats,
}


def build_parser():
    parser = argparse.ArgumentParser(
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

    p = add("export", "write the QP/CP/CV SFT training files for a filtered dataset")
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
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        with workdir_lock(config.workdir):
            return COMMANDS[args.command](config, args)
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
