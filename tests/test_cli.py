import hashlib
import json
import os
import signal
import sqlite3
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import closing, contextmanager
from pathlib import Path

import pytest

from conftest import (
    GOLD_REWARD_AVG,
    GOLD_REWARD_FEW,
    GOLD_REWARD_ZERO,
    ROWID_CACHE_SETUP,
    cached_rows,
    gold_example,
    inflated,
    make_example,
    write_jsonl,
)
from tracedistill import backends as backends_module
from tracedistill import prompts
from tracedistill.backends import build_reward_payload
from tracedistill.cascade import STAGES as CASCADE_STAGES
from tracedistill.cascade import CascadeOutput, StageResult
from tracedistill.cli import WorkdirLockedError, main, stage_seconds, workdir_lock
from tracedistill.corpus import SFT_HEADER, SUBTASKS, instance_to_json, seed_to_json, trace_to_json
from tracedistill.filtering import build_reward_prompts
from tracedistill.retrieval import build_index, top_k
from tracedistill.synthesis import SynthesizedRecord, record_to_json


def _mock_profile(model, **extra):
    profile = {"kind": "mock", "model": model, "seed": 0, "max_inflight": 4}
    profile.update(extra)
    return profile


def make_config(tmp_path, n_seed=5, n_pool=6, overrides=None, backend_overrides=None):
    seed_rows = [seed_to_json(make_example(f"seed-{i}", n_steps=2 + i % 2)) for i in range(n_seed)]
    write_jsonl(tmp_path / "seed.jsonl", seed_rows)
    pool_rows = [
        instance_to_json(make_example(f"pool-{i:02d}", n_steps=2).instance) for i in range(n_pool)
    ]
    write_jsonl(tmp_path / "pool.jsonl", pool_rows)
    gold_rows = [seed_to_json(make_example(f"pool-{i:02d}", n_steps=2)) for i in range(n_pool)]
    write_jsonl(tmp_path / "gold.jsonl", gold_rows)

    config = {
        "schema_version": 1,
        "seed": 0,
        "k": 2,
        "n_candidates": 3,
        "strategy": "average",
        "temperature": 0.1,
        "max_tokens": 512,
        "held_out_fraction": 0.25,
        "normalization": "zscore",
        "reward_threshold": 0.0,
        "paths": {
            "seed": "seed.jsonl",
            "pool": "pool.jsonl",
            "workdir": "work",
            "gold": "gold.jsonl",
        },
        "policy": {"mode": "exact"},
        "backends": {
            "generation": _mock_profile("gen-mock"),
            "embedding": _mock_profile("embed-mock", embed_dim=16),
            "reward": _mock_profile("reward-mock"),
            "judge": _mock_profile("judge-mock"),
        },
    }
    if backend_overrides:
        config["backends"].update(backend_overrides)
    if overrides:
        config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def test_induce_dumps_each_gold_block_once(tmp_path, monkeypatch):
    """Every candidate, round and held-out judgement reuses one gold block per seed example."""
    calls = Counter()
    dump = prompts.gold_output

    def counted(example, subtask):
        calls[example.instance.id, subtask] += 1
        return dump(example, subtask)

    monkeypatch.setattr(prompts, "gold_output", counted)
    assert main(["induce", "--config", str(make_config(tmp_path, n_seed=5))]) == 0
    assert calls == {(f"seed-{i}", subtask): 1 for i in range(5) for subtask in ("QP", "UCoT")}


def test_full_pipeline_exit_codes_and_artifacts(tmp_path):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(config)]) == 0
    assert (workdir / "prompts" / "QP.txt").exists()
    assert (workdir / "prompts" / "UCoT.json").exists()

    assert main(["synthesize", "--config", str(config)]) == 0
    assert (workdir / "synthesized.jsonl").exists()
    assert (workdir / "index.bin").exists()

    assert main(["filter", "--config", str(config)]) == 0
    for strategy in ("structure", "zero", "few", "average"):
        assert (workdir / f"filtered_{strategy}.jsonl").exists()
    assert (workdir / "filter_audit.jsonl").exists()

    assert main(["export", "--config", str(config), "--strategy", "structure"]) == 0
    for subtask in ("QP", "CP", "CV"):
        assert (workdir / "sft" / f"structure_{subtask}.jsonl").exists()

    assert main(["infer", "--config", str(config)]) == 0
    assert (workdir / "predictions.jsonl").exists()

    assert main(["eval", "--config", str(config)]) == 0
    report = json.loads((workdir / "eval_report.json").read_text(encoding="utf-8"))
    assert set(report) >= {"ques_f1", "stmt_f1", "evid_f1", "reason_f1"}

    assert main(["stats", "--config", str(config), "--strategy", "structure"]) == 0
    for command in ("induce", "synthesize", "filter", "export", "infer", "eval", "stats"):
        assert (workdir / "manifests" / f"{command}.json").exists()


def test_max_inflight_changes_no_manifest_input_or_output(tmp_path):
    commands = ("induce", "synthesize", "filter", "export", "infer", "eval")
    runs = {}
    for width in (1, 4):
        config = make_config(tmp_path / f"inflight-{width}")
        settings = json.loads(config.read_text(encoding="utf-8"))
        for profile in settings["backends"].values():
            profile["max_inflight"] = width
        config.write_text(json.dumps(settings), encoding="utf-8")
        runs[width] = {}
        for command in commands:
            assert main([command, "--config", str(config)]) == 0, command
            path = config.parent / "work" / "manifests" / f"{command}.json"
            runs[width][command] = json.loads(path.read_text(encoding="utf-8"))
    for command in commands:
        one, four = runs[1][command], runs[4][command]
        assert one["config_hash"] != four["config_hash"]
        assert (one["inputs"], one["outputs"]) == (four["inputs"], four["outputs"]), command


def test_stats_reports_counts(tmp_path, capsys):
    config = make_config(tmp_path)
    data = tmp_path / "two_traces.jsonl"
    write_jsonl(
        data,
        [
            seed_to_json(make_example("a", n_steps=3)),
            seed_to_json(make_example("b", n_steps=4)),
        ],
    )
    assert main(["stats", "--config", str(config), "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["Total", "QP", "CP", "CV"]
    assert lines[1].split() == ["2", "2", "2", "7"]


def test_missing_upstream_artifact_names_prior_command(tmp_path, capsys):
    config = make_config(tmp_path)
    code = main(["synthesize", "--config", str(config)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "MissingArtifactError"
    assert "induce" in err["error"]["message"]


def test_filter_requires_synthesize(tmp_path, capsys):
    config = make_config(tmp_path)
    assert main(["filter", "--config", str(config)]) == 3
    assert "synthesize" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_invalid_config_machine_readable(tmp_path, capsys):
    config = make_config(tmp_path, overrides={"strategy": "percentile"})
    assert main(["induce", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"


def test_missing_config_file(tmp_path, capsys):
    assert main(["induce", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


SRC = Path(__file__).resolve().parent.parent / "src"

HOLDER = """
import sys, time
from tracedistill.cli import workdir_lock
with workdir_lock(sys.argv[1]):
    print("held", flush=True)
    time.sleep(600)
"""


@contextmanager
def lock_holder(workdir):
    """A separate process that holds ``workdir``'s lock until it is killed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLDER, str(workdir)], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        assert holder.stdout.readline() == "held\n"
        yield holder
    finally:
        holder.kill()
        holder.wait(timeout=60)
        holder.stdout.close()


def test_locked_workdir_rejected(tmp_path, capsys):
    config = make_config(tmp_path)
    with lock_holder(tmp_path / "work"):
        assert main(["induce", "--config", str(config)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "WorkdirLockedError"


def test_lock_of_an_exited_process_is_taken_over(tmp_path):
    config = make_config(tmp_path)
    with lock_holder(tmp_path / "work") as holder:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=60)
        assert main(["induce", "--config", str(config)]) == 0


@pytest.mark.parametrize(
    "content", ["", "not a pid\n", "1\n", f"{os.getpid()}\n"],
    ids=["empty", "not-a-pid", "live-pid", "own-pid"],
)
def test_leftover_lock_file_does_not_block(tmp_path, content):
    config = make_config(tmp_path)
    lock = tmp_path / "work" / ".lock"
    lock.parent.mkdir()
    lock.write_text(content, encoding="utf-8")
    assert main(["induce", "--config", str(config)]) == 0


def test_lock_released_after_run(tmp_path):
    config = make_config(tmp_path)
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["induce", "--config", str(config)]) == 0


def test_threads_holding_the_workdir_lock_never_overlap(tmp_path):
    """Each round starts from a lock file naming an exited process's pid."""
    exited = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                            capture_output=True, text=True, check=True, timeout=60)
    lock = tmp_path / "work" / ".lock"
    lock.parent.mkdir()
    threads, rounds = 4, 50
    barrier = threading.Barrier(threads)
    guard = threading.Lock()
    holding = peak = 0
    entered = Counter()

    def attempt(round_no):
        nonlocal holding, peak
        barrier.wait(timeout=60)
        try:
            with workdir_lock(tmp_path / "work"):
                with guard:
                    holding += 1
                    peak = max(peak, holding)
                    entered[round_no] += 1
                time.sleep(0.001)
                with guard:
                    holding -= 1
        except WorkdirLockedError:
            pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(rounds):
            lock.write_text(exited.stdout, encoding="utf-8")
            pool = [threading.Thread(target=attempt, args=(round_no,)) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert peak == 1
    assert set(entered) == set(range(rounds))


def test_export_cv_lines_match_stats(tmp_path):
    config = make_config(tmp_path)
    main(["induce", "--config", str(config)])
    main(["synthesize", "--config", str(config)])
    main(["filter", "--config", str(config)])
    assert main(["export", "--config", str(config), "--strategy", "structure"]) == 0
    workdir = tmp_path / "work"
    kept = [
        json.loads(line)
        for line in (workdir / "filtered_structure.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    expected = sum(len(r["cot_parsing"]) for r in kept)
    lines = (workdir / "sft" / "structure_CV.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[0] == SFT_HEADER
    assert len(lines) - 1 == expected


def test_eval_perfect_when_pred_equals_gold(tmp_path, capsys):
    config = make_config(tmp_path)
    (tmp_path / "work").mkdir()
    gold = tmp_path / "gold.jsonl"
    assert (
        main(["eval", "--config", str(config), "--pred", str(gold), "--gold", str(gold)]) == 0
    )
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "work" / "eval_report.json").read_text(encoding="utf-8"))
    assert report["ques_f1"] == 1.0
    assert report["reason_f1"] == 1.0
    assert "100.00" in out


def test_rerun_produces_identical_manifests(tmp_path):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    main(["induce", "--config", str(config)])
    main(["synthesize", "--config", str(config)])
    first = {
        name: (workdir / "manifests" / f"{name}.json").read_bytes()
        for name in ("induce", "synthesize")
    }
    main(["induce", "--config", str(config)])
    main(["synthesize", "--config", str(config)])
    for name, blob in first.items():
        assert (workdir / "manifests" / f"{name}.json").read_bytes() == blob


def test_filter_audit_shows_exact_average_for_recorded_rewards(tmp_path, monkeypatch):
    """Reward scores served over the wire; the audit carries the exact mean."""
    config_path = make_config(
        tmp_path,
        backend_overrides={
            "reward": {"kind": "http", "model": "rm", "endpoint": "https://rm.test/v1"}
        },
    )
    workdir = tmp_path / "work"
    (workdir / "prompts").mkdir(parents=True)
    (workdir / "prompts" / "UCoT.txt").write_text(prompts.UCOT_INSTRUCTION + "\n", encoding="utf-8")

    gold = gold_example("pool-fixture")
    record = SynthesizedRecord(
        instance=gold.instance,
        qp_raw=json.dumps(gold.question_parsing, ensure_ascii=False),
        ucot_raw=json.dumps(trace_to_json(gold.trace), ensure_ascii=False),
        qp=gold.question_parsing,
        trace=gold.trace,
        parse_status="ok",
    )
    write_jsonl(workdir / "synthesized.jsonl", [record_to_json(record)])

    # Reproduce the contexts the filter stage will build, then answer both
    # reward requests by their exact payloads.
    from tracedistill.config import load_config, build_backends

    config = load_config(config_path)
    backends = build_backends(config)
    seeds = [make_example(f"seed-{i}", n_steps=2 + i % 2) for i in range(5)]
    seed_by_id = {e.instance.id: e for e in seeds}
    index = build_index(seeds, backends["embedding"].embed, encoder="embed-mock")
    hits = top_k(index, gold.instance.question, config.k, exclude={gold.instance.id})
    few, zero = build_reward_prompts(gold.instance, hits, seed_by_id)
    scores = {
        json.dumps(build_reward_payload("rm", few, record.ucot_raw)): GOLD_REWARD_FEW,
        json.dumps(build_reward_payload("rm", zero, record.ucot_raw)): GOLD_REWARD_ZERO,
    }

    def transport(url, payload):
        assert url == "https://rm.test/v1/chat/completions"
        return {"score": scores[json.dumps(payload)]}

    monkeypatch.setattr(backends_module, "RequestsTransport", lambda *args: transport)

    assert main(["filter", "--config", str(config_path)]) == 0
    audit = [
        json.loads(line)
        for line in (workdir / "filter_audit.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    reward_lines = [a for a in audit if a["stage"] == "reward" and a["strategy"] == "average"]
    assert len(reward_lines) == 1
    assert reward_lines[0]["decision"] == "keep"
    assert reward_lines[0]["scores"]["s_few"] == GOLD_REWARD_FEW
    assert reward_lines[0]["scores"]["s_zero"] == GOLD_REWARD_ZERO
    assert reward_lines[0]["scores"]["s_avg"] == GOLD_REWARD_AVG
    kept = (workdir / "filtered_average.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(kept) == 1
    assert json.loads(kept[0])["id"] == "pool-fixture"


def test_infer_with_separate_verify_backend(tmp_path):
    config = make_config(
        tmp_path,
        backend_overrides={"verifier": _mock_profile("verifier-mock")},
    )
    assert main(["infer", "--config", str(config)]) == 0
    stats = json.loads(
        (tmp_path / "work" / "logs" / "infer_stats.json").read_text(encoding="utf-8")
    )
    verify_stats = stats["backends"]["verifier"]
    assert verify_stats["model"] == "verifier-mock"
    assert verify_stats["inner_calls"]["generate"] > 0


def _infer_outputs(tmp_path, monkeypatch, out):
    """The manifest outputs of an ``infer --out out`` whose config, and so its workdir,
    is named relative to the working directory."""
    make_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["infer", "--config", "config.json", "--out", out]) == 0
    manifest = tmp_path / "work" / "manifests" / "infer.json"
    return json.loads(manifest.read_text(encoding="utf-8"))["outputs"]


def test_infer_out_that_climbs_out_of_the_workdir_is_left_out_of_the_manifest(
    tmp_path, monkeypatch
):
    assert _infer_outputs(tmp_path, monkeypatch, "work/../outside_preds.jsonl") == {}
    assert (tmp_path / "outside_preds.jsonl").is_file()


def test_infer_out_spelled_as_an_absolute_path_into_the_workdir_is_in_the_manifest(
    tmp_path, monkeypatch
):
    out = tmp_path / "work" / "custom_preds.jsonl"
    outputs = _infer_outputs(tmp_path, monkeypatch, str(out))
    assert outputs == {"custom_preds.jsonl": hashlib.sha256(out.read_bytes()).hexdigest()}


def test_infer_rejects_pool_without_cot(tmp_path, capsys):
    config = make_config(tmp_path)
    pool_rows = []
    for i in range(2):
        row = instance_to_json(make_example(f"pool-{i:02d}").instance)
        row.pop("cot", None)
        pool_rows.append(row)
    write_jsonl(tmp_path / "pool.jsonl", pool_rows)
    assert main(["infer", "--config", str(config)]) == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CascadeError"


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_infer_embeds_the_current_seed_file_not_index_bin(tmp_path):
    config = make_config(tmp_path)
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    renamed = [
        seed_to_json(make_example(f"renamed-{i}", n_steps=2 + i % 2)) for i in range(5)
    ]
    write_jsonl(tmp_path / "seed.jsonl", renamed)
    assert main(["infer", "--config", str(config)]) == 0


def test_cached_vectors_of_another_embed_dim_are_misses(tmp_path, capsys):
    # the embed call's cache key holds the model and the text, not embed_dim;
    # a cached vector of another length is one the mock could not have returned
    config = make_config(tmp_path)
    for command in ("induce", "synthesize"):
        assert main([command, "--config", str(config)]) == 0
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["backends"]["embedding"]["embed_dim"] = 8
    config.write_text(json.dumps(raw), encoding="utf-8")
    pool = _read_jsonl(tmp_path / "pool.jsonl")
    pool.append(instance_to_json(make_example("pool-new", n_steps=2).instance))
    write_jsonl(tmp_path / "pool.jsonl", pool)
    assert main(["infer", "--config", str(config)]) == 0, capsys.readouterr().err
    fresh = make_config(
        tmp_path / "fresh", backend_overrides={"embedding": _mock_profile("embed-mock", embed_dim=8)}
    )
    write_jsonl(tmp_path / "fresh" / "pool.jsonl", pool)
    assert main(["infer", "--config", str(fresh)]) == 0
    predictions = (tmp_path / "work" / "predictions.jsonl").read_bytes()
    assert predictions == (tmp_path / "fresh" / "work" / "predictions.jsonl").read_bytes()


def test_synthesize_output_follows_the_current_pool(tmp_path):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    pool = _read_jsonl(tmp_path / "pool.jsonl")[:3]
    write_jsonl(tmp_path / "pool.jsonl", pool)
    assert main(["synthesize", "--config", str(config)]) == 0
    written = [r["id"] for r in _read_jsonl(workdir / "synthesized.jsonl")]
    assert written == [r["id"] for r in pool]


def test_synthesize_regenerates_after_prompt_edit(tmp_path):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    qp_path = workdir / "prompts" / "QP.txt"
    qp_path.write_text("List every condition the problem states.\n", encoding="utf-8")
    assert main(["synthesize", "--config", str(config)]) == 0
    stats = json.loads((workdir / "logs" / "synthesize_stats.json").read_text(encoding="utf-8"))
    assert stats["backend_calls"] > 0


def test_synthesize_clears_error_log_of_an_earlier_run(tmp_path):
    config = make_config(tmp_path)
    errors_path = tmp_path / "work" / "logs" / "synthesize_errors.jsonl"
    assert main(["induce", "--config", str(config)]) == 0
    errors_path.parent.mkdir(parents=True, exist_ok=True)
    errors_path.write_text('{"id": "pool-00", "error": "stale"}\n', encoding="utf-8")
    assert main(["synthesize", "--config", str(config)]) == 0
    assert errors_path.read_text(encoding="utf-8") == ""


def test_filter_requires_and_declares_the_induced_ucot_prompt(tmp_path, capsys):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    assert main(["filter", "--config", str(config)]) == 0
    manifest = json.loads((workdir / "manifests" / "filter.json").read_text(encoding="utf-8"))
    assert "prompts/UCoT.txt" in manifest["inputs"]
    capsys.readouterr()
    (workdir / "prompts" / "UCoT.txt").unlink()
    assert main(["filter", "--config", str(config)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "MissingArtifactError"
    assert "induce" in err["error"]["message"]


@pytest.mark.parametrize("content", ["\n", " \t\n\n"], ids=["newline", "whitespace"])
@pytest.mark.parametrize(
    "command, subtask", [("synthesize", "QP"), ("synthesize", "UCoT"), ("filter", "UCoT")]
)
def test_a_blank_induced_prompt_exits_5_and_is_never_swapped_for_the_built_in_one(
    tmp_path, capsys, command, subtask, content
):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(config)]) == 0
    if command == "filter":
        assert main(["synthesize", "--config", str(config)]) == 0
    path = workdir / "prompts" / f"{subtask}.txt"
    path.write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DatasetError"
    assert str(path) in err["message"]
    assert "tracedistill induce" in err["message"]
    assert not (workdir / "manifests" / f"{command}.json").exists()


def test_null_chat_completion_is_a_backend_failure_and_never_cached(
    tmp_path, capsys, monkeypatch
):
    requests = []

    def transport(url, payload):
        requests.append(url)
        return {"choices": [{"message": {"role": "assistant", "content": None}}]}

    monkeypatch.setattr(backends_module, "RequestsTransport", lambda *args: transport)
    config = make_config(
        tmp_path,
        backend_overrides={
            "generation": {"kind": "http", "model": "remote", "endpoint": "https://gen.test/v1"}
        },
    )
    assert main(["infer", "--config", str(config)]) == 6
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "BackendError"
    first = len(requests)
    assert first > 0
    assert main(["infer", "--config", str(config)]) == 6
    assert len(requests) > first
    cache = tmp_path / "work" / "cache"
    assert cached_rows(cache / "generation") == []
    embedded = cached_rows(cache / "embedding")
    assert embedded
    assert all(isinstance(row, bytes) for row in embedded)


def _null_completion_for(marker, tmp_path, monkeypatch):
    """A config whose generation endpoint answers as the mock does, but with null
    content for every prompt that contains ``marker``."""
    mock = backends_module.MockBackend(model="remote")

    def transport(url, payload):
        messages = [backends_module.ChatMessage(**m) for m in payload["messages"]]
        content = None
        if marker not in messages[-1].content:
            params = backends_module.GenParams(payload["temperature"], payload["max_tokens"])
            content = mock.generate(messages, params)
        return {"choices": [{"message": {"role": "assistant", "content": content}}]}

    monkeypatch.setattr(backends_module, "RequestsTransport", lambda *args: transport)
    return make_config(
        tmp_path,
        backend_overrides={
            "generation": {"kind": "http", "model": "remote", "endpoint": "https://gen.test/v1"}
        },
    )


def test_null_completion_for_one_question_flags_only_that_question(
    tmp_path, capsys, caplog, monkeypatch
):
    config = _null_completion_for("Puzzle pool-03:", tmp_path, monkeypatch)
    with caplog.at_level("WARNING", logger="tracedistill.cascade"):
        assert main(["infer", "--config", str(config)]) == 0
    warnings = [r for r in caplog.records if r.name == "tracedistill.cascade"]
    assert [r.getMessage().split(":")[0] for r in warnings] == [
        "cascade failed for pool-03"
    ]
    assert "1 failed at the backend" in capsys.readouterr().out
    predictions = {row["id"]: row for row in _read_jsonl(tmp_path / "work" / "predictions.jsonl")}
    assert sorted(predictions) == [f"pool-{i:02d}" for i in range(6)]
    assert predictions.pop("pool-03") == {
        "id": "pool-03", "question_parsing": [], "cot_parsing": []
    }
    assert all(row["question_parsing"] and row["cot_parsing"] for row in predictions.values())
    stats = json.loads((tmp_path / "work" / "logs" / "infer_stats.json").read_text())
    assert stats["backend_failed"] == 1


def test_null_completion_for_one_question_skips_only_that_record_in_synthesize(
    tmp_path, monkeypatch
):
    config = _null_completion_for("Puzzle pool-03:", tmp_path, monkeypatch)
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    written = [r["id"] for r in _read_jsonl(workdir / "synthesized.jsonl")]
    assert written == [f"pool-{i:02d}" for i in range(6) if i != 3]
    errors = _read_jsonl(workdir / "logs" / "synthesize_errors.jsonl")
    assert [sorted(e) for e in errors] == [["error", "id"]]
    assert errors[0]["id"] == "pool-03"
    assert errors[0]["error"].startswith("malformed chat response")


def _refused_endpoint(tmp_path, monkeypatch, role):
    """A config whose ``role`` endpoint refuses every connection, as a closed port does."""

    def transport(url, payload):
        raise backends_module.TransientBackendError(f"connection refused: {url}")

    monkeypatch.setattr(backends_module, "RequestsTransport", lambda *args: transport)
    refused = {"kind": "http", "model": "remote", "endpoint": "http://x.test", "retry_budget": 0}
    return make_config(tmp_path, backend_overrides={role: refused})


def test_synthesize_with_every_question_failed_at_the_backend_exits_6(
    tmp_path, capsys, monkeypatch
):
    workdir = tmp_path / "work"
    assert main(["induce", "--config", str(make_config(tmp_path))]) == 0
    config = _refused_endpoint(tmp_path, monkeypatch, "generation")
    capsys.readouterr()
    assert main(["synthesize", "--config", str(config)]) == 6
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "BackendError"
    assert err["message"].startswith("every question failed at the backend")
    assert not (workdir / "synthesized.jsonl").exists()
    assert not (workdir / "manifests" / "synthesize.json").exists()


def test_filter_with_every_survivor_failed_at_the_reward_backend_exits_6(
    tmp_path, capsys, monkeypatch
):
    workdir = tmp_path / "work"
    config = make_config(tmp_path)
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    assert any(r["parse_status"] == "ok" for r in _read_jsonl(workdir / "synthesized.jsonl"))
    config = _refused_endpoint(tmp_path, monkeypatch, "reward")
    capsys.readouterr()
    assert main(["filter", "--config", str(config)]) == 6
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "BackendError"
    assert err["message"].endswith("structural survivors failed at the backend")
    assert not (workdir / "filtered_average.jsonl").exists()


@pytest.mark.parametrize("role", ["verifier_verify", "verifer"])
def test_unknown_backend_role_is_a_config_error(tmp_path, capsys, role):
    config = make_config(tmp_path, backend_overrides={role: _mock_profile("extra-mock")})
    assert main(["infer", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert role in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "--k", "1"],
        ["infer", "--k", "1"],
        ["filter", "--strategy", "average"],
        ["export", "--subtask", "CV"],
    ],
)
def test_removed_run_overrides_are_rejected(argv, capsys):
    assert main(argv + ["--config", "cfg.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ConfigError"
    assert "unrecognized arguments" in err["message"]
    assert argv[1] in err["message"]


@pytest.mark.parametrize(
    "argv, words",
    [
        (["infer"], ["the following arguments are required", "--config"]),
        (["infer", "--config", "cfg.json", "--bogus"], ["unrecognized arguments", "--bogus"]),
        (["export", "--config", "cfg.json", "--strategy", "best"], ["invalid choice", "best"]),
        (["distill", "--config", "cfg.json"], ["invalid choice", "distill"]),
        ([], ["the following arguments are required", "command"]),
    ],
)
def test_a_bad_command_line_exits_2_with_the_json_error(
    tmp_path, monkeypatch, capsys, argv, words
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ConfigError"
    assert all(word in err["message"] for word in words)
    assert list(tmp_path.iterdir()) == []


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tracedistill infer")
    assert captured.err == ""


@pytest.mark.parametrize("key", ["workers", "leave_one_out", "reward_treshold"])
def test_unknown_top_level_config_key_is_a_config_error(tmp_path, capsys, key):
    config = make_config(tmp_path, overrides={key: 4})
    assert main(["infer", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert key in err["message"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"k": "three"},
        {"temperature": 5},
        {"max_tokens": 0},
        {"reward_threshold": float("nan")},
        {"n_candidates": 1},
        {"held_out_fraction": 7},
        {"normalization": "minmax"},
        {"paths": {"seed": 5, "pool": "pool.jsonl", "workdir": "work"}},
        {"paths": ["seed", "pool", "workdir"]},
        {"backends": "generation embedding reward judge"},
        {"k": 2.7},
        {"k": True},
        {"seed": 1.5},
    ],
    ids=[
        "k-not-a-number",
        "temperature-out-of-range",
        "max-tokens-zero",
        "reward-threshold-nan",
        "n-candidates-one",
        "held-out-fraction-seven",
        "normalization-unknown",
        "paths-seed-not-a-string",
        "paths-not-an-object",
        "backends-not-an-object",
        "k-fraction",
        "k-bool",
        "seed-fraction",
    ],
)
def test_bad_config_value_is_a_config_error(tmp_path, capsys, overrides):
    config = make_config(tmp_path, overrides=overrides)
    assert main(["infer", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert next(iter(overrides)) in err["message"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("cassette", "reward.json"),
        ("replay", True),
        ("retry_budget", 1.5),
        ("retry_budget", -1),
        ("max_inflight", True),
        ("max_inflight", "4"),
        ("kind", 5),
        ("model", 5),
        ("endpoint", ["https://rm.test/v1"]),
        ("auth_env", 0),
        ("cache_dir", 7),
        ("malformed_rate", "x"),
        ("malformed_rate", 1.5),
        ("empty_qp_rate", float("nan")),
        ("empty_qp_rate", False),
        ("timeout", "60"),
        ("timeout", -1),
        ("timeout", 0),
        ("timeout", float("inf")),
        ("embed_dim", 0),
        ("embed_dim", -3),
    ],
    ids=["cassette", "replay", "retry-budget-fraction", "retry-budget-negative", "max-inflight-bool",
         "max-inflight-string", "kind-number", "model-number", "endpoint-list", "auth-env-number",
         "cache-dir-number", "malformed-rate-string", "malformed-rate-above-one",
         "empty-qp-rate-nan", "empty-qp-rate-bool", "timeout-string", "timeout-negative",
         "timeout-zero", "timeout-inf", "embed-dim-zero", "embed-dim-negative"],
)
def test_bad_profile_field_is_a_config_error(tmp_path, capsys, field, value):
    reward = {"kind": "http", "model": "rm", "endpoint": "https://rm.test/v1", field: value}
    config = make_config(tmp_path, backend_overrides={"reward": reward})
    assert main(["infer", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert "'reward'" in err["message"] and field in err["message"]


def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    config = make_config(tmp_path)
    config.write_text("[]", encoding="utf-8")
    assert main(["infer", "--config", str(config)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "damage",
    [
        "torn", "not-an-object", "bad-field", "ucot-raw-number", "cot-parsing-null",
        "ucot-raw-empty", "ok-with-one-step",
    ],
)
def test_filter_rejects_a_bad_synthesized_line_by_number(tmp_path, capsys, damage):
    config = make_config(tmp_path)
    synth = tmp_path / "work" / "synthesized.jsonl"
    assert main(["induce", "--config", str(config)]) == 0
    assert main(["synthesize", "--config", str(config)]) == 0
    lines = synth.read_text(encoding="utf-8").splitlines()
    if damage == "torn":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    elif damage == "not-an-object":
        lines.append("[1, 2]")
    else:
        record = json.loads(lines[-1])
        assert record["parse_status"] == "ok"
        key, value = {
            "bad-field": ("parse_failures", 5),
            "ucot-raw-number": ("ucot_raw", 5),
            "cot-parsing-null": ("cot_parsing", None),
            "ucot-raw-empty": ("ucot_raw", ""),
            "ok-with-one-step": ("cot_parsing", record["cot_parsing"][:1]),
        }[damage]
        lines[-1] = json.dumps({**record, key: value})
    synth.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["filter", "--config", str(config)]) == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SchemaError"
    assert f"line {len(lines)}" in err["message"]

    synth.write_text("", encoding="utf-8")
    assert main(["filter", "--config", str(config)]) == 0
    assert (tmp_path / "work" / "filtered_average.jsonl").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize(
    "command, role",
    [
        ("induce", "generation"),
        ("synthesize", "generation"),
        ("synthesize", "embedding"),
        ("filter", "reward"),
        ("infer", "embedding"),
    ],
)
def test_cache_file_that_is_not_sqlite_is_a_data_error(tmp_path, capsys, command, role):
    config = make_config(tmp_path)
    for earlier in {"synthesize": ["induce"], "filter": ["induce", "synthesize"]}.get(command, []):
        assert main([earlier, "--config", str(config)]) == 0
    store = tmp_path / "work" / "cache" / role / "calls.sqlite"
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text("not a database", encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "CacheError"
    assert str(store) in err["message"]


def test_embedding_backend_failure_exits_6(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        backends_module, "RequestsTransport",
        lambda *args: lambda url, payload: {"data": [{"embedding": None}]},
    )
    config = make_config(
        tmp_path,
        backend_overrides={
            "embedding": {"kind": "http", "model": "remote", "endpoint": "https://embed.test/v1"}
        },
    )
    assert main(["infer", "--config", str(config)]) == 6
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "BackendError"


@pytest.mark.parametrize(
    "role, row, command, outputs",
    [
        ("generation", struct.pack("<d", 5.0), "infer", ["predictions.jsonl"]),
        (
            "reward",
            '{"result": NaN}',
            "filter",
            ["filtered_zero.jsonl", "filtered_few.jsonl", "filtered_average.jsonl"],
        ),
        ("embedding", '{"result": "abc"}', "infer", ["predictions.jsonl"]),
    ],
)
def test_cached_value_the_call_could_not_return_is_made_again(
    tmp_path, role, row, command, outputs
):
    config = make_config(tmp_path)
    for step in ("induce", "synthesize", "filter", "infer"):
        assert main([step, "--config", str(config)]) == 0
    workdir = tmp_path / "work"
    before = {name: (workdir / name).read_bytes() for name in outputs}
    assert all(before.values())
    with closing(sqlite3.connect(workdir / "cache" / role / "calls.sqlite")) as db, db:
        assert db.execute("UPDATE calls SET result = ?", (row,)).rowcount > 0
    assert main([command, "--config", str(config)]) == 0
    assert {name: (workdir / name).read_bytes() for name in outputs} == before


def _in_schema_1_form(role, result):
    """A stored result as schema 1 held it: ``{"result": ...}`` text, or an embedding's bytes."""
    if role == "embedding":
        return result
    value = inflated(result)  # a completion's text, or a reward's or score's float64 bytes
    if isinstance(value, bytes):
        value = struct.unpack("<d", value)[0]
    return json.dumps({"result": value}, ensure_ascii=False)


def test_rerun_over_rows_in_the_older_form_makes_every_call_again(tmp_path, monkeypatch):
    calls = Counter()
    track = backends_module.MockBackend._track

    def counting(self, op):
        calls[op] += 1
        return track(self, op)

    monkeypatch.setattr(backends_module.MockBackend, "_track", counting)
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    commands = ("induce", "synthesize", "filter", "infer")
    for command in commands:
        assert main([command, "--config", str(config)]) == 0
    cold = +calls
    outputs = {
        path: (workdir / path).read_bytes()
        for path in (p.relative_to(workdir) for p in workdir.rglob("*") if p.is_file())
        if path.parts[0] not in ("cache", "logs")
    }
    # each row under a 64-digit hex text key, the form schema 1 keys took
    older = {}
    for store in sorted((workdir / "cache").rglob("calls.sqlite")):
        with closing(sqlite3.connect(store)) as db, db:
            rows = db.execute("SELECT key, result FROM calls").fetchall()
            older[store] = [
                (key.hex(), _in_schema_1_form(store.parent.name, result)) for key, result in rows
            ]
            db.execute("DELETE FROM calls")
            db.executemany("INSERT INTO calls (key, result) VALUES (?, ?)", older[store])
    calls.clear()
    for command in commands:
        assert main([command, "--config", str(config)]) == 0
    assert calls == cold
    assert {path: (workdir / path).read_bytes() for path in outputs} == outputs
    for store, rows in older.items():
        with closing(sqlite3.connect(store)) as db:
            # text keys sort before BLOB ones
            stored = db.execute("SELECT key, result FROM calls ORDER BY key").fetchall()
        assert stored[: len(rows)] == sorted(rows)
        assert len(stored) == 2 * len(rows)
        assert all(isinstance(key, bytes) and len(key) == 32 for key, _ in stored[len(rows) :])


def test_rowid_stores_with_text_rows_serve_infer_and_eval_with_no_endpoint_call(
    tmp_path, monkeypatch
):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    for command in ("induce", "synthesize", "filter", "infer", "eval"):
        assert main([command, "--config", str(config)]) == 0
    written = ["predictions.jsonl", "eval_report.json"]
    written += ["manifests/infer.json", "manifests/eval.json"]
    before = {name: (workdir / name).read_bytes() for name in written}
    # each store rebuilt as schema 2 first made it: a rowid table, every completion as text
    stores = {}
    for store in sorted((workdir / "cache").rglob("calls.sqlite")):
        with closing(sqlite3.connect(store)) as db:
            stores[store] = [
                (key, inflated(row)) for key, row in db.execute("SELECT key, result FROM calls")
            ]
        store.unlink()
        with closing(sqlite3.connect(store)) as db:
            db.executescript(ROWID_CACHE_SETUP)
            with db:
                db.executemany("INSERT INTO calls (key, result) VALUES (?, ?)", stores[store])
    assert any(isinstance(r, str) and len(r) > 100 for rows in stores.values() for _, r in rows)
    calls = Counter()
    track = backends_module.MockBackend._track

    def counting(self, op):
        calls[op] += 1
        return track(self, op)

    monkeypatch.setattr(backends_module.MockBackend, "_track", counting)
    for command in ("infer", "eval"):
        assert main([command, "--config", str(config)]) == 0
    assert calls == Counter()
    stats = json.loads((workdir / "logs" / "infer_stats.json").read_text(encoding="utf-8"))
    assert stats["backend_calls"] == 0
    assert stats["cache_hits"] > 0
    assert {name: (workdir / name).read_bytes() for name in written} == before
    for store, rows in stores.items():
        with closing(sqlite3.connect(store)) as db:
            assert db.execute("SELECT key, result FROM calls ORDER BY rowid").fetchall() == rows


def test_commands_close_their_cache_connections(tmp_path):
    config = make_config(tmp_path)
    for command in ("induce", "synthesize", "filter", "export", "infer", "eval"):
        assert main([command, "--config", str(config)]) == 0
    cache = tmp_path / "work" / "cache"
    assert {p.parent.name for p in cache.rglob("calls.sqlite")} == {
        "generation", "embedding", "reward", "judge"
    }
    assert sorted(p.name for p in cache.rglob("*") if p.is_file()) == ["calls.sqlite"] * 4


def test_each_seed_gold_block_is_rendered_once_per_command(tmp_path, monkeypatch):
    config = make_config(tmp_path)
    render = prompts.gold_output
    for command in ("induce", "synthesize", "filter", "infer"):
        rendered = Counter()

        def counting(example, subtask):
            rendered[example.instance.id, subtask] += 1
            return render(example, subtask)

        monkeypatch.setattr(prompts, "gold_output", counting)
        assert main([command, "--config", str(config)]) == 0
        assert set(rendered.values()) == {1}, command
        assert {subtask for _, subtask in rendered} == {"QP", "UCoT"}


ALL_COMMANDS = ("induce", "synthesize", "filter", "export", "infer", "eval", "stats")


def test_every_command_writes_its_stats_then_its_manifest(tmp_path):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    for command in ALL_COMMANDS:
        assert main([command, "--config", str(config)]) == 0, command
        stats = workdir / "logs" / f"{command}_stats.json"
        manifest = workdir / "manifests" / f"{command}.json"
        assert json.loads(stats.read_text(encoding="utf-8"))["command"] == command
        assert stats.stat().st_mtime_ns <= manifest.stat().st_mtime_ns, command
    assert sorted(p.name for p in (workdir / "manifests").iterdir()) == sorted(
        f"{command}.json" for command in ALL_COMMANDS
    )
    assert not list(workdir.rglob("*.tmp"))

    stats = json.loads((workdir / "logs" / "infer_stats.json").read_text(encoding="utf-8"))
    assert set(stats["stage_seconds"]) == set(CASCADE_STAGES)
    for seconds in stats["stage_seconds"].values():
        assert set(seconds) == {"count", "sum", "p50", "p95", "max", "skipped"}
        assert (seconds["count"], seconds["skipped"]) == (6, 0)
        assert 0 <= seconds["p50"] <= seconds["p95"] <= seconds["max"] <= seconds["sum"]
    for role in stats["backends"].values():
        assert (role["retries"], role["transient_failures"]) == (0, 0)
    assert not (workdir / "logs" / "infer_timings.json").exists()


def _timed_output(ident, seconds, ran=True):
    stage = StageResult(raw=["[]"] if ran else [], started=2.0, finished=2.0 + seconds)
    return CascadeOutput(instance_id=ident, stages=dict.fromkeys(CASCADE_STAGES, stage))


def test_stage_seconds_summarise_each_stage_whatever_the_batch_size():
    one = stage_seconds([_timed_output("a", 0.25)])
    figures = {"count": 1, "sum": 0.25, "p50": 0.25, "p95": 0.25, "max": 0.25, "skipped": 0}
    assert one == dict.fromkeys(CASCADE_STAGES, figures)
    batch = [_timed_output(f"i{n}", n / 100) for n in range(1, 21)]
    many = stage_seconds(batch + [_timed_output("skipped", 9.0, ran=False)])
    figures = {"count": 20, "sum": 2.1, "p50": 0.1, "p95": 0.19, "max": 0.2, "skipped": 1}
    assert many == dict.fromkeys(CASCADE_STAGES, figures)
    none = stage_seconds([_timed_output("skipped", 0.0, ran=False)])
    figures = {"count": 0, "sum": 0, "p50": None, "p95": None, "max": None, "skipped": 1}
    assert none == dict.fromkeys(CASCADE_STAGES, figures)


def test_a_command_that_fails_writes_no_stats_and_no_manifest(tmp_path, capsys):
    config = make_config(tmp_path)
    row = instance_to_json(make_example("pool-00").instance)
    row.pop("cot", None)
    write_jsonl(tmp_path / "pool.jsonl", [row])
    assert main(["infer", "--config", str(config)]) == 5
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "CascadeError"
    workdir = tmp_path / "work"
    assert not (workdir / "logs" / "infer_stats.json").exists()
    assert not (workdir / "manifests" / "infer.json").exists()


def test_commands_that_call_no_backend_create_no_call_cache(tmp_path):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    write_jsonl(workdir / "filtered_average.jsonl", [seed_to_json(make_example("kept"))])
    gold = str(tmp_path / "gold.jsonl")
    for argv in (["export"], ["eval", "--pred", gold], ["stats"]):
        assert main(argv + ["--config", str(config)]) == 0, argv
        stats = json.loads((workdir / "logs" / f"{argv[0]}_stats.json").read_text())
        assert (stats["backend_calls"], stats["cache_hits"]) == (0, 0)
    assert json.loads((workdir / "logs" / "export_stats.json").read_text())["sft_lines"] == {
        "QP": 1, "CP": 1, "CV": 2, "CV_evidence": 1
    }
    assert not (workdir / "cache").exists()


def _synthesized_row(ident):
    example = make_example(ident)
    record = SynthesizedRecord(
        instance=example.instance,
        qp_raw="[]",
        ucot_raw="[]",
        qp=example.question_parsing,
        trace=example.trace,
        parse_status="ok",
    )
    return record_to_json(record)


# reader -> (the command that reads its file first, that file under tmp_path)
READERS = {
    "seed": ("induce", "seed.jsonl"),
    "pool": ("infer", "pool.jsonl"),
    "synthesized": ("filter", "work/synthesized.jsonl"),
    "filtered": ("export", "work/filtered_average.jsonl"),
    "predictions": ("eval", "work/predictions.jsonl"),
    "gold": ("eval", "gold.jsonl"),
}


def _reader_run(tmp_path, reader):
    """(argv, path) of ``reader``'s command with every input it needs in place
    and ``path``, its file, holding good records."""
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    (workdir / "prompts").mkdir(parents=True)
    (workdir / "prompts" / "UCoT.txt").write_text("instruction\n", encoding="utf-8")
    write_jsonl(workdir / "synthesized.jsonl", [_synthesized_row(f"s-{i}") for i in range(2)])
    write_jsonl(workdir / "filtered_average.jsonl", [seed_to_json(make_example("kept"))])
    (workdir / "predictions.jsonl").write_bytes((tmp_path / "gold.jsonl").read_bytes())
    command, name = READERS[reader]
    return [command, "--config", str(config)], tmp_path / name


def _without_id(line):
    row = json.loads(line)
    del row["id"]
    return json.dumps(row).encode("utf-8")


# defect -> the bad line, made from the file's first (good) line
DEFECTS = {
    "torn": lambda good: good[: len(good) // 2],
    "not-an-object": lambda good: b"[1, 2]",
    "not-utf8": lambda good: b'{"id": "caf\xe9"}',
    "nested-100000-deep": lambda good: b"[" * 100_000,
    "duplicate-id": lambda good: good,
    "missing-id": _without_id,
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("reader", READERS)
def test_every_dataset_reader_rejects_a_bad_line_naming_file_and_line(
    tmp_path, capsys, reader, defect
):
    argv, path = _reader_run(tmp_path, reader)
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"\n".join(lines + [DEFECTS[defect](lines[0])]) + b"\n")
    capsys.readouterr()
    assert main(argv) == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SchemaError"
    assert err["message"].startswith(f"{path}: line {len(lines) + 1}")


@pytest.mark.parametrize("content", ["", "\n \n", "[]", " [ ]\n"])
@pytest.mark.parametrize("reader", READERS)
def test_a_dataset_file_with_no_records(tmp_path, capsys, reader, content):
    """Inputs a run needs records from exit 5; an upstream stage's empty output reads as empty."""
    argv, path = _reader_run(tmp_path, reader)
    path.write_text(content, encoding="utf-8")
    capsys.readouterr()
    code = main(argv)
    workdir = tmp_path / "work"
    if reader == "synthesized":
        assert code == 0
        assert (workdir / "filtered_average.jsonl").read_text(encoding="utf-8") == ""
    elif reader == "filtered":
        assert code == 0
        for subtask in SUBTASKS:
            sft = workdir / "sft" / f"average_{subtask}.jsonl"
            assert sft.read_text(encoding="utf-8") == SFT_HEADER + "\n"
    else:
        assert code == 5
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "EmptyDatasetError"
        assert str(path) in err["message"]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command, flag", [("eval", "--gold"), ("stats", "--data"), ("eval", "--pred")])
def test_a_path_named_on_the_command_line_that_is_not_a_file_exits_2(
    tmp_path, capsys, command, flag, kind
):
    argv, _ = _reader_run(tmp_path, "predictions")
    bad = tmp_path / "named.jsonl"
    if kind == "directory":
        bad.mkdir()
    assert main([command, flag, str(bad)] + argv[1:]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert str(bad) in err["message"]
