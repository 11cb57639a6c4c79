import json

from conftest import (
    GOLD_REWARD_AVG,
    GOLD_REWARD_FEW,
    GOLD_REWARD_ZERO,
    gold_example,
    make_example,
    write_jsonl,
)
from tracedistill import backends as backends_module
from tracedistill import prompts
from tracedistill.backends import CassetteTransport, build_reward_payload
from tracedistill.cli import main
from tracedistill.corpus import instance_to_json, seed_to_json, trace_to_json
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
        "workers": 2,
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


def test_locked_workdir_rejected(tmp_path, capsys):
    config = make_config(tmp_path)
    workdir = tmp_path / "work"
    workdir.mkdir()
    (workdir / ".lock").write_text("12345\n", encoding="utf-8")
    assert main(["induce", "--config", str(config)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "WorkdirLockedError"


def test_lock_released_after_run(tmp_path):
    config = make_config(tmp_path)
    assert main(["induce", "--config", str(config)]) == 0
    assert not (tmp_path / "work" / ".lock").exists()
    assert main(["induce", "--config", str(config)]) == 0


def test_export_cv_lines_match_stats(tmp_path):
    config = make_config(tmp_path)
    main(["induce", "--config", str(config)])
    main(["synthesize", "--config", str(config)])
    main(["filter", "--config", str(config)])
    assert main(["export", "--config", str(config), "--strategy", "structure", "--subtask", "CV"]) == 0
    workdir = tmp_path / "work"
    kept = [
        json.loads(line)
        for line in (workdir / "filtered_structure.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    expected = sum(len(r["cot_parsing"]) for r in kept)
    lines = (workdir / "sft" / "structure_CV.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "#sft-v1"
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


def test_filter_audit_shows_exact_average_for_recorded_rewards(tmp_path):
    """Reward scores replayed over the wire; the audit carries the exact mean."""
    cassette_path = tmp_path / "reward_cassette.json"
    config_path = make_config(
        tmp_path,
        backend_overrides={
            "reward": {
                "kind": "http",
                "model": "rm",
                "endpoint": "https://rm.test/v1",
                "cassette": str(cassette_path),
                "replay": True,
            }
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

    # Reproduce the contexts the filter stage will build, then record both
    # reward responses against their request hashes.
    from tracedistill.config import load_config, build_backends

    config = load_config(config_path)
    backends = build_backends(config)
    seeds = [make_example(f"seed-{i}", n_steps=2 + i % 2) for i in range(5)]
    seed_by_id = {e.instance.id: e for e in seeds}
    index = build_index(seeds, backends["embedding"].embed, encoder="embed-mock")
    hits = top_k(index, gold.instance.question, config.k, exclude={gold.instance.id})
    few, zero = build_reward_prompts(gold.instance, hits, seed_by_id)
    cassette = CassetteTransport(cassette_path)
    url = "https://rm.test/v1/chat/completions"
    cassette.add(url, build_reward_payload("rm", few, record.ucot_raw), {"score": GOLD_REWARD_FEW})
    cassette.add(url, build_reward_payload("rm", zero, record.ucot_raw), {"score": GOLD_REWARD_ZERO})
    cassette.save()

    assert main(["filter", "--config", str(config_path), "--strategy", "average"]) == 0
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
        backend_overrides={"verifier_verify": _mock_profile("verify-pass-mock")},
    )
    assert main(["infer", "--config", str(config)]) == 0
    stats = json.loads(
        (tmp_path / "work" / "logs" / "infer_stats.json").read_text(encoding="utf-8")
    )
    verify_stats = stats["backends"]["verifier_verify"]
    assert verify_stats["model"] == "verify-pass-mock"
    assert verify_stats["inner_calls"]["generate"] > 0


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
    cached = [
        json.loads(path.read_text(encoding="utf-8"))["result"]
        for path in (tmp_path / "work" / "cache").rglob("*.json")
    ]
    assert None not in cached
