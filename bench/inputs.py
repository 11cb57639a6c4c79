"""Deterministic benchmark inputs derived from ``sample_data/``.

Every file is a pure function of the workload seed and the requested pool
size: the same seed always yields byte-identical inputs. The program under
test only ever sees the generated files.

* ``seed.jsonl``: 24 annotated examples (the paper's "about two dozen"),
  cycling over the five sample seeds with a per-example case tag so that
  every question text, and so every embedding, is distinct.
* ``pool.jsonl`` / ``gold.jsonl``: pool items drawn from the six sample
  pool questions, each with a unique item tag in its question text so no
  two items share a cache entry; gold carries the matching annotations.
* ``config.json``: the sample config (``workers=4``, ``max_inflight=4``,
  ``malformed_rate=0.15``) plus ``empty_qp_rate=0.1`` on the generation
  profile, so the cascade's reprompt path runs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

N_SEED = 24
EMPTY_QP_RATE = 0.1


def _read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _tag(rng):
    return f"{rng.getrandbits(32):08x}"


def seed_rows(sample_dir, seed):
    base = _read_jsonl(Path(sample_dir) / "seed.jsonl")
    rng = random.Random(f"tracedistill-bench/seed-set/{seed}")
    rows = []
    for i in range(N_SEED):
        row = dict(base[i % len(base)])
        row["id"] = f"seed-{i + 1:02d}"
        row["question"] = f"{row['question']} (Seed case {_tag(rng)}.)"
        rows.append(row)
    return rows


def pool_rows(sample_dir, seed, n_pool):
    """(pool rows, gold rows) for ``n_pool`` items with distinct question text."""
    sample_dir = Path(sample_dir)
    base_pool = _read_jsonl(sample_dir / "pool.jsonl")
    gold_by_id = {row["id"]: row for row in _read_jsonl(sample_dir / "gold.jsonl")}
    rng = random.Random(f"tracedistill-bench/pool/{seed}")
    pool, gold = [], []
    # every base question equally often, in a seeded order
    bases = [base_pool[i % len(base_pool)] for i in range(n_pool)]
    rng.shuffle(bases)
    for i, base in enumerate(bases):
        ident = f"item-{i:05d}"
        question = f"{base['question']} (Item {i} ref {_tag(rng)}.)"
        pool.append(dict(base, id=ident, question=question))
        gold.append(dict(gold_by_id[base["id"]], id=ident, question=question))
    return pool, gold


def make_config(sample_dir):
    config = json.loads((Path(sample_dir) / "config.json").read_text(encoding="utf-8"))
    config["paths"] = {
        "seed": "seed.jsonl",
        "pool": "pool.jsonl",
        "gold": "gold.jsonl",
        "workdir": "workdir",
    }
    config["backends"]["generation"]["empty_qp_rate"] = EMPTY_QP_RATE
    return config


def write_inputs(out_dir, sample_dir, seed, n_pool):
    """Write seed, pool, gold and config files; returns the config path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_dir / "seed.jsonl", seed_rows(sample_dir, seed))
    pool, gold = pool_rows(sample_dir, seed, n_pool)
    write_jsonl(out_dir / "pool.jsonl", pool)
    write_jsonl(out_dir / "gold.jsonl", gold)
    config_path = out_dir / "config.json"
    config_path.write_text(
        json.dumps(make_config(sample_dir), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return config_path
