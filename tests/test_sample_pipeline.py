"""The sample pipeline's bytes, pinned.

Every subcommand runs once, in order, on a copy of ``sample_data/``, and
each manifest (minus ``package_version``) must equal the table below. The
manifests hash every input and output file, so a change that moves one
output byte, one recorded input or one format version fails here; a
deliberate re-baseline is a reviewed diff of this table.
"""

import json
import shutil
from pathlib import Path

from tracedistill.cli import main

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

CONFIG_HASH = "216c09b3e5202fc3c3832e91edc47729dab87f7f78bcba80114bf561ab301ff8"
SCHEMA_VERSIONS = {"cache": 2, "config": 1, "index": "seed-index-v1", "sft": "#sft-v1"}

SEED = "59f453c7103b1f7b715afd8e6a814917a2045e9166f374e349bbcc0a1d551e13"
POOL = "352fc3b246438bd0fb0c46e73efd4c09ea019ae2110b1a34fdfdff17e18de2f6"
GOLD = "7c2ff3cf84b77ea95ce71a1ee11dc601c25d0282a1468ac272acff80ffdc6b37"
QP_TXT = "1a6e1c01c73f7b01d1677af79d8ab3e045c27cfd8b8ac4a52c0b367006386c9c"
UCOT_TXT = "a539a7d8300e161bec5e05d45c354a53f12d07d39e201fc2b871f410096fdeb8"
SYNTHESIZED = "4602f34ebb95133f6ed4c9a2ff98943a40769a35b539bc345f52286c8571144a"
FILTERED = "f117c7e118a221b99636a3cd38fdbe255c4c8c5254dc1b5b25cdd3555be39a4a"
PREDICTIONS = "68adad6c6c562358f708ff175e09e9fa6e9793f0efca494d01d8bc4154fe3e65"

# command -> (manifest inputs, manifest outputs)
PINNED = {
    "induce": (
        {"seed": SEED},
        {
            "prompts/QP.json": "12b46e7bf5541cf822390509c1c0ea5ee04af9f07cb9a12b431f2c88c4219692",
            "prompts/QP.txt": QP_TXT,
            "prompts/UCoT.json": "31fa12b29f250eb94ba857c70bb8cf9bb7e5ea7c51cb61d755765dbfdbe9c083",
            "prompts/UCoT.txt": UCOT_TXT,
        },
    ),
    "synthesize": (
        {"pool": POOL, "prompts/QP.txt": QP_TXT, "prompts/UCoT.txt": UCOT_TXT, "seed": SEED},
        {
            "index.bin": "8185f72574c57a3acf2cdc5fa5445c9eb807944e33a2e6440ae3c205d78cb3ac",
            "synthesized.jsonl": SYNTHESIZED,
        },
    ),
    "filter": (
        {"prompts/UCoT.txt": UCOT_TXT, "seed": SEED, "synthesized": SYNTHESIZED},
        {
            "filter_audit.jsonl": "f54d99c6bfe37843780a2bcbd7488ca82338dfd35c53d9a79c73b97be8b618e3",
            "filtered_average.jsonl": FILTERED,
            "filtered_few.jsonl": FILTERED,
            "filtered_structure.jsonl": FILTERED,
            "filtered_zero.jsonl": FILTERED,
        },
    ),
    "export": (
        {"filtered": FILTERED},
        {
            "sft/average_CP.jsonl": "dd0f9e17efe0dca5cca5fae4d5b167d13b634547552f9fcdc44dad063f66f31f",
            "sft/average_CV.jsonl": "968f84aaef977ce4cb9a83effc33a0ad7f7b5c98a7d0d04de1af2195a12108d7",
            "sft/average_QP.jsonl": "664dce93cad1ddd43d86fb9190d331d8f4cd87456107b948cf417f5ef65d7837",
        },
    ),
    "infer": ({"pool": POOL, "seed": SEED}, {"predictions.jsonl": PREDICTIONS}),
    "eval": (
        {"gold": GOLD, "pred": PREDICTIONS},
        {"eval_report.json": "4b00649981fe81b680a49309fecd25411e754f7a3594fff80a5acdb11c3a9b50"},
    ),
    "stats": ({"data": FILTERED}, {}),
}


def test_sample_pipeline_manifests_match_the_pinned_table(tmp_path, capsys):
    for name in ("config.json", "seed.jsonl", "pool.jsonl", "gold.jsonl"):
        shutil.copy(SAMPLE / name, tmp_path / name)
    config = str(tmp_path / "config.json")
    for command in PINNED:
        assert main([command, "--config", config]) == 0, capsys.readouterr().err
    manifests = tmp_path / "workdir" / "manifests"
    for command, (inputs, outputs) in PINNED.items():
        manifest = json.loads((manifests / f"{command}.json").read_text(encoding="utf-8"))
        manifest.pop("package_version")
        assert manifest == {
            "command": command,
            "config_hash": CONFIG_HASH,
            "schema_versions": SCHEMA_VERSIONS,
            "inputs": inputs,
            "outputs": outputs,
        }, command
