"""The sample pipeline's bytes, pinned.

Every subcommand runs once, in order, on a copy of ``sample_data/``, and
each manifest (minus ``package_version``) must equal the table below. The
manifests hash every input and output file, so a change that moves one
output byte, one recorded input or one format version fails here; a
deliberate re-baseline is a reviewed diff of this table. The SFT rows that
the sample's ``export`` writes must also be the prompts the cascade sends,
and their targets what its stages parse.
"""

import json
import shutil
from pathlib import Path

from tracedistill.backends import GenParams
from tracedistill.cascade import decompose_cot, extract_evidence, parse_question, verify_steps
from tracedistill.cli import main
from tracedistill.corpus import SFT_HEADER, SUBTASKS, parse_seed_record, read_records
from tracedistill.prompts import SECTION_INSTRUCTION, render_prompt

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

CONFIG_HASH = "216c09b3e5202fc3c3832e91edc47729dab87f7f78bcba80114bf561ab301ff8"
SCHEMA_VERSIONS = {"cache": 2, "config": 1, "index": "seed-index-v1", "sft": "#sft-v2"}

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
            "sft/average_CP.jsonl": "4fd17dca4e8d744d9e8ca8972da2c931a37a2626fd2fdcbbb4c60bf031647ce3",
            "sft/average_CV.jsonl": "122eaf926558ff2f92b77e7fa9e3515b9776b3e4d784208619189beab5e86ea3",
            "sft/average_CV_evidence.jsonl": "5e25548875003bc965afeab27691ec85d7eae050b66b726864ac7de3eec3dba8",
            "sft/average_QP.jsonl": "f2d43f5f45db70d2559a836793bd32abb8bab3f3e2c89db2c3d8baa21832436f",
        },
    ),
    "infer": ({"pool": POOL, "seed": SEED}, {"predictions.jsonl": PREDICTIONS}),
    "eval": (
        {"gold": GOLD, "pred": PREDICTIONS},
        {"eval_report.json": "4b00649981fe81b680a49309fecd25411e754f7a3594fff80a5acdb11c3a9b50"},
    ),
    "stats": ({"data": FILTERED}, {}),
}


def _sample_config(tmp_path):
    for name in ("config.json", "seed.jsonl", "pool.jsonl", "gold.jsonl"):
        shutil.copy(SAMPLE / name, tmp_path / name)
    return str(tmp_path / "config.json")


def test_sample_pipeline_manifests_match_the_pinned_table(tmp_path, capsys):
    config = _sample_config(tmp_path)
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


class _Reply:
    """A generation backend that answers every prompt with one text and records the prompts."""

    def __init__(self, text):
        self.text = text
        self.prompts = []

    def generate(self, messages, params):
        self.prompts.extend(message.content for message in messages)
        return self.text


def _export_cases(example, subtask):
    """(prompt subtask, statements, evidence, gold value) of each row that ``export``
    writes for ``example`` into its ``subtask`` file, in file order."""
    steps = example.trace.steps
    statements = [step.statement for step in steps]
    if subtask == "QP":
        return [("QP", None, None, example.question_parsing)]
    if subtask == "CP":
        return [("CP", None, None, statements)]
    if subtask == "CV_evidence":
        return [("CV_evidence", statements, None, [step.evidence for step in steps])]
    return [("CV_verify", [s.statement], [s.evidence], [s.verification]) for s in steps]


# prompt subtask -> the cascade stage that sends that prompt and parses its answer
STAGE_RUNS = {
    "QP": lambda instance, statements, evidence, backend: parse_question(
        instance, [], backend, GenParams()),
    "CP": lambda instance, statements, evidence, backend: decompose_cot(
        instance, [], backend, GenParams()),
    "CV_evidence": lambda instance, statements, evidence, backend: extract_evidence(
        instance, statements, [], backend, GenParams()),
    "CV_verify": lambda instance, statements, evidence, backend: verify_steps(
        instance, statements, evidence, [], backend, GenParams()),
}


def test_every_exported_row_is_a_cascade_prompt_and_its_target_the_parsed_gold(tmp_path, capsys):
    config = _sample_config(tmp_path)
    for command in ("induce", "synthesize", "filter", "export"):
        assert main([command, "--config", config]) == 0, capsys.readouterr().err
    workdir = tmp_path / "workdir"
    examples = read_records(workdir / "filtered_average.jsonl", parse_seed_record)
    assert examples
    assert set(SUBTASKS) == {"QP", "CP", "CV", "CV_evidence"}
    for subtask in SUBTASKS:
        lines = (workdir / "sft" / f"average_{subtask}.jsonl").read_text(encoding="utf-8")
        header, *lines = lines.splitlines()
        assert header == SFT_HEADER
        cases = [(e, *case) for e in examples for case in _export_cases(e, subtask)]
        assert len(lines) == len(cases), subtask
        for line, (example, stage, statements, evidence, gold) in zip(lines, cases):
            row = json.loads(line)
            prompt = "\n".join([SECTION_INSTRUCTION, row["instruction"], "", row["input"]])
            instance = example.instance
            assert prompt == render_prompt(
                stage, row["instruction"], [], instance, statements, evidence
            ), subtask
            backend = _Reply(row["target"])
            value, result, *flags = STAGE_RUNS[stage](instance, statements, evidence, backend)
            assert backend.prompts == [prompt], subtask
            assert value == gold, subtask
            assert not result.failed and flags in ([], [[]]), subtask
