"""Golden hashes of every prompt text the package renders.

Each case drives a public entry point with a backend that records the chat
messages it is sent, and pins the sha256 of what it recorded. Retrieval is
taken out of the picture: the stage functions get hit lists directly, and
`synthesize` gets a hand-built index whose query vector fixes the ranking,
so no embedding model is involved. A refactor of prompt assembly must leave
every hash unchanged; a deliberate prompt change updates them here.
"""

import hashlib
import json

import numpy as np

from conftest import gold_example, gold_instance, make_example
from tracedistill.backends import GenParams, MockBackend, messages_payload
from tracedistill.cascade import (
    decompose_cot,
    demo_pairs_full,
    extract_evidence,
    parse_question,
    verify_steps,
)
from tracedistill.corpus import SUBTASKS, export_sft
from tracedistill.filtering import score_record
from tracedistill.induction import InductionConfig, generate_candidates, score_gen, score_pref
from tracedistill.prompts import gold_output
from tracedistill.retrieval import RetrievalHit, SeedIndex
from tracedistill.synthesis import SynthesizedRecord, synthesize

GOLDEN = {
    "synthesis": "f2865e72b8cbb631e6f8928ceb82e76543252dc62404aa76183b27942e40404a",
    "reward": "42bb64473e3281652f7ac5eb539b8e098cb5ea345fc2ae049602055b35117aa9",
    "cascade_parser": "61d1d7ad2b91c41b98581e085954eb11dc6c1687fb32aa2ef9dd5864df1a4132",
    "cascade_decomposer": "2a904cd795b7fb8a57dcec8194d619e1effe0783fdb3c44853a4ddd209ab6e98",
    "cascade_evidence": "e0b7e200b90a6d3cf098c32471a3dffb40a1506188ee7afb1f2709dd71817f53",
    "cascade_verify": "088bf40399fd712d697502784c70d8bddb2eb9b8bbf36c41c3ef906a02040c3f",
    "induction_QP": "5ffae2503a9726b705b506c684db5d408eee5371dc3b9b223cdf263d4dff3717",
    "induction_UCoT": "bab32b46af0a82fb65b3cb7c5b87faa2edb102e9b4939f8675a0a90a93c9b37f",
    "induction_judge": "f80ac86c9bf58758f68046138019f040695d0f5f801ca4052537814b55efdb62",
    "sft_QP": "2837e8080a1e9e8aade56b7c19314a979b939c8fa7512f7673074adcb5e211f5",
    "sft_CP": "3032c5f24905e813e754408892440faa565d7dc36de42026b5255c65c254a1ad",
    "sft_CV": "de9fabfe65afa19e5dbed3ecf0c023d0894e23744bca98e477634770c616931d",
    "sft_CV_evidence": "13fec7d297a506035bacd09b7cf04277b83f47c730464e327f9e83cc545622f0",
}


class Recorder:
    """Backend stand-in: records every request, replies from a queue first."""

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.requests = []
        self.mock = MockBackend()

    def _record(self, op, messages, extra=None):
        self.requests.append({"op": op, "messages": messages_payload(messages), "extra": extra})

    def generate(self, messages, params):
        self._record("generate", messages)
        if self.replies:
            return self.replies.pop(0)
        return self.mock.generate(messages, params)

    def reward(self, context, response):
        self._record("reward", context, response)
        return 1.0

    def score_completion(self, messages, completion):
        self._record("score", messages, completion)
        return 0.5


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, ensure_ascii=False).encode("utf-8")).hexdigest()


def _seeds():
    seeds = [
        gold_example("seed-0"),
        make_example("seed-1", n_steps=3),
        make_example("seed-2", with_cot=False),
    ]
    seeds[1].question_parsing.append("Naïve café rule — every ü counts.")
    return seeds


def _hits(seeds):
    return [RetrievalHit(id=e.instance.id, score=1.0 - 0.1 * i, rank=i + 1)
            for i, e in enumerate(seeds)]


def _render_synthesis(seeds):
    seed_by_id = {e.instance.id: e for e in seeds}
    index = SeedIndex(
        ids=list(seed_by_id),
        matrix=np.eye(len(seeds)),
        embed_fn=lambda text: [3.0, 2.0, 1.0],
    )
    backend = Recorder()
    synthesize(gold_instance("seed-1"), index, seed_by_id, backend, k=2)
    return backend.requests


def _render_reward(seeds):
    seed_by_id = {e.instance.id: e for e in seeds}
    backend = Recorder()
    record = SynthesizedRecord(
        instance=gold_instance("query-1"), qp_raw="[]", ucot_raw="raw reasoning",
        qp=["c"], trace=None, parse_status="ok",
    )
    score_record(record, _hits(seeds), seed_by_id, backend)
    return backend.requests


def _render_cascade_stage(seeds, stage):
    seed_by_id = {e.instance.id: e for e in seeds}
    demos = demo_pairs_full(_hits(seeds), seed_by_id)
    instance = gold_instance("query-1")
    params = GenParams()
    statements = ["First statement.", "Second statement — with ü."]
    if stage == "parser":
        backend = Recorder(["I cannot answer in JSON.", '["c1"]'])
        parse_question(instance, demos, backend, params)
    elif stage == "decomposer":
        backend = Recorder(['["s1", "s2"]'])
        decompose_cot(instance, demos, backend, params)
    elif stage == "evidence":
        backend = Recorder(['["only one"]', '["e1", "e2"]'])
        extract_evidence(instance, statements, demos, backend, params)
    else:
        backend = Recorder(['["True", "False"]'])
        verify_steps(instance, statements, ["e1", "e2"], demos, backend, params)
    return backend.requests


def _render_induction(seeds, subtask):
    config = InductionConfig(subtask=subtask, n_candidates=2)
    backend = Recorder()
    golds = [gold_output(example, subtask) for example in seeds]
    generate_candidates(config, seeds, golds, backend)
    score_gen(["Candidate instruction text."], seeds, golds, config, backend)
    return backend.requests


def _render_judge(seeds):
    config = InductionConfig(subtask="QP", n_candidates=2)
    judge = Recorder(["A"])
    golds = [gold_output(example, "QP") for example in seeds]
    score_pref(["First candidate.", "Second candidate."], seeds, golds, config, MockBackend(), judge)
    return judge.requests


def _render_sft(seeds, subtask, tmp_path):
    path = tmp_path / f"{subtask}.jsonl"
    export_sft(seeds, subtask, path)
    return path.read_text(encoding="utf-8")


def _rendered(tmp_path):
    seeds = _seeds()
    out = {
        "synthesis": _render_synthesis(seeds),
        "reward": _render_reward(seeds),
    }
    for stage in ("parser", "decomposer", "evidence", "verify"):
        out[f"cascade_{stage}"] = _render_cascade_stage(seeds, stage)
    for subtask in ("QP", "UCoT"):
        out[f"induction_{subtask}"] = _render_induction(seeds, subtask)
    out["induction_judge"] = _render_judge(seeds)
    for subtask in SUBTASKS:
        out[f"sft_{subtask}"] = _render_sft(seeds, subtask, tmp_path)
    return out


def test_prompt_texts_match_golden_hashes(tmp_path):
    got = {name: _digest(value) for name, value in _rendered(tmp_path).items()}
    assert got == GOLDEN


def test_golden_cases_cover_reprompts_and_both_reward_contexts(tmp_path):
    rendered = _rendered(tmp_path)
    assert [r["op"] for r in rendered["synthesis"]] == ["generate", "generate"]
    assert [r["op"] for r in rendered["reward"]] == ["reward", "reward"]
    assert len(rendered["cascade_parser"]) == 2
    assert len(rendered["cascade_evidence"]) == 2
    assert len(rendered["cascade_decomposer"]) == len(rendered["cascade_verify"]) == 1
    assert {r["op"] for r in rendered["induction_QP"]} == {"generate", "score"}
