"""Shared fixtures: the canonical worked example plus synthetic data helpers."""

from __future__ import annotations

import json
import random
import sqlite3
import zlib
from contextlib import closing
from pathlib import Path

import pytest

from tracedistill.corpus import (
    CoTStep,
    QuestionInstance,
    ReasoningTrace,
    SeedExample,
)

GOLD_QUESTION = (
    "There was a group discussion of judicial workers in the city. One group has 8 "
    "people. At the beginning of the meeting, the group leader asked everyone if they "
    "knew each other. As a result, only one person in the group knew 3 of the group, 3 "
    "knew 2 of the group, and 4 knew 1 of the group. If the above statistics are true, "
    "which of the following conclusions can best be reached?"
)

GOLD_OPTIONS = [
    "The group leader knows the most in the group, and the others know each other less",
    "This is the first time such a meeting has been held and everyone is new",
    "Some members may only know what they have seen on television or at a briefing",
    "Although there are not many acquaintances in the group, what they knew are all close friends.",
]

GOLD_ANSWER = "C"

GOLD_QP = [
    "The group has 8 people.",
    "Only one person in the group knew 3 people.",
    "Three people knew 2 people.",
    "Four people knew 1 person.",
]

GOLD_COT = (
    "Let's analyze the situation based on the provided statistics:\n"
    "1. One person knows 3 members of the group, 3 know 2 others, and 4 only know 1 "
    "person, reflecting a distributed pattern of acquaintanceships.\n"
    "2. Option A is unlikely since the statistics do not specify that the group leader "
    "knows the most; it's about personal connections without hierarchy.\n"
    "3. Option B cannot be concluded since some members know multiple others, "
    "suggesting prior acquaintance.\n"
    "4. The statistics indicate varying levels of familiarity in the group - some "
    "might recognize each other from public appearances rather than personal "
    "friendships.\n"
    "Thus, the best conclusion is C, as familiarity may stem from indirect exposure "
    "like television or briefings."
)

GOLD_STEPS = [
    {
        "statement": "Some members may only know what they have seen on television or at a briefing.",
        "evidence": (
            "The statistics suggest varying familiarity levels, fitting the assumption "
            "that some familiarity might stem from indirect mediums like television."
        ),
        "verification": "True",
    },
    {
        "statement": "The group leader knows the most in the group, and the others know each other less.",
        "evidence": (
            "The leader's acquaintanceship count is not detailed; no inference about "
            "hierarchy can be conclusively formed."
        ),
        "verification": "True",
    },
    {
        "statement": "This is the first time such a meeting has been held and everyone is new.",
        "evidence": (
            "Some members know multiple others-indicating prior acquaintance beyond "
            "just a first-time meeting."
        ),
        "verification": "False",
    },
    {
        "statement": "Although there are not many acquaintances in the group, what they knew are all close friends.",
        "evidence": (
            "The knowledge distribution doesn't support the assumption of all "
            "acquaintances being close friends."
        ),
        "verification": "False",
    },
]

GOLD_VERDICTS = [True, True, False, False]

GOLD_REWARD_FEW = 1.873046875
GOLD_REWARD_ZERO = 2.28125
GOLD_REWARD_AVG = 2.0771484375


def gold_record_dict(ident="gold-1"):
    return {
        "id": ident,
        "question": GOLD_QUESTION,
        "options": list(GOLD_OPTIONS),
        "answer": GOLD_ANSWER,
        "cot": GOLD_COT,
        "question_parsing": list(GOLD_QP),
        "cot_parsing": [dict(s) for s in GOLD_STEPS],
    }


def gold_instance(ident="gold-1"):
    return QuestionInstance(
        id=ident,
        question=GOLD_QUESTION,
        options=list(GOLD_OPTIONS),
        gold_answer=GOLD_ANSWER,
        cot=GOLD_COT,
    )


def gold_example(ident="gold-1"):
    return SeedExample(
        instance=gold_instance(ident),
        question_parsing=list(GOLD_QP),
        trace=ReasoningTrace(
            steps=[
                CoTStep(
                    statement=s["statement"],
                    evidence=s["evidence"],
                    verification=s["verification"] == "True",
                )
                for s in GOLD_STEPS
            ]
        ),
    )


def make_example(ident, n_steps=2, n_conditions=2, seed=0, with_cot=True):
    """Small synthetic SeedExample with deterministic nonsense content."""
    rng = random.Random(f"{ident}:{seed}")
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"]

    def sentence(tag, i):
        return f"{tag} {i + 1}: {rng.choice(words)} {rng.choice(words)} {rng.randint(0, 99)}."

    steps = [
        CoTStep(
            statement=sentence("Statement", i),
            evidence=sentence("Evidence", i),
            verification=rng.random() < 0.5,
        )
        for i in range(n_steps)
    ]
    instance = QuestionInstance(
        id=ident,
        question=f"Puzzle {ident}: {' '.join(rng.choice(words) for _ in range(6))}?",
        options=[f"choice {w}" for w in words[:4]],
        gold_answer="A",
        cot=" ".join(sentence("Thought", i) for i in range(n_steps)) if with_cot else None,
    )
    return SeedExample(
        instance=instance,
        question_parsing=[sentence("Condition", i) for i in range(n_conditions)],
        trace=ReasoningTrace(steps=steps),
    )


# a call cache as schema 2 first created it: a rowid table with its key in an autoindex
ROWID_CACHE_SETUP = """
PRAGMA journal_mode=WAL;
CREATE TABLE calls (key TEXT PRIMARY KEY, result TEXT);
"""


def inflated(row):
    """A stored row as its value: a BLOB that is exactly one raw-deflate stream of UTF-8
    is a completion's text; any other row is returned as it is."""
    if not isinstance(row, bytes):
        return row
    unpacker = zlib.decompressobj(-15)
    try:
        data = unpacker.decompress(row)
        if unpacker.eof and not unpacker.unused_data:
            return data.decode("utf-8")
    except (zlib.error, UnicodeDecodeError):
        pass
    return row


def cached_rows(root):
    """The result of every row of every call cache file under ``root``, in key order.

    A row is a completion's text, inflated if it was stored deflated, or the
    float64 ``bytes`` of a reward, score or embedding.
    """
    rows = []
    for path in sorted(Path(root).rglob("calls.sqlite")):
        with closing(sqlite3.connect(path)) as db:
            stored = db.execute("SELECT result FROM calls ORDER BY key")
            rows += [inflated(row) for (row,) in stored]
    return rows


def write_jsonl(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


@pytest.fixture
def gold_seed_path(tmp_path):
    return write_jsonl(tmp_path / "seed.jsonl", [gold_record_dict()])
