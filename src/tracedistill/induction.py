"""Prompt induction: propose candidate task instructions from the seed set,
score each by generation fit and by pairwise preference, keep the argmax.

Generation fit is the mean sequence score of the gold outputs under the
candidate instruction. Backends that cannot score sequences fall back to
rewarding a generated output instead; which path ran is recorded alongside
the scores. Preference is a round-robin tournament judged by a separate
backend on a shared held-out slice of the seed set.

Fit scores and win counts live on incommensurable scales, so the combined
score z-normalizes each component across the candidate pool before summing;
normalization "none" sums the raw values instead.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass
from itertools import combinations

from . import prompts
from .backends import CapabilityError, ChatMessage, GenParams, fan_out

log = logging.getLogger(__name__)

SUBTASKS = ("QP", "UCoT")
NORMALIZATIONS = ("none", "zscore")
RETRY_ROUNDS = 3


class InductionError(Exception):
    pass


@dataclass
class CandidatePrompt:
    text: str
    s_gen: float | None = None
    s_pref: int | None = None
    combined: float | None = None
    gen_method: str | None = None


@dataclass
class InductionConfig:
    """Induction settings; ``config.load_config`` range-checks the values it reads."""

    subtask: str
    n_candidates: int = 4
    reverse_prompt: str = prompts.REVERSE_INSTRUCTION
    held_out_fraction: float = 0.25
    normalization: str = "zscore"
    temperature: float = 0.1
    max_tokens: int = 1024
    base_seed: int = 0

    def __post_init__(self):
        if self.subtask not in SUBTASKS:
            raise InductionError(f"unknown subtask {self.subtask!r}; expected one of {SUBTASKS}")


def _candidate_messages(candidate_text, example, subtask):
    prompt = prompts.render_prompt(subtask, candidate_text, [], example.instance)
    return [ChatMessage(role="user", content=prompt)]


def generate_candidates(config, seed_examples, golds, backend):
    """Propose n distinct candidate instruction texts.

    Each round fans out the generations it still needs, one per attempt,
    seeded ``base_seed * 10_000 + attempt`` with the attempt numbers fixed
    before the round starts, and keeps the first of each text in attempt
    order. Duplicate completions trigger retries over perturbed seed
    orderings for up to RETRY_ROUNDS extra rounds; after that a short list
    is returned with a warning. ``golds`` are the seed examples' gold blocks.
    """
    if not seed_examples:
        raise InductionError("seed set must be non-empty")
    texts = []
    seen = set()
    attempt = 0
    for round_no in range(RETRY_ROUNDS + 1):
        ordered = list(zip(seed_examples, golds))
        if round_no:
            random.Random(config.base_seed + round_no).shuffle(ordered)
        prompt_text = prompts.reverse_prompt(config.reverse_prompt, ordered, config.subtask)
        messages = [ChatMessage(role="user", content=prompt_text)]
        attempts = range(attempt, attempt + config.n_candidates - len(texts))
        attempt = attempts.stop

        def propose(number):
            params = GenParams(
                temperature=config.temperature,
                max_tokens=config.max_tokens,
                seed=config.base_seed * 10_000 + number,
            )
            return backend.generate(messages, params)

        for completion in fan_out(backend, propose, attempts):
            text = completion.strip()
            if text and text not in seen:
                seen.add(text)
                texts.append(text)
        if len(texts) >= config.n_candidates:
            break
    if len(texts) < config.n_candidates:
        log.warning(
            "only %d distinct candidate prompts after %d rounds (wanted %d)",
            len(texts), RETRY_ROUNDS + 1, config.n_candidates,
        )
    return texts


def score_gen(candidate_texts, seed_examples, golds, config, backend, reward_backend=None):
    """Mean per-example fit of the gold outputs under each candidate.

    Returns one (score, method) per candidate, with method "logprob" when
    the backend scored the gold sequences directly and "reward" for the
    fallback path. Every candidate's examples fan out together, in one
    pass; the backend enforces its in-flight bound. ``golds`` are as for
    ``generate_candidates``.
    """
    if not seed_examples:
        raise InductionError("seed set must be non-empty")
    params = GenParams(temperature=config.temperature, max_tokens=config.max_tokens)

    def score_one(job):
        text, example, gold = job
        messages = _candidate_messages(text, example, config.subtask)
        try:
            return backend.score_completion(messages, gold), "logprob"
        except CapabilityError:
            scorer = reward_backend or backend
            generated = backend.generate(messages, params)
            return scorer.reward(messages, generated or gold), "reward"

    jobs = [(text, *shown) for text in candidate_texts for shown in zip(seed_examples, golds)]
    results = fan_out(backend, score_one, jobs)
    per_candidate = len(seed_examples)
    fits = []
    for start in range(0, len(results), per_candidate):
        scored = results[start : start + per_candidate]
        method = "reward" if any(m == "reward" for _, m in scored) else "logprob"
        fits.append((sum(value for value, _ in scored) / per_candidate, method))
    return fits


def _held_out_slice(seed_examples, fraction):
    count = max(1, round(fraction * len(seed_examples)))
    return list(seed_examples[-count:])


def _parse_verdict(raw):
    token = raw.strip().split()[0].strip(".,:;").upper() if raw.strip() else ""
    if token in ("A", "B", "TIE"):
        return token
    return None


def score_pref(candidate_texts, seed_examples, golds, config, backend, judge_backend):
    """Round-robin win counts over all unordered candidate pairs.

    Every pair is judged on the same held-out slice; a tie or an
    unparseable verdict credits neither side. Candidate outputs and pair
    judgements fan out concurrently; the tally runs in pair order.
    ``golds`` are as for ``generate_candidates``.
    """
    if len(candidate_texts) < 2:
        raise InductionError("preference scoring needs at least two candidates")
    held_out = _held_out_slice(seed_examples, config.held_out_fraction)
    gold_blocks = _held_out_slice(golds, config.held_out_fraction)
    params = GenParams(temperature=config.temperature, max_tokens=config.max_tokens)

    jobs = [
        (text, example)
        for text in candidate_texts
        for example in held_out
    ]
    generated = fan_out(
        backend,
        lambda job: backend.generate(_candidate_messages(job[0], job[1], config.subtask), params),
        jobs,
    )
    per_candidate = len(held_out)
    outputs = [
        generated[i * per_candidate : (i + 1) * per_candidate]
        for i in range(len(candidate_texts))
    ]
    pairs = list(combinations(range(len(candidate_texts)), 2))

    def judge(pair):
        text = prompts.judge_prompt(gold_blocks, outputs[pair[0]], outputs[pair[1]])
        return judge_backend.generate([ChatMessage(role="user", content=text)], params)

    raw_verdicts = fan_out(judge_backend, judge, pairs)
    wins = [0] * len(candidate_texts)
    for (i, j), raw in zip(pairs, raw_verdicts):
        verdict = _parse_verdict(raw)
        if verdict == "A":
            wins[i] += 1
        elif verdict == "B":
            wins[j] += 1
        elif verdict is None:
            log.warning("unparseable judge verdict %r; pair (%d, %d) counted as tie", raw, i, j)
    return wins


def _normalize_scores(values, normalization):
    if normalization == "none":
        return [float(v) for v in values]
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    std = variance**0.5
    if std == 0.0:
        return [0.0] * len(values)
    return [(v - mean) / std for v in values]


def select_prompt(candidates, config):
    """Pick the candidate with the highest combined score; ties keep the
    lowest index."""
    if not candidates:
        raise InductionError("no candidates to select from")
    for cand in candidates:
        if cand.s_gen is None or cand.s_pref is None:
            raise InductionError(f"candidate not fully scored: {cand.text[:40]!r}")
    gen_norm = _normalize_scores([c.s_gen for c in candidates], config.normalization)
    pref_norm = _normalize_scores([c.s_pref for c in candidates], config.normalization)
    best = None
    for idx, cand in enumerate(candidates):
        cand.combined = gen_norm[idx] + pref_norm[idx]
        if best is None or cand.combined > best.combined:
            best = cand
    return best


def induce_prompt(config, seed_examples, backend, judge_backend=None, reward_backend=None):
    """Full induction pass; returns (winner, report dict for the sidecar)."""
    golds = [prompts.gold_output(example, config.subtask) for example in seed_examples]
    texts = generate_candidates(config, seed_examples, golds, backend)
    fits = score_gen(texts, seed_examples, golds, config, backend, reward_backend)
    candidates = [
        CandidatePrompt(text=text, s_gen=s_gen, gen_method=method)
        for text, (s_gen, method) in zip(texts, fits)
    ]
    if len(candidates) >= 2:
        wins = score_pref(texts, seed_examples, golds, config, backend, judge_backend or backend)
    else:
        wins = [0] * len(candidates)
    for cand, win in zip(candidates, wins):
        cand.s_pref = win
    winner = select_prompt(candidates, config)
    report = {
        "config": asdict(config),
        "winner": winner.text,
        "candidates": [asdict(c) for c in candidates],
    }
    return winner, report
