"""Dual-stage quality filtering of synthesized records.

Stage one is structural: drop records whose output never parsed, parsed to
fewer than two steps, or carry an empty condition list. Stage two scores
every structural survivor twice with a reward backend, once with retrieved
demonstrations in the context and once without, and keeps records whose
strategy score clears a strict threshold (default 0). Records the reward
backend fails on are excluded from all reward strategies rather than
retried forever, and a run where all of them failed is a ``BackendError``.

Every decision is emitted as an audit line so dataset sizes can be traced
back to individual drops.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import prompts
from .backends import BackendError, ChatMessage, fan_out
from .corpus import SeedExample
from .retrieval import top_k
from .synthesis import STATUS_OK, RewardRecord

log = logging.getLogger(__name__)

STRATEGY_STRUCTURE = "structure"
STRATEGY_ZERO = "zero"
STRATEGY_FEW = "few"
STRATEGY_AVERAGE = "average"
STRATEGIES = (STRATEGY_STRUCTURE, STRATEGY_ZERO, STRATEGY_FEW, STRATEGY_AVERAGE)

REASON_KEPT = "kept"
REASON_EMPTY_QP = "empty_qp"
REASON_BELOW_THRESHOLD = "below_threshold"
REASON_UNSCORED = "unscored"

STAGE_STRUCTURAL = "structural"
STAGE_REWARD = "reward"


@dataclass
class FilterOutcome:
    record_id: str
    stage: str
    decision: str
    reason: str
    scores: RewardRecord | None = None
    strategy: str | None = None

    def to_json(self):
        out = {
            "id": self.record_id,
            "stage": self.stage,
            "decision": self.decision,
            "reason": self.reason,
        }
        if self.strategy is not None:
            out["strategy"] = self.strategy
        if self.scores is not None:
            out["scores"] = {
                "s_few": self.scores.s_few,
                "s_zero": self.scores.s_zero,
                "s_avg": self.scores.s_avg,
            }
        return out


def structural_filter(record):
    """Keep a record iff it parsed cleanly with >=2 steps and non-empty QP."""
    if record.parse_status != STATUS_OK:
        decision, reason = "drop", record.parse_status
    elif not record.qp:
        decision, reason = "drop", REASON_EMPTY_QP
    else:
        decision, reason = "keep", REASON_KEPT
    return FilterOutcome(
        record_id=record.instance.id,
        stage=STAGE_STRUCTURAL,
        decision=decision,
        reason=reason,
    )


def build_reward_prompts(instance, hits, cards, instruction=prompts.UCOT_INSTRUCTION):
    """Few-shot and zero-shot chat contexts for scoring one synthesized output.

    Both are the synthesis UCoT prompt with the same instruction text; only
    the few-shot one carries demonstrations. The response being scored is
    passed to the reward call separately.
    """

    def messages(demos):
        prompt = prompts.render_prompt("UCoT", instruction, demos, instance)
        return [ChatMessage(role="user", content=prompt)]

    return messages(prompts.demo_pairs_ucot(hits, cards)), messages([])


def score_record(record, hits, cards, backend, instruction=prompts.UCOT_INSTRUCTION):
    """Reward the raw synthesized reasoning under both prompt variants."""
    response = record.ucot_raw
    few_messages, zero_messages = build_reward_prompts(
        record.instance, hits, cards, instruction
    )
    s_few = backend.reward(few_messages, response)
    s_zero = backend.reward(zero_messages, response)
    return RewardRecord(s_few=s_few, s_zero=s_zero)


def strategy_score(rewards, strategy):
    if strategy == STRATEGY_ZERO:
        return rewards.s_zero
    if strategy == STRATEGY_FEW:
        return rewards.s_few
    if strategy == STRATEGY_AVERAGE:
        return rewards.s_avg
    raise ValueError(f"strategy {strategy!r} has no reward score")


def apply_strategy(records, strategy, threshold=0.0):
    """Keep the subset selected by the strategy, preserving input order.

    The structure strategy keeps every input; the reward strategies keep
    records whose score is strictly above the threshold.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == STRATEGY_STRUCTURE:
        return list(records)
    kept = []
    for record in records:
        if record.rewards is None:
            continue
        if strategy_score(record.rewards, strategy) > threshold:
            kept.append(record)
    return kept


def to_training_example(record):
    return SeedExample(
        instance=record.instance,
        question_parsing=list(record.qp),
        trace=record.trace,
    )


@dataclass
class FilterResult:
    outcomes: list[FilterOutcome]
    kept: dict[str, list]  # strategy -> SynthesizedRecords, input order


def run_filter(records, index, cards, reward_backend, k=5,
               threshold=0.0, instruction=prompts.UCOT_INSTRUCTION):
    """Structural stage, reward stage, strategy subsets, audit trail.

    Reward calls happen only for structural survivors; scoring failures
    mark the record unscored and exclude it from every reward strategy. When
    every survivor failed to score, ``BackendError`` is raised.
    """
    outcomes = []
    survivors = []
    for record in records:
        outcome = structural_filter(record)
        outcomes.append(outcome)
        if outcome.decision == "keep":
            survivors.append(record)

    def job(record):
        try:
            hits = top_k(index, record.instance.question, k, exclude={record.instance.id})
            return score_record(record, hits, cards, reward_backend, instruction)
        except BackendError as exc:
            log.warning("reward scoring failed for %s: %s", record.instance.id, exc)
            return None

    scored = []
    for record, rewards in zip(survivors, fan_out(reward_backend, job, survivors)):
        record.rewards = rewards
        if rewards is not None:
            scored.append(record)
        else:
            outcomes.append(
                FilterOutcome(
                    record_id=record.instance.id,
                    stage=STAGE_REWARD,
                    decision="drop",
                    reason=REASON_UNSCORED,
                )
            )

    if survivors and not scored:
        raise BackendError(f"all {len(survivors)} structural survivors failed at the backend")
    kept = {STRATEGY_STRUCTURE: list(survivors)}
    for strategy in (STRATEGY_ZERO, STRATEGY_FEW, STRATEGY_AVERAGE):
        subset = apply_strategy(scored, strategy, threshold)
        kept_ids = {r.instance.id for r in subset}
        for record in scored:
            keep = record.instance.id in kept_ids
            outcomes.append(
                FilterOutcome(
                    record_id=record.instance.id,
                    stage=STAGE_REWARD,
                    decision="keep" if keep else "drop",
                    reason=REASON_KEPT if keep else REASON_BELOW_THRESHOLD,
                    scores=record.rewards,
                    strategy=strategy,
                )
            )
        kept[strategy] = subset
    return FilterResult(outcomes=outcomes, kept=kept)
