import random

import pytest

from conftest import make_example
from tracedistill import prompts
from tracedistill.backends import Backend, CachingBackend, ChatMessage, MockBackend
from tracedistill.induction import (
    CandidatePrompt,
    InductionConfig,
    InductionError,
    generate_candidates,
    induce_prompt,
    score_gen,
    score_pref,
    select_prompt,
)


SEED = [make_example(f"seed-{i}", n_steps=2 + i % 2) for i in range(4)]


def _config(**overrides):
    base = dict(subtask="QP", n_candidates=4, held_out_fraction=0.25, base_seed=0)
    base.update(overrides)
    return InductionConfig(**base)


def _golds(seeds, subtask="QP"):
    return [prompts.gold_output(example, subtask) for example in seeds]


def test_config_rejects_unknown_subtask():
    with pytest.raises(InductionError):
        _config(subtask="CV")


def test_generate_candidates_distinct_texts():
    texts = generate_candidates(_config(), SEED, _golds(SEED), CachingBackend(MockBackend()))
    assert len(texts) == 4
    assert len(set(texts)) == 4


class _BySeed(Backend):
    """Answers each generation with the text listed for its seed, whatever the order of calls."""

    model = "by-seed"

    def __init__(self, texts):
        self.texts = texts
        self.seeds = []

    def generate(self, messages, params):
        self.seeds.append(params.seed)
        return self.texts[params.seed]


def test_generate_candidates_dedupes_injected_duplicates():
    # round 0 sends attempts 0-2 at once and keeps A, B; round 1 sends attempt 3 for C
    inner = _BySeed(["prompt B", "prompt A", "prompt B", "prompt C", "unused"])
    backend = CachingBackend(inner)
    texts = generate_candidates(_config(n_candidates=3), SEED, _golds(SEED), backend)
    assert texts == ["prompt B", "prompt A", "prompt C"]
    assert sorted(inner.seeds) == [0, 1, 2, 3]


def test_generate_candidates_sends_a_round_at_once():
    inner = MockBackend(latency=0.02)
    backend = CachingBackend(inner, max_inflight=4)
    texts = generate_candidates(_config(), SEED, _golds(SEED), backend)
    serial = MockBackend()  # no max_inflight, so fan_out sends one call at a time
    assert texts == generate_candidates(_config(), SEED, _golds(SEED), serial)
    assert inner.calls["generate"] == 4
    assert inner.max_inflight_observed > 1


def test_generate_candidates_warns_when_rounds_exhausted(caplog):
    inner = MockBackend(queue=["same"] * 40)
    backend = CachingBackend(inner)
    with caplog.at_level("WARNING"):
        texts = generate_candidates(_config(n_candidates=3), SEED, _golds(SEED), backend)
    assert texts == ["same"]
    assert any("distinct candidate prompts" in r.message for r in caplog.records)


def test_score_gen_single_example_equals_direct_score():
    backend = CachingBackend(MockBackend())
    config = _config()
    candidate = "Extract the key conditions as a JSON array."
    seed = SEED[:1]
    [(value, method)] = score_gen([candidate], seed, _golds(seed), config, backend)
    query = f"Question:\n{seed[0].instance.question}\n" + "\n".join(
        f"{label}. {text}" for label, text in zip("ABCD", seed[0].instance.options)
    )
    prompt = prompts.render_prompt("QP", candidate, [], seed[0].instance)
    assert prompt.endswith(f"###Input###\n\n{query}\n\n{prompts.OUTPUT_HEADERS['QP']}")
    messages = [ChatMessage(role="user", content=prompt)]
    direct = backend.score_completion(messages, prompts.gold_output(seed[0], "QP"))
    assert method == "logprob"
    assert value == direct


def test_score_gen_two_examples_is_arithmetic_mean():
    backend = CachingBackend(MockBackend())
    config = _config()
    candidate = "Extract the key conditions as a JSON array."
    [(one, _)] = score_gen([candidate], SEED[:1], _golds(SEED[:1]), config, backend)
    [(other, _)] = score_gen([candidate], SEED[1:2], _golds(SEED[1:2]), config, backend)
    [(both, _)] = score_gen([candidate], SEED[:2], _golds(SEED[:2]), config, backend)
    assert both == pytest.approx((one + other) / 2)


def test_score_gen_scores_every_candidate_in_one_pass():
    texts = [f"Candidate instruction {i}." for i in range(3)]
    alone = [
        score_gen([text], SEED, _golds(SEED), _config(), CachingBackend(MockBackend()))[0]
        for text in texts
    ]
    inner = MockBackend(latency=0.02)
    backend = CachingBackend(inner, max_inflight=12)
    assert score_gen(texts, SEED, _golds(SEED), _config(), backend) == alone
    assert inner.calls["score"] == 12
    # serial candidates would hold at most len(SEED) == 4 calls in flight
    assert inner.max_inflight_observed > 4


class _GenerateOnly(Backend):
    """Generates and rewards but cannot score sequences."""

    model = "generate-only"

    def __init__(self):
        self.inner = MockBackend(model=self.model)

    def generate(self, messages, params):
        return self.inner.generate(messages, params)

    def reward(self, context, response):
        return self.inner.reward(context, response)


def test_score_gen_falls_back_to_reward_and_records_it():
    backend = _GenerateOnly()
    seed = SEED[:2]
    candidates = ["Candidate instruction."]
    [(value, method)] = score_gen(candidates, seed, _golds(seed), _config(), backend)
    assert method == "reward"
    assert isinstance(value, float)


def test_score_pref_two_candidates_judge_prefers_a():
    judge = MockBackend(queue=["A"])
    wins = score_pref(["alpha", "beta"], SEED, _golds(SEED), _config(n_candidates=2),
                      CachingBackend(MockBackend()), judge)
    assert wins == [1, 0]


def test_score_pref_all_ties_gives_zeros():
    judge = MockBackend(queue=["tie", "tie", "tie"])
    wins = score_pref(["a", "b", "c"], SEED, _golds(SEED), _config(n_candidates=3),
                      CachingBackend(MockBackend()), judge)
    assert wins == [0, 0, 0]


def test_score_pref_scripted_tournament_tally():
    # pair order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); a bare MockBackend
    # judge has no max_inflight, so fan_out judges the pairs one at a time
    # and the FIFO judge script stays aligned with that order
    judge = MockBackend(queue=["A", "B", "A", "tie", "B", "A"])
    wins = score_pref(["c0", "c1", "c2", "c3"], SEED, _golds(SEED), _config(),
                      CachingBackend(MockBackend()), judge)
    assert wins == [2, 0, 2, 1]
    assert sum(wins) == 5  # 6 pairs, one tie


def test_score_pref_win_total_bounded_by_pair_count():
    judge = MockBackend(seed=11)
    candidates = ["c0", "c1", "c2", "c3", "c4"]
    wins = score_pref(candidates, SEED, _golds(SEED), _config(n_candidates=5),
                      CachingBackend(MockBackend()), judge)
    assert sum(wins) <= len(candidates) * (len(candidates) - 1) // 2


def test_score_pref_unparseable_verdict_counts_as_tie(caplog):
    judge = MockBackend(queue=["I prefer the first one, clearly."])
    with caplog.at_level("WARNING"):
        wins = score_pref(["a", "b"], SEED, _golds(SEED), _config(n_candidates=2),
                          CachingBackend(MockBackend()), judge)
    assert wins == [0, 0]
    assert any("unparseable judge verdict" in r.message for r in caplog.records)


def _scored(pairs):
    return [CandidatePrompt(text=f"c{i}", s_gen=g, s_pref=p) for i, (g, p) in enumerate(pairs)]


def test_select_prompt_zscore_hand_computed_tie():
    # z-scores are [1, -1] and [-1, 1]; combined [0, 0]; lowest index wins
    candidates = _scored([(-1.0, 0), (-3.0, 2)])
    winner = select_prompt(candidates, _config(normalization="zscore", n_candidates=2))
    assert [c.combined for c in candidates] == [0.0, 0.0]
    assert winner is candidates[0]


def test_select_prompt_no_normalization_hand_computed_tie():
    candidates = _scored([(-1.0, 0), (-3.0, 2)])
    winner = select_prompt(candidates, _config(normalization="none", n_candidates=2))
    assert [c.combined for c in candidates] == [-1.0, -1.0]
    assert winner is candidates[0]


def test_select_prompt_single_candidate_returns_it():
    candidate = CandidatePrompt(text="only", s_gen=-2.0, s_pref=0)
    assert select_prompt([candidate], _config()) is candidate


def test_select_prompt_requires_scores():
    with pytest.raises(InductionError):
        select_prompt([CandidatePrompt(text="unscored")], _config())


def test_dominated_candidate_never_wins_under_none():
    rng = random.Random(5)
    config = _config(normalization="none")
    for _ in range(50):
        n = rng.randint(2, 6)
        candidates = _scored(
            [(rng.uniform(-5, 0), rng.randint(0, 5)) for _ in range(n)]
        )
        winner = select_prompt(list(candidates), config)
        dominated = CandidatePrompt(
            text="dominated",
            s_gen=min(c.s_gen for c in candidates) - 1.0,
            s_pref=max(0, min(c.s_pref for c in candidates) - 1),
        )
        augmented = candidates + [dominated]
        new_winner = select_prompt(augmented, config)
        assert new_winner.text == winner.text


def test_permutation_changes_winner_only_within_ties():
    rng = random.Random(9)
    config = _config(normalization="zscore")
    for _ in range(50):
        n = rng.randint(2, 6)
        candidates = _scored([(rng.uniform(-5, 0), rng.randint(0, 5)) for _ in range(n)])
        winner = select_prompt(list(candidates), config)
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        other = select_prompt(shuffled, config)
        assert other.combined == pytest.approx(winner.combined)


def test_induce_prompt_end_to_end_report():
    backend = CachingBackend(MockBackend())
    judge = CachingBackend(MockBackend(model="judge"))
    winner, report = induce_prompt(_config(), SEED, backend, judge_backend=judge)
    assert winner.text == report["winner"]
    assert len(report["candidates"]) == 4
    assert all(c["s_gen"] is not None and c["s_pref"] is not None for c in report["candidates"])
    assert all(c["gen_method"] == "logprob" for c in report["candidates"])
