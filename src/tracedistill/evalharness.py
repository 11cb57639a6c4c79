"""Macro-F1 metrics for structured reasoning predictions.

Four numbers per evaluation: question F1 over condition lists, then three
nested step-level F1s: statement (the predicted statement matches a gold
statement), evidence (the matched pair's evidence also matches), and
reasoning (the verification labels agree as well). Each added conjunct can
only shrink the true-positive count, so reasoning <= evidence <= statement
holds on every input.

Matching policy is pluggable: exact string equality after configurable
normalization, or token-overlap F1 above a threshold. Exact matching is
resolved by multiset intersection, which equals the exhaustive
one-to-one assignment optimum; token matching uses an exhaustive
assignment (bitmask dynamic program) for lists of up to 12 items and a
similarity-ordered greedy pass beyond that.

Prediction and gold files are datasets like any other, read through
``corpus.read_records``: each record carries an ``id`` and optional
``question_parsing`` and ``cot_parsing`` lists. A malformed record is a
``SchemaError``, a file with no records an ``EmptyDatasetError``, and ids
that differ between the two files a ``DatasetError``.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field

from .corpus import (
    DatasetError,
    SchemaError,
    _index_keys,
    canonicalize_verification,
    read_records,
    require_records,
)

EXHAUSTIVE_LIMIT = 12

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_PUNCT_BYTES = string.punctuation.encode("ascii")


class EvalError(Exception):
    """An invalid ``MatchPolicy``."""


@dataclass
class MatchPolicy:
    lowercase: bool = True
    strip_punctuation: bool = True
    collapse_whitespace: bool = True
    mode: str = "exact"
    threshold: float = 0.5

    def __post_init__(self):
        if self.mode not in ("exact", "token_f1_threshold"):
            raise EvalError(f"unknown match mode {self.mode!r}")
        if self.mode == "token_f1_threshold" and not 0.0 < self.threshold <= 1.0:
            raise EvalError("threshold must be in (0, 1]")


@dataclass
class EvalReport:
    ques_f1: float
    stmt_f1: float
    evid_f1: float
    reason_f1: float
    per_instance: list[dict] = field(default_factory=list)


def normalize_text(text, policy):
    if policy.lowercase:
        text = text.lower()
    if policy.strip_punctuation:
        if text.isascii():  # the bytes table deletes in C, without a per-character lookup
            text = text.encode("ascii").translate(None, _PUNCT_BYTES).decode("ascii")
        else:
            text = text.translate(_PUNCT_TABLE)
    if policy.collapse_whitespace:
        text = " ".join(text.split())
    return text


def token_f1(a, b):
    """Multiset token overlap F1 between two normalized strings."""
    tokens_a = a.split()
    tokens_b = b.split()
    if not tokens_a and not tokens_b:
        return 1.0
    overlap = sum((Counter(tokens_a) & Counter(tokens_b)).values())
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(tokens_a) + len(tokens_b))


def strings_match(a, b, policy):
    na, nb = normalize_text(a, policy), normalize_text(b, policy)
    if policy.mode == "exact":
        return na == nb
    return token_f1(na, nb) >= policy.threshold


def _overlaps(pred_keys, gold_keys, levels):
    """Per level, the size of the multiset intersection of the pred and gold keys.

    Each item of ``pred_keys`` and ``gold_keys`` holds one key per level; the
    levels' keys never compare equal to one another (a string, then tuples of
    growing length), so one dict counts them all.
    """
    left = {}
    for keys in pred_keys:
        for key in keys:
            left[key] = left.get(key, 0) + 1
    tps = [0] * levels
    for keys in gold_keys:
        for level, key in enumerate(keys):
            count = left.get(key, 0)
            if count:
                left[key] = count - 1
                tps[level] += 1
    return tps


def _exact_tuple_counts(pred_steps, gold_steps, policy):
    """Nested multiset intersections; equals the exhaustive optimum."""
    def keys(steps):
        for stmt, evid, verif in steps:
            ns = normalize_text(stmt, policy)
            pair = (ns, normalize_text(evid, policy))
            yield ns, pair, (*pair, verif)

    return tuple(_overlaps(keys(pred_steps), keys(gold_steps), 3))


def _pair_tuple(pred, gold, policy):
    """(statement, evidence, reasoning) match indicators for one pair."""
    if not strings_match(pred[0], gold[0], policy):
        return None
    evid = strings_match(pred[1], gold[1], policy)
    reason = evid and pred[2] == gold[2]
    return (1, int(evid), int(reason))


def _assignment_counts(pred_steps, gold_steps, policy):
    """Lexicographically maximal (stmt, evid, reason) over one-to-one
    assignments; exhaustive for small lists, greedy beyond."""
    pairs = {}
    for i, pred in enumerate(pred_steps):
        for j, gold in enumerate(gold_steps):
            tup = _pair_tuple(pred, gold, policy)
            if tup is not None:
                pairs[(i, j)] = tup
    if not pairs:
        return (0, 0, 0)
    if max(len(pred_steps), len(gold_steps)) <= EXHAUSTIVE_LIMIT:
        best = {0: (0, 0, 0)}
        for i in range(len(pred_steps)):
            nxt = dict(best)
            for mask, value in best.items():
                for j in range(len(gold_steps)):
                    bit = 1 << j
                    if mask & bit or (i, j) not in pairs:
                        continue
                    tup = pairs[(i, j)]
                    cand = (value[0] + tup[0], value[1] + tup[1], value[2] + tup[2])
                    key = mask | bit
                    if key not in nxt or cand > nxt[key]:
                        nxt[key] = cand
            best = nxt
        return max(best.values())
    taken_p, taken_g = set(), set()
    totals = [0, 0, 0]
    for (i, j), tup in sorted(pairs.items(), key=lambda kv: (-sum(kv[1]), kv[0])):
        if i in taken_p or j in taken_g:
            continue
        taken_p.add(i)
        taken_g.add(j)
        totals = [t + v for t, v in zip(totals, tup)]
    return tuple(totals)


def match_steps(pred_steps, gold_steps, policy):
    """(stmt_tp, evid_tp, reason_tp) for step triples (statement, evidence,
    verification bool)."""
    if policy.mode == "exact":
        return _exact_tuple_counts(pred_steps, gold_steps, policy)
    return _assignment_counts(pred_steps, gold_steps, policy)


def match_sets(pred, gold, policy):
    """Greedy one-to-one matching of two string lists; returns (tp, fp, fn)."""
    if policy.mode == "exact":
        def keys(texts):
            return ((normalize_text(t, policy),) for t in texts)

        (tp,) = _overlaps(keys(pred), keys(gold), 1)
    else:
        steps_p = [(p, "", True) for p in pred]
        steps_g = [(g, "", True) for g in gold]
        tp = _assignment_counts(steps_p, steps_g, policy)[0]
    return tp, len(pred) - tp, len(gold) - tp


def _f1(tp, pred_total, gold_total):
    if pred_total == 0 and gold_total == 0:
        return 1.0
    if tp == 0:
        return 0.0
    return 2.0 * tp / (pred_total + gold_total)


def _eval_entry(fields):
    """(id, (condition list, step triples)) of one prediction or gold record."""
    for name in ("question_parsing", "cot_parsing"):
        if not isinstance(fields.get(name, []), list):
            raise SchemaError("expected a JSON array", path=name)
    steps = []
    for i, step in enumerate(fields.get("cot_parsing", [])):
        path = f"cot_parsing[{i}]"
        if not isinstance(step, dict):
            raise SchemaError("step must be a JSON object", path=path)
        step_fields = _index_keys(step)
        try:
            verdict = canonicalize_verification(step_fields.get("verification", "False"))
        except SchemaError as exc:
            raise SchemaError(exc.message, path=f"{path}.verification") from None
        steps.append(
            (str(step_fields.get("statement", "")), str(step_fields.get("evidence", "")), verdict)
        )
    conditions = [str(c) for c in fields.get("question_parsing", [])]
    return str(fields["id"]), (conditions, steps)


def _aligned(pred_file, gold_file):
    pred, gold = (
        dict(require_records(read_records(path, _eval_entry), path))
        for path in (pred_file, gold_file)
    )
    missing_pred = sorted(set(gold) - set(pred))
    missing_gold = sorted(set(pred) - set(gold))
    if missing_pred or missing_gold:
        raise DatasetError(
            f"id mismatch between {pred_file} and {gold_file}: "
            f"missing from predictions {missing_pred}; missing from gold {missing_gold}"
        )
    return pred, gold


def _instance_scores(pred_entry, gold_entry, policy):
    tp, fp, fn = match_sets(pred_entry[0], gold_entry[0], policy)
    ques = _f1(tp, len(pred_entry[0]), len(gold_entry[0]))
    pred_steps, gold_steps = pred_entry[1], gold_entry[1]
    stmt_tp, evid_tp, reason_tp = match_steps(pred_steps, gold_steps, policy)
    return {
        "ques_f1": ques,
        "stmt_f1": _f1(stmt_tp, len(pred_steps), len(gold_steps)),
        "evid_f1": _f1(evid_tp, len(pred_steps), len(gold_steps)),
        "reason_f1": _f1(reason_tp, len(pred_steps), len(gold_steps)),
    }


def evaluate(pred_file, gold_file, policy=None):
    """Score a prediction file against gold; macro-averaged over instances."""
    policy = policy or MatchPolicy()
    pred, gold = _aligned(pred_file, gold_file)
    per_instance = []
    for ident in sorted(gold):
        scores = _instance_scores(pred[ident], gold[ident], policy)
        scores["id"] = ident
        per_instance.append(scores)
    n = len(per_instance)
    return EvalReport(
        ques_f1=sum(s["ques_f1"] for s in per_instance) / n,
        stmt_f1=sum(s["stmt_f1"] for s in per_instance) / n,
        evid_f1=sum(s["evid_f1"] for s in per_instance) / n,
        reason_f1=sum(s["reason_f1"] for s in per_instance) / n,
        per_instance=per_instance,
    )


def format_report(report):
    """Human-readable table in the standard column order."""
    header = f"{'Ques. F1':>10} {'Stmt. F1':>10} {'Evid. F1':>10} {'Reason. F1':>11}"
    row = (
        f"{report.ques_f1 * 100:>10.2f} {report.stmt_f1 * 100:>10.2f} "
        f"{report.evid_f1 * 100:>10.2f} {report.reason_f1 * 100:>11.2f}"
    )
    return header + "\n" + row
