"""Output checks. Each returns a problem string, or None when the output is right.

A problem marks the subcommand invocation that produced the output as a
failed op.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _rows(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def predictions_problem(pred_path, expected_ids):
    """Predictions must be one-to-one with the input ids."""
    try:
        ids = [row["id"] for row in _rows(pred_path)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable predictions {pred_path}: {exc}"
    if sorted(ids) != sorted(expected_ids):
        missing = sorted(set(expected_ids) - set(ids))[:3]
        extra = sorted(set(ids) - set(expected_ids))[:3]
        return (f"predictions not 1:1 with pool ids ({len(ids)} rows for {len(expected_ids)} ids; "
                f"missing {missing}, unexpected {extra})")
    return None


def eval_report_problem(report_path):
    """0 <= reasoning <= evidence <= statement <= 1 and 0 <= question <= 1,
    for the macro scores and for every instance."""
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        rows = [report] + list(report["per_instance"])
        for row in rows:
            ques, stmt = row["ques_f1"], row["stmt_f1"]
            evid, reason = row["evid_f1"], row["reason_f1"]
            if not (0.0 <= reason <= evid <= stmt <= 1.0 and 0.0 <= ques <= 1.0):
                return f"eval scores out of order for {row.get('id', 'macro')}: {ques} {stmt} {evid} {reason}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable eval report {report_path}: {exc}"
    return None


def cv_export_problem(workdir, strategy="average"):
    """The CV export has one line per step of the filtered dataset."""
    workdir = Path(workdir)
    try:
        steps = sum(len(row["cot_parsing"]) for row in _rows(workdir / f"filtered_{strategy}.jsonl"))
        lines = (workdir / "sft" / f"{strategy}_CV.jsonl").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable CV export or filtered set: {exc}"
    rows = len(lines) - 1  # first line is the format header
    if rows != steps:
        return f"CV export has {rows} rows for {steps} filtered steps"
    return None


def manifest_outputs(workdir, command):
    """Output path -> sha256 from a subcommand's manifest ({} when absent)."""
    path = Path(workdir) / "manifests" / f"{command}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError):
        return {}


def digest(outputs_list):
    """One hash over a sequence of manifest output maps."""
    blob = json.dumps(outputs_list, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
