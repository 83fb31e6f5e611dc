"""Correctness checks on one `coforget run` output directory.

A run passes when all four output files exist and:

- every audited deletion was decided forget by consensus and had S_m >= Q;
- every epoch row balances: memories_end = memories_start - deleted + additions,
  proposed = reached + failed, and the audit holds one line per proposed
  memory and one deleted line per deletion;
- the summary in report.json matches totals recomputed from the epoch rows.

The sha256 of each file is the run's fingerprint; repeats of one workload and
seed must agree on it byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["OUTPUT_FILES", "SUMMARY_FIGURES", "RunCheck", "audit_violations", "check_outputs", "fingerprint"]

OUTPUT_FILES = ("report.json", "epochs.csv", "audit.jsonl", "metadata.csv")

SUMMARY_FIGURES = ("footprint_reduction", "pbft_success_rate", "cache_hit_rate", "total_deleted")


@dataclass
class RunCheck:
    """What the checks found in one output directory."""

    problems: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    fingerprint: dict[str, str] = field(default_factory=dict)
    output_bytes: int = 0

    def total(self, column: str) -> float:
        return sum(row[column] for row in self.rows)


def fingerprint(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}


def audit_violations(entries: Iterable[dict]) -> list[str]:
    """Safety: no deletion without a consensus forget decision and S_m >= Q."""
    problems = []
    for number, entry in enumerate(entries, start=1):
        if entry["outcome"] == "deleted" and (entry["decision"] != "forget" or not entry["s_m"] >= entry["q"]):
            problems.append(
                f"audit line {number}: {entry['memory_id']} deleted with decision="
                f"{entry['decision']} s_m={entry['s_m']} q={entry['q']}"
            )
    return problems


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            {k: float(v) if "." in v or "e" in v else int(v) for k, v in row.items()}
            for row in csv.DictReader(handle)
        ]


def _row_problems(rows: list[dict], audit_per_epoch: Counter, deleted_per_epoch: Counter) -> list[str]:
    problems = []
    for expected_index, row in enumerate(rows):
        e = row["epoch_index"]
        if e != expected_index:
            problems.append(f"epoch row {expected_index} has epoch_index {e}")
        if row["memories_end"] != row["memories_start"] - row["deleted"] + row["additions"]:
            problems.append(f"epoch {e}: memories_end != memories_start - deleted + additions")
        if row["proposed"] != row["consensus_reached"] + row["consensus_failed"]:
            problems.append(f"epoch {e}: proposed != consensus_reached + consensus_failed")
        if audit_per_epoch[e] != row["proposed"]:
            problems.append(f"epoch {e}: {audit_per_epoch[e]} audit lines for {row['proposed']} proposed")
        if deleted_per_epoch[e] != row["deleted"]:
            problems.append(f"epoch {e}: {deleted_per_epoch[e]} audited deletions for {row['deleted']} deleted")
    return problems


def _summary_problems(rows: list[dict], summary: dict, baselines: list[int]) -> list[str]:
    hits = sum(r["cache_hits"] for r in rows)
    gets = hits + sum(r["cache_misses"] for r in rows)
    final = rows[-1]["memories_end"]
    baseline = rows[0]["memories_start"] + sum(r["additions"] for r in rows)
    expected = {
        "epochs": len(rows),
        "total_deleted": sum(r["deleted"] for r in rows),
        "final_footprint": final,
        "final_baseline_footprint": baseline,
        "footprint_reduction": 1.0 - final / baseline if baseline else 0.0,
        "pbft_success_rate": sum(r["consensus_failed"] == 0 for r in rows) / len(rows),
        "cache_hit_rate": hits / gets if gets else 0.0,
    }
    problems = [
        f"summary {key} = {summary.get(key)!r}, epoch rows give {value!r}"
        for key, value in expected.items()
        if not math.isclose(summary.get(key, math.nan), value, rel_tol=1e-12, abs_tol=1e-12)
    ]
    if baselines[-1:] != [baseline]:
        problems.append(f"baseline series ends at {baselines[-1:]}, epoch rows give {baseline}")
    return problems


def check_outputs(out_dir: Path) -> RunCheck:
    check = RunCheck()
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        check.problems.append(f"missing output files: {', '.join(missing)}")
        return check
    check.fingerprint = fingerprint(out_dir)
    check.output_bytes = sum((out_dir / name).stat().st_size for name in OUTPUT_FILES)

    with open(out_dir / "audit.jsonl", encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle]
    check.problems.extend(audit_violations(entries))
    audit_per_epoch: Counter = Counter()
    deleted_per_epoch: Counter = Counter()
    for entry in entries:
        audit_per_epoch[entry["epoch_index"]] += 1
        deleted_per_epoch[entry["epoch_index"]] += entry["outcome"] == "deleted"

    check.rows = _read_rows(out_dir / "epochs.csv")
    if not check.rows:
        check.problems.append("epochs.csv has no rows")
        return check
    check.problems.extend(_row_problems(check.rows, audit_per_epoch, deleted_per_epoch))

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    check.summary = report["summary"]
    check.problems.extend(_summary_problems(check.rows, check.summary, report["baseline_footprints"]))
    return check
