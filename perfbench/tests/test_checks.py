"""The correctness checks accept a real run and reject tampered outputs."""

from __future__ import annotations

import csv
import json

import pytest

from checks import audit_violations, check_outputs, fingerprint
from coforget.cli import main

SMALL_RUN = """\
epoch_interactions = 20
decay_scales = 10, 60, 600
workload.initial_items = 60
workload.dimension = 16
workload.arrivals_per_epoch = 2..4
workload.relevance_mix = 0.0
"""

GOOD_DELETE = {
    "commit_count": 4,
    "decision": "forget",
    "epoch_index": 0,
    "memory_id": "m-1",
    "outcome": "deleted",
    "q": 3.333333333333333,
    "s_m": 5.0,
    "votes": {"percept-1": "forget", "percept-2": "forget", "planner-1": "forget", "planner-2": "forget"},
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "small.cfg"
    config.write_text(SMALL_RUN, encoding="utf-8")
    args = ["run", "--scenario", "byzantine_f1", "--config", str(config), "--epochs", "8", "--seed", "1"]
    assert main([*args, "--out", str(out)]) == 0
    return out


def test_safety_checker_accepts_a_valid_deletion_at_the_boundary():
    at_boundary = {**GOOD_DELETE, "s_m": GOOD_DELETE["q"]}
    assert audit_violations([GOOD_DELETE, at_boundary]) == []


@pytest.mark.parametrize(
    "bad",
    [
        {"decision": "keep"},
        {"decision": "timeout"},
        {"s_m": 3.0},
    ],
)
def test_safety_checker_rejects_a_bad_audit_line(bad):
    line = json.dumps({**GOOD_DELETE, **bad}, sort_keys=True)
    problems = audit_violations([GOOD_DELETE, json.loads(line)])
    assert len(problems) == 1 and problems[0].startswith("audit line 2:")


def test_retained_lines_are_not_safety_violations():
    assert audit_violations([{**GOOD_DELETE, "outcome": "retained", "decision": "timeout"}]) == []


def test_real_run_passes(run_dir):
    check = check_outputs(run_dir)
    assert check.problems == []
    assert check.total("proposed") > 0 and check.summary["total_deleted"] > 0
    assert check.fingerprint == fingerprint(run_dir)


def _copy(run_dir, tmp_path):
    for path in run_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    return tmp_path


def test_tampered_audit_is_caught(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    lines = (out / "audit.jsonl").read_text(encoding="utf-8").splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["outcome"] == "deleted")
    entry = json.loads(lines[index])
    entry["s_m"] = entry["q"] / 2
    lines[index] = json.dumps(entry, sort_keys=True)
    (out / "audit.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("deleted with decision=forget" in p for p in check_outputs(out).problems)


def test_unbalanced_epoch_row_is_caught(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    with open(out / "epochs.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("memories_end")
    rows[3][column] = str(int(rows[3][column]) + 1)
    with open(out / "epochs.csv", "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    assert any("memories_end != memories_start" in p for p in check_outputs(out).problems)


def test_summary_mismatch_is_caught(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["summary"]["total_deleted"] += 1
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert any(p.startswith("summary total_deleted") for p in check_outputs(out).problems)


def test_missing_file_is_caught(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    (out / "metadata.csv").unlink()
    assert check_outputs(out).problems == ["missing output files: metadata.csv"]
