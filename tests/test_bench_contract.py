"""The benchmark's contract with the package: perfbench's child process still runs.

perfbench/child.py imports coforget, wraps the public calls it times or traces
and reads store and round counters off the objects it sees. A deleted or
renamed name it relies on fails here, in a three-epoch run, rather than in a
full benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_child_runs_and_reports_its_counters(tmp_path, trace):
    config = tmp_path / "small.cfg"
    config.write_text("workload.initial_items = 60\nworkload.dimension = 8\n")
    marks = tmp_path / "marks.json"
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "child.py"),
        "--src",
        str(ROOT / "src"),
        "--marks",
        str(marks),
        *(["--trace"] if trace else []),
        "--",
        "--scenario",
        "byzantine_f1",
        "--config",
        str(config),
        "--epochs",
        "3",
        "--out",
        str(tmp_path / "out"),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(marks.read_text())
    assert result["exit_code"] == 0
    assert {"setup_end", "sim_end"} <= set(result["marks"])
    counters = result["counters"]
    assert counters["store"]["upserts"] > 0
    assert counters["net"]["delivered"] > 0
    if trace:
        # Only a traced run wraps run_round, so only it counts round deliveries.
        assert counters["rounds"]["deliveries"] > 0
        # A span is listed only once called; run_epoch gates every round through finalize.
        spans = set(result["spans"])
        assert {"store.MemoryStore.scan_t_last", "consensus.run_round", "consensus.finalize"} <= spans
