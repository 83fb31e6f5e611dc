"""The benchmark's contract with the package: perfbench's child process still runs.

perfbench/child.py imports coforget, wraps the public calls it times or traces
and reads store and round counters off the objects it sees. A deleted or
renamed name it relies on fails here, in a three-epoch run, rather than in a
full benchmark. The span names perfbench/run.py and child.py read are also
resolved against the package, so a deletion that would silently zero a
per-layer metric fails here too.
"""

from __future__ import annotations

import ast
import importlib
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
        # A span is listed only once called; run_epoch runs each epoch's rounds in one run_rounds call.
        spans = set(result["spans"])
        assert {"store.MemoryStore.scan_t_last", "consensus.run_rounds"} <= spans


def _span_names_perfbench_reads() -> set[str]:
    """Every coforget span name perfbench/run.py and child.py read, found with ast.

    run.py reads spans through `total`, `self_time` and `calls` and through
    its `net` tuple; child.py through the keys of its hooks and of its
    untraced targets.
    """
    names: set[str] = set()
    run_tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in ast.walk(run_tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"total", "self_time", "calls"}:
                names.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "net" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    child_tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in ast.walk(child_tree):
        if isinstance(node, ast.FunctionDef) and node.name == "hooks":
            returned = next(n.value for n in ast.walk(node) if isinstance(n, ast.Return))
            names.update(key.value for key in returned.keys)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "targets" for t in node.targets
        ) and isinstance(node.value, ast.Dict):
            names.update(key.value for key in node.value.keys)
    return names


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"coforget.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return callable(obj)


def test_perfbench_span_names_resolve():
    # A src/ deletion that silently zeroes a per-layer metric fails here. The
    # names left unresolved are the known gaps perfbench has yet to mend:
    # `submit` became `broadcast`, traffic no longer steps one interaction,
    # and the network lost its event queue (`poll`, `drain`) when the round
    # engine came to compute rounds in closed form from the network's draws.
    names = _span_names_perfbench_reads()
    assert len(names) == 22, sorted(names)
    unresolved = {name for name in names if not _resolves(name)}
    assert unresolved == {
        "transport.SimulatedNetwork.submit",
        "transport.SimulatedNetwork.poll",
        "transport.SimulatedNetwork.drain",
        "workload.step_interaction",
    }
