"""`validate` accepts exactly what `run` can run, over generated config files.

Each example writes a config file over a small forced workload, then sets
some keys of ProtocolConfig, WorkloadSpec and NetworkConfig to boundary
values as the flat format writes them: signed zeros, 1e308, inf, nan,
fractions, ranges, lists and strings. Integer values stay small, so no count
key allocates much. Everything runs in process through ``cli.main``:

- ``validate`` exits 0: ``run --epochs 2`` on every preset exits 0 and
  perfbench's ``check_outputs`` finds nothing in its outputs, or it exits 2
  with the run-clock horizon line as its only problem (validate checks the
  horizon of one epoch, run of two);
- ``validate`` exits 2: ``run`` exits 2 with the same problem lines, plus at
  most the horizon line;
- neither raises past ``main``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from coforget.cli import SCENARIOS, main
from coforget.core import ProtocolConfig
from coforget.transport import NetworkConfig
from coforget.workload import WorkloadSpec

# Always written, unless a drawn key replaces the line: a few memories and
# interactions, so a run of two epochs takes milliseconds.
FORCED = {
    "epoch_interactions": "3",
    "workload.initial_items": "6",
    "workload.dimension": "4",
    "workload.arrivals_per_epoch": "0..2",
}

KEYS = sorted(
    [f.name for f in dataclasses.fields(ProtocolConfig)]
    + [f"workload.{f.name}" for f in dataclasses.fields(WorkloadSpec)]
    + [f"network.{f.name}" for f in dataclasses.fields(NetworkConfig)]
)

# 2e307 s is a clock step that one epoch of 3 interactions passes and two overflow.
VALUES = (
    "0", "-0.0", "0.0", "1", "2", "3", "10", "-1", "0.25", "0.5", "0.7", "1.5", "2/3", "1/0",
    "1e-300", "2e307", "1e308", "-1e308", "inf", "-inf", "nan", "1..3", "3..1", "0.5, 0.5",
    "10, 60, 600", "0.2, 0.3, 0.5", "fast",
)

HORIZON = "run clock overflows: "


@hst.composite
def config_files(draw) -> str:
    lines = dict(FORCED)
    for key in draw(hst.lists(hst.sampled_from(KEYS), min_size=1, max_size=3, unique=True)):
        lines[key] = draw(hst.sampled_from(VALUES))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def cli(*argv) -> tuple[int, list[str]]:
    """Exit code of main and the problem lines it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    lines = (out if argv[0] == "validate" else err).getvalue().splitlines()
    if code == 2 and lines and lines[0].startswith("config error: "):
        lines[0] = lines[0][len("config error: ") :]
    return code, lines


def split_horizon(lines: list[str]) -> tuple[list[str], list[str]]:
    """The lines other than the horizon line, and the horizon line if any."""
    horizon = [line for line in lines if line.startswith(HORIZON)]
    return [line for line in lines if line not in horizon], horizon


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=config_files())
def test_validate_accepts_exactly_what_run_can_run(check_outputs, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        validated, problems = cli("validate", path)
        assert validated in (0, 2), problems
        others, horizon = split_horizon(problems if validated == 2 else [])
        for scenario in SCENARIOS:
            out = Path(tmp) / scenario
            ran, lines = cli("run", "--scenario", scenario, "--config", path, "--epochs", 2, "--out", out)
            run_others, run_horizon = split_horizon(lines)
            if ran == 0:
                assert validated == 0, (scenario, problems)
                assert check_outputs(out).problems == [], scenario
                continue
            assert ran == 2, (scenario, lines)
            assert not out.exists(), scenario
            assert run_others == others, scenario
            assert len(horizon) <= len(run_horizon) <= 1, (scenario, lines)
            if validated == 0:
                assert run_horizon, (scenario, lines)
