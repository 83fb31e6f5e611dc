"""`run_simulation` rejects exactly what `run --scenario custom` rejects, over generated config files.

The library twin of ``test_validate_property.py``: each example draws a config
file from the same keys and values, less the two seed keys, which the run seed
overrides. The values ``parse_config_text`` reads from the file go straight to
ProtocolConfig, WorkloadSpec, NetworkConfig and ``run_simulation(..., 2)``.
Strings, and tuples given to scalar fields, are left out: a library caller who
passes those gets a TypeError, not a config check. For each example:

- ``run_simulation`` raises ValueError (ConfigError included) exactly when
  ``run --scenario custom --epochs 2`` on the file exits 2;
- otherwise every EpochReport balances and every ``elapsed_virtual_s`` is
  finite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from coforget.cli import _split_namespaces, main
from coforget.core import ProtocolConfig, parse_config_text
from coforget.epoch import run_simulation
from coforget.transport import NetworkConfig
from coforget.workload import WorkloadSpec

from test_validate_property import FORCED, KEYS, VALUES

FIELD_TYPES = {
    namespace + field.name: str(field.type)
    for namespace, cls in (("", ProtocolConfig), ("workload.", WorkloadSpec), ("network.", NetworkConfig))
    for field in dataclasses.fields(cls)
}


def library_value(key: str, value) -> bool:
    """Whether a library caller could pass `value` for `key` and meet a config check, not a TypeError."""
    if isinstance(value, str):
        return False
    return not isinstance(value, tuple) or FIELD_TYPES[key].startswith("tuple")


# The values each key can take, the two seed keys left out.
LIBRARY_VALUES = {
    key: [raw for raw in VALUES if library_value(key, parse_config_text(f"{key} = {raw}")[key])]
    for key in KEYS
    if key not in ("workload.seed", "network.seed")
}


@hst.composite
def config_files(draw) -> str:
    lines = dict(FORCED)
    for key in draw(hst.lists(hst.sampled_from(sorted(LIBRARY_VALUES)), min_size=1, max_size=3, unique=True)):
        lines[key] = draw(hst.sampled_from(LIBRARY_VALUES[key]))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def cli_run(path: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["run", "--scenario", "custom", "--config", str(path), "--epochs", "2", "--out", str(out)])


def library_run(text: str):
    """The reports of a two-epoch run_simulation on the file's values, or None if it raises ValueError."""
    protocol, workload, network = _split_namespaces(parse_config_text(text))
    try:
        cfg, spec, net_cfg = ProtocolConfig(**protocol), WorkloadSpec(**workload), NetworkConfig(**network)
        return run_simulation(cfg, spec, 2, net_cfg=net_cfg).reports
    except ValueError:
        return None


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=config_files())
def test_run_simulation_rejects_exactly_what_run_rejects(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        ran = cli_run(path, Path(tmp) / "out")
    assert ran in (0, 2), text
    reports = library_run(text)
    assert (reports is None) == (ran == 2), text
    for r in reports or ():
        assert r.memories_end == r.memories_start - r.deleted + r.additions, text
        assert r.consensus_reached + r.consensus_failed == r.proposed, text
        assert math.isfinite(r.elapsed_virtual_s), text
