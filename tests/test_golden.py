"""Golden outputs: small CLI runs shaped like the three benchmark workloads,
and a two-seed sweep of the default preset.

Each run writes report.json, epochs.csv, audit.jsonl and metadata.csv, and
each file's sha256 must match the constant recorded below. The sweep writes
one such set per seed, each in its own seed-<n>/ directory. A refactor that
claims "outputs byte-identical" is checked here rather than by a manual
``cmp``. Only an intended behaviour change may re-record these constants, and
the change log must say which outputs moved and why.

Each golden run directory must also pass the benchmark's own output checker,
``check_outputs`` in ``perfbench/checks.py``, which cross-checks the report's
summary against the epoch rows and the audit, so a format slip shows here
before the benchmark runs.

The ``.cfg`` overlays are inlined copies of ``perfbench/workloads/*.cfg``;
the epoch counts are cut so the three runs take about 1.5 s together, and
the sweep about 0.3 s.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from coforget.cli import main

# perfbench is not a package on the import path, so load its checker by file;
# dataclasses resolve their module through sys.modules.
_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(checks)

FORGET_STORM = """\
decay_scales = 10, 60, 600
workload.initial_items = 500
workload.arrivals_per_epoch = 60..80
workload.relevance_mix = 0.0
workload.dimension = 64
"""

HOT_READS = """\
epoch_interactions = 1000
workload.accesses_per_interaction = 4
"""

# name -> (scenario, overlay, epochs, seed, {file: sha256})
GOLDEN = {
    "forget_storm": (
        "byzantine_f1",
        FORGET_STORM,
        12,
        1,
        {
            "report.json": "bf8b14561c262925515a8cf9276202525c4e7892f9243c57e21925dd30709f63",
            "epochs.csv": "af60fef8e17d9fb6fc703d0f2f97c153030de3663358464a8cbc1961ebbcb99e",
            "audit.jsonl": "b2ac30d2ca96ce061df101c217519c1b88f1934c100e8000a14ccacc6cfaa1d7",
            "metadata.csv": "51bd1ec328103a2daf4fc83766735ac4fc604746789da4515baef83e33ee0b3b",
        },
    ),
    "long_horizon": (
        "byzantine_f1",
        "",
        12,
        0,
        {
            "report.json": "0617fecf74e134ff382664fa6dec2d23391e6bf24a3dcc8adcc247e0506aabb6",
            "epochs.csv": "f9f36aad74b761ae51f4218a8f9c930ae536c830776bec455af371b44ed67906",
            "audit.jsonl": "b75b86c18bb6f86b465ebf7659d09dfe59654cdd40e98407ed513b5544343926",
            "metadata.csv": "276c03ca770e87ba286eb1e49700946173579e3a34123d29016a31dab3a42a16",
        },
    ),
    "hot_reads": (
        "cache_profile",
        HOT_READS,
        4,
        0,
        {
            "report.json": "45c74c9a4f973ac449da4d8192ed4293b60faa3aa83ea1dfebf1a781fda9f20a",
            "epochs.csv": "77f34bf56d69215dcfe1370d05ba9310414f15a1cf1724da72a0bc4c2969d45c",
            "audit.jsonl": "8633806812a0a0970e0613190ca06c18b759c30525c715ceb065f76647f91884",
            "metadata.csv": "015a469ece178f18e18ab08a1b9ef846227c6b944f0bf3963625e4f0c32d9bbd",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, name):
    scenario, overlay, epochs, seed, digests = GOLDEN[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(overlay, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--scenario", scenario, "--config", str(config)]
    argv += ["--epochs", str(epochs), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert actual == digests
    assert checks.check_outputs(out).problems == []


# baseline_no_faults, the default preset, at --epochs 12 --seed 3 --seeds 2:
# directory -> {file: sha256}
SWEEP = {
    "seed-3": {
        "report.json": "b2d2db341d26c7dbb4d0cf71b7f014432764a8f45d4e115eee27b0aa7ab889fb",
        "epochs.csv": "b28d82b53055b39ea0662dc74aa1a7747d31e2c682cd8163aac2f30ee61d2369",
        "audit.jsonl": "e1b605569f18939a5507c5699934acbf6955fd776a9b3697b486621d161d5a52",
        "metadata.csv": "d89a4c63634d951f8496308bfddd8c0a6d2d717ab39b7364ab1c75ea6e17a5d2",
    },
    "seed-4": {
        "report.json": "f215ae07140545bbc1e8db25af83432c80a3d9f0fc7f4193f10ccf2be401435a",
        "epochs.csv": "40bbccd018d6045a69f698eab7046fbf806495f6eda4cde6d0860bb17c57a654",
        "audit.jsonl": "532e256cda764d7ebdd54edb2d5a4bf06bbf1c10f900944dee653d7e79397684",
        "metadata.csv": "2a66edba60b50ff3f0c97b47d04d7ce27bb008225afb22b2b4cfdbc37c9dd09c",
    },
}


def test_default_preset_sweep_matches_recorded_digests(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--scenario", "baseline_no_faults", "--epochs", "12"]
    argv += ["--seed", "3", "--seeds", "2", "--out", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(SWEEP)
    actual = {
        seed_dir: {f: hashlib.sha256((out / seed_dir / f).read_bytes()).hexdigest() for f in digests}
        for seed_dir, digests in SWEEP.items()
    }
    assert actual == SWEEP
    for seed_dir in SWEEP:
        assert checks.check_outputs(out / seed_dir).problems == []
