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
            "report.json": "6f61cc3b4f37d8d4cf5903bc4d65ee74055eb279d716df954c42914c6785b991",
            "epochs.csv": "4123c4ad755bbbde85abcfbfa2c50000bf2456d1f35f9057eaa0836172f903ac",
            "audit.jsonl": "20bd7e67fdba2c54899e07382e7e57c1fc4c8f037a31bc655eaefb43c6c8392a",
            "metadata.csv": "ad1580679e206acb4b780347f8a0856186773356329a22754c185e167a2e4637",
        },
    ),
    "long_horizon": (
        "byzantine_f1",
        "",
        12,
        0,
        {
            "report.json": "7900c426675988209a80647c1cd1ad729e1c32123b0fcf332a1bc73773d1d3db",
            "epochs.csv": "ffbb302976b67be61fae5fa2185e28c5de9758c85a29c81268cd5193a4786bb6",
            "audit.jsonl": "0b8712e8360ad52cb2fcb3bdc79f8021b3fa1777a709d164dad9926c0bee1c2d",
            "metadata.csv": "bc7a2c9905c13ef032faadeb3904abed8c23af854b2d40652589bf1d84b63e18",
        },
    ),
    "hot_reads": (
        "cache_profile",
        HOT_READS,
        4,
        0,
        {
            "report.json": "a86e121515ad7705f4016d5eb632fc924959c008ba0180348fac47dedc7d31d1",
            "epochs.csv": "7bc3c002f7a240e50dac4eb1e14fa16c688ca513b2aef092e6e67ccc696dc4df",
            "audit.jsonl": "13298970013cd40f4a7b447238707d59efb11997343e6fe292253bac39fa5f15",
            "metadata.csv": "29ea4de213f436fec7475a1be9b21fd6c52b34ffd51ac979a148d0f1d26e6b6b",
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
        "report.json": "1ea79d0ede7f419c385889b16f3a24ace8626bb6b0fc0051877b62d501f12e9d",
        "epochs.csv": "6f5f3b427ccd58abcc2e61fba650d351018f65c9a6ffdd55d7689422c43a25fd",
        "audit.jsonl": "4e12530d8033229cffb056fe6f1e25bfe021b1b46d4df9729489930a3283be0f",
        "metadata.csv": "c67cd9314df460c9d825f20d95f2efa1c67db48368fccbcfe5d5638baea4d81c",
    },
    "seed-4": {
        "report.json": "b592fbb562b2542ae29d28b857720ffd2759a07013410a2e72ce8cd1c9f5b11b",
        "epochs.csv": "5a9e90679a022692b2dc1419a0d5711632a7dc01b0ff7f1988e71148fe0d5018",
        "audit.jsonl": "35e70dc70cb1bc71d01e05c8c2138a6d3cd553c9f5ffe91b136d1c75edfe6fb7",
        "metadata.csv": "1fd75546c1c8a46e4e82c39e95c7d1e9537a13feca69f5a4c70ff6cd6a007a2d",
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
