"""Golden outputs: small CLI runs shaped like the three benchmark workloads,
and a two-seed sweep of the default preset.

Each run writes report.json, epochs.csv, audit.jsonl and metadata.csv, and
each file's sha256 must match the constant recorded below. The sweep writes
one such set per seed, each in its own seed-<n>/ directory. A refactor that
claims "outputs byte-identical" is checked here rather than by a manual
``cmp``. Only an intended behaviour change may re-record these constants, and
the change log must say which outputs moved and why.

The ``.cfg`` overlays are inlined copies of ``perfbench/workloads/*.cfg``;
the epoch counts are cut so the three runs take about 1.5 s together, and
the sweep about 0.3 s.
"""

from __future__ import annotations

import hashlib

import pytest

from coforget.cli import main

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
            "report.json": "5db4cfae1429f679e7f8fa9eb89f7a23bc487e05a33ea62dbbae2b5cd120464c",
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
            "report.json": "dd5970a93a77d9a31f89420ea16dc600c6ce2f7fe27cc22903a8c9786f41dc95",
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
            "report.json": "493c98be044f16c903aa0bca7e175cbec5e8dc4d219c49619b1dea3dd5db9fc4",
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


# baseline_no_faults, the default preset, at --epochs 12 --seed 3 --seeds 2:
# directory -> {file: sha256}
SWEEP = {
    "seed-3": {
        "report.json": "b7c76c52ddaa276d6010d720b6aebe05888019135199d37f120b49d889b20f13",
        "epochs.csv": "b28d82b53055b39ea0662dc74aa1a7747d31e2c682cd8163aac2f30ee61d2369",
        "audit.jsonl": "e1b605569f18939a5507c5699934acbf6955fd776a9b3697b486621d161d5a52",
        "metadata.csv": "d89a4c63634d951f8496308bfddd8c0a6d2d717ab39b7364ab1c75ea6e17a5d2",
    },
    "seed-4": {
        "report.json": "052123ffe073cb9555403ae1c8e6358079a2a86b89acc2baf100e39ccb7ef974",
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
