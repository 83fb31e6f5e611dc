"""Golden outputs: small CLI runs shaped like the three benchmark workloads,
one with tied message latencies, and a two-seed sweep of the default preset.

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
the sweep about 0.3 s. The tied-latency run gives every message the same 2 ms
latency, so a broadcast's messages arrive together and the round engine's tie
order decides what each node sees first: equal arrival times break by kind
(EVALUATE, then PREPARE, then COMMIT), then by sender position (the
coordinator, then the agents in id order).
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

TIED_LATENCY = """\
network.latency_min_ms = 2
network.latency_max_ms = 2
"""

# name -> (scenario, overlay, epochs, seed, {file: sha256})
GOLDEN = {
    "forget_storm": (
        "byzantine_f1",
        FORGET_STORM,
        12,
        1,
        {
            "report.json": "1151fec4358f26b3ff24e941d5ce4df11e376a7cff87bb7a86f0ea842572f7cf",
            "epochs.csv": "aa18c35fa26d63af9d75f83367638252663e4b85d31b76967ee26fd1d129a9df",
            "audit.jsonl": "2a94ebf6ad1ccd8b31d536a250090440b7ac99374edd0bb3bc69ffb0d5bab964",
            "metadata.csv": "17353591fea2cea6d14a3b392fe4f342c4bee844de8f8f83a2f378c8ab26e9bb",
        },
    ),
    "long_horizon": (
        "byzantine_f1",
        "",
        12,
        0,
        {
            "report.json": "5d500aadd0c639e787568bdde87a59f830003d02302b3a2446cbdbab5e97f8ab",
            "epochs.csv": "30cdbba5475c90bf8a9db23c3c737ad49af38d0b1b8273274755d72004cf4aee",
            "audit.jsonl": "4ee4676d162f198a1df85b7c2e306695a6c9ba975e786c1a338e99fac43fd114",
            "metadata.csv": "319877ee3872bd94236141085df0d8b3e3309313eea2e7156af77eb15914481b",
        },
    ),
    "hot_reads": (
        "cache_profile",
        HOT_READS,
        4,
        0,
        {
            "report.json": "a86e121515ad7705f4016d5eb632fc924959c008ba0180348fac47dedc7d31d1",
            "epochs.csv": "1f9ed6dc3827fbab605ed9b05b8daef28476e7666fd0dc16ed03445126e06638",
            "audit.jsonl": "330963c442a962c9c16ed2e741b4771042bd44b073aa8c73c1c2ff2495f734b1",
            "metadata.csv": "29ea4de213f436fec7475a1be9b21fd6c52b34ffd51ac979a148d0f1d26e6b6b",
        },
    ),
    "tied_latency": (
        "byzantine_f1",
        TIED_LATENCY,
        12,
        1,
        {
            "report.json": "941756702c54f58b33eea2cce91777fef24208ba9b30787dc19632307517c467",
            "epochs.csv": "1b0e4b423b9e2f1c3bfd58e9a727effc434a44b1dccc27d54958744ad934da23",
            "audit.jsonl": "92074bdf226e0e5f37cecbe62717e6ffe3cc4b37678f3ae8045c24ecc9bb4415",
            "metadata.csv": "e805b6901e6653a2d18a3e366a7be7bdd3b41ab913decc8b9c0f1f04599d65d9",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, check_outputs, name):
    scenario, overlay, epochs, seed, digests = GOLDEN[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(overlay, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--scenario", scenario, "--config", str(config)]
    argv += ["--epochs", str(epochs), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert actual == digests
    assert check_outputs(out).problems == []


# baseline_no_faults, the default preset, at --epochs 12 --seed 3 --seeds 2:
# directory -> {file: sha256}
SWEEP = {
    "seed-3": {
        "report.json": "1ea79d0ede7f419c385889b16f3a24ace8626bb6b0fc0051877b62d501f12e9d",
        "epochs.csv": "f55cd42d720e450abe2300f3681d0c6b2ee973073f3232196e1b256b51c32612",
        "audit.jsonl": "8526f828bc8678d94088d41168a55a78dc2f19d899f4cefe96d9e8c82ad98cbb",
        "metadata.csv": "c67cd9314df460c9d825f20d95f2efa1c67db48368fccbcfe5d5638baea4d81c",
    },
    "seed-4": {
        "report.json": "b592fbb562b2542ae29d28b857720ffd2759a07013410a2e72ce8cd1c9f5b11b",
        "epochs.csv": "527ef511ebc849f8bc1df474301a69095f55591ec7ec7f308d18a252a46b850c",
        "audit.jsonl": "7641d6bd1ad5fad0071db151c3490a1331772aaa0dde9215ac80feeef217e29e",
        "metadata.csv": "1fd75546c1c8a46e4e82c39e95c7d1e9537a13feca69f5a4c70ff6cd6a007a2d",
    },
}


def test_default_preset_sweep_matches_recorded_digests(tmp_path, check_outputs):
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
        assert check_outputs(out / seed_dir).problems == []
