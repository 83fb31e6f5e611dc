"""CLI behavior through in-process main(): exit codes, outputs, determinism."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from coforget import cli
from coforget.cli import main

SMALL_RUN = """\
# small, fast run for tests
epoch_interactions = 20
workload.initial_items = 60
workload.dimension = 16
workload.arrivals_per_epoch = 2..4
workload.history_window_s = 1800.0
"""

# Each value parses, but a run cannot use it.
ILL_TYPED = (
    "decay_scales = nan, 60, 3600\n",
    "workload.dimension = 2.5\n",
    "epoch_interactions = 2.5\n",
    "epoch_interactions = true\n",
)

# Far, fast-decaying memories: epoch 0 proposes more ids than one PROPOSE
# frame holds.
OVERSIZE_PROPOSAL = """\
decay_scales = 10, 60, 600
workload.initial_items = 2500
workload.relevance_mix = 0.0
workload.dimension = 16
"""

# byzantine_f1 on a small store over a lossier network: at seed 0 over 30
# epochs, 10 epochs propose nothing and 6 have a round time out.
SPARSE_LOSSY = """\
workload.initial_items = 40
workload.arrivals_per_epoch = 0..3
workload.dimension = 8
network.drop_prob = 0.05
"""

# perfbench's forget_storm overlay (as in tests/test_golden.py): most of the
# store is proposed, so audit.jsonl holds many entries.
FORGET_STORM = """\
decay_scales = 10, 60, 600
workload.initial_items = 500
workload.arrivals_per_epoch = 60..80
workload.relevance_mix = 0.0
workload.dimension = 64
"""

# FORGET_STORM over a network whose every hop takes 1e308 ms: one epoch's
# 500 rounds alone would end near 1.5e308 s, past the clock's margin.
FORGET_STORM_SLOW_NET = FORGET_STORM + "network.latency_min_ms = 1e308\nnetwork.latency_max_ms = 1e308\n"

OUTPUT_FILES = ("report.json", "epochs.csv", "audit.jsonl", "metadata.csv")

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def small_run_with(line: str) -> str:
    """SMALL_RUN with `line` added, replacing SMALL_RUN's own line for that key."""
    key = line.partition(" =")[0]
    kept = [old for old in SMALL_RUN.splitlines(keepends=True) if old.partition(" =")[0] != key]
    return "".join(kept) + line


def write_config(tmp_path, text=SMALL_RUN, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def epoch_rows(out: Path) -> list[dict]:
    """epochs.csv as one dict per epoch, every cell parsed as a number."""
    with open(out / "epochs.csv", newline="") as handle:
        return [{key: json.loads(cell) for key, cell in row.items()} for row in csv.DictReader(handle)]


class TestValidate:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert run_cli("validate", path) == 0
        assert f"config valid: {path}" in capsys.readouterr().out

    def test_violations_are_all_listed(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "f = 2\ndecay_weights = 0.2, 0.3, 0.4\n",
        )
        assert run_cli("validate", path) == 2
        out = capsys.readouterr().out
        assert "N ≥ 3f+1" in out
        assert "decay weights" in out.lower() or "sum" in out.lower()

    def test_negative_f_reported_once(self, tmp_path, capsys):
        # f's sign is judged in one place, so neither command adds a bound
        # message that only restates it.
        path = write_config(tmp_path, "f = -1\n")
        assert run_cli("validate", path) == 2
        assert capsys.readouterr().out.splitlines() == ["f must be >= 0, got -1"]
        assert run_cli("run", "--config", path, "--epochs", 1, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == ["config error: f must be >= 0, got -1"]

    @pytest.mark.parametrize(
        "text, problems",
        [
            # Range problems in every namespace.
            (
                "workload.access_skew = -1\nworkload.relevance_mix = 2\nnetwork.latency_min_ms = 9\n"
                "network.drop_prob = 2\nalpha = 0.3\nvote_threshold = 2\n",
                [
                    "alpha must lie in (0.5, 1], got 0.3",
                    "vote_threshold must lie in (0, 1), got 2",
                    "access_skew must be > 0 and finite, got -1",
                    "relevance_mix must be in [0, 1], got 2",
                    "latency band invalid: [9, 5.0]",
                    "drop_prob must be in [0, 1], got 2",
                ],
            ),
            # An ill-typed key hides neither the other keys of its namespace
            # nor the range checks of its well-typed keys.
            (
                "workload.dimension = 2.5\nworkload.initial_items = 1.5\nworkload.access_skew = -1\n"
                "epoch_interactions = 2.5\nbatch_size = 0\n",
                [
                    "epoch_interactions must be an integer, got 2.5",
                    "batch_size must be >= 1, got 0",
                    "workload.dimension must be an integer, got 2.5",
                    "workload.initial_items must be an integer, got 1.5",
                    "access_skew must be > 0 and finite, got -1",
                ],
            ),
            # A check that compares two keys is skipped when one is ill-typed:
            # its default would be compared with the other key's value.
            (
                "decay_scales = nan, 60\ndecay_weights = 0.5, 0.5\nomega_d = nan\nomega_r = 0.5\n"
                "network.latency_min_ms = 9\nnetwork.latency_max_ms = fast\n",
                [
                    "decay_scales must be finite, got (nan, 60)",
                    "omega_d must be finite, got nan",
                    "network.latency_max_ms must be a number, got 'fast'",
                ],
            ),
        ],
        ids=["ranges", "types", "cross-field"],
    )
    def test_every_config_problem_listed(self, tmp_path, capsys, text, problems):
        path = write_config(tmp_path, text)
        assert run_cli("validate", path) == 2
        assert capsys.readouterr().out.splitlines() == problems
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--epochs", 1, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: " + problems[0], *problems[1:]]
        assert not out.exists()

    def test_agreement_bound_listed(self, tmp_path, capsys):
        # The CLI's roster has N = 4 agents, above 4f+1 for f = 0.
        path = write_config(tmp_path, "f = 0\n")
        assert run_cli("validate", path) == 2
        assert "N ≤ 4f+1 violated: N=4, f=0" in capsys.readouterr().out

    def test_unknown_workload_key_listed(self, tmp_path, capsys):
        path = write_config(tmp_path, "workload.bogus = 1\n")
        assert run_cli("validate", path) == 2
        assert "bogus" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["decay_threshold = 0.3", "variance_warn = 0.1"])
    def test_unread_protocol_keys_listed_as_unknown(self, tmp_path, capsys, key):
        path = write_config(tmp_path, key + "\n")
        assert run_cli("validate", path) == 2
        assert f"unknown config keys: {key.partition(' =')[0]}" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ILL_TYPED)
    def test_ill_typed_values_listed(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text)
        assert run_cli("validate", path) == 2
        assert text.partition(" =")[0] in capsys.readouterr().out

    def test_scalar_decay_key_error_shows_the_value_as_written(self, tmp_path, capsys):
        path = write_config(tmp_path, "decay_scales = abc\n")
        assert run_cli("validate", path) == 2
        assert "decay_scales must be a number, got 'abc'\n" in capsys.readouterr().out

    def test_missing_file_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run_cli("validate", missing) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(missing) in err

    def test_non_utf8_file_is_a_config_error_naming_the_path(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"alpha = \xff\xfe\n")
        out = tmp_path / "out"
        for argv in (("validate", path), ("run", "--config", path, "--epochs", 1, "--out", out)):
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert str(path) in err
        assert not out.exists()

    def test_non_utf8_byte_after_a_bom_is_reported_at_its_file_offset(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xef\xbb\xbfalpha = \xff\n")
        assert run_cli("validate", path) == 2
        assert capsys.readouterr().err == f"config error: config file is not UTF-8: {path} (byte 11)\n"

    def test_a_file_with_a_byte_order_mark_validates(self, tmp_path, capsys):
        # The mark must not become part of the first key.
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + SMALL_RUN.encode("utf-8"))
        assert run_cli("validate", path) == 0
        assert capsys.readouterr().out == f"config valid: {path}\n"

    def test_validate_sets_up_no_logging(self, tmp_path):
        # A fresh interpreter, because pytest installs handlers on the root
        # logger; whatever the environment says, main must leave it untouched.
        path = write_config(tmp_path)
        script = (
            "import logging, sys\n"
            "from coforget.cli import main\n"
            "code = main(['validate', sys.argv[1]])\n"
            "root = logging.getLogger()\n"
            "print(code, len(root.handlers), logging.getLevelName(root.level))\n"
        )
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "COFORGET_LOG": "debug", "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"config valid: {path}", "0 0 WARNING"]
        assert proc.stderr == ""

    def test_readme_config_example_is_valid(self, tmp_path, capsys):
        text = README.read_text(encoding="utf-8")
        start = text.index("```ini\n") + len("```ini\n")
        path = write_config(tmp_path, text[start : text.index("```", start)])
        assert run_cli("validate", path) == 0, capsys.readouterr().out

    @pytest.mark.parametrize("scenario", ["custom", "byzantine_f1", "cache_profile"])
    @pytest.mark.parametrize(
        "line, accepted",
        [
            ("", True),
            *((text, False) for text in ILL_TYPED),
            ("f = 0\n", False),
            ("f = 2\n", False),
            ("n_agents = 4\n", False),
            ("rng_seed = 1\n", False),
            # The run seed overrides the file's seed keys.
            ("workload.seed = 1.5\n", True),
        ],
    )
    def test_validate_accepts_exactly_what_run_accepts(self, tmp_path, scenario, line, accepted):
        path = write_config(tmp_path, small_run_with(line))
        out = tmp_path / "out"
        validated = run_cli("validate", path)
        ran = run_cli("run", "--scenario", scenario, "--config", path, "--epochs", 1, "--out", out)
        assert (validated, ran) == ((0, 0) if accepted else (2, 2))
        assert out.exists() == accepted


class TestRunErrors:
    def test_custom_scenario_requires_config(self, tmp_path, capsys):
        assert run_cli("run", "--scenario", "custom", "--out", tmp_path) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_unknown_protocol_key_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, "bogus_knob = 1\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_unknown_namespace_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, "storage.backend = 1\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 2
        assert "namespace" in capsys.readouterr().err

    def test_nonpositive_epochs_rejected(self, tmp_path, capsys):
        assert run_cli("run", "--epochs", 0, "--out", tmp_path) == 2
        assert "--epochs" in capsys.readouterr().err

    def test_nonpositive_seeds_rejected(self, tmp_path, capsys):
        assert run_cli("run", "--seeds", 0, "--out", tmp_path) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_invalid_protocol_values_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "alpha = 0.2\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ILL_TYPED)
    def test_ill_typed_values_rejected(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--epochs", 1, "--out", out) == 2
        assert f"config error: {text.partition(' =')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--epochs", 1, "--seed", -1, "--out", out) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_agreement_bound_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_RUN + "f = 0\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--epochs", 1, "--out", out) == 2
        assert "N ≤ 4f+1 violated" in capsys.readouterr().err
        assert not out.exists()

    def test_every_violation_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, small_run_with("f = 2\nalpha = 0.2\nworkload.access_skew = 0\n"))
        assert run_cli("run", "--config", path, "--epochs", 1, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        for problem in ("N ≥ 3f+1 violated: N=4, f=2", "alpha must lie in", "access_skew must be > 0"):
            assert problem in err

    def test_rejected_run_leaves_no_output_directory(self, tmp_path):
        path = write_config(tmp_path, SMALL_RUN + "f = 2\n")
        for extra in ((), ("--seeds", 2)):
            out = tmp_path / "out"
            assert run_cli("run", "--config", path, "--out", out, *extra) == 2
            assert not out.exists()

    def test_one_dimensional_workload_rejected(self, tmp_path, capsys):
        # In one dimension no memory can be placed at a chosen cosine to the
        # context, so corpus generation would never return.
        path = write_config(tmp_path, SMALL_RUN.replace("dimension = 16", "dimension = 1"))
        assert run_cli("validate", path) == 2
        assert "dimension must be >= 2" in capsys.readouterr().out
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "custom", "--config", path, "--epochs", 1, "--out", out) == 2
        assert "dimension must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_history_window_runs(self, tmp_path, check_outputs):
        # -0.0 passes the window's range check; the run must treat it as 0.0.
        path = write_config(tmp_path, small_run_with("workload.history_window_s = -0.0\n"))
        assert run_cli("validate", path) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "custom", "--config", path, "--epochs", 2, "--out", out) == 0
        assert check_outputs(out).problems == []

    def test_validate_rejects_one_epoch_that_overflows_the_clock(self, tmp_path, capsys):
        path = write_config(tmp_path, small_run_with("workload.interaction_interval_s = 1e308\n"))
        assert run_cli("validate", path) == 2
        assert capsys.readouterr().out.splitlines() == [
            "run clock overflows: workload.history_window_s + 1 epoch(s) * epoch_interactions"
            " * workload.interaction_interval_s = inf s, must stay below 8.98847e+307 s"
        ]

    def test_run_rejects_a_clock_overflow_before_any_output(self, tmp_path, capsys):
        # One epoch of 20 interactions ends near 2e307 s, which validate
        # accepts; five overflow the clock's margin.
        path = write_config(tmp_path, small_run_with("workload.interaction_interval_s = 1e306\n"))
        assert run_cli("validate", path) == 0
        out = tmp_path / "out"
        for extra in ((), ("--seeds", 2)):
            assert run_cli("run", "--config", path, "--epochs", 5, "--out", out, *extra) == 2
            assert capsys.readouterr().err.splitlines() == [
                "config error: run clock overflows: workload.history_window_s + 5 epoch(s) * epoch_interactions"
                " * workload.interaction_interval_s = 1e+308 s, must stay below 8.98847e+307 s"
            ]
            assert not out.exists()

    def test_validate_rejects_one_epoch_that_overflows_the_network_clock(self, tmp_path, capsys):
        path = write_config(tmp_path, FORGET_STORM_SLOW_NET)
        assert run_cli("validate", path) == 2
        assert capsys.readouterr().out.splitlines() == [
            "network clock overflows: 500 round(s) in 1 epoch(s) * 3 * network.latency_max_ms"
            " / 1000 = 1.5e+308 s, must stay below 8.98847e+307 s"
        ]

    def test_run_rejects_a_network_clock_overflow_before_any_output(self, tmp_path, capsys):
        # Unchecked, this run wrote elapsed_virtual_s values of inf and nan from epoch 3 on.
        path = write_config(tmp_path, FORGET_STORM_SLOW_NET)
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "custom", "--config", path, "--epochs", 6, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: network clock overflows: 4200 round(s) in 6 epoch(s) * 3 * network.latency_max_ms"
            " / 1000 = inf s, must stay below 8.98847e+307 s"
        ]
        assert not out.exists()

    def test_a_slow_network_within_the_horizon_runs_finite(self, tmp_path, check_outputs):
        # At most 8,600 rounds of 3e303 s each in 10 epochs: about 2.6e307 s.
        path = write_config(tmp_path, FORGET_STORM_SLOW_NET.replace("1e308", "1e306"))
        assert run_cli("validate", path) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "custom", "--config", path, "--epochs", 10, "--out", out) == 0
        elapsed = [e["elapsed_virtual_s"] for e in epoch_rows(out)]
        assert len(elapsed) == 10 and all(math.isfinite(s) for s in elapsed)
        assert check_outputs(out).problems == []


class TestRunOutputs:
    def run_small(self, tmp_path, out_name="out", epochs=3, seed=0, *extra):
        config = write_config(tmp_path)
        out = tmp_path / out_name
        code = run_cli(
            "run", "--config", config, "--epochs", epochs, "--seed", seed, "--out", out, *extra
        )
        assert code == 0
        return out

    def test_happy_path_writes_all_files(self, tmp_path, capsys):
        out = self.run_small(tmp_path, epochs=3)
        for name in OUTPUT_FILES:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "footprint_reduction=" in stdout
        assert str(out) in stdout

    def test_report_json_shape(self, tmp_path):
        out = self.run_small(tmp_path, epochs=3, seed=5)
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "baseline_no_faults"
        assert report["seed"] == 5
        assert report["epochs_requested"] == 3
        assert set(report) == {"baseline_footprints", "epochs_requested", "scenario", "seed", "summary"}
        assert len(report["baseline_footprints"]) == 3
        summary = report["summary"]
        assert summary["epochs"] == 3
        for key in (
            "footprint_reduction",
            "pbft_success_rate",
            "cache_hit_rate",
            "mean_deletion_rate",
            "total_deleted",
            "final_footprint",
        ):
            assert key in summary

    def test_epochs_csv_shape(self, tmp_path):
        out = self.run_small(tmp_path, epochs=4)
        with open(out / "epochs.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 5  # header + one row per epoch
        assert rows[0][:3] == ["epoch_index", "memories_start", "memories_end"]
        assert len(rows[0]) == 12
        for row in rows[1:]:
            [float(cell) for cell in row]  # every column is numeric

    def test_audit_jsonl_parses_and_cross_checks(self, tmp_path):
        out = self.run_small(tmp_path, epochs=3)
        audit_lines = [
            json.loads(line)
            for line in (out / "audit.jsonl").read_text().splitlines()
        ]
        expected = sum(e["proposed"] for e in epoch_rows(out))
        assert len(audit_lines) == expected
        for line in audit_lines:
            assert line["outcome"] in ("deleted", "retained")
            assert line["decision"] in ("forget", "keep", "timeout")
            assert set(line["votes"].values()) <= {"keep", "forget"}

    def test_metadata_snapshot_reflects_last_commit(self, tmp_path):
        # The snapshot is rewritten at commit, which runs before the final
        # epoch's arrivals are admitted; those stay pending and unpersisted.
        out = self.run_small(tmp_path, epochs=3)
        report = json.loads((out / "report.json").read_text())
        with open(out / "metadata.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        last = epoch_rows(out)[-1]
        assert len(rows) == report["summary"]["final_footprint"] - last["additions"]
        assert list(rows[0]) == ["id", "agent_id", "timestamp", "salience"]

    def test_a_byte_order_mark_changes_no_output(self, tmp_path):
        plain = self.run_small(tmp_path, out_name="plain", epochs=3, seed=1)
        bom = write_config(tmp_path, "\ufeff" + SMALL_RUN, "bom.cfg")
        marked = tmp_path / "marked"
        assert run_cli("run", "--config", bom, "--epochs", 3, "--seed", 1, "--out", marked) == 0
        for name in OUTPUT_FILES:
            assert (marked / name).read_bytes() == (plain / name).read_bytes(), name

    def test_identical_runs_are_byte_identical(self, tmp_path):
        first = self.run_small(tmp_path, out_name="a", epochs=3, seed=2)
        second = self.run_small(tmp_path, out_name="b", epochs=3, seed=2)
        for name in OUTPUT_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_cli_seed_overrides_file_seed_keys(self, tmp_path):
        base = write_config(tmp_path, SMALL_RUN + "network.seed = 99\nworkload.seed = 99\n", "a.cfg")
        plain = write_config(tmp_path, SMALL_RUN, "b.cfg")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", base, "--epochs", 2, "--seed", 1, "--out", out_a) == 0
        assert run_cli("run", "--config", plain, "--epochs", 2, "--seed", 1, "--out", out_b) == 0
        for name in OUTPUT_FILES:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seeds_diverge(self, tmp_path):
        first = self.run_small(tmp_path, out_name="s0", epochs=2, seed=0)
        second = self.run_small(tmp_path, out_name="s1", epochs=2, seed=1)
        assert (first / "report.json").read_bytes() != (second / "report.json").read_bytes()

    def test_seed_sweep_writes_sibling_directories(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = run_cli(
            "run", "--config", config, "--epochs", 2, "--seed", 3, "--seeds", 2, "--out", out
        )
        assert code == 0
        for seed in (3, 4):
            seed_dir = out / f"seed-{seed}"
            for name in OUTPUT_FILES:
                assert (seed_dir / name).exists(), (seed, name)
            report = json.loads((seed_dir / "report.json").read_text())
            assert report["seed"] == seed

    def test_success_rate_counts_every_epoch(self, tmp_path, check_outputs):
        # An epoch that proposes nothing has no timed-out round, so it counts as a success.
        config = write_config(tmp_path, SPARSE_LOSSY)
        out = tmp_path / "out"
        code = run_cli(
            "run", "--scenario", "byzantine_f1", "--config", config,
            "--epochs", 30, "--seed", 0, "--out", out,
        )
        assert code == 0
        epochs = epoch_rows(out)
        vacuous = [e for e in epochs if e["consensus_reached"] + e["consensus_failed"] == 0]
        failed = [e for e in epochs if e["consensus_failed"] > 0]
        assert (len(epochs), len(vacuous), len(failed)) == (30, 12, 2)
        rate = json.loads((out / "report.json").read_text())["summary"]["pbft_success_rate"]
        assert rate == (len(epochs) - len(failed)) / len(epochs) == 28 / 30
        assert check_outputs(out).problems == []

    def test_strict_pbft_success_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--epochs", 1, "--out", out, "--strict-pbft-success")
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict-pbft-success" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_scenario_runs_with_config(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "custom"
        code = run_cli(
            "run", "--scenario", "custom", "--config", config, "--epochs", 2, "--out", out
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "custom"

    def test_proposal_list_larger_than_one_frame(self, tmp_path):
        config = write_config(tmp_path, OVERSIZE_PROPOSAL)
        out = tmp_path / "out"
        code = run_cli(
            "run", "--scenario", "custom", "--config", config, "--epochs", 2, "--out", out
        )
        assert code == 0
        with open(out / "epochs.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert int(rows[0]["proposed"]) > 2000


class TestRunMemory:
    def test_seed_sweep_frees_each_result_before_the_next_seed(self, tmp_path, monkeypatch):
        real = cli.run_simulation
        results: list[weakref.ref] = []
        alive_at_start: list[list[bool]] = []

        def tracked(*args, **kwargs):
            alive_at_start.append([ref() is not None for ref in results])
            result = real(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "run_simulation", tracked)
        config = write_config(tmp_path)
        code = run_cli(
            "run", "--config", config, "--epochs", 2, "--seeds", 3, "--out", tmp_path / "sweep"
        )
        assert code == 0
        assert alive_at_start == [[], [False], [False, False]]
        assert [ref() for ref in results] == [None, None, None]

    def test_output_write_peak_is_below_the_audit_size(self, tmp_path, monkeypatch):
        # audit.jsonl is the largest output; each line is encoded and written
        # on its own, so writing the outputs never holds a file-sized string.
        real = cli._write_outputs
        peaks: list[int] = []

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                real(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_write_outputs", measured)
        config = write_config(tmp_path, FORGET_STORM)
        out = tmp_path / "out"
        code = run_cli(
            "run", "--scenario", "byzantine_f1", "--config", config,
            "--epochs", 24, "--seed", 1, "--out", out,
        )
        assert code == 0
        audit_bytes = (out / "audit.jsonl").stat().st_size
        assert audit_bytes > 500_000
        assert audit_bytes == max((out / name).stat().st_size for name in OUTPUT_FILES)
        assert len(peaks) == 1
        assert peaks[0] < audit_bytes
