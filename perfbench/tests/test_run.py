"""Tail-percentile rule and agreement between BENCHMARK.json and run.py."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "samples, permille",
    [(300, 950), (200, 950), (199, 900), (100, 900), (99, 800), (60, 800), (20, 500)],
)
def test_tail_percentile_is_the_highest_with_ten_beyond(samples, permille):
    assert run.tail_permille(samples) == permille


def test_too_few_samples_have_no_tail():
    with pytest.raises(ValueError):
        run.tail_permille(19)


@pytest.mark.parametrize("samples", [20, 60, 99, 100, 250])
def test_tail_value_leaves_ten_samples_beyond(samples):
    values = random.Random(samples).sample(range(10_000), samples)
    tail = run.percentile(values, run.tail_permille(samples))
    assert sum(v > tail for v in values) >= run.TAIL_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 500) == 50
    assert run.percentile(values, 900) == 90
    assert run.percentile(values, 999) == 100


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for name in run.WORKLOADS:
        assert (run.HERE / "workloads" / f"{name}.cfg").is_file()


def test_seed_parity_picks_the_fault_kind():
    for n in range(5):
        assert run.WORKLOADS["long_horizon"].seed(n) % 2 == 0
        assert run.WORKLOADS["forget_storm"].seed(n) % 2 == 1
