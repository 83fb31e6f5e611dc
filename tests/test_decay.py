"""Multi-scale decay scoring: formulas, bounds, and the decay term of a vote."""

import math
import random

import numpy as np
import pytest

from coforget.core import ProtocolConfig
from coforget.decay import DecayResult, NegativeAge, combined_decay, decay_score
from coforget.voting import vote_rule

CFG = ProtocolConfig()

# Frozen from a 50-digit evaluation of the decay formulas done before the
# implementation existed; the acceptance suite re-derives them live.
COMBINED_AT_60 = 0.6025953096975747
COMBINED_AT_21600 = 0.0012393760883331792


def test_zero_age_is_unity_everywhere():
    res = decay_score(100.0, 100.0, CFG)
    assert res.per_scale == (1.0, 1.0, 1.0)
    assert res.combined == 1.0


def test_sixty_second_age_reference_values():
    res = decay_score(0.0, 60.0, CFG)
    assert res.combined == pytest.approx(COMBINED_AT_60, abs=1e-12)


def test_six_hour_age_proposes_forget():
    res = decay_score(0.0, 21600.0, CFG)
    assert res.combined == pytest.approx(COMBINED_AT_21600, abs=1e-12)
    # With no relevance, a memory this old draws a forget vote.
    assert vote_rule(res.combined, 0.0, CFG)[1]


def test_negative_age_rejected():
    with pytest.raises(NegativeAge):
        decay_score(10.0, 9.0, CFG)


def test_per_scale_matches_direct_exponentials():
    rng = random.Random(3)
    for _ in range(300):
        dt = rng.uniform(0.0, 50_000.0)
        res = decay_score(0.0, dt, CFG)
        for d_i, s_i in zip(res.per_scale, CFG.decay_scales):
            assert d_i == pytest.approx(math.exp(-dt / s_i), abs=1e-15)
        expected = sum(g * d for g, d in zip(CFG.decay_weights, res.per_scale))
        assert res.combined == pytest.approx(expected, abs=1e-12)


def test_combined_strictly_decreasing_in_age():
    rng = random.Random(11)
    for _ in range(300):
        a = rng.uniform(0.0, 10_000.0)
        b = a + rng.uniform(1e-6, 10_000.0)
        assert decay_score(0.0, a, CFG).combined > decay_score(0.0, b, CFG).combined


def test_bounds_hold_for_all_finite_ages():
    for dt in [0.0, 1e-9, 1.0, 59.0, 3600.0, 1e5]:
        combined = decay_score(0.0, dt, CFG).combined
        assert 0.0 < combined <= 1.0


def test_underflow_flushes_to_zero_and_proposes_forget():
    res = decay_score(0.0, 1e9, CFG)
    assert res.combined == 0.0
    assert vote_rule(res.combined, 0.0, CFG)[1]


def test_equal_scales_have_zero_variance():
    cfg = ProtocolConfig(decay_scales=(60.0, 60.0, 60.0))
    for dt in [0.0, 10.0, 500.0]:
        res = decay_score(0.0, dt, cfg)
        # Every scale scores the same, so there is no spread across scales.
        assert len(set(res.per_scale)) == 1
        assert res.combined == pytest.approx(res.per_scale[0], abs=1e-15)


def test_result_is_frozen():
    res = decay_score(0.0, 60.0, CFG)
    assert isinstance(res, DecayResult)
    with pytest.raises(AttributeError):
        res.combined = 0.0


def test_batch_kernel_matches_scalar_bit_for_bit():
    # np.exp and math.exp disagree by one ulp on a few percent of inputs, so
    # the scalar path must be a view of the batch kernel, not a re-derivation.
    rng = np.random.default_rng(17)
    ages = np.concatenate(
        [[0.0, 1e-9, 1.0, 60.0, 1e9], rng.uniform(0.0, 50_000.0, 2000), rng.exponential(3600.0, 500)]
    )
    batch = combined_decay(ages, CFG)
    assert batch.tolist() == [decay_score(0.0, float(age), CFG).combined for age in ages]
    assert batch[0] == 1.0
    assert batch[4] == 0.0  # exp underflows for a 1e9 s age


def test_batch_kernel_rejects_any_negative_age():
    with pytest.raises(NegativeAge):
        combined_decay(np.array([0.0, 5.0, -1e-12]), CFG)
