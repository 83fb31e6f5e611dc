"""Relevance scorers: cosine mapping and the external seam."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from coforget.core import MemoryRecord
from coforget.relevance import (
    ContextProfile,
    CosineContextScorer,
    DimensionMismatch,
    ExternalScorer,
    relevance,
)


def record(embedding, memory_id: str = "m1") -> MemoryRecord:
    return MemoryRecord(
        id=memory_id, embedding=np.asarray(embedding, dtype=float), agent_id="a1", t_last=0.0, salience=0.5
    )


CONTEXT = ContextProfile(embedding=np.array([1.0, 0.0, 0.0]), label="unit x axis")


def test_identical_direction_scores_one():
    assert relevance(record([2.0, 0.0, 0.0]), CONTEXT) == pytest.approx(1.0)


def test_orthogonal_scores_half():
    assert relevance(record([0.0, 3.0, 0.0]), CONTEXT) == pytest.approx(0.5)


def test_opposite_direction_scores_zero():
    assert relevance(record([-1.0, 0.0, 0.0]), CONTEXT) == pytest.approx(0.0)


def test_zero_memory_embedding_is_uninformative():
    assert relevance(record([0.0, 0.0, 0.0]), CONTEXT) == 0.5


def test_zero_context_embedding_rejected_at_construction():
    with pytest.raises(ValueError):
        ContextProfile(embedding=np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_embeddings_rejected_at_construction(bad):
    # min(1.0, nan) is 1.0: a NaN memory scored 1.0, and a NaN context scored
    # every memory 1.0, so nothing could be forgotten.
    with pytest.raises(ValueError, match="finite"):
        record([bad, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        ContextProfile(embedding=np.array([bad, 1.0, 1.0, 1.0]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        relevance(record([1.0, 0.0]), CONTEXT)


def test_scale_invariance():
    # 1e±170 puts a squared norm past the float range, where it overflows or underflows.
    scales = (1e-170, 0.001, 0.5, 7.0, 1e6, 1e170)
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(6)
        c = rng.standard_normal(6)
        ctx = ContextProfile(embedding=c)
        base = relevance(record(v), ctx)
        for scale in scales:
            assert relevance(record(v * scale), ctx) == pytest.approx(base, abs=1e-12)
            assert relevance(record(v), ContextProfile(embedding=c * scale)) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize(
    "memory, context, expected",
    [
        ([-1e200, 0.0], [1.0, 0.0], 0.0),  # the squared norm overflows
        ([1e-170, 0.0], [1.0, 0.0], 1.0),  # the squared norm underflows to zero
        ([5e-324, 0.0], [1.0, 0.0], 1.0),  # the least subnormal
        ([1e300, 1e300], [1.0, 1.0], pytest.approx(1.0)),
        ([-1.0, 0.0], [1e300, 0.0], 0.0),  # the context's squared norm overflows
        ([0.0, 1.0], [1e-300, 1e-300], pytest.approx(0.5 + 0.5**1.5)),
    ],
)
def test_extreme_magnitudes_keep_their_direction(memory, context, expected):
    assert relevance(record(memory, "m"), ContextProfile(embedding=np.array(context))) == expected


def formula_score(a: np.ndarray, b: np.ndarray) -> float:
    """The cosine scorer's formula with np.linalg.norm for both norms."""
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        return 0.5
    cos = float(np.dot(a, b)) / (norm_a * float(np.linalg.norm(b)))
    return (max(-1.0, min(1.0, cos)) + 1.0) / 2.0


@hst.composite
def scaled_vectors(draw, dimension: int) -> np.ndarray:
    """A vector with components in [-1, 1], one of them at least 0.5 in size, times 1e-100..1e100."""
    v = draw(hnp.arrays(np.float64, dimension, elements=hst.floats(-1.0, 1.0)))
    v[draw(hst.integers(0, dimension - 1))] = draw(hst.floats(0.5, 1.0)) * draw(hst.sampled_from([-1.0, 1.0]))
    return v * 10.0 ** draw(hst.floats(-100.0, 100.0))


@hst.composite
def vector_pairs(draw):
    dimension = draw(hst.integers(1, 1024))
    return draw(scaled_vectors(dimension)), draw(scaled_vectors(dimension))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pair=vector_pairs())
def test_cached_context_norm_scores_bit_for_bit_as_the_formula(pair):
    memory, context = record(pair[0]), ContextProfile(embedding=pair[1])
    expected = formula_score(memory.embedding, context.embedding)
    assert CosineContextScorer().score(memory, context) == expected
    # A profile rebuilt from the same fields computes its own norm.
    assert CosineContextScorer().score(memory, dataclasses.replace(context)) == expected


def test_range_and_determinism():
    rng = np.random.default_rng(9)
    for _ in range(200):
        v = rng.standard_normal(4)
        ctx = ContextProfile(embedding=rng.standard_normal(4))
        r1 = relevance(record(v), ctx)
        r2 = relevance(record(v), ctx)
        assert 0.0 <= r1 <= 1.0
        assert r1 == r2  # bit-identical


def test_near_parallel_is_clamped_into_unit_interval():
    v = np.array([1.0, 1e-17, 0.0])
    assert 0.0 <= relevance(record(v), CONTEXT) <= 1.0


class TestExternalScorer:
    def test_wraps_and_clamps(self):
        scorer = ExternalScorer(lambda memory, context: 1.7)
        assert scorer.score(record([1.0, 0, 0]), CONTEXT) == 1.0
        scorer = ExternalScorer(lambda memory, context: -3.0)
        assert scorer.score(record([1.0, 0, 0]), CONTEXT) == 0.0

    def test_nan_score_raises_naming_the_memory(self):
        # Clamping would turn NaN into 1.0, a silent keep vote.
        scorer = ExternalScorer(lambda memory, context: float("nan"))
        with pytest.raises(ValueError, match="NaN for memory m7"):
            scorer.score(record([1.0, 0, 0], memory_id="m7"), CONTEXT)


def test_explicit_cosine_scorer_matches_default():
    scorer = CosineContextScorer()
    v = record([0.3, -0.2, 0.9])
    assert scorer.score(v, CONTEXT) == relevance(v, CONTEXT)
