"""Semantic relevance scoring of a memory against the current context.

The default scorer maps cosine similarity affinely onto [0, 1]; an externally
supplied scorer sits behind the same interface, so callers never branch on
the scoring backend.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MemoryRecord, make_embedding

logger = logging.getLogger(__name__)

__all__ = [
    "DimensionMismatch",
    "ContextProfile",
    "RelevanceScorer",
    "CosineContextScorer",
    "ExternalScorer",
    "relevance",
]


class DimensionMismatch(ValueError):
    """Memory and context embeddings have different lengths."""


_TINY = sys.float_info.min  # the least normal float


def _scaled(v: np.ndarray) -> tuple[np.ndarray, float]:
    """`v` and its Euclidean norm, with `v` divided by its largest |component| if need be.

    Only a squared norm that is not a normal finite float, which a vector
    beyond about 1e±154 gives, needs the division; it keeps the cosine's
    scale invariance, and every other vector is returned as is, with the norm
    np.linalg.norm gives. np.vdot is v.dot(v) without the overflow warning.
    """
    squared = np.vdot(v, v)
    if not _TINY <= squared < math.inf:
        peak = np.abs(v).max()
        if peak == 0.0:
            return v, 0.0
        v = v / peak
        squared = v.dot(v)
    return v, math.sqrt(squared)


# eq=False: equality and hashing go by identity; generated ones would raise on the ndarray.
@dataclass(frozen=True, eq=False)
class ContextProfile:
    """The shared situational context agents score memories against."""

    embedding: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        emb = make_embedding(self.embedding)
        object.__setattr__(self, "embedding", emb)
        if not np.any(emb):
            raise ValueError("context embedding must be a non-zero vector")

    @functools.cached_property
    def _scaled_embedding(self) -> tuple[np.ndarray, float]:
        """The embedding and its norm as the cosine scorer uses them, computed once."""
        return _scaled(self.embedding)


class RelevanceScorer:
    """Interface: a deterministic pure function (memory, context) -> [0, 1]."""

    def score(self, memory: MemoryRecord, context: ContextProfile) -> float:
        raise NotImplementedError


class CosineContextScorer(RelevanceScorer):
    """Default scorer: (cosine + 1) / 2, clamped to [0, 1].

    The context's norm is computed once per ContextProfile.
    """

    def score(self, memory: MemoryRecord, context: ContextProfile) -> float:
        b, norm_b = context._scaled_embedding
        if memory.embedding.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"memory embedding has length {memory.embedding.shape[0]}, context has {b.shape[0]}"
            )
        a, norm_a = _scaled(memory.embedding)
        if norm_a == 0.0:
            # A zero memory embedding carries no directional information.
            logger.debug("zero memory embedding for %s; relevance defaults to 0.5", memory.id)
            return 0.5
        cos = float(a.dot(b)) / (norm_a * norm_b)
        return (max(-1.0, min(1.0, cos)) + 1.0) / 2.0


class ExternalScorer(RelevanceScorer):
    """Seam for model-backed scoring; the callable must be deterministic. NaN is an error."""

    def __init__(self, fn: Callable[[MemoryRecord, ContextProfile], float]):
        self._fn = fn

    def score(self, memory: MemoryRecord, context: ContextProfile) -> float:
        value = float(self._fn(memory, context))
        if math.isnan(value):
            raise ValueError(f"external scorer returned NaN for memory {memory.id}")
        return max(0.0, min(1.0, value))


_DEFAULT_SCORER = CosineContextScorer()


def relevance(
    memory: MemoryRecord, context: ContextProfile, scorer: RelevanceScorer | None = None
) -> float:
    """Score `memory` against `context`; defaults to the cosine scorer."""
    return (scorer or _DEFAULT_SCORER).score(memory, context)
