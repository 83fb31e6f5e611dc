"""Multi-scale exponential decay scoring with variance monitoring.

A memory's age is scored against several time constants at once; the combined
weighted score drives forgetting proposals, while the spread across scales is
tracked as a variance diagnostic.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .core import ProtocolConfig

logger = logging.getLogger(__name__)

__all__ = ["Proposal", "DecayResult", "NegativeAge", "combined_decay", "decay_score"]


class NegativeAge(ValueError):
    """now precedes t_last; the age would be negative."""


class Proposal(enum.Enum):
    PROPOSE_FORGET = "propose_forget"
    PROPOSE_KEEP = "propose_keep"


@dataclass(frozen=True)
class DecayResult:
    """Per-scale scores, their weighted combination, and the spread diagnostic."""

    per_scale: tuple[float, ...]
    combined: float
    variance: float
    high_variance: bool
    proposal: Proposal


def _scale_scores(ages: np.ndarray, cfg: ProtocolConfig) -> list[np.ndarray]:
    """exp(-age / S_i) per configured scale; raises NegativeAge on any negative age."""
    if np.any(ages < 0):
        raise NegativeAge(f"negative age {float(ages.min())}: now precedes t_last")
    # exp underflows to 0.0 for very old memories; that is intended
    # (combined 0 means propose_forget).
    return [np.exp(-ages / s) for s in cfg.decay_scales]


def _weighted(per_scale: list[np.ndarray], cfg: ProtocolConfig) -> np.ndarray:
    # Accumulate from 0.0 in config order: the same summation for one age or many.
    combined = np.zeros_like(per_scale[0])
    for g, d in zip(cfg.decay_weights, per_scale):
        combined += g * d
    return combined


def combined_decay(ages: np.ndarray, cfg: ProtocolConfig) -> np.ndarray:
    """Batch kernel: the gamma-weighted decay sum_i g_i * exp(-age / S_i) per age.

    decay_score is the scalar view of this kernel, so both agree bit for bit.
    Raises NegativeAge if any age is negative.
    """
    return _weighted(_scale_scores(np.asarray(ages, dtype=np.float64), cfg), cfg)


def decay_score(t_last: float, now: float, cfg: ProtocolConfig) -> DecayResult:
    """Score a memory's age across all configured time scales.

    per_scale[i] = exp(-(now - t_last) / S_i); combined is the gamma-weighted
    average; variance is the population spread of the per-scale scores around
    the combined (weighted) value. The proposal flag compares combined against
    the decay threshold; it is reported but does not bypass voting. The scores
    come from the combined_decay kernel applied to a one-element age array.
    """
    age = now - t_last
    scores = _scale_scores(np.array([age]), cfg)
    combined = float(_weighted(scores, cfg)[0])
    per_scale = tuple(float(d[0]) for d in scores)
    acc = 0.0
    for d in per_scale:
        diff = d - combined
        acc += diff * diff
    variance = acc / len(per_scale)
    high_variance = variance > cfg.variance_warn
    if high_variance:
        logger.debug(
            "high decay variance: age=%.3f variance=%.6f warn=%.3f", age, variance, cfg.variance_warn
        )
    proposal = Proposal.PROPOSE_FORGET if combined < cfg.decay_threshold else Proposal.PROPOSE_KEEP
    return DecayResult(per_scale, combined, variance, high_variance, proposal)
