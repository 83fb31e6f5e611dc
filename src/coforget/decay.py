"""Multi-scale exponential decay scoring.

A memory's age is scored against several time constants at once; the
gamma-weighted combination of the per-scale scores is the decay term of
every vote.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProtocolConfig

__all__ = ["DecayResult", "NegativeAge", "combined_decay", "decay_score"]


class NegativeAge(ValueError):
    """now precedes t_last; the age would be negative."""


@dataclass(frozen=True)
class DecayResult:
    """Per-scale scores and their weighted combination."""

    per_scale: tuple[float, ...]
    combined: float


def _scale_scores(ages: np.ndarray, cfg: ProtocolConfig) -> list[np.ndarray]:
    """exp(-age / S_i) per configured scale; raises NegativeAge on any negative age."""
    if np.any(ages < 0):
        raise NegativeAge(f"negative age {float(ages.min())}: now precedes t_last")
    # exp underflows to 0.0 for very old memories; that is intended.
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

    per_scale[i] = exp(-(now - t_last) / S_i) and combined is their
    gamma-weighted average, both from the combined_decay kernel applied to a
    one-element age array.
    """
    scores = _scale_scores(np.array([now - t_last]), cfg)
    return DecayResult(tuple(float(d[0]) for d in scores), float(_weighted(scores, cfg)[0]))
