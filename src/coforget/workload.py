"""Synthetic workload generation and run-level metric aggregation.

Builds the seeded corpus (embeddings placed at controlled cosines to a shared
context vector), drives skewed access traffic with mid-epoch arrivals, and
folds per-epoch reports into summary metrics. Everything here is a pure
function of (spec, seed): generators draw from dedicated numpy substreams so
corpus, context, and traffic never share state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import AgentProfile, FaultProfile, MemoryRecord, _is_integer
from .relevance import ContextProfile

__all__ = [
    "NEAR_COS",
    "FAR_COS",
    "AGENT_IDS",
    "EmptyPopulation",
    "WorkloadSpec",
    "make_context",
    "generate_initial",
    "make_arrivals",
    "ZipfSampler",
    "epoch_traffic",
    "traffic_stream",
    "default_agents",
    "SummaryMetrics",
    "aggregate",
]

# Cosine bands for the two item populations. Near-context items score
# relevance >= 0.80, far items <= 0.55, so the populations straddle the
# forgetting boundary once decay sets in.
NEAR_COS = (0.60, 0.95)
FAR_COS = (-0.80, 0.10)

AGENT_IDS = ("planner-1", "planner-2", "percept-1", "percept-2")
_AGENT_WEIGHTS = {"planner-1": 1.5, "planner-2": 1.5, "percept-1": 1.0, "percept-2": 1.0}

# Substream indices under the workload seed.
_STREAM_CONTEXT = 0
_STREAM_INITIAL = 1
_STREAM_TRAFFIC = 2


class EmptyPopulation(ValueError):
    """Access sampling requested against zero live memories."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload shape: corpus size, arrival range, access skew, and timing."""

    initial_items: int = 1000
    arrivals_per_epoch: tuple[int, int] = (10, 20)
    access_skew: float = 1.0
    accesses_per_interaction: int = 1
    relevance_mix: float = 0.5
    seed: int = 0
    dimension: int = 768
    history_window_s: float = 7200.0
    interaction_interval_s: float = 1.0

    def __post_init__(self) -> None:
        arrivals = self.arrivals_per_epoch
        if np.isscalar(arrivals):
            arrivals = (arrivals, arrivals)
        if len(arrivals) != 2:
            raise ValueError(f"arrival range must be lo..hi, got {arrivals!r}")
        # A count of another type is reported before any range is checked;
        # numpy integers are kept as Python ints.
        counts = ("initial_items", "accesses_per_interaction", "dimension", "seed")
        problems = [
            f"{key} must be an integer, got {getattr(self, key)!r}"
            for key in counts
            if not _is_integer(getattr(self, key))
        ]
        if not all(map(_is_integer, arrivals)):
            problems.append(f"arrivals_per_epoch must be integers, got {self.arrivals_per_epoch!r}")
        if problems:
            raise ValueError("\n".join(problems))
        for key in counts:
            object.__setattr__(self, key, int(getattr(self, key)))
        arrivals = (int(arrivals[0]), int(arrivals[1]))
        object.__setattr__(self, "arrivals_per_epoch", arrivals)
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.initial_items < 0:
            problems.append(f"initial_items must be >= 0, got {self.initial_items}")
        lo, hi = arrivals
        if lo < 0 or hi < lo:
            problems.append(f"arrival range invalid: {lo}..{hi}")
        if not 0.0 < self.access_skew < math.inf:
            problems.append(f"access_skew must be > 0 and finite, got {self.access_skew}")
        if self.accesses_per_interaction < 0:
            problems.append(f"accesses_per_interaction must be >= 0, got {self.accesses_per_interaction}")
        if not 0.0 <= self.relevance_mix <= 1.0:
            problems.append(f"relevance_mix must be in [0, 1], got {self.relevance_mix}")
        if self.dimension < 2:
            problems.append(
                f"dimension must be >= 2, got {self.dimension}: a memory is placed at a"
                " chosen cosine to the context, which needs a direction orthogonal to it"
            )
        if not 0.0 <= self.history_window_s < math.inf:
            problems.append(f"history_window_s must be >= 0 and finite, got {self.history_window_s}")
        if not 0.0 < self.interaction_interval_s < math.inf:
            problems.append(f"interaction_interval_s must be > 0 and finite, got {self.interaction_interval_s}")
        if problems:
            raise ValueError("\n".join(problems))


# --- corpus generation -----------------------------------------------------------


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _unit_vector(rng: np.random.Generator, dimension: int) -> np.ndarray:
    while True:
        vec = rng.standard_normal(dimension)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            return vec / norm


def make_context(spec: WorkloadSpec) -> ContextProfile:
    """The shared task context every relevance score is measured against."""
    rng = _stream(spec.seed, _STREAM_CONTEXT)
    return ContextProfile(
        embedding=_unit_vector(rng, spec.dimension),
        label="shared workspace task context",
    )


def _draw_records(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    context_unit: np.ndarray,
    t_last: Sequence[float],
) -> list[MemoryRecord]:
    """Draw one record per t_last value, each field in one array call (stream v2).

    Near flags, cosines, magnitudes, agents and saliences come as length-n
    arrays, then every id from one 16n-byte draw. Each embedding is then its
    own standard normal vector, redrawn while nothing is left of it once its
    context component is removed; that orthogonal part is scaled in place so
    the cosine to the context and the norm are exactly the drawn ones (the
    varied norms exercise normalization downstream). No records, no draws.
    """
    n = len(t_last)
    if not n:
        return []
    near = rng.random(n) < spec.relevance_mix
    lo, hi = (np.where(near, near_end, far_end) for near_end, far_end in zip(NEAR_COS, FAR_COS))
    cosines = rng.uniform(lo, hi)
    magnitudes = rng.uniform(0.5, 2.0, n)
    agents = rng.integers(len(AGENT_IDS), size=n)
    saliences = rng.random(n)
    raw = np.frombuffer(rng.bytes(16 * n), dtype=np.uint8).reshape(n, 16).copy()
    raw[:, 6] = raw[:, 6] & 0x0F | 0x40  # UUID version 4
    raw[:, 8] = raw[:, 8] & 0x3F | 0x80  # RFC 4122 variant
    hexes = raw.tobytes().hex()
    rows = (hexes[at : at + 32] for at in range(0, 32 * n, 32))
    ids = [f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}" for h in rows]
    records = []
    for memory_id, cosine, magnitude, agent, t, salience in zip(
        ids, cosines.tolist(), magnitudes.tolist(), agents.tolist(), t_last, saliences.tolist()
    ):
        while True:
            vec = rng.standard_normal(context_unit.shape[0])
            vec -= vec.dot(context_unit) * context_unit
            norm = math.sqrt(vec.dot(vec))
            if norm > 0.0:
                break
        vec *= math.sqrt(1.0 - cosine * cosine) * magnitude / norm
        vec += cosine * magnitude * context_unit
        vec.flags.writeable = False
        records.append(
            MemoryRecord(id=memory_id, embedding=vec, agent_id=AGENT_IDS[agent], t_last=t, salience=salience)
        )
    return records


def generate_initial(spec: WorkloadSpec) -> list[MemoryRecord]:
    """The seeded initial corpus; t_last spread over the historical window."""
    context_unit = make_context(spec).embedding
    rng = _stream(spec.seed, _STREAM_INITIAL)
    t_last = rng.uniform(0.0, spec.history_window_s, spec.initial_items).tolist()
    return _draw_records(spec, rng, context_unit, t_last)


def make_arrivals(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    instants: Sequence[float],
    context: ContextProfile,
) -> list[MemoryRecord]:
    """Fresh records arriving mid-run, one per instant, which starts its t_last."""
    return _draw_records(spec, rng, context.embedding, instants)


# --- access traffic --------------------------------------------------------------


class ZipfSampler:
    """Bounded Zipf over ranks 0..n-1 via the cumulative weight table.

    Rebuilt whenever the live population changes; sampling is a binary search
    over the cumulative mass, so draws are O(log n).
    """

    def __init__(self, population: int, skew: float):
        if population < 1:
            raise EmptyPopulation("cannot sample over zero live memories")
        ranks = np.arange(1, population + 1, dtype=np.float64)
        self._cumulative = np.cumsum(ranks**-skew)
        self._total = float(self._cumulative[-1])
        self._search = self._cumulative.searchsorted

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return self._search(rng.random(k) * self._total, side="right")


def epoch_traffic(
    spec: WorkloadSpec,
    live_ids: Sequence[str],
    rng: np.random.Generator,
    access: Callable[[Sequence[str], float], object],
    *,
    context: ContextProfile,
    interactions: int,
    now: float,
) -> tuple[list[MemoryRecord], float]:
    """Draw one epoch's traffic; return its arrivals and the last interaction's instant.

    The epoch draws, in this order: its arrival count from
    spec.arrivals_per_epoch; every arrival's interaction slot in one call,
    then sorted; every read of the epoch in one Zipf call; and the arrival
    records in one make_arrivals call. Interaction i, i+1 intervals after
    `now`, passes its Zipf-ranked reads of `live_ids` (early ids are popular)
    to `access(ids, instant)`. Each arrival's t_last is its slot's instant;
    arrivals join the store at the next epoch boundary.
    """
    lo, hi = spec.arrivals_per_epoch
    slots = np.sort(rng.integers(0, interactions, size=int(rng.integers(lo, hi + 1))))
    instants = list(accumulate(repeat(spec.interaction_interval_s, interactions), initial=now))
    k = spec.accesses_per_interaction if live_ids else 0
    if k:
        reads = ZipfSampler(len(live_ids), spec.access_skew).sample(rng, k * interactions).tolist()
        ids = [live_ids[i] for i in reads]
        for j, instant in enumerate(instants[1:]):
            access(ids[k * j : k * j + k], instant)
    arrivals = make_arrivals(spec, rng, [instants[slot + 1] for slot in slots.tolist()], context)
    return arrivals, instants[-1]


def traffic_stream(spec: WorkloadSpec) -> np.random.Generator:
    """The dedicated RNG for access/arrival draws over a whole run."""
    return _stream(spec.seed, _STREAM_TRAFFIC)


# --- roster and aggregation -------------------------------------------------------


def default_agents(
    faults: Mapping[str, FaultProfile] | None = None,
) -> tuple[AgentProfile, ...]:
    """The evaluation roster: two planners at weight 1.5, two perception agents at 1.0."""
    faults = faults or {}
    return tuple(
        AgentProfile(
            agent_id=agent_id,
            weight=_AGENT_WEIGHTS[agent_id],
            confidence=1.0,
            active=True,
            fault=faults.get(agent_id, FaultProfile()),
        )
        for agent_id in AGENT_IDS
    )


@dataclass(frozen=True)
class SummaryMetrics:
    """Run-level rollup across every epoch report."""

    epochs: int
    footprint_reduction: float
    pbft_success_rate: float
    cache_hit_rate: float
    mean_deletion_rate: float
    total_deleted: int
    final_footprint: int
    final_baseline_footprint: int


def aggregate(reports: Sequence, *, strict_pbft: bool = False) -> SummaryMetrics:
    """Fold epoch reports into the headline metrics.

    The baseline is the footprint a no-forgetting twin would end with: the
    first epoch's starting population plus every epoch's arrivals. An epoch
    succeeds when every consensus instance it started decided; with no
    instances it counts as success by default, or is excluded from the
    denominator under strict_pbft.
    """
    if not reports:
        raise ValueError("aggregate requires at least one epoch report")
    final_baseline = reports[0].memories_start + sum(r.additions for r in reports)
    final_footprint = reports[-1].memories_end
    reduction = 1.0 - final_footprint / final_baseline if final_baseline > 0 else 0.0

    counted = [r for r in reports if not strict_pbft or r.consensus_reached + r.consensus_failed > 0]
    success_rate = sum(r.consensus_failed == 0 for r in counted) / len(counted) if counted else 1.0

    hits = sum(report.cache_hits for report in reports)
    misses = sum(report.cache_misses for report in reports)
    total_gets = hits + misses
    hit_rate = hits / total_gets if total_gets else 0.0

    return SummaryMetrics(
        epochs=len(reports),
        footprint_reduction=reduction,
        pbft_success_rate=success_rate,
        cache_hit_rate=hit_rate,
        mean_deletion_rate=sum(r.deletion_rate for r in reports) / len(reports),
        total_deleted=sum(r.deleted for r in reports),
        final_footprint=final_footprint,
        final_baseline_footprint=final_baseline,
    )
