"""Epoch orchestration: decay, voting, consensus, and committed deletion.

One epoch evaluates a fixed snapshot of the store in four phases: score decay
for every memory, collect votes and the proposal set, run one consensus round
per proposed memory, then delete and persist. Arrivals queued during the
epoch window join the store only after Phase 4, so the snapshot never shifts
underfoot. run_simulation interleaves these epochs with the access workload
and tracks the no-forgetting counterfactual in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .consensus import ConsensusTimeout, finalize, run_round
from .core import AgentProfile, MemoryRecord, ProtocolConfig, Vote, validate_config, validate_roster
from .decay import combined_decay
from .relevance import ContextProfile, RelevanceScorer, relevance
from .store import MemoryStore, _check_now
from .transport import (
    CoordinatorEndpoint,
    NetworkConfig,
    SimulatedNetwork,
    propose_forgetting,
    resolve_behavior,
)
from .voting import AgentVote, quorum_threshold, vote_rule, weighted_forget_score
from .workload import (
    SummaryMetrics,
    WorkloadSpec,
    aggregate,
    default_agents,
    epoch_traffic,
    generate_initial,
    make_context,
    traffic_stream,
)

__all__ = [
    "MemoryAudit",
    "EpochReport",
    "run_epoch",
    "SimulationResult",
    "run_simulation",
]


@dataclass(frozen=True)
class MemoryAudit:
    """Every number behind one memory's fate this epoch."""

    memory_id: str
    votes: tuple[tuple[str, str], ...]
    decision: str  # consensus outcome: "forget" | "keep" | "timeout"
    s_m: float
    q: float
    commit_count: int
    outcome: str  # "deleted" | "retained"


@dataclass
class EpochReport:
    """One epoch's complete accounting, audit trail included."""

    epoch_index: int
    memories_start: int
    memories_end: int
    additions: int
    proposed: int
    consensus_reached: int
    consensus_failed: int
    deleted: int
    deletion_rate: float
    elapsed_virtual_s: float  # how far the network clock advanced over Phase 3's rounds
    cache_hits: int = 0
    cache_misses: int = 0
    per_memory_audit: list[MemoryAudit] = field(default_factory=list)


def run_epoch(
    store: MemoryStore,
    agents: Sequence[AgentProfile],
    context: ContextProfile,
    cfg: ProtocolConfig,
    net,
    *,
    scorer: RelevanceScorer | Mapping[str, RelevanceScorer] | None = None,
    now: float,
    epoch_index: int = 0,
    arrivals: Sequence[MemoryRecord] = (),
) -> EpochReport:
    """Run one full epoch against the store's current snapshot.

    `scorer` is one scorer for every agent or a mapping from agent id to that
    agent's scorer; None, or an agent the mapping omits, means the default.
    `arrivals` enter the store after deletion commits. Consensus timeouts
    retain the memory and are recorded per-memory rather than raised.
    Relevance is cached in `store.relevance_columns` under (scorer, context),
    the scorer object an agent uses (None for the default) and the context
    object scored against, so each memory is scored once per put and pair;
    only this epoch's pairs keep a column. The epoch makes no reads, so its
    cache counts are 0. A NaN, infinite or negative `now` raises before any
    phase, so the store is left as it was.
    """
    _check_now(now)
    scan = store.scan_t_last()
    memories_start = len(scan)
    ids = [memory_id for memory_id, _ in scan]
    t_last = np.fromiter((t for _, t in scan), dtype=np.float64, count=memories_start)

    # Phase 1: decay for the whole snapshot in one kernel call.
    decay = combined_decay(now - t_last, cfg)

    # Phase 2: independent evaluation, one relevance column and one vote
    # column per scorer object. Agents sharing a scorer get identical (D, R),
    # so its column is computed once and attributed to each of them.
    active = sorted((a for a in agents if a.active), key=lambda a: a.agent_id)
    columns = store.relevance_columns
    by_scorer: dict[tuple[RelevanceScorer | None, ContextProfile], tuple[np.ndarray, np.ndarray]] = {}
    agent_votes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for profile in active:
        agent_scorer = scorer.get(profile.agent_id) if isinstance(scorer, Mapping) else scorer
        key = (agent_scorer, context)
        if key not in by_scorer:
            # The store drops put and deleted ids from the column; only ids it lacks need a record.
            column = columns.setdefault(key, {})
            for i in ids:
                if i not in column:
                    column[i] = relevance(store.record(i), context, agent_scorer)
            r = np.fromiter(map(column.__getitem__, ids), dtype=np.float64, count=len(ids))
            by_scorer[key] = vote_rule(decay, r, cfg)
        agent_votes[profile.agent_id] = by_scorer[key]
    for stale in columns.keys() - by_scorer.keys():
        del columns[stale]

    # Agents ship their forget lists, in id order, to this epoch's coordinator;
    # the proposal set is the union of acknowledged proposals.
    coordinator = CoordinatorEndpoint()
    proposed: dict[str, None] = {}
    row_of: dict[str, int] = {}
    for agent_id, (_, forget) in agent_votes.items():
        wanted = {ids[i]: i for i in np.flatnonzero(forget).tolist()}
        if not wanted:
            continue
        row_of.update(wanted)
        for memory_id in propose_forgetting(sorted(wanted), agent_id, coordinator, epoch=epoch_index):
            proposed[memory_id] = None

    # Phase 3: one consensus round per proposed memory, then the quorum gate.
    clock_before = net.clock
    audits: list[MemoryAudit] = []
    q = quorum_threshold(agents, cfg.alpha) if active else 0.0
    for memory_id in sorted(proposed):
        i = row_of[memory_id]
        # agent_votes follows the active roster, which is sorted by id.
        cast = [
            AgentVote(
                agent_id=agent_id,
                memory_id=memory_id,
                vote=Vote.FORGET if forget[i] else Vote.KEEP,
                combined_score=float(combined[i]),
            )
            for agent_id, (combined, forget) in agent_votes.items()
        ]
        behaviors = {
            profile.agent_id: resolve_behavior(profile.fault, epoch_index, memory_id)
            for profile in active
        }
        result = run_round(
            memory_id,
            epoch_index,
            agents,
            {agent_vote.agent_id: agent_vote.vote for agent_vote in cast},
            cfg,
            net,
            behaviors=behaviors,
        )
        # finalize is the deletion gate: consensus forget deletes only when
        # S_m >= Q; consensus keep and a timeout retain the memory.
        try:
            forget = finalize(result.instance, cast, agents, cfg) is Vote.FORGET
        except ConsensusTimeout:
            forget = False
            decision = "timeout"
        else:
            decision = result.decision.value
        audits.append(
            MemoryAudit(
                memory_id=memory_id,
                votes=tuple((agent_vote.agent_id, agent_vote.vote.value) for agent_vote in cast),
                decision=decision,
                s_m=weighted_forget_score(cast, agents),
                q=q,
                commit_count=result.commit_count,
                outcome="deleted" if forget else "retained",
            )
        )

    # Phase 4: delete, persist, then admit the queued arrivals.
    deleted = store.delete([audit.memory_id for audit in audits if audit.outcome == "deleted"])
    store.commit(now)
    for record in arrivals:
        store.put(record, now)

    memories_end = store.count()
    failed = sum(audit.decision == "timeout" for audit in audits)
    return EpochReport(
        epoch_index=epoch_index,
        memories_start=memories_start,
        memories_end=memories_end,
        additions=len(arrivals),
        proposed=len(proposed),
        consensus_reached=len(audits) - failed,
        consensus_failed=failed,
        deleted=deleted,
        deletion_rate=deleted / memories_start if memories_start else 0.0,
        elapsed_virtual_s=net.clock - clock_before,
        per_memory_audit=audits,
    )


@dataclass
class SimulationResult:
    """A whole run: per-epoch reports, the rollup, and the counterfactual series."""

    reports: list[EpochReport]
    summary: SummaryMetrics
    baseline_footprints: list[int]


def run_simulation(
    cfg: ProtocolConfig,
    spec: WorkloadSpec,
    epochs: int,
    *,
    agents: Sequence[AgentProfile] | None = None,
    net_cfg: NetworkConfig | None = None,
    strict_pbft: bool = False,
    snapshot_path=None,
) -> SimulationResult:
    """Interleave the access workload with epoch executions.

    The virtual clock starts at the end of the historical window and advances
    one interaction interval per interaction; an epoch fires every
    cfg.epoch_interactions interactions. The baseline series is the footprint
    a no-forgetting twin would have (initial plus cumulative arrivals). Agents
    score with the default scorer. A roster outside 3f+1 ≤ N ≤ 4f+1 or with
    under 2f+1 active agents raises FaultBoundViolation.
    """
    validate_config(cfg)
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if agents is None:
        agents = default_agents()
    validate_roster(cfg, agents)
    net = SimulatedNetwork(net_cfg or NetworkConfig())

    context = make_context(spec)
    store = MemoryStore.from_config(cfg, spec.dimension, start_time=spec.history_window_s)
    now = spec.history_window_s
    for record in generate_initial(spec):
        store.put(record, now)
    store.commit(now)

    rng = traffic_stream(spec)
    reports: list[EpochReport] = []

    for epoch_index in range(epochs):
        hits, misses = store.hits, store.misses
        pending_arrivals, now = epoch_traffic(
            spec,
            store.ids(),
            rng,
            store.access,
            context=context,
            interactions=cfg.epoch_interactions,
            now=now,
        )

        if epoch_index == epochs - 1:
            # Only the last commit's snapshot survives the run, so write only that one.
            store.snapshot_path = snapshot_path
        report = run_epoch(
            store,
            agents,
            context,
            cfg,
            net,
            epoch_index=epoch_index,
            now=now,
            arrivals=pending_arrivals,
        )
        # Every read of the epoch window came from the traffic above.
        report.cache_hits, report.cache_misses = store.hits - hits, store.misses - misses
        reports.append(report)

    start = reports[0].memories_start
    baselines = [start + added for added in accumulate(r.additions for r in reports)]
    summary = aggregate(reports, strict_pbft=strict_pbft)
    return SimulationResult(reports=reports, summary=summary, baseline_footprints=baselines)
