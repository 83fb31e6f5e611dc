"""PBFT three-phase consensus over each proposed memory.

A non-voting coordinator sends EVALUATE for one (memory, epoch) instance to
every active agent. An agent PREPAREs its vote to every other node on its
EVALUATE. A node is prepared at its max(2f, 1)-th PREPARE for one vote, its
own counting, unless it has already decided; an agent then COMMITs its own
vote to every other node. A node decides at its (2f+1)-th COMMIT for one vote,
its own counting. There is no view change: an instance undecided once its last
message has arrived times out, and the memory is kept for next epoch. A silent
agent sends nothing and an equivocating one puts its inverted vote on the wire.

Nodes are addressed by position: the coordinator is 0 and the active agents
follow in id order, so an agent id may equal the coordinator's. Every message
a round could send has one drop and one latency draw (SimulatedNetwork.draw),
and equal arrival times at a node break by (time, kind EVALUATE < PREPARE <
COMMIT, sender position), an order that stays causal at zero latency.
run_rounds, the one round engine, needs no event queue: each arrival time
follows from the draws, so a round is a few order statistics, computed for
blocks of rounds with numpy. run_round is its one-instance view and the only
place that builds a PbftInstance and a RoundResult. gate is the deletion rule.
"""

from __future__ import annotations

import enum
import functools
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import AgentProfile, ProtocolConfig, Vote
from .voting import AgentVote, decide, quorum_threshold, weighted_forget_score

logger = logging.getLogger(__name__)

__all__ = [
    "MessageKind",
    "Behavior",
    "PbftMessage",
    "PbftInstance",
    "ConsensusTimeout",
    "gate",
    "finalize",
    "RoundResult",
    "run_rounds",
    "run_round",
    "DEFAULT_COORDINATOR_ID",
]

DEFAULT_COORDINATOR_ID = "coordinator"


class MessageKind(enum.IntEnum):
    """Every wire frame kind; each value is the frame's kind byte.

    EVALUATE, PREPARE and COMMIT are consensus messages; PROPOSE and
    PROPOSE_ACK carry the forgetting-proposal RPC.
    """

    EVALUATE = 0
    PREPARE = 1
    COMMIT = 2
    PROPOSE = 3
    PROPOSE_ACK = 4


_CONSENSUS_KINDS = frozenset((MessageKind.EVALUATE, MessageKind.PREPARE, MessageKind.COMMIT))


class Behavior(enum.Enum):
    """How an agent acts during one consensus round, after fault-coin resolution."""

    HONEST = "honest"
    SILENT = "silent"
    EQUIVOCATE = "equivocate"


class ConsensusTimeout(RuntimeError):
    """The round's last message arrived before the instance decided."""


@dataclass(frozen=True)
class PbftMessage:
    """An immutable consensus message. EVALUATE carries no vote; PREPARE and COMMIT must."""

    kind: MessageKind
    epoch: int
    memory_id: str
    sender: str
    vote: Vote | None = None
    signature: bytes = b""

    def __post_init__(self) -> None:
        if self.kind not in _CONSENSUS_KINDS:
            raise ValueError(f"{self.kind.name} is not a consensus message")
        if self.kind is MessageKind.EVALUATE:
            if self.vote is not None:
                raise ValueError("EVALUATE must not carry a vote")
        elif self.vote is None:
            raise ValueError(f"{self.kind.name} must carry a vote")


@dataclass
class PbftInstance:
    """One observer's consensus state for one (memory, epoch); run_round builds the coordinator's."""

    memory_id: str
    epoch: int
    prepare_tally: dict[Vote, set[str]] = field(default_factory=dict)
    commit_tally: dict[Vote, set[str]] = field(default_factory=dict)
    decision: Vote | None = None


def gate(decision: Vote | None, s_m: float, q: float) -> Vote | None:
    """The deletion gate on a round's decision: only FORGET deletes the memory.

    A decided forget becomes decide(S_m, Q), so it deletes only when S_m >= Q;
    a decided keep stays KEEP, and an undecided round (None) stays None, a
    timeout that retains the memory.
    """
    return decide(s_m, q) if decision is Vote.FORGET else decision


def finalize(
    instance: PbftInstance,
    votes: Sequence[AgentVote],
    agents: Sequence[AgentProfile],
    cfg: ProtocolConfig,
) -> Vote:
    """Apply gate to a decided instance, with S_m and Q from `votes` and `agents`.

    Consensus forget only deletes when S_m >= Q; consensus keep always keeps.
    An instance whose round ended undecided raises ConsensusTimeout and the
    memory is retained this epoch.
    """
    if instance.decision is None:
        raise ConsensusTimeout(
            f"instance ({instance.memory_id}, {instance.epoch}) ended undecided"
        )
    return gate(instance.decision, weighted_forget_score(votes, agents), quorum_threshold(agents, cfg.alpha))


@dataclass
class RoundResult:
    """Everything one round produced, from the coordinator's view, once its last message arrived.

    deliveries, dropped and elapsed_virtual_s are how far the network's two counters and its clock moved.
    """

    memory_id: str
    epoch: int
    instance: PbftInstance
    decided: bool
    decision: Vote | None
    commit_count: int
    agent_decisions: dict[str, Vote | None]
    deliveries: int
    dropped: int
    elapsed_virtual_s: float


# Round-engine encodings: a vote is its index in _VOTES (-1 undecided, which
# picks None), and a behavior code is the Behavior's position in list(Behavior).
_VOTES = (Vote.KEEP, Vote.FORGET, None)
_BEHAVIOR_CODE = {behavior: code for code, behavior in enumerate(Behavior)}
_SILENT, _EQUIVOCATE = _BEHAVIOR_CODE[Behavior.SILENT], _BEHAVIOR_CODE[Behavior.EQUIVOCATE]
# Rounds per network draw and per set of arrays; this bounds the engine's memory.
_BLOCK_ROUNDS = 64
# Compared with (rounds, 1, A) wire votes, it splits them into a keep and a forget row.
_BY_VOTE = np.array([[0], [1]], dtype=np.int8)


@functools.lru_cache(maxsize=16)
def _layout(agents: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A round's PREPAREs and COMMITs as [kind, destination node, sending agent] arrays.

    Returns (index, peer, own, rank). index holds each message's position in
    the round's flattened draws: agent k's PREPARE is row 1 + k and its
    COMMIT row 1 + A + k, at slot i for node i, or i - 1 past its own
    position k + 1. own marks the pairs (k + 1, k), an agent's own message,
    which the engine keeps with zero latency (peer is 0.0 there, else 1.0).
    rank orders equal arrival times at a node: its own message first, as it
    counts at the event that triggers it, then senders by position. The
    arrays are cached, so they are read-only.
    """
    dest = np.arange(agents + 1)[:, None]
    sender = np.arange(agents)[None, :]
    own = dest == sender + 1
    slot = dest - (dest > sender)
    index = np.stack([(1 + sender) * agents + slot, (1 + agents + sender) * agents + slot])
    layout = (index, (~own).astype(np.float64), own, np.where(own, -1, sender))
    for array in layout:
        array.flags.writeable = False
    return layout


def run_rounds(votes: np.ndarray, behaviors: np.ndarray, cfg: ProtocolConfig, net) -> tuple[np.ndarray, ...]:
    """Run consensus instances one after another on one network, in closed form.

    `votes` and `behaviors` are (instances, A) arrays, one column per active
    agent in id order: a vote index (0 keep, 1 forget; bools will do) and a
    behavior code (0 honest, 1 silent, 2 equivocate). With E an agent's
    EVALUATE arrival, a PREPARE arrives at E_sender + latency and a COMMIT at
    T_sender + latency, where per node:
    - T, the prepared time, is the earlier over both votes of the
      max(2f, 1)-th matching PREPARE;
    - an agent with a wire vote and a finite T commits unless 2f+1 matching
      COMMITs reach it before T. Only earlier committers send those, so at
      most A fixed-point passes settle who commits;
    - the decision is the vote whose (2f+1)-th matching COMMIT comes first.
    A round lasts until its latest delivered arrival; the network's clock
    adds the durations round by round, and its delivered and dropped
    counters count the messages sent.

    Returns, one row per instance: each node's decided vote index (-1
    undecided; column 0 is the coordinator's, so -1 there is a timeout); the
    coordinator's commit count for its decision (0 on a timeout); and its
    PREPARE and COMMIT tallies, (instances, 2, A) bools true at [r, v, k]
    when agent k's message for vote v reached it.
    """
    votes = np.asarray(votes, dtype=np.int8)
    behaviors = np.asarray(behaviors, dtype=np.int8)
    rounds, agents = votes.shape
    n = agents + 1
    wire = np.where(behaviors == _EQUIVOCATE, 1 - votes, votes)
    wire[behaviors == _SILENT] = -1
    decisions = np.full((rounds, n), -1, dtype=np.int8)
    commit_counts = np.empty(rounds, dtype=np.int64)
    prepare_tally = np.empty((rounds, 2, agents), dtype=bool)
    commit_tally = np.empty((rounds, 2, agents), dtype=bool)
    index, peer, own, rank = _layout(agents)
    prepare_at = max(2 * cfg.f, 1)
    quorum = 2 * cfg.f + 1
    clock = net.clock
    for start in range(0, rounds, _BLOCK_ROUNDS):
        w = wire[start : start + _BLOCK_ROUNDS]
        size = len(w)
        block = slice(start, start + size)
        kept, latency = net.draw(size, agents)
        evaluated, e_time = kept[:, 0], latency[:, 0]
        # [round, kind, destination node, sending agent]; kind 0 is PREPARE, 1 COMMIT.
        kept = kept.reshape(size, -1).take(index, axis=1) | own
        latency = latency.reshape(size, -1).take(index, axis=1) * peer
        # [round, vote, 1, sending agent]: which vote each agent's messages carry.
        split = (w[:, None, :] == _BY_VOTE)[:, :, None, :]

        prepares = evaluated & (w >= 0)
        p_ok = kept[:, 0] & prepares[:, None, :]
        p_time = e_time[:, None, :] + latency[:, 0]
        if prepare_at <= agents:
            p_times = np.where(split & p_ok[:, None], p_time[:, None], np.inf)
            prepared = np.sort(p_times, axis=3)[..., prepare_at - 1].min(axis=1)
        else:
            prepared = np.full((size, n), np.inf)

        t_agent = prepared[:, 1:]
        can_commit = (w >= 0) & (t_agent < np.inf)
        c_time = t_agent[:, None, :] + latency[:, 1]
        early = kept[:, 1] & (c_time < prepared[:, :, None])
        committed = can_commit
        if (early & can_commit[:, None, :]).sum(axis=2).max(initial=0) >= quorum:
            early = early[:, None] & split
            for _ in range(agents):
                counts = (early & committed[:, None, None, :]).sum(axis=3).max(axis=1)
                settled = can_commit & (counts < quorum)[:, 1:]
                if not (settled ^ committed).any():
                    break
                committed = settled
        c_ok = kept[:, 1] & committed[:, None, :]

        if quorum <= agents:
            # When each vote's quorum-th COMMIT reaches each node; the earlier decides.
            c_times = np.where(split & c_ok[:, None], c_time[:, None], np.inf)
            at = np.sort(c_times, axis=3)[..., quorum - 1]
            first = (at[:, 1] < at[:, 0]).astype(np.int8)
            tied = (at[:, 0] == at[:, 1]) & (at[:, 0] < np.inf)
            if tied.any():
                # Only equal latencies tie; then the two COMMITs' ranks decide.
                ranks = np.broadcast_to(rank, c_times.shape)
                column = np.lexsort((ranks, c_times), axis=3)[..., quorum - 1, None]
                by = np.take_along_axis(ranks, column, axis=3)[..., 0]
                first[tied] = (by[:, 1] < by[:, 0])[tied]
            decisions[block] = np.where(at.min(axis=1) < np.inf, first, -1)
        coordinator = split[:, :, 0, :]
        prepare_tally[block] = p_ok[:, None, 0, :] & coordinator
        commit_tally[block] = c_ok[:, None, 0, :] & coordinator
        commit_counts[block] = np.count_nonzero(c_ok[:, 0, :] & (w == decisions[block, :1]), axis=1)

        e_last = np.where(evaluated, e_time, 0.0).max(axis=1, initial=0.0)
        p_last = np.where(p_ok, p_time, 0.0).max(axis=(1, 2), initial=0.0)
        c_last = np.where(c_ok, c_time, 0.0).max(axis=(1, 2), initial=0.0)
        for elapsed in np.maximum(np.maximum(e_last, p_last), c_last).tolist():
            clock += elapsed
        # p_ok and c_ok hold each sender's own message once; it crosses no wire.
        own_messages = int(np.count_nonzero(prepares) + np.count_nonzero(committed))
        delivered = int(np.count_nonzero(evaluated) + np.count_nonzero(p_ok) + np.count_nonzero(c_ok)) - own_messages
        net.delivered += delivered
        net.dropped += (size + own_messages) * agents - delivered
    net.clock = clock
    return decisions, commit_counts, prepare_tally, commit_tally


def run_round(
    memory_id: str,
    epoch: int,
    agents: Sequence[AgentProfile],
    votes: Mapping[str, Vote],
    cfg: ProtocolConfig,
    net,
    behaviors: Mapping[str, Behavior] | None = None,
) -> RoundResult:
    """Drive one consensus instance to completion over a simulated network.

    The one-instance view of run_rounds. `votes` holds each active agent's
    pre-formed vote; `behaviors` the resolved fault behavior per agent
    (default honest). With A active agents a round sends at most A(2A+1)
    messages. Unlike run_rounds, it reports the round as a RoundResult with
    the coordinator's PbftInstance, its tally sets and every agent's decision.
    """
    behaviors = behaviors or {}
    active = sorted(a.agent_id for a in agents if a.active)
    if not active:
        logger.warning("instance (%s, %d) started with zero active agents; undecidable", memory_id, epoch)
    vote_row = np.array([[_VOTES.index(votes[agent_id]) for agent_id in active]], dtype=np.int8)
    behavior_row = np.array([[_BEHAVIOR_CODE[behaviors.get(agent_id, Behavior.HONEST)] for agent_id in active]])

    delivered_before, dropped_before, clock_before = net.delivered, net.dropped, net.clock
    decisions, commit_counts, prepare_tally, commit_tally = run_rounds(vote_row, behavior_row, cfg, net)
    decision = _VOTES[decisions[0, 0]]

    def tally(masks: np.ndarray) -> dict[Vote, set[str]]:
        return {_VOTES[v]: {active[k] for k in np.flatnonzero(masks[v])} for v in (0, 1) if masks[v].any()}

    instance = PbftInstance(
        memory_id=memory_id,
        epoch=epoch,
        prepare_tally=tally(prepare_tally[0]),
        commit_tally=tally(commit_tally[0]),
        decision=decision,
    )
    return RoundResult(
        memory_id=memory_id,
        epoch=epoch,
        instance=instance,
        decided=decision is not None,
        decision=decision,
        commit_count=int(commit_counts[0]),
        agent_decisions={agent_id: _VOTES[d] for agent_id, d in zip(active, decisions[0, 1:].tolist())},
        deliveries=net.delivered - delivered_before,
        dropped=net.dropped - dropped_before,
        elapsed_virtual_s=net.clock - clock_before,
    )

