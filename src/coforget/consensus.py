"""PBFT three-phase consensus over each proposed memory.

A non-voting coordinator broadcasts EVALUATE for one (memory, epoch) instance;
agents broadcast PREPARE with their vote, mark the instance prepared once any
vote accumulates 2f identical senders, then broadcast COMMIT carrying their own
vote; an observer decides when any vote reaches a 2f+1 commit tally. A node
that decides before it has seen 2f identical PREPAREs never commits. There is
no view change: a round runs until its queue drains, and an instance still
undecided then times out and the memory is kept for re-evaluation next epoch.

run_round keeps one round's state in lists indexed by node position: the
coordinator is position 0 and the active agents follow, sorted by id. Every
node runs the same handler; the coordinator and silent agents simply have no
vote to send. Each node tallies PREPAREs and COMMITs per vote as a bitmask of
sender positions, and a message on the network is the tuple (kind, sender
bit, vote index), so a delivery costs a few list and integer operations. The
coordinator's PbftInstance is built once, when the round ends.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import AgentProfile, ProtocolConfig, Vote
from .voting import AgentVote, decide, quorum_threshold, weighted_forget_score

logger = logging.getLogger(__name__)

__all__ = [
    "MessageKind",
    "Behavior",
    "PbftMessage",
    "PbftInstance",
    "ConsensusTimeout",
    "finalize",
    "RoundResult",
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
    """The round's queue drained before the instance decided."""


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


def finalize(
    instance: PbftInstance,
    votes: Sequence[AgentVote],
    agents: Sequence[AgentProfile],
    cfg: ProtocolConfig,
) -> Vote:
    """Gate a decided-forget instance through the weighted quorum.

    Consensus forget only deletes when S_m >= Q; consensus keep always keeps.
    An instance whose round drained its queue undecided raises
    ConsensusTimeout and the memory is retained this epoch.
    """
    if instance.decision is None:
        raise ConsensusTimeout(
            f"instance ({instance.memory_id}, {instance.epoch}) drained its queue undecided"
        )
    if instance.decision is Vote.KEEP:
        return Vote.KEEP
    q = quorum_threshold(agents, cfg.alpha)
    s_m = weighted_forget_score(votes, agents)
    return decide(s_m, q)


@dataclass
class RoundResult:
    """Everything one round produced, from the coordinator's view, once its queue drained.

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
    undelivered: int
    elapsed_virtual_s: float


# Round-engine encodings: a vote is its index in _VOTES, and a tally slot of
# node i for vote v is 2*i + v.
_VOTES = (Vote.KEEP, Vote.FORGET)
_VOTE_INDEX = {Vote.KEEP: 0, Vote.FORGET: 1}
_EVALUATE, _PREPARE, _COMMIT = int(MessageKind.EVALUATE), int(MessageKind.PREPARE), int(MessageKind.COMMIT)


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

    `votes` holds each active agent's pre-formed vote; `behaviors` the resolved
    fault behavior per agent (default honest). The coordinator sends one
    EVALUATE to each active agent; a silent agent sends nothing, an
    equivocating one puts its inverted vote on the wire. Delivery runs until
    the queue drains. Each agent PREPAREs once, on its EVALUATE, and COMMITs
    at most once, so with A active agents a round delivers at most A(2A+1)
    messages: A EVALUATEs, then A peers for each PREPARE and COMMIT broadcast.
    """
    behaviors = behaviors or {}
    active = sorted((a for a in agents if a.active), key=lambda a: a.agent_id)
    if not active:
        logger.warning("instance (%s, %d) started with zero active agents; undecidable", memory_id, epoch)
    ids = [DEFAULT_COORDINATOR_ID] + [a.agent_id for a in active]
    n = len(ids)
    index = {node_id: i for i, node_id in enumerate(ids)}
    peers = [ids[:i] + ids[i + 1 :] for i in range(n)]
    # The vote index each node puts on the wire; None for the coordinator and
    # for silent agents, which never PREPARE or COMMIT.
    wire: list[int | None] = [None]
    for agent_id in ids[1:]:
        behavior = behaviors.get(agent_id, Behavior.HONEST)
        vote = votes[agent_id]
        if behavior is Behavior.SILENT:
            wire.append(None)
        else:
            wire.append(_VOTE_INDEX[vote.inverted() if behavior is Behavior.EQUIVOCATE else vote])
    two_f = 2 * cfg.f
    prepare_masks = [0] * (2 * n)
    commit_masks = [0] * (2 * n)
    prepared = [False] * n
    decision: list[int | None] = [None] * n

    delivered_before, dropped_before, clock_before = net.delivered, net.dropped, net.clock
    net.broadcast((_EVALUATE, 1, None), ids[0], ids[1:])

    poll = net.poll
    broadcast = net.broadcast
    while (event := poll()) is not None:
        node = index[event.dest]
        kind, bit, vote = event.msg
        if kind == _EVALUATE:
            vote = wire[node]
            if vote is None:
                continue
            kind, bit = _PREPARE, 1 << node
            broadcast((kind, bit, vote), ids[node], peers[node])
            # Falls through: the node absorbs its own PREPARE.
        slot = 2 * node + vote
        if kind == _PREPARE:
            prepare_masks[slot] |= bit
            if prepared[node] or decision[node] is not None or prepare_masks[slot].bit_count() < two_f:
                continue
            prepared[node] = True
            vote = wire[node]
            if vote is None:
                continue
            bit, slot = 1 << node, 2 * node + vote
            broadcast((_COMMIT, bit, vote), ids[node], peers[node])
            # Falls through: the node absorbs its own COMMIT.
        commit_masks[slot] |= bit
        if decision[node] is None and commit_masks[slot].bit_count() > two_f:
            decision[node] = vote
    undelivered = net.drain()

    def tally(masks: list[int]) -> dict[Vote, set[str]]:
        return {
            _VOTES[v]: {ids[j] for j in range(n) if masks[v] >> j & 1} for v in (0, 1) if masks[v]
        }

    decided = decision[0]
    instance = PbftInstance(
        memory_id=memory_id,
        epoch=epoch,
        prepare_tally=tally(prepare_masks),
        commit_tally=tally(commit_masks),
        decision=None if decided is None else _VOTES[decided],
    )
    return RoundResult(
        memory_id=memory_id,
        epoch=epoch,
        instance=instance,
        decided=decided is not None,
        decision=instance.decision,
        commit_count=0 if decided is None else commit_masks[decided].bit_count(),
        agent_decisions={
            ids[i]: None if decision[i] is None else _VOTES[decision[i]] for i in range(1, n)
        },
        deliveries=net.delivered - delivered_before,
        dropped=net.dropped - dropped_before,
        undelivered=undelivered,
        elapsed_virtual_s=net.clock - clock_before,
    )
