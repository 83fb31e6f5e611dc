"""PBFT three-phase consensus over each proposed memory.

A non-voting coordinator broadcasts EVALUATE for one (memory, epoch) instance;
agents broadcast PREPARE with their vote, mark the instance prepared once any
vote accumulates 2f identical senders, then broadcast COMMIT carrying their own
vote; an observer decides when any vote reaches a 2f+1 commit tally. A node
that decides before it has seen 2f identical PREPAREs never commits. There is
no view change: a round runs until its queue drains, and an instance still
undecided then times out and the memory is kept for re-evaluation next epoch.

run_rounds is the one round engine: it runs a sequence of instances, one
after another, on one network, and run_epoch hands it all of an epoch's
proposed memories in one call. It builds the node list and each node's peers
once per call. A round's state is lists indexed by node position: the
coordinator is position 0 and the active agents follow, sorted by id. Every
node runs the same handler; the coordinator and silent agents simply have no
vote to send. The wire rule lives here too: a silent agent sends nothing and
an equivocating one puts its inverted vote on the wire. Messages are
addressed to node positions, never to ids, so an agent id may equal the
coordinator's without aliasing it; the sender's id still goes to the network,
which breaks equal arrival times by it. Each node tallies PREPAREs and COMMITs
per vote as a bitmask of sender positions, and a message on the network is
the tuple (kind, sender bit, vote index), so a delivery costs a few list and
integer operations. run_round is the one-instance view: it calls the engine
for one instance and is the only place that builds a PbftInstance, its tally
sets and a RoundResult. gate is the deletion rule, which finalize and
run_epoch both apply.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    An instance whose round drained its queue undecided raises
    ConsensusTimeout and the memory is retained this epoch.
    """
    if instance.decision is None:
        raise ConsensusTimeout(
            f"instance ({instance.memory_id}, {instance.epoch}) drained its queue undecided"
        )
    return gate(instance.decision, weighted_forget_score(votes, agents), quorum_threshold(agents, cfg.alpha))


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


def run_rounds(
    agent_ids: Sequence[str],
    instances: Iterable[tuple[Sequence[int], Mapping[int, Behavior]]],
    cfg: ProtocolConfig,
    net,
) -> list[tuple]:
    """Drive consensus instances to completion, one after another, on one network.

    `agent_ids` are the active agents sorted by id. Each instance is (votes,
    behaviors): votes[k] is agent k's vote index, 0 for keep and 1 for
    forget (a bool will do), and behaviors maps an agent's position k to its
    resolved fault behavior; an agent it omits is honest. Per instance the
    coordinator sends one EVALUATE to each agent; a silent agent sends
    nothing, an equivocating one puts its inverted vote on the wire. Delivery
    runs until the queue drains, before the next instance starts. Each
    agent PREPAREs once, on its EVALUATE, and
    COMMITs at most once, so with A agents an instance delivers at most
    A(2A+1) messages: A EVALUATEs, then A peers for each PREPARE and COMMIT
    broadcast.

    Returns one tuple per instance, in order: (decision, commit_count,
    undelivered, decisions, prepare_masks, commit_masks). decision is the
    coordinator's Vote, None if it timed out, and commit_count the size of
    its commit tally for that vote (0 on a timeout). undelivered is what the
    closing net.drain() discarded. The rest is the round's state by node
    position: each node's decided vote index, and its PREPARE and COMMIT
    sender bitmasks, node i's for vote v at slot 2*i + v.
    """
    ids = [DEFAULT_COORDINATOR_ID, *agent_ids]
    n = len(ids)
    peers = [[j for j in range(n) if j != i] for i in range(n)]
    two_f = 2 * cfg.f
    poll = net.poll
    broadcast = net.broadcast
    evaluate = (_EVALUATE, 1, None)
    outcomes = []
    for votes, behaviors in instances:
        # The vote index each node puts on the wire; None for the coordinator
        # and for silent agents, which never PREPARE or COMMIT.
        wire: list[int | None] = [None, *votes]
        for k, behavior in behaviors.items():
            if behavior is Behavior.SILENT:
                wire[k + 1] = None
            elif behavior is Behavior.EQUIVOCATE:
                wire[k + 1] = 1 - wire[k + 1]
        prepare_masks = [0] * (2 * n)
        commit_masks = [0] * (2 * n)
        prepared = [False] * n
        decision: list[int | None] = [None] * n

        broadcast(evaluate, ids[0], peers[0])
        while (event := poll()) is not None:
            node, (kind, bit, vote) = event
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

        decided = decision[0]
        if decided is None:
            outcomes.append((None, 0, undelivered, decision, prepare_masks, commit_masks))
        else:
            commit_count = commit_masks[decided].bit_count()
            outcomes.append((_VOTES[decided], commit_count, undelivered, decision, prepare_masks, commit_masks))
    return outcomes


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
    (default honest). With A active agents a round delivers at most A(2A+1)
    messages. Unlike run_rounds, it reports the round as a RoundResult with
    the coordinator's PbftInstance, its tally sets and every agent's decision.
    """
    behaviors = behaviors or {}
    active = sorted(a.agent_id for a in agents if a.active)
    if not active:
        logger.warning("instance (%s, %d) started with zero active agents; undecidable", memory_id, epoch)
    vote_indices = [_VOTE_INDEX[votes[agent_id]] for agent_id in active]
    faults = {k: behaviors[agent_id] for k, agent_id in enumerate(active) if agent_id in behaviors}

    delivered_before, dropped_before, clock_before = net.delivered, net.dropped, net.clock
    [(decision, commit_count, undelivered, decisions, prepare_masks, commit_masks)] = run_rounds(
        active, [(vote_indices, faults)], cfg, net
    )
    ids = [DEFAULT_COORDINATOR_ID, *active]

    def tally(masks: list[int]) -> dict[Vote, set[str]]:
        return {
            _VOTES[v]: {ids[j] for j in range(len(ids)) if masks[v] >> j & 1} for v in (0, 1) if masks[v]
        }

    instance = PbftInstance(
        memory_id=memory_id,
        epoch=epoch,
        prepare_tally=tally(prepare_masks),
        commit_tally=tally(commit_masks),
        decision=decision,
    )
    return RoundResult(
        memory_id=memory_id,
        epoch=epoch,
        instance=instance,
        decided=decision is not None,
        decision=decision,
        commit_count=commit_count,
        agent_decisions={
            agent_id: None if d is None else _VOTES[d] for agent_id, d in zip(active, decisions[1:])
        },
        deliveries=net.delivered - delivered_before,
        dropped=net.dropped - dropped_before,
        undelivered=undelivered,
        elapsed_virtual_s=net.clock - clock_before,
    )
