"""run_round against a straight-line reference round.

The reference follows the consensus module docstring with plain message
objects, dict[Vote, set] tallies and its own (time, sender, seq) heap fed from
a random.Random seeded like the simulated network: one random() drop draw per
destination, then a uniform latency for a kept message, with the sender's
sequence number bumped for dropped messages too. Rosters of 4, 7 and 10
agents with f = (N-1)//3, and of 7 agents with f = 1, up to f faulty agents,
lossy networks and tied latencies must give an equal RoundResult and leave
the network in the same state, round after round on one network. A round's
elapsed time is how far the network clock moved while it ran.

Observer agreement is asserted only where N <= 4f+1. A COMMIT carries its
sender's own vote, so two 2f+1 commit quorums for different votes need only
4f+2 senders, and with N = 7, f = 1 two observers can decide differently.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from coforget.consensus import (
    DEFAULT_COORDINATOR_ID,
    Behavior,
    MessageKind,
    PbftInstance,
    PbftMessage,
    RoundResult,
    run_round,
)
from coforget.core import AgentProfile, ProtocolConfig, Vote
from coforget.transport import NetworkConfig, SimulatedNetwork


@dataclass
class ReferenceNetwork:
    config: NetworkConfig
    rng: random.Random = field(init=False)
    heap: list = field(default_factory=list)
    seq: dict = field(default_factory=dict)
    clock: float = 0.0
    delivered: int = 0
    dropped: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.config.seed)

    def send(self, msg: PbftMessage, dest: str) -> None:
        self.seq[msg.sender] = seq = self.seq.get(msg.sender, 0) + 1
        if self.rng.random() < self.config.drop_prob:
            self.dropped += 1
            return
        latency_s = self.rng.uniform(self.config.latency_min_ms, self.config.latency_max_ms) / 1000.0
        heapq.heappush(self.heap, (self.clock + latency_s, msg.sender, seq, dest, msg))

    def poll(self) -> tuple[str, PbftMessage]:
        time_s, _, _, dest, msg = heapq.heappop(self.heap)
        self.clock = time_s
        self.delivered += 1
        return dest, msg


def reference_round(memory_id, epoch, agents, votes, cfg, net, behaviors):
    coordinator = DEFAULT_COORDINATOR_ID
    active = sorted((a for a in agents if a.active), key=lambda a: a.agent_id)
    nodes = [coordinator] + [a.agent_id for a in active]
    behavior = {a.agent_id: behaviors.get(a.agent_id, Behavior.HONEST) for a in active}
    wire = {coordinator: None}
    for agent_id, b in behavior.items():
        vote = votes[agent_id]
        wire[agent_id] = None if b is Behavior.SILENT else vote.inverted() if b is Behavior.EQUIVOCATE else vote
    state = {node: PbftInstance(memory_id, epoch) for node in nodes}
    prepared: set[str] = set()

    def absorb(node: str, msg: PbftMessage) -> list[PbftMessage]:
        inst = state[node]
        if msg.kind is MessageKind.PREPARE:
            senders = inst.prepare_tally.setdefault(msg.vote, set())
            senders.add(msg.sender)
            if node not in prepared and inst.decision is None and len(senders) >= 2 * cfg.f:
                prepared.add(node)
                if wire[node] is not None:
                    commit = PbftMessage(MessageKind.COMMIT, epoch, memory_id, node, wire[node])
                    return [commit] + absorb(node, commit)
        else:
            senders = inst.commit_tally.setdefault(msg.vote, set())
            senders.add(msg.sender)
            if inst.decision is None and len(senders) >= 2 * cfg.f + 1:
                inst.decision = msg.vote
        return []

    dropped_before = net.dropped
    started_s = net.clock
    for agent_id in nodes[1:]:
        net.send(PbftMessage(MessageKind.EVALUATE, epoch, memory_id, coordinator), agent_id)
    deliveries = 0
    while net.heap:
        dest, msg = net.poll()
        deliveries += 1
        if msg.kind is MessageKind.EVALUATE:
            if wire[dest] is None:
                continue
            prepare = PbftMessage(MessageKind.PREPARE, epoch, memory_id, dest, wire[dest])
            out = [prepare] + absorb(dest, prepare)
        else:
            out = absorb(dest, msg)
        for outbound in out:
            for peer in nodes:
                if peer != dest:
                    net.send(outbound, peer)
    undelivered = len(net.heap)
    net.heap.clear()

    coord = state[coordinator]
    return RoundResult(
        memory_id=memory_id,
        epoch=epoch,
        instance=coord,
        decided=coord.decision is not None,
        decision=coord.decision,
        commit_count=len(coord.commit_tally.get(coord.decision, ())),
        agent_decisions={agent_id: state[agent_id].decision for agent_id in nodes[1:]},
        deliveries=deliveries,
        dropped=net.dropped - dropped_before,
        undelivered=undelivered,
        elapsed_virtual_s=net.clock - started_s,
    )


# Ids that sort both before and after "coordinator", so heap ties between
# senders are not broken in roster order.
AGENT_IDS = hst.text(alphabet="abz-09", min_size=1, max_size=4)


@hst.composite
def rounds(draw):
    n, f = draw(hst.sampled_from([(4, 1), (7, 2), (7, 1), (10, 3)]))
    ids = draw(hst.lists(AGENT_IDS, min_size=n, max_size=n, unique=True))
    inactive = draw(hst.sets(hst.sampled_from(ids), max_size=1))
    agents = tuple(AgentProfile(agent_id, active=agent_id not in inactive) for agent_id in ids)
    faulty = draw(hst.lists(hst.sampled_from(ids), max_size=f, unique=True))
    behaviors = {
        agent_id: draw(hst.sampled_from([Behavior.SILENT, Behavior.EQUIVOCATE])) for agent_id in faulty
    }
    low, high = draw(hst.sampled_from([(1.0, 5.0), (2.0, 2.0), (0.0, 0.0)]))
    net_cfg = NetworkConfig(
        latency_min_ms=low,
        latency_max_ms=high,
        drop_prob=draw(hst.sampled_from([0.0, 0.02, 0.3])),
        seed=draw(hst.integers(0, 2**32)),
    )
    schedule = [
        {agent_id: draw(hst.sampled_from([Vote.KEEP, Vote.FORGET])) for agent_id in ids}
        for _ in range(draw(hst.integers(1, 3)))
    ]
    return ProtocolConfig(f=f), agents, behaviors, net_cfg, schedule


class TestRunRoundMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=rounds())
    def test_results_and_network_state_match(self, case):
        cfg, agents, behaviors, net_cfg, schedule = case
        net = SimulatedNetwork(net_cfg)
        ref = ReferenceNetwork(net_cfg)
        for epoch, votes in enumerate(schedule):
            got = run_round(f"m{epoch}", epoch, agents, votes, cfg, net, behaviors=behaviors)
            want = reference_round(f"m{epoch}", epoch, agents, votes, cfg, ref, behaviors)
            assert got == want
            assert net._rng.getstate() == ref.rng.getstate()
            assert net._seq == ref.seq
            assert (net.clock, net.delivered, net.dropped) == (ref.clock, ref.delivered, ref.dropped)
            assert net.pending() == 0
            if len(agents) > 4 * cfg.f + 1:
                continue

            observers = {DEFAULT_COORDINATOR_ID: got.decision}
            observers.update(
                (agent_id, decision)
                for agent_id, decision in got.agent_decisions.items()
                if behaviors.get(agent_id) is not Behavior.EQUIVOCATE
            )
            assert len({d for d in observers.values() if d is not None}) <= 1
