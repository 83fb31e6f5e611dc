"""run_round and the run_rounds engine against an event-loop reference round.

The reference follows the consensus module docstring with plain message
objects, dict[Vote, set] tallies and a heap of pending deliveries keyed by
(time, kind, sender position, destination position). It draws its drops
and latencies from its own numpy Generator, seeded like the simulated
network, in the layout SimulatedNetwork.draw documents: per round one
(2, 2A+1, A) array of uniforms, drop draws first, where row 0 holds the
coordinator's EVALUATEs, row p agent position p's PREPAREs and row A + p its
COMMITs, each to every other node in position order. Times are relative to
the round's start, and the network clock adds each round's latest delivered
arrival. Rosters of 4, 7 and 10 agents with f = (N-1)//3, and of 7 agents
with f = 1, up to f faulty agents, lossy networks and tied or zero latencies
must give an equal RoundResult and leave the network in the same state,
round after round on one network. A sequence of instances run through one
run_rounds call, with blocks of 1, 7 or the default number of rounds, must
match the reference run once per instance on a twin network, and the block
size must not change any of the engine's outputs or the network's state.

Observer agreement is asserted only where N <= 4f+1. A COMMIT carries its
sender's own vote, so two 2f+1 commit quorums for different votes need only
4f+2 senders, and with N = 7, f = 1 two observers can decide differently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from coforget import consensus
from coforget.consensus import (
    DEFAULT_COORDINATOR_ID,
    Behavior,
    MessageKind,
    PbftInstance,
    PbftMessage,
    RoundResult,
    run_round,
    run_rounds,
)
from coforget.core import AgentProfile, ProtocolConfig, Vote
from coforget.transport import NetworkConfig, SimulatedNetwork


@dataclass
class ReferenceNetwork:
    config: NetworkConfig
    rng: np.random.Generator = field(init=False)
    clock: float = 0.0
    delivered: int = 0
    dropped: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.config.seed)


def reference_round(memory_id, epoch, agents, votes, cfg, net, behaviors):
    coordinator = DEFAULT_COORDINATOR_ID
    active = sorted((a for a in agents if a.active), key=lambda a: a.agent_id)
    nodes = [coordinator] + [a.agent_id for a in active]
    n = len(nodes)
    draws = net.rng.random((2, 2 * n - 1, n - 1)).tolist()
    behavior = {a.agent_id: behaviors.get(a.agent_id, Behavior.HONEST) for a in active}
    wire = {coordinator: None}
    for agent_id, b in behavior.items():
        vote = votes[agent_id]
        wire[agent_id] = None if b is Behavior.SILENT else vote.inverted() if b is Behavior.EQUIVOCATE else vote
    state = {node: PbftInstance(memory_id, epoch) for node in nodes}
    prepared: set[str] = set()
    heap: list = []

    def send(msg: PbftMessage, sender: int, now: float) -> None:
        # Row of the draw layout: EVALUATE 0, PREPARE p, COMMIT A + p.
        row = {MessageKind.EVALUATE: 0, MessageKind.PREPARE: sender, MessageKind.COMMIT: n - 1 + sender}[msg.kind]
        for dest in range(n):
            if dest == sender:
                continue
            slot = dest if dest < sender else dest - 1
            if draws[0][row][slot] < net.config.drop_prob:
                net.dropped += 1
                continue
            lo, hi = net.config.latency_min_ms, net.config.latency_max_ms
            arrival = now + (lo + (hi - lo) * draws[1][row][slot]) / 1000.0
            heapq.heappush(heap, (arrival, int(msg.kind), sender, dest, msg))

    def absorb(node: int, msg: PbftMessage, now: float) -> None:
        name = nodes[node]
        inst = state[name]
        if msg.kind is MessageKind.PREPARE:
            senders = inst.prepare_tally.setdefault(msg.vote, set())
            senders.add(msg.sender)
            if name not in prepared and inst.decision is None and len(senders) >= 2 * cfg.f:
                prepared.add(name)
                if wire[name] is not None:
                    commit = PbftMessage(MessageKind.COMMIT, epoch, memory_id, name, wire[name])
                    send(commit, node, now)
                    absorb(node, commit, now)
        else:
            senders = inst.commit_tally.setdefault(msg.vote, set())
            senders.add(msg.sender)
            if inst.decision is None and len(senders) >= 2 * cfg.f + 1:
                inst.decision = msg.vote

    dropped_before, delivered_before, started_s = net.dropped, net.delivered, net.clock
    send(PbftMessage(MessageKind.EVALUATE, epoch, memory_id, coordinator), 0, 0.0)
    last = 0.0
    while heap:
        last, _, _, dest, msg = heapq.heappop(heap)
        net.delivered += 1
        if msg.kind is MessageKind.EVALUATE:
            name = nodes[dest]
            if wire[name] is None:
                continue
            prepare = PbftMessage(MessageKind.PREPARE, epoch, memory_id, name, wire[name])
            send(prepare, dest, last)
            absorb(dest, prepare, last)
        else:
            absorb(dest, msg, last)
    net.clock += last

    coord = state[coordinator]
    return RoundResult(
        memory_id=memory_id,
        epoch=epoch,
        instance=coord,
        decided=coord.decision is not None,
        decision=coord.decision,
        commit_count=len(coord.commit_tally.get(coord.decision, ())),
        agent_decisions={agent_id: state[agent_id].decision for agent_id in nodes[1:]},
        deliveries=net.delivered - delivered_before,
        dropped=net.dropped - dropped_before,
        elapsed_virtual_s=net.clock - started_s,
    )


def network_state(net) -> tuple:
    rng = net._rng if isinstance(net, SimulatedNetwork) else net.rng
    return net.clock, net.delivered, net.dropped, rng.bit_generator.state


# Ids that sort both before and after "coordinator", so node positions do not
# follow any order of the ids against the coordinator's.
AGENT_IDS = hst.text(alphabet="abz-09", min_size=1, max_size=4)
LATENCY_BANDS = [(1.0, 5.0), (2.0, 2.0), (0.0, 0.0)]


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
    low, high = draw(hst.sampled_from(LATENCY_BANDS))
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
            assert network_state(net) == network_state(ref)
            # horizon_problem bounds the network clock by three maximal latencies a
            # round; summing three of them in floats can round a few ulps above.
            assert 0.0 <= got.elapsed_virtual_s <= 3 * net_cfg.latency_max_ms / 1000.0 * (1 + 1e-12)
            if len(agents) > 4 * cfg.f + 1:
                continue

            observers = {DEFAULT_COORDINATOR_ID: got.decision}
            observers.update(
                (agent_id, decision)
                for agent_id, decision in got.agent_decisions.items()
                if behaviors.get(agent_id) is not Behavior.EQUIVOCATE
            )
            assert len({d for d in observers.values() if d is not None}) <= 1


@hst.composite
def sequences(draw):
    n = draw(hst.sampled_from([4, 7, 10]))
    f = (n - 1) // 3
    ids = sorted(draw(hst.lists(AGENT_IDS, min_size=n, max_size=n, unique=True)))
    faulty = draw(hst.lists(hst.sampled_from(ids), max_size=f, unique=True))
    low, high = draw(hst.sampled_from(LATENCY_BANDS))
    net_cfg = NetworkConfig(
        latency_min_ms=low,
        latency_max_ms=high,
        drop_prob=draw(hst.sampled_from([0.0, 0.05, 0.3])),
        seed=draw(hst.integers(0, 2**32)),
    )
    # Up to 8 instances, or enough to cross many 7-round block boundaries.
    count = draw(hst.integers(1, 8) | hst.integers(60, 140))
    instances = [
        (
            {agent_id: draw(hst.sampled_from([Vote.KEEP, Vote.FORGET])) for agent_id in ids},
            {agent_id: draw(hst.sampled_from(list(Behavior))) for agent_id in faulty},
        )
        for _ in range(count)
    ]
    return ProtocolConfig(f=f), ids, net_cfg, instances, draw(hst.sampled_from(BLOCK_ROUNDS))


# Rounds per engine block under test; None keeps the default message budget.
BLOCK_ROUNDS = [1, 7, None]


def blocks_of(rounds: int | None, agents: int):
    """Patch run_rounds' message budget so that a block holds `rounds` rounds of `agents` agents."""
    budget = consensus._BLOCK_MESSAGES if rounds is None else rounds * agents * (2 * agents + 1)
    return mock.patch.object(consensus, "_BLOCK_MESSAGES", budget)


def engine_arrays(ids, instances):
    """run_rounds' (votes, behaviors) arrays for (votes, behaviors) mappings by agent id."""
    votes = np.array(
        [[(Vote.KEEP, Vote.FORGET).index(votes[agent_id]) for agent_id in ids] for votes, _ in instances]
    )
    behaviors = np.array(
        [[list(Behavior).index(b.get(agent_id, Behavior.HONEST)) for agent_id in ids] for _, b in instances]
    )
    return votes.reshape(len(instances), len(ids)), behaviors.reshape(len(instances), len(ids))


def chained_blocking():
    """Eight rounds of five agents in which one fixed-point pass is not enough.

    In one of them an agent decides before it prepares only if the COMMIT of
    another agent, which itself decides first and so never commits, counts;
    the engine must take a second pass to let the first agent commit.
    """
    ids = [f"a{i}" for i in range(1, 6)]
    forget = (np.random.default_rng(1278).random((8, 5)) < 0.5).tolist()
    instances = [({agent_id: (Vote.KEEP, Vote.FORGET)[v] for agent_id, v in zip(ids, row)}, {}) for row in forget]
    return ProtocolConfig(f=1), ids, NetworkConfig(latency_min_ms=0.0, drop_prob=0.1, seed=1278), instances, None


class TestRunRoundsMatchesReference:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=sequences())
    @example(case=chained_blocking())
    def test_one_engine_call_matches_the_reference_round_by_round(self, case):
        cfg, ids, net_cfg, instances, block_rounds = case
        agents = tuple(AgentProfile(agent_id) for agent_id in ids)
        net = SimulatedNetwork(net_cfg)
        ref = ReferenceNetwork(net_cfg)
        with blocks_of(block_rounds, len(ids)):
            decisions, commit_counts, prepare_tally, commit_tally = run_rounds(
                *engine_arrays(ids, instances), cfg, net
            )
        assert len(decisions) == len(commit_counts) == len(instances)
        votes = (Vote.KEEP, Vote.FORGET)
        for k, (votes_by_id, behaviors) in enumerate(instances):
            want = reference_round(f"m{k}", 0, agents, votes_by_id, cfg, ref, behaviors)
            decided = [None if d < 0 else votes[d] for d in decisions[k].tolist()]
            assert (decided[0], int(commit_counts[k])) == (want.decision, want.commit_count)
            assert dict(zip(ids, decided[1:])) == want.agent_decisions
            for got, tally in ((prepare_tally[k], want.instance.prepare_tally),
                               (commit_tally[k], want.instance.commit_tally)):
                assert {
                    votes[v]: {ids[j] for j in np.flatnonzero(got[v])} for v in (0, 1) if got[v].any()
                } == tally
        assert network_state(net) == network_state(ref)
        # Plain Python numbers, as perfbench writes them to JSON.
        assert (type(net.clock), type(net.delivered), type(net.dropped)) == (float, int, int)


@hst.composite
def epochs(draw):
    """An epoch's (votes, behaviors) engine arrays, mostly forget votes, with its config and network."""
    agents = draw(hst.sampled_from([4, 7, 13]))
    f = (agents - 1) // 3
    rounds = draw(hst.integers(1, 40) | hst.just(482))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32)))
    votes = (rng.random((rounds, agents)) < 0.9).astype(np.int8)
    behaviors = np.zeros((rounds, agents), dtype=np.int8)
    for k in rng.choice(agents, size=draw(hst.integers(0, f)), replace=False).tolist():
        behaviors[:, k] = (rng.random(rounds) < 0.5) * draw(hst.sampled_from([1, 2]))
    low, high = draw(hst.sampled_from(LATENCY_BANDS))
    net_cfg = NetworkConfig(
        latency_min_ms=low,
        latency_max_ms=high,
        drop_prob=draw(hst.sampled_from([0.0, 0.01, 0.3])),
        seed=draw(hst.integers(0, 2**32)),
    )
    return votes, behaviors, ProtocolConfig(f=f), net_cfg


class TestBlockSize:
    def test_a_forget_storm_sized_epoch_spans_more_than_one_default_block(self):
        # forget_storm's epoch 0 runs 482 rounds with 4 agents.
        assert consensus._BLOCK_MESSAGES // (4 * (2 * 4 + 1)) < 482

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=epochs())
    def test_block_size_changes_no_output(self, case):
        votes, behaviors, cfg, net_cfg = case
        runs = []
        for block_rounds in BLOCK_ROUNDS:
            net = SimulatedNetwork(net_cfg)
            with blocks_of(block_rounds, votes.shape[1]):
                arrays = run_rounds(votes, behaviors, cfg, net)
            runs.append((arrays, network_state(net)))
        (want, want_state), *others = runs
        for arrays, state in others:
            assert state == want_state
            for got, expected in zip(arrays, want):
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)


class TestZeroActiveAgents:
    def test_round_times_out_and_leaves_the_counters_balanced(self):
        cfg = ProtocolConfig()
        roster = (AgentProfile("a", active=False), AgentProfile("b", active=False))
        net = SimulatedNetwork(NetworkConfig(drop_prob=0.3, seed=4))
        ref = ReferenceNetwork(NetworkConfig(drop_prob=0.3, seed=4))
        for epoch in range(3):
            got = run_round("m", epoch, roster, {}, cfg, net)
            assert got == reference_round("m", epoch, roster, {}, cfg, ref, {})
            assert not got.decided and got.agent_decisions == {}
            assert (got.deliveries, got.dropped, got.elapsed_virtual_s) == (0, 0, 0.0)
        assert network_state(net) == network_state(ref) == (0.0, 0, 0, np.random.default_rng(4).bit_generator.state)

    def test_an_engine_call_with_no_agents_times_out_every_round(self):
        net = SimulatedNetwork()
        decisions, commit_counts, prepare_tally, commit_tally = run_rounds(
            np.zeros((70, 0), dtype=np.int8), np.zeros((70, 0), dtype=np.int8), ProtocolConfig(), net
        )
        assert decisions.shape == (70, 1) and (decisions == -1).all()
        assert (commit_counts == 0).all()
        assert prepare_tally.shape == commit_tally.shape == (70, 2, 0)
        assert (net.clock, net.delivered, net.dropped) == (0.0, 0, 0)
