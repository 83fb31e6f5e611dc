"""Three-phase consensus: message invariants, tallies and decisions, full rounds.

Each node's part in a round (its EVALUATE, the PREPARE and COMMIT it puts on
the wire, the tallies it reaches and the decision it takes) is checked end to
end through run_round over a simulated network, where the coordinator's
tallies show what every agent sent, including fault behaviors. The quorum
gate is checked through finalize.
"""

from __future__ import annotations

import itertools
import logging
import random

import pytest

from coforget.consensus import (
    Behavior,
    ConsensusTimeout,
    MessageKind,
    PbftInstance,
    PbftMessage,
    finalize,
    run_round,
)
from coforget.core import AgentProfile, ProtocolConfig, Vote
from coforget.transport import NetworkConfig, SimulatedNetwork
from coforget.voting import AgentVote, vote_rule

CFG = ProtocolConfig()

ROSTER = (
    AgentProfile("planner-1", weight=1.5),
    AgentProfile("planner-2", weight=1.5),
    AgentProfile("percept-1", weight=1.0),
    AgentProfile("percept-2", weight=1.0),
)
IDS = tuple(a.agent_id for a in ROSTER)


def prepare(sender: str, vote: Vote, epoch: int = 0, memory_id: str = "m") -> PbftMessage:
    return PbftMessage(MessageKind.PREPARE, epoch, memory_id, sender, vote=vote)


def lossless_net(seed: int = 0) -> SimulatedNetwork:
    return SimulatedNetwork(NetworkConfig(drop_prob=0.0, seed=seed))


def lossless_round(votes: dict[str, Vote], behaviors=None, **kwargs):
    return run_round("m", 0, ROSTER, votes, CFG, lossless_net(), behaviors=behaviors, **kwargs)


def unanimous(vote: Vote) -> dict[str, Vote]:
    return {aid: vote for aid in IDS}


def cast(votes: dict[str, Vote], memory_id: str = "m") -> list[AgentVote]:
    score = {Vote.KEEP: 1.0, Vote.FORGET: 0.0}
    return [AgentVote(aid, memory_id, v, score[v]) for aid, v in votes.items()]


class TestPbftMessage:
    def test_evaluate_must_not_carry_vote(self):
        with pytest.raises(ValueError, match="EVALUATE"):
            PbftMessage(MessageKind.EVALUATE, 0, "m", "coordinator", vote=Vote.KEEP)

    @pytest.mark.parametrize("kind", [MessageKind.PREPARE, MessageKind.COMMIT])
    def test_vote_phases_must_carry_vote(self, kind):
        with pytest.raises(ValueError, match="must carry a vote"):
            PbftMessage(kind, 0, "m", "planner-1")

    def test_messages_are_immutable(self):
        msg = prepare("planner-1", Vote.FORGET)
        with pytest.raises(AttributeError):
            msg.vote = Vote.KEEP


class TestStartInstance:
    """run_round's EVALUATE fan-out, seen with every agent silent: the
    EVALUATEs are all the round delivers."""

    def test_one_evaluate_per_active_agent(self):
        silent = {aid: Behavior.SILENT for aid in IDS}
        result = run_round("m", 7, ROSTER, unanimous(Vote.FORGET), CFG, lossless_net(), behaviors=silent)
        assert result.instance.memory_id == "m"
        assert result.instance.epoch == 7
        assert result.instance.prepare_tally == {}
        assert result.deliveries == 4
        assert result.undelivered == 0

    def test_inactive_agents_get_no_evaluate(self):
        roster = ROSTER[:2] + (AgentProfile("percept-1", active=False),)
        votes = {aid: Vote.FORGET for aid in IDS[:2]}
        silent = {aid: Behavior.SILENT for aid in IDS[:2]}
        result = run_round("m", 0, roster, votes, CFG, lossless_net(), behaviors=silent)
        assert result.deliveries == 2
        assert result.undelivered == 0
        assert set(result.agent_decisions) == set(IDS[:2])

    def test_zero_active_agents_warns(self, caplog):
        roster = tuple(AgentProfile(a.agent_id, weight=a.weight, active=False) for a in ROSTER)
        with caplog.at_level(logging.WARNING, logger="coforget.consensus"):
            result = run_round("m", 0, roster, {}, CFG, lossless_net())
        assert result.deliveries == 0
        assert result.undelivered == 0
        assert not result.decided
        assert result.agent_decisions == {}
        assert any("zero active agents" in r.getMessage() for r in caplog.records)


class TestOnEvaluate:
    """An agent's answer to EVALUATE is the PREPARE it puts on the wire."""

    def test_honest_prepare_carries_formed_vote(self):
        # C = 0.4*1 + 0.6*1 = 1.0 >= 0.4 so the honest vote is keep.
        assert not vote_rule(1.0, 1.0, CFG)[1]
        result = lossless_round(unanimous(Vote.KEEP))
        assert result.instance.prepare_tally == {Vote.KEEP: set(IDS)}

    def test_honest_prepare_forget_on_low_scores(self):
        assert vote_rule(0.0, 0.0, CFG)[1]
        result = lossless_round(unanimous(Vote.FORGET))
        assert result.instance.prepare_tally == {Vote.FORGET: set(IDS)}

    def test_silent_agent_emits_nothing(self):
        result = lossless_round(unanimous(Vote.FORGET), {"planner-1": Behavior.SILENT})
        assert result.instance.prepare_tally == {Vote.FORGET: set(IDS) - {"planner-1"}}
        # 4 EVALUATEs, then a PREPARE and a COMMIT from each of 3 agents to 4 peers.
        assert result.deliveries == 4 + 2 * 3 * 4

    def test_equivocator_inverts_the_wire_vote(self):
        assert not vote_rule(1.0, 1.0, CFG)[1]
        result = lossless_round(unanimous(Vote.KEEP), {"planner-1": Behavior.EQUIVOCATE})
        assert result.instance.prepare_tally == {
            Vote.KEEP: set(IDS) - {"planner-1"},
            Vote.FORGET: {"planner-1"},
        }


class TestOnPrepare:
    """What a node does once PREPAREs arrive: stay idle below 2f, else commit its own vote."""

    def test_below_2f_stays_idle(self):
        # Only planner-1 sends a PREPARE, so no node reaches 2f = 2.
        silent = {aid: Behavior.SILENT for aid in IDS[1:]}
        result = lossless_round(unanimous(Vote.FORGET), silent)
        assert result.instance.prepare_tally == {Vote.FORGET: {"planner-1"}}
        assert result.instance.commit_tally == {}
        assert not result.decided
        # 4 EVALUATEs and planner-1's PREPARE to its 4 peers; no COMMIT.
        assert result.deliveries == 4 + 4

    def test_2f_prepares_trigger_commit_with_own_vote(self):
        # percept-1 is the only keep voter, so it reaches 2f on forget
        # PREPAREs; the COMMIT it sends carries its own vote, not the prepared one.
        votes = {**unanimous(Vote.FORGET), "percept-1": Vote.KEEP}
        result = run_round("m", 2, ROSTER, votes, CFG, lossless_net())
        assert result.instance.epoch == 2
        assert result.instance.prepare_tally[Vote.KEEP] == {"percept-1"}
        assert result.instance.commit_tally[Vote.KEEP] == {"percept-1"}

    def test_passive_observer_marks_prepared_without_commit(self):
        # The coordinator sees 2f PREPAREs from the percepts, so it is
        # prepared; it has no vote, so it appears in no tally.
        silent = {"planner-1": Behavior.SILENT, "planner-2": Behavior.SILENT}
        result = lossless_round(unanimous(Vote.FORGET), silent)
        assert not result.decided
        assert result.instance.prepare_tally == {Vote.FORGET: {"percept-1", "percept-2"}}
        assert result.instance.commit_tally == {Vote.FORGET: {"percept-1", "percept-2"}}
        assert result.deliveries == 4 + 2 * 2 * 4

    def test_split_votes_below_threshold_stay_idle(self):
        silent = {"percept-1": Behavior.SILENT, "percept-2": Behavior.SILENT}
        votes = {**unanimous(Vote.FORGET), "planner-2": Vote.KEEP}
        result = lossless_round(votes, silent)
        assert result.instance.prepare_tally == {Vote.FORGET: {"planner-1"}, Vote.KEEP: {"planner-2"}}
        assert result.instance.commit_tally == {}
        assert not result.decided

    def test_commit_emitted_at_most_once(self):
        # With a 2-2 split every node reaches 2f on both votes, yet sends one COMMIT.
        votes = {**unanimous(Vote.FORGET), "percept-1": Vote.KEEP, "percept-2": Vote.KEEP}
        result = lossless_round(votes)
        assert result.instance.commit_tally == {
            Vote.FORGET: {"planner-1", "planner-2"},
            Vote.KEEP: {"percept-1", "percept-2"},
        }
        assert result.deliveries == 4 + 2 * 4 * 4


class TestOnCommit:
    """What a node does once COMMITs arrive: decide at 2f+1, and only once."""

    def test_decides_at_2f_plus_1(self):
        one_silent = lossless_round(unanimous(Vote.FORGET), {"planner-1": Behavior.SILENT})
        assert one_silent.decision is Vote.FORGET
        assert one_silent.commit_count == 2 * CFG.f + 1
        assert one_silent.instance.decision is Vote.FORGET
        two_silent = lossless_round(
            unanimous(Vote.FORGET), {"planner-1": Behavior.SILENT, "planner-2": Behavior.SILENT}
        )
        assert two_silent.instance.commit_tally == {Vote.FORGET: {"percept-1", "percept-2"}}
        assert not two_silent.decided
        assert set(two_silent.agent_decisions.values()) == {None}

    def test_two_plus_two_never_decides(self):
        votes = {**unanimous(Vote.FORGET), "percept-1": Vote.KEEP, "percept-2": Vote.KEEP}
        for seed in range(20):
            result = run_round("m", 0, ROSTER, votes, CFG, lossless_net(seed))
            assert result.decision is None
            # Every PREPARE arrives, so the coordinator is prepared on both votes.
            assert result.instance.prepare_tally == {
                Vote.FORGET: {"planner-1", "planner-2"},
                Vote.KEEP: {"percept-1", "percept-2"},
            }
            assert set(result.agent_decisions.values()) == {None}

    def test_keep_majority_decides_keep(self):
        votes = {**unanimous(Vote.KEEP), "planner-1": Vote.FORGET}
        result = lossless_round(votes)
        assert result.decision is Vote.KEEP
        assert result.commit_count == 3

    def test_first_decision_sticks(self):
        # With N = 7 and f = 1 both votes can gather 2f+1 COMMITs. A fixed
        # latency makes every COMMIT land at the same instant, in sender-id
        # order: a1..a3's forget COMMITs decide every node before a4..a7's
        # four keep COMMITs arrive, and the later keep quorum flips nothing.
        cfg = ProtocolConfig(f=1)
        roster = tuple(AgentProfile(f"a{i}") for i in range(1, 8))
        votes = {a.agent_id: Vote.FORGET if a.agent_id <= "a3" else Vote.KEEP for a in roster}
        net = SimulatedNetwork(NetworkConfig(latency_min_ms=3.0, latency_max_ms=3.0, seed=0))
        result = run_round("m", 0, roster, votes, cfg, net)
        assert result.instance.commit_tally == {
            Vote.FORGET: {"a1", "a2", "a3"},
            Vote.KEEP: {"a4", "a5", "a6", "a7"},
        }
        assert result.decision is Vote.FORGET
        assert result.commit_count == 3
        assert set(result.agent_decisions.values()) == {Vote.FORGET}


class TestFinalize:
    def decided(self, vote: Vote) -> PbftInstance:
        inst = PbftInstance("m", 0)
        inst.decision = vote
        return inst

    def test_decided_forget_above_quorum_deletes(self):
        votes = cast({aid: Vote.FORGET for aid in IDS})
        assert finalize(self.decided(Vote.FORGET), votes, ROSTER, CFG) is Vote.FORGET

    def test_decided_forget_below_quorum_keeps(self):
        # Percepts alone carry S_m = 2.0 < Q = 10/3: the gate overrides consensus.
        votes = cast(
            {
                "planner-1": Vote.KEEP,
                "planner-2": Vote.KEEP,
                "percept-1": Vote.FORGET,
                "percept-2": Vote.FORGET,
            }
        )
        assert finalize(self.decided(Vote.FORGET), votes, ROSTER, CFG) is Vote.KEEP

    def test_decided_keep_skips_the_gate(self):
        votes = cast({aid: Vote.FORGET for aid in IDS})
        assert finalize(self.decided(Vote.KEEP), votes, ROSTER, CFG) is Vote.KEEP

    def test_undecided_raises_timeout(self):
        inst = PbftInstance("mem-42", 9)
        with pytest.raises(ConsensusTimeout, match="mem-42"):
            finalize(inst, [], ROSTER, CFG)


class TestAgentNode:
    """Per-node behaviour of the round engine: the COMMITs each node emits."""

    def test_wire_vote_inversion(self):
        # The equivocator's COMMIT carries its inverted vote as well.
        result = lossless_round(unanimous(Vote.KEEP), {"planner-1": Behavior.EQUIVOCATE})
        assert result.instance.commit_tally == {
            Vote.KEEP: set(IDS) - {"planner-1"},
            Vote.FORGET: {"planner-1"},
        }

    def test_evaluate_triggers_prepare_and_self_absorb(self):
        # With both percepts silent, each planner sees only one peer PREPARE:
        # it reaches 2f = 2 only by counting its own.
        silent = {"percept-1": Behavior.SILENT, "percept-2": Behavior.SILENT}
        result = lossless_round(unanimous(Vote.FORGET), silent)
        assert result.instance.prepare_tally == {Vote.FORGET: {"planner-1", "planner-2"}}
        assert result.instance.commit_tally == {Vote.FORGET: {"planner-1", "planner-2"}}
        assert not result.decided

    def test_silent_node_emits_nothing(self):
        # planner-2 sees 2f PREPAREs and decides, but sends no COMMIT.
        result = lossless_round(unanimous(Vote.FORGET), {"planner-2": Behavior.SILENT})
        assert result.instance.commit_tally == {Vote.FORGET: set(IDS) - {"planner-2"}}
        assert result.agent_decisions["planner-2"] is Vote.FORGET

    def test_peer_prepare_completes_threshold_and_commits(self):
        # planner-1 votes keep; the others' forget PREPAREs complete its 2f
        # threshold and it commits its own vote.
        votes = {**unanimous(Vote.FORGET), "planner-1": Vote.KEEP}
        result = lossless_round(votes)
        assert result.instance.commit_tally == {
            Vote.KEEP: {"planner-1"},
            Vote.FORGET: set(IDS) - {"planner-1"},
        }
        assert result.decision is Vote.FORGET

    def test_observer_node_emits_nothing(self):
        result = lossless_round(unanimous(Vote.FORGET))
        assert result.instance.decision is Vote.FORGET
        # 4 EVALUATEs, then one PREPARE and one COMMIT from each agent to its
        # 4 peers; the coordinator sends nothing after the EVALUATEs.
        assert result.deliveries == 4 + 2 * 4 * 4


class TestRunRound:
    def all_forget(self) -> dict[str, Vote]:
        return {aid: Vote.FORGET for aid in IDS}

    def test_unanimous_forget_decides_with_full_commits(self):
        result = run_round("m", 0, ROSTER, self.all_forget(), CFG, lossless_net())
        assert result.decided
        assert result.decision is Vote.FORGET
        assert result.commit_count == 4
        assert result.undelivered == 0
        assert result.dropped == 0
        assert set(result.agent_decisions.values()) == {Vote.FORGET}
        assert result.elapsed_virtual_s > 0.0

    def test_a_round_lasts_at_most_three_hops(self):
        # Acceptance 1's randomized rounds, drawn the same way. Each message
        # is sent when the one before it arrives (EVALUATE, then PREPARE, then
        # COMMIT), so no round outlasts three maximal latencies.
        rng = random.Random(20260825)
        three_hops_s = 3 * NetworkConfig().latency_max_ms / 1000.0
        for trial in range(1500):
            votes = {aid: rng.choice([Vote.KEEP, Vote.FORGET]) for aid in IDS}
            behaviors = {}
            if rng.random() < 0.6:
                behaviors[rng.choice(IDS)] = rng.choice([Behavior.SILENT, Behavior.EQUIVOCATE])
            drop_prob = rng.choice([0.0, 0.0, 0.0, 0.0, 0.02, 0.1, 0.3])
            net = SimulatedNetwork(NetworkConfig(drop_prob=drop_prob, seed=trial))
            result = run_round(f"m{trial}", trial, ROSTER, votes, CFG, net, behaviors=behaviors)
            assert 0.0 <= result.elapsed_virtual_s == net.clock <= three_hops_s, trial

    def test_unanimous_keep_decides_keep(self):
        votes = {aid: Vote.KEEP for aid in IDS}
        result = run_round("m", 0, ROSTER, votes, CFG, lossless_net())
        assert result.decision is Vote.KEEP
        assert result.commit_count == 4

    def test_one_silent_agent_still_decides(self):
        result = run_round(
            "m",
            0,
            ROSTER,
            self.all_forget(),
            CFG,
            lossless_net(),
            behaviors={"planner-2": Behavior.SILENT},
        )
        assert result.decision is Vote.FORGET
        # The silent agent contributes no commit; exactly 2f+1 arrive.
        assert result.commit_count == 3
        assert result.agent_decisions["planner-2"] is Vote.FORGET

    def test_one_equivocator_cannot_flip_a_unanimous_round(self):
        votes = {aid: Vote.KEEP for aid in IDS}
        result = run_round(
            "m",
            0,
            ROSTER,
            votes,
            CFG,
            lossless_net(),
            behaviors={"planner-2": Behavior.EQUIVOCATE},
        )
        assert result.decision is Vote.KEEP
        assert result.commit_count == 3

    def test_total_loss_times_out_undecided(self):
        net = SimulatedNetwork(NetworkConfig(drop_prob=1.0, seed=0))
        result = run_round("m", 0, ROSTER, self.all_forget(), CFG, net)
        assert not result.decided
        assert result.decision is None
        assert result.commit_count == 0
        assert result.dropped == 4
        with pytest.raises(ConsensusTimeout):
            finalize(result.instance, cast(self.all_forget()), ROSTER, CFG)

    def test_inactive_agent_is_excluded(self):
        roster = ROSTER[:3] + (AgentProfile("percept-2", active=False),)
        votes = {aid: Vote.FORGET for aid in IDS[:3]}
        result = run_round("m", 0, roster, votes, CFG, lossless_net())
        assert result.decision is Vote.FORGET
        assert result.commit_count == 3
        assert set(result.agent_decisions) == set(IDS[:3])


class TestSafetyProperties:
    def test_honest_agreement_over_randomized_rounds(self):
        # Agreement: across random votes, faults, and drop patterns no two
        # honest nodes (coordinator included) ever decide differently.
        rng = random.Random(1234)
        behaviors_pool = [Behavior.HONEST, Behavior.SILENT, Behavior.EQUIVOCATE]
        for trial in range(200):
            votes = {aid: rng.choice([Vote.KEEP, Vote.FORGET]) for aid in IDS}
            faulty = rng.choice(IDS)
            behaviors = {faulty: rng.choice(behaviors_pool)}
            net = SimulatedNetwork(
                NetworkConfig(drop_prob=rng.choice([0.0, 0.05, 0.3]), seed=trial)
            )
            result = run_round("m", trial, ROSTER, votes, CFG, net, behaviors=behaviors)
            decided = {
                aid: d
                for aid, d in result.agent_decisions.items()
                if d is not None and behaviors.get(aid, Behavior.HONEST) is not Behavior.EQUIVOCATE
            }
            if result.decision is not None:
                decided["coordinator"] = result.decision
            assert len(set(decided.values())) <= 1, (trial, votes, behaviors, decided)

    def test_validity_with_unanimous_honest_votes(self):
        # If every honest agent votes V and the one faulty agent is silent,
        # any decision reached must be V.
        for trial, vote in enumerate([Vote.KEEP, Vote.FORGET] * 10):
            votes = {aid: vote for aid in IDS}
            faulty = IDS[trial % 4]
            result = run_round(
                "m",
                trial,
                ROSTER,
                votes,
                CFG,
                lossless_net(seed=trial),
                behaviors={faulty: Behavior.SILENT},
            )
            assert result.decision is vote

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_every_observer_decides_a_unanimous_lossless_round(self, n):
        # Liveness: with honest unanimous votes and no drops every observer
        # decides, within the A(2A+1) messages a round can deliver.
        cfg = ProtocolConfig(f=(n - 1) // 3)
        roster = tuple(AgentProfile(f"a{i:02d}") for i in range(n))
        net = lossless_net(seed=n)
        for trial in range(40):
            vote = (Vote.KEEP, Vote.FORGET)[trial % 2]
            result = run_round(f"m{trial}", trial, roster, {a.agent_id: vote for a in roster}, cfg, net)
            assert result.decision is vote
            assert set(result.agent_decisions.values()) == {vote}
            assert result.undelivered == 0
            assert result.deliveries <= n * (2 * n + 1)

    def test_commit_quorums_always_intersect_in_honest_nodes(self):
        # Any two 2f+1 subsets of N=4 nodes share at least f+1 = 2 members,
        # so two conflicting decisions would need two votes from one node.
        nodes = set(IDS)
        quorums = list(itertools.combinations(sorted(nodes), 2 * CFG.f + 1))
        for a, b in itertools.combinations(quorums, 2):
            assert len(set(a) & set(b)) >= CFG.f + 1

    def test_decision_independent_of_commit_order(self):
        # Each network seed delivers the same messages in another order; the
        # decision depends only on which votes were sent, because tallies
        # are sets and thresholds are counts.
        cases = [
            {**unanimous(Vote.FORGET), "percept-2": Vote.KEEP},
            {**unanimous(Vote.FORGET), "percept-1": Vote.KEEP, "percept-2": Vote.KEEP},
            unanimous(Vote.FORGET),
        ]
        for votes in cases:
            outcomes = set()
            for seed in range(30):
                result = run_round("m", 0, ROSTER, votes, CFG, lossless_net(seed))
                outcomes.add(result.decision)
                outcomes.update(result.agent_decisions.values())
            assert len(outcomes) == 1, votes

    def test_emitted_commit_independent_of_prepare_order(self):
        # Whatever order PREPAREs arrive in, every node sends exactly one
        # COMMIT and it always carries its own vote.
        votes = {**unanimous(Vote.FORGET), "percept-1": Vote.KEEP, "percept-2": Vote.KEEP}
        for seed in range(30):
            result = run_round("m", 0, ROSTER, votes, CFG, lossless_net(seed))
            assert result.instance.commit_tally == {
                Vote.FORGET: {"planner-1", "planner-2"},
                Vote.KEEP: {"percept-1", "percept-2"},
            }
            assert result.deliveries == 4 + 2 * 4 * 4
