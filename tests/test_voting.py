"""Vote formation, weighted forgetting score, and the dynamic quorum."""

import itertools
import random

import numpy as np
import pytest

from coforget.core import AgentProfile, ProtocolConfig, Vote
from coforget.voting import (
    AgentVote,
    NoActiveAgents,
    UnknownAgent,
    decide,
    quorum_threshold,
    vote_rule,
    weighted_forget_score,
)

CFG = ProtocolConfig()

ROSTER = (
    AgentProfile("planner-1", weight=1.5),
    AgentProfile("planner-2", weight=1.5),
    AgentProfile("percept-1", weight=1.0),
    AgentProfile("percept-2", weight=1.0),
)


def cast(voters_forget: set[str]) -> list[AgentVote]:
    return [
        AgentVote(
            agent_id=a.agent_id,
            memory_id="m1",
            vote=Vote.FORGET if a.agent_id in voters_forget else Vote.KEEP,
            combined_score=0.0,
        )
        for a in ROSTER
    ]


class TestFormVote:
    def test_maximum_score_keeps(self):
        c, forget = vote_rule(1.0, 1.0, CFG)
        assert c == 1.0 and not forget

    def test_minimum_score_forgets(self):
        c, forget = vote_rule(0.0, 0.0, CFG)
        assert c == 0.0 and forget

    def test_reference_formula_value(self):
        c, forget = vote_rule(0.5, 0.25, CFG)
        assert c == pytest.approx(0.35)
        assert forget

    def test_exact_threshold_keeps(self):
        # C = 0.4*1.0 + 0.6*0.0 = threshold exactly; strict < means keep
        c, forget = vote_rule(1.0, 0.0, CFG)
        assert c == CFG.vote_threshold
        assert not forget

    def test_array_rule_matches_scalar_votes(self):
        rng = np.random.default_rng(4)
        d = np.concatenate([[1.0, 0.0, 0.5], rng.uniform(0.0, 1.0, 500)])
        r = np.concatenate([[0.0, 0.0, 0.25], rng.uniform(0.0, 1.0, 500)])
        combined, forget = vote_rule(d, r, CFG)
        scalar = [vote_rule(float(di), float(ri), CFG) for di, ri in zip(d, r)]
        assert combined.tolist() == [c for c, _ in scalar]
        assert forget.tolist() == [f for _, f in scalar]
        assert not forget[0]  # exactly at the threshold keeps


class TestQuorumThreshold:
    def test_reference_roster(self):
        assert quorum_threshold(ROSTER, 2.0 / 3.0) == pytest.approx(10.0 / 3.0)

    def test_single_active_identity(self):
        assert quorum_threshold([AgentProfile("a", weight=1.0)], 1.0) == 1.0

    def test_all_inactive_raises(self):
        roster = [AgentProfile("a", active=False), AgentProfile("b", active=False)]
        with pytest.raises(NoActiveAgents):
            quorum_threshold(roster, 2.0 / 3.0)

    def test_inactive_agents_excluded_from_sum(self):
        roster = list(ROSTER[:3]) + [
            AgentProfile("percept-2", weight=1.0, active=False)
        ]
        assert quorum_threshold(roster, 1.0) == pytest.approx(4.0)


class TestWeightedForgetScore:
    def test_planners_only(self):
        assert weighted_forget_score(cast({"planner-1", "planner-2"}), ROSTER) == 3.0

    def test_no_forget_votes(self):
        assert weighted_forget_score(cast(set()), ROSTER) == 0.0

    def test_unanimous(self):
        assert weighted_forget_score(cast({a.agent_id for a in ROSTER}), ROSTER) == 5.0

    def test_unknown_agent(self):
        votes = [AgentVote("stranger", "m1", Vote.FORGET, 0.0)]
        with pytest.raises(UnknownAgent):
            weighted_forget_score(votes, ROSTER)

    def test_duplicate_vote_rejected(self):
        votes = cast({"planner-1"}) + [AgentVote("planner-1", "m1", Vote.KEEP, 0.0)]
        with pytest.raises(ValueError, match="duplicate"):
            weighted_forget_score(votes, ROSTER)

    def test_inactive_forget_vote_discarded(self):
        roster = (
            AgentProfile("planner-1", weight=1.5),
            AgentProfile("planner-2", weight=1.5, active=False),
        )
        votes = [
            AgentVote("planner-1", "m1", Vote.FORGET, 0.0),
            AgentVote("planner-2", "m1", Vote.FORGET, 0.0),
        ]
        assert weighted_forget_score(votes, roster) == 1.5

    def test_zero_confidence_equals_vote_removal(self):
        roster = (
            AgentProfile("a", weight=2.0, confidence=0.0),
            AgentProfile("b", weight=1.0),
        )
        with_damped = [
            AgentVote("a", "m1", Vote.FORGET, 0.0),
            AgentVote("b", "m1", Vote.FORGET, 0.0),
        ]
        without = [AgentVote("b", "m1", Vote.FORGET, 0.0)]
        assert weighted_forget_score(with_damped, roster) == weighted_forget_score(
            without, roster
        )


class TestDecide:
    def test_planners_alone_cannot_delete(self):
        assert decide(3.0, 10.0 / 3.0) is Vote.KEEP

    def test_planners_plus_one_percept_delete(self):
        assert decide(4.0, 10.0 / 3.0) is Vote.FORGET

    def test_boundary_is_inclusive(self):
        assert decide(10.0 / 3.0, 10.0 / 3.0) is Vote.FORGET


def test_all_vote_patterns_match_enumeration_oracle():
    """Brute force over all 2^4 vote patterns at reference weights; the
    composed decision must match an independently summed oracle, and no
    two-agent coalition may reach the quorum."""
    alpha = 2.0 / 3.0
    weights = {a.agent_id: a.weight for a in ROSTER}
    q_oracle = alpha * sum(weights.values())
    for pattern in itertools.product([False, True], repeat=4):
        forgetters = {a.agent_id for a, is_forget in zip(ROSTER, pattern) if is_forget}
        s_m = weighted_forget_score(cast(forgetters), ROSTER)
        q = quorum_threshold(ROSTER, alpha)
        outcome = decide(s_m, q)
        s_oracle = sum(weights[aid] for aid in forgetters)
        assert s_m == pytest.approx(s_oracle)
        assert q == pytest.approx(q_oracle)
        assert outcome is (Vote.FORGET if s_oracle >= q_oracle else Vote.KEEP)
        if len(forgetters) <= 2:
            assert outcome is Vote.KEEP  # max two-agent S_m is 3.0 < 10/3


def test_flipping_to_forget_never_decreases_score():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        roster = [
            AgentProfile(f"a{i}", weight=rng.uniform(0.1, 3.0), confidence=rng.random())
            for i in range(n)
        ]
        votes = [
            AgentVote(f"a{i}", "m", rng.choice([Vote.KEEP, Vote.FORGET]), 0.0)
            for i in range(n)
        ]
        base = weighted_forget_score(votes, roster)
        keepers = [i for i, v in enumerate(votes) if v.vote is Vote.KEEP]
        if not keepers:
            continue
        i = rng.choice(keepers)
        flipped = list(votes)
        flipped[i] = AgentVote(votes[i].agent_id, "m", Vote.FORGET, 0.0)
        assert weighted_forget_score(flipped, roster) >= base
