"""Per-agent vote formation and collective weighted scoring with dynamic quorum.

An agent combines a memory's decay score and relevance into C = omega_d*D +
omega_r*R and votes forget when C falls below the vote threshold. Collectively,
forget votes are summed with weight*confidence into S_m and compared against
the quorum Q = alpha * (sum of active agents' weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import AgentProfile, ProtocolConfig, Vote

__all__ = [
    "NoActiveAgents",
    "UnknownAgent",
    "AgentVote",
    "vote_rule",
    "quorum_threshold",
    "forget_sum",
    "weighted_forget_score",
    "decide",
]


class NoActiveAgents(ValueError):
    """Quorum requested over a roster with zero active agents."""


class UnknownAgent(KeyError):
    """A vote references an agent_id missing from the roster."""


@dataclass(frozen=True)
class AgentVote:
    """One agent's vote on one memory, with the combined score that produced it."""

    agent_id: str
    memory_id: str
    vote: Vote
    combined_score: float


def vote_rule(d, r, cfg: ProtocolConfig):
    """(combined, forget) for one memory or, elementwise, for arrays of them.

    combined = omega_d*D + omega_r*R; forget is true where combined falls
    strictly below the vote threshold, so combined exactly at it keeps.
    """
    combined = cfg.omega_d * d + cfg.omega_r * r
    return combined, combined < cfg.vote_threshold


def quorum_threshold(agents: Sequence[AgentProfile], alpha: float) -> float:
    """Q = alpha * sum of active agents' weights."""
    total = 0.0
    active = 0
    for agent in agents:
        if agent.active:
            total += agent.weight
            active += 1
    if active == 0:
        raise NoActiveAgents("quorum threshold undefined with zero active agents")
    return alpha * total


def forget_sum(weights: Iterable[float], forgets: Iterable[bool]) -> float:
    """S_m's sum: each forget vote's weight*confidence, added in order from 0.0.

    `weights` and `forgets` run in parallel over the active agents that voted.
    """
    total = 0.0
    for weight, forget in zip(weights, forgets):
        if forget:
            total += weight
    return total


def weighted_forget_score(votes: Iterable[AgentVote], agents: Sequence[AgentProfile]) -> float:
    """S_m: sum of weight*confidence over active agents voting forget.

    Votes from inactive agents are discarded entirely; keep votes contribute 0.
    """
    roster = {agent.agent_id: agent for agent in agents}
    seen: set[str] = set()
    weights: list[float] = []
    forgets: list[bool] = []
    for vote in votes:
        agent = roster.get(vote.agent_id)
        if agent is None:
            raise UnknownAgent(vote.agent_id)
        if vote.agent_id in seen:
            raise ValueError(f"duplicate vote from agent {vote.agent_id!r}")
        seen.add(vote.agent_id)
        if agent.active:
            weights.append(agent.weight * agent.confidence)
            forgets.append(vote.vote is Vote.FORGET)
    return forget_sum(weights, forgets)


def decide(s_m: float, q: float) -> Vote:
    """Forget iff S_m >= Q; the boundary is inclusive."""
    return Vote.FORGET if s_m >= q else Vote.KEEP
