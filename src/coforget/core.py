"""Shared domain types, protocol configuration, and the flat config file format.

Everything in here is an immutable value type; the rest of the package builds
on these without adding shared mutable state.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Collection, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Vote",
    "FaultKind",
    "FaultProfile",
    "MemoryRecord",
    "AgentProfile",
    "ProtocolConfig",
    "ConfigError",
    "InvalidQuorumFraction",
    "FaultBoundViolation",
    "WeightSumViolation",
    "LengthMismatch",
    "validate_config",
    "validate_roster",
    "config_violations",
    "parse_config_text",
    "spec_from_items",
    "make_embedding",
]

# Unit-sum checks (decay weights, score weights) use this tolerance.
WEIGHT_SUM_TOL = 1e-9


def _is_integer(value: object) -> bool:
    """True for a Python or numpy integer; a bool is a flag, not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Vote(enum.Enum):
    """A binary retention vote."""

    KEEP = "keep"
    FORGET = "forget"

    def inverted(self) -> "Vote":
        return Vote.FORGET if self is Vote.KEEP else Vote.KEEP


class FaultKind(enum.Enum):
    """Byzantine behavior classes for fault injection."""

    HONEST = "honest"
    SILENT_HALF = "silent_half"
    EQUIVOCATE_HALF = "equivocate_half"


@dataclass(frozen=True)
class FaultProfile:
    """Per-agent fault behavior: a kind plus the seed for its round coins.

    silent_half suppresses the agent's outbound messages in 50% of consensus
    rounds; equivocate_half inverts the agent's wire vote in 50% of rounds.
    The transport layer draws an agent's coins per epoch, one per round.
    """

    kind: FaultKind = FaultKind.HONEST
    coin_seed: int = 0

    def __post_init__(self) -> None:
        # resolve_behavior compares kinds by identity, so a string such as
        # "honest" would fall through to equivocation.
        if not isinstance(self.kind, FaultKind):
            raise TypeError(f"fault kind must be a FaultKind, got {self.kind!r}")
        # The coins' numpy seed takes only non-negative integers.
        if not _is_integer(self.coin_seed) or self.coin_seed < 0:
            raise ValueError(f"coin_seed must be an integer >= 0, got {self.coin_seed!r}")


_FLOAT64 = np.dtype(np.float64)


def make_embedding(values: Iterable[float]) -> np.ndarray:
    """Build a read-only, contiguous, finite float64 vector, the canonical embedding form (kept as is if already).

    A NaN or inf component would score relevance 1.0, so that memory could never be forgotten.
    Contiguity keeps a dot product on one summation path, so a norm computed
    as sqrt(v.dot(v)) equals np.linalg.norm's to the bit.
    """
    if (
        type(values) is np.ndarray
        and values.dtype is _FLOAT64
        and not values.flags.writeable
        and values.flags.c_contiguous
    ):
        arr = values
    else:
        arr = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=np.float64)
        arr.flags.writeable = False
    if arr.ndim != 1:
        raise ValueError(f"embedding must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("embedding must be finite, got a NaN or infinite component")
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class MemoryRecord:
    """One shared memory item.

    Equality and hashing are by id: a store never holds two records with the
    same id, and an updated record (new t_last) still denotes the same memory.
    """

    id: str
    embedding: np.ndarray
    agent_id: str
    t_last: float
    salience: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("memory id must be nonempty")
        if not 0.0 <= self.t_last < math.inf:
            raise ValueError(f"t_last must be finite and >= 0, got {self.t_last}")
        if not 0.0 <= self.salience <= 1.0:
            raise ValueError(f"salience must be in [0, 1], got {self.salience}")
        object.__setattr__(self, "embedding", make_embedding(self.embedding))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryRecord):
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)


@dataclass(frozen=True)
class AgentProfile:
    """A voting agent: role weight, reliability confidence, liveness, fault mode."""

    agent_id: str
    weight: float = 1.0
    confidence: float = 1.0
    active: bool = True
    fault: FaultProfile = field(default_factory=FaultProfile)

    def __post_init__(self) -> None:
        if not self.agent_id:
            raise ValueError("agent_id must be nonempty")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be finite and > 0, got {self.weight}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


class ConfigError(ValueError):
    """A protocol configuration constraint is violated."""


class InvalidQuorumFraction(ConfigError):
    """alpha outside (0.5, 1]."""


class FaultBoundViolation(ConfigError):
    """f is no integer ≥ 0, the roster size N lies outside 3f+1 ≤ N ≤ 4f+1, under 2f+1 are active, or an id repeats.

    Below 3f+1, f faults can block or split a quorum. Above 4f+1, two honest
    observers can decide differently, because a COMMIT carries its sender's
    own vote and two 2f+1 commit quorums for different votes need only 4f+2
    senders. With under 2f+1 active agents no commit quorum ever forms.
    """


class WeightSumViolation(ConfigError):
    """A weight vector fails its unit-sum or range constraint."""


class LengthMismatch(ConfigError):
    """decay_scales and decay_weights differ in length (or are empty)."""


@dataclass(frozen=True)
class ProtocolConfig:
    """All tunables of one protocol run. Defaults reproduce the reference setup."""

    f: int = 1
    alpha: float = 2.0 / 3.0
    decay_scales: tuple[float, ...] = (10.0, 60.0, 3600.0)
    decay_weights: tuple[float, ...] = (0.2, 0.3, 0.5)
    omega_d: float = 0.4
    omega_r: float = 0.6
    vote_threshold: float = 0.4
    epoch_interactions: int = 100
    cache_capacity: int = 100
    batch_size: int = 50
    batch_interval_s: float = 10.0

    def __post_init__(self) -> None:
        # Normalize list-ish inputs to tuples so the config stays hashable; a
        # bare number, as a one-value config line parses, is a 1-tuple.
        for key in ("decay_scales", "decay_weights"):
            value = getattr(self, key)
            values = (value,) if isinstance(value, (int, float)) else value
            object.__setattr__(self, key, tuple(float(v) for v in values))


def config_violations(cfg: ProtocolConfig, rejected: Collection[str] = ()) -> list[tuple[type[ConfigError], str]]:
    """All violated constraints of `cfg` but the fault bound, in declaration order.

    A check that compares two fields is skipped when either is in `rejected`, keys a config file gave
    ill-typed: the default standing in for such a key would report a problem the file does not have.
    """
    out: list[tuple[type[ConfigError], str]] = []
    if not 0.5 < cfg.alpha <= 1.0:
        out.append((InvalidQuorumFraction, f"alpha must lie in (0.5, 1], got {cfg.alpha}"))
    if {"decay_scales", "decay_weights"}.isdisjoint(rejected) and (
        len(cfg.decay_scales) != len(cfg.decay_weights) or len(cfg.decay_scales) == 0
    ):
        lengths = f"{len(cfg.decay_scales)} and {len(cfg.decay_weights)}"
        out.append((LengthMismatch, f"decay_scales and decay_weights must be same nonempty length, got {lengths}"))
    if any(not 0 < s < math.inf for s in cfg.decay_scales):
        out.append((ConfigError, f"decay_scales must be positive and finite, got {cfg.decay_scales}"))
    if any(not 0.0 <= g <= 1.0 for g in cfg.decay_weights):
        out.append((WeightSumViolation, f"each decay weight must lie in [0, 1], got {cfg.decay_weights}"))
    elif cfg.decay_weights and abs(math.fsum(cfg.decay_weights) - 1.0) > WEIGHT_SUM_TOL:
        out.append((WeightSumViolation, f"decay weights must sum to 1, got {math.fsum(cfg.decay_weights)!r}"))
    if {"omega_d", "omega_r"}.isdisjoint(rejected) and (
        not 0.0 <= cfg.omega_d <= 1.0 or not 0.0 <= cfg.omega_r <= 1.0
        or abs(cfg.omega_d + cfg.omega_r - 1.0) > WEIGHT_SUM_TOL
    ):
        out.append((WeightSumViolation, f"omega_d + omega_r must equal 1, got {cfg.omega_d} + {cfg.omega_r}"))
    if not 0.0 < cfg.vote_threshold < 1.0:
        out.append((ConfigError, f"vote_threshold must lie in (0, 1), got {cfg.vote_threshold}"))
    for key in ("epoch_interactions", "cache_capacity", "batch_size"):
        count = getattr(cfg, key)
        if not _is_integer(count):
            out.append((ConfigError, f"{key} must be an integer, got {count!r}"))
        elif count < 1:
            out.append((ConfigError, f"{key} must be >= 1, got {count}"))
    if not 0 < cfg.batch_interval_s < math.inf:
        out.append((ConfigError, f"batch_interval_s must be > 0 and finite, got {cfg.batch_interval_s}"))
    return out


def validate_config(cfg: ProtocolConfig) -> ProtocolConfig:
    """Return `cfg` unchanged iff config_violations finds nothing; raise on the first violation."""
    violations = config_violations(cfg)
    if violations:
        err_cls, message = violations[0]
        raise err_cls(message)
    return cfg


def validate_roster(cfg: ProtocolConfig, agents: Sequence[AgentProfile]) -> None:
    """Raise FaultBoundViolation unless f is an integer ≥ 0, 3f+1 ≤ N ≤ 4f+1, 2f+1 are active and ids are distinct.

    N is the roster's size, inactive agents included. Ids are not network
    addresses (a round addresses nodes by position), but votes, fault
    behaviours and the audit are keyed by id, so ids must be distinct.
    """
    if not _is_integer(cfg.f):
        raise FaultBoundViolation(f"f must be an integer, got {cfg.f!r}")
    if cfg.f < 0:
        raise FaultBoundViolation(f"f must be >= 0, got {cfg.f}")
    n = len(agents)
    if n < 3 * cfg.f + 1:
        raise FaultBoundViolation(f"N ≥ 3f+1 violated: N={n}, f={cfg.f}")
    if n > 4 * cfg.f + 1:
        raise FaultBoundViolation(
            f"N ≤ 4f+1 violated: N={n}, f={cfg.f}; with more agents two 2f+1 commit "
            f"quorums can back different votes and observers can disagree"
        )
    active = sum(agent.active for agent in agents)
    if active < 2 * cfg.f + 1:
        raise FaultBoundViolation(f"{active} active agents cannot form a 2f+1 commit quorum: f={cfg.f}")
    seen: set[str] = set()
    for agent in agents:
        if agent.agent_id in seen:
            raise FaultBoundViolation(f"agent id {agent.agent_id!r} appears more than once in the roster")
        seen.add(agent.agent_id)


# --- flat config file format -------------------------------------------------
#
# One `key = value` pair per line; blank lines and `#` comments are ignored.
# Values: int, float, fraction (2/3), comma list (10, 60), integer range
# (10..20), else a bare string. Keys are namespaced by prefix: bare keys
# configure the protocol, `workload.` and `network.` feed those specs.


def _parse_scalar(raw: str) -> Any:
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            pass
    return text


def _parse_value(raw: str) -> Any:
    text = raw.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return (int(lo), int(hi))
        except ValueError:
            pass
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(","))
    return _parse_scalar(text)


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse the flat key = value format into a mapping with coerced values."""
    items: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        items[key] = _parse_value(raw)
    return items


def _typed_items(cls: type, items: Mapping[str, Any], namespace: str = "") -> tuple[dict[str, Any], list[str]]:
    """Split parsed items into those the config dataclass `cls` can take and one problem line per other key.

    Unknown keys share one line. An int field takes only an int and a float field only a finite number
    (element by element in a tuple field), so a value that would break a run never reaches it.
    """
    types = {fld.name: str(fld.type) for fld in fields(cls)}
    unknown = [namespace + key for key in sorted(set(items) - set(types))]
    problems = [f"unknown config keys: {', '.join(unknown)}"] if unknown else []
    typed: dict[str, Any] = {}
    for key, value in items.items():
        if key not in types:
            continue
        integral = "int" in types[key]
        elements = value if types[key].startswith("tuple") and isinstance(value, tuple) else (value,)
        if any(isinstance(v, bool) or not isinstance(v, int if integral else (int, float)) for v in elements):
            problems.append(f"{namespace}{key} must be {'an integer' if integral else 'a number'}, got {value!r}")
        elif any(isinstance(v, float) and not math.isfinite(v) for v in elements):
            problems.append(f"{namespace}{key} must be finite, got {value!r}")
        else:
            typed[key] = value
    return typed, problems


def spec_from_items(cls: type, items: Mapping[str, Any], namespace: str = "") -> Any:
    """Build the config dataclass `cls` from parsed items, or raise one ConfigError listing every problem.

    The class's own checks judge the well-typed keys; their TypeError or ValueError adds its lines. Keys
    in the class's `judged_together` set all keep their defaults when one of them is rejected.
    """
    typed, problems = _typed_items(cls, items, namespace)
    together = getattr(cls, "judged_together", frozenset())
    if not together.isdisjoint(items.keys() - typed.keys()):
        typed = {key: value for key, value in typed.items() if key not in together}
    try:
        spec = cls(**typed)
    except (TypeError, ValueError) as exc:
        problems.append(str(exc))
    if problems:
        raise ConfigError("\n".join(problems))
    return spec
