"""Deterministic simulated network, fault-coin resolution, and the framed codec.

The network owns the consensus rounds' randomness and their virtual clock. It
draws one drop uniform and one latency uniform for every message a round
could send, whether or not the round sends it, in a fixed layout from a numpy
Generator seeded with NetworkConfig.seed, so a whole run's rounds are a pure
function of the proposal sequence and the seed. It holds no queue: the round
engine computes each round in closed form from its draws (consensus module).
Fault coins come from a per-(coin seed, epoch) stream, one coin per round.
The codec defines the binary frame format of the in-process transport.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar, Sequence

import numpy as np

from .consensus import _BEHAVIOR_CODE, _CONSENSUS_KINDS, DEFAULT_COORDINATOR_ID, Behavior, MessageKind, PbftMessage
from .core import FaultKind, FaultProfile, Vote, _is_integer

__all__ = [
    "NetworkConfig",
    "resolve_behavior",
    "SimulatedNetwork",
    "Frame",
    "CodecError",
    "TruncatedFrame",
    "UnknownMessageKind",
    "OversizeFrame",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "encode",
    "decode",
    "CoordinatorEndpoint",
    "propose_forgetting",
]


# --- simulated network --------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    """Latency band (milliseconds), drop probability, and the RNG seed."""

    latency_min_ms: float = 1.0
    latency_max_ms: float = 5.0
    drop_prob: float = 0.0
    seed: int = 0
    # One check judges both bounds, so spec_from_items defaults both when a file gives either ill-typed.
    judged_together: ClassVar[frozenset[str]] = frozenset({"latency_min_ms", "latency_max_ms"})

    def __post_init__(self) -> None:
        problems = []
        # numpy's SeedSequence takes only non-negative integer seeds.
        if not _is_integer(self.seed):
            problems.append(f"seed must be an integer, got {self.seed!r}")
        elif self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        else:
            object.__setattr__(self, "seed", int(self.seed))
        if not 0.0 <= self.latency_min_ms <= self.latency_max_ms < math.inf:
            problems.append(f"latency band invalid: [{self.latency_min_ms}, {self.latency_max_ms}]")
        if not 0.0 <= self.drop_prob <= 1.0:
            problems.append(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if problems:
            raise ValueError("\n".join(problems))


class SimulatedNetwork:
    """Seeded drops and latencies for consensus rounds, and the virtual clock they advance.

    `clock` is the run's network time in seconds; `delivered` and `dropped`
    count the messages rounds sent that arrived and that were lost. The round
    engine advances all three.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.clock = 0.0
        self.delivered = 0
        self.dropped = 0

    def draw(self, rounds: int, agents: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw every potential message of `rounds` rounds with `agents` active agents, in one call.

        Returns (kept, latency_s), each of shape (rounds, 2 * agents + 1,
        agents). Row 0 is the coordinator's EVALUATE to each agent; row 1 + k
        is agent k's PREPARE and row 1 + agents + k its COMMIT, each to every
        other node in position order (the coordinator first). Per round the
        stream gives all drop uniforms in that layout, then all latency
        uniforms: a message is lost if its drop uniform is below drop_prob,
        and takes latency_min_ms + (latency_max_ms - latency_min_ms) * u
        milliseconds. Rounds consume the stream one after another, so drawing
        rounds one call at a time or many per call gives the same draws.
        """
        u = self._rng.random((rounds, 2, 2 * agents + 1, agents))
        cfg = self.config
        kept = u[:, 0] >= cfg.drop_prob
        latency_s = (cfg.latency_min_ms + (cfg.latency_max_ms - cfg.latency_min_ms) * u[:, 1]) / 1000.0
        return kept, latency_s


def resolve_behavior(fault: FaultProfile, epoch: int, rounds: int) -> np.ndarray:
    """Flip one agent's fault coins for an epoch's `rounds` consensus rounds, in round order.

    Returns one behavior code per round, a Behavior's position in
    list(Behavior): 0 honest, 1 silent, 2 equivocate. A faulty agent draws
    all its coins in one call from np.random.default_rng((coin_seed, epoch)),
    and a uniform below 0.5 turns the round faulty, so the schedule is
    reproducible and independent of delivery order. An honest agent draws
    nothing.
    """
    if fault.kind is FaultKind.HONEST:
        return np.zeros(rounds, dtype=np.int8)
    behavior = Behavior.SILENT if fault.kind is FaultKind.SILENT_HALF else Behavior.EQUIVOCATE
    coins = np.random.default_rng((fault.coin_seed, epoch)).random(rounds) < 0.5
    return coins.astype(np.int8) * np.int8(_BEHAVIOR_CODE[behavior])


# --- framed codec --------------------------------------------------------------
#
# Frame layout, all integers big-endian:
#   [u32 frame_length excluding itself]
#   [u8  kind: a MessageKind value]
#   [u64 epoch]
#   [u16 sender_len][sender UTF-8]
#   [u16 id_count] then per id: [u16 len][id UTF-8]
#   [u8  vote: 0=keep, 1=forget, 2=absent]
#   [u16 sig_len][signature bytes, may be empty]

MAX_FRAME_BYTES = 64 * 1024

_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")
_HEAD = struct.Struct("!BQ")  # kind, epoch
# Body bytes besides the sender, the ids and the signature: kind and epoch,
# sender length, id count, vote, signature length.
_FIXED_BODY = _HEAD.size + 2 + 2 + 1 + 2


class CodecError(ValueError):
    """Base class for every frame decoding/encoding failure."""


class TruncatedFrame(CodecError):
    """The byte sequence ends before the frame does."""


class UnknownMessageKind(CodecError):
    """The kind byte names no MessageKind, or decode got a frame that is not a consensus message."""


class OversizeFrame(CodecError):
    """Frame body exceeds the 64 KiB limit."""


_VOTE_TO_BYTE = {Vote.KEEP: 0, Vote.FORGET: 1, None: 2}
_BYTE_TO_VOTE = {code: vote for vote, code in _VOTE_TO_BYTE.items()}


@dataclass(frozen=True)
class Frame:
    """Decoded wire frame; PROPOSE/PROPOSE_ACK carry many ids, consensus kinds one."""

    kind: MessageKind
    epoch: int
    sender: str
    memory_ids: tuple[str, ...]
    vote: Vote | None = None
    signature: bytes = b""


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame; raises OversizeFrame past the 64 KiB body limit."""
    if not 0 <= frame.epoch < 2**64:
        raise CodecError(f"epoch out of u64 range: {frame.epoch}")
    sender = frame.sender.encode("utf-8")
    ids = [mid.encode("utf-8") for mid in frame.memory_ids]
    body_len = _FIXED_BODY + len(sender) + sum(2 + len(b) for b in ids) + len(frame.signature)
    if body_len > MAX_FRAME_BYTES:
        raise OversizeFrame(f"frame body {body_len} bytes exceeds {MAX_FRAME_BYTES}")
    parts = [
        _U32.pack(body_len),
        _HEAD.pack(int(frame.kind), frame.epoch),
        _U16.pack(len(sender)),
        sender,
        _U16.pack(len(ids)),
    ]
    for raw in ids:
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    parts.append(bytes([_VOTE_TO_BYTE[frame.vote]]))
    parts.append(_U16.pack(len(frame.signature)))
    parts.append(frame.signature)
    return b"".join(parts)


def _truncated(size: int, need: int) -> TruncatedFrame:
    """The error for a field that runs past the frame; both offsets count from the frame's start."""
    return TruncatedFrame(f"frame body ends at {size - 4} bytes but field needs {need - 4}")


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one complete frame of any MessageKind.

    Malformed input always raises a CodecError subclass: TruncatedFrame for
    short or over-declared input, UnknownMessageKind for a bad kind byte,
    OversizeFrame for bodies past the limit. Fields are read in frame order
    by offset, each bounds-checked before it is read, so the first bad field
    decides the error.
    """
    size = len(data)
    if size < 4:
        raise TruncatedFrame(f"need 4 length bytes, got {size}")
    (body_len,) = _U32.unpack_from(data)
    if body_len > MAX_FRAME_BYTES:
        raise OversizeFrame(f"declared body {body_len} bytes exceeds {MAX_FRAME_BYTES}")
    if size - 4 < body_len:
        raise TruncatedFrame(f"declared body {body_len} bytes, got {size - 4}")
    if size - 4 > body_len:
        raise CodecError(f"{size - 4 - body_len} trailing bytes after frame")
    pos = 4 + _HEAD.size
    if pos > size:
        raise _truncated(size, pos)
    kind_byte, epoch = _HEAD.unpack_from(data, 4)
    try:
        kind = MessageKind(kind_byte)
    except ValueError as exc:
        raise UnknownMessageKind(f"unknown frame kind byte {kind_byte:#04x}") from exc
    u16 = _U16.unpack_from
    memory_ids: list[str] = []
    try:
        # The sender, the id count, then the ids; each text is [u16 len][UTF-8].
        start = pos + 2
        if start > size:
            raise _truncated(size, start)
        pos = start + u16(data, pos)[0]
        if pos > size:
            raise _truncated(size, pos)
        sender = data[start:pos].decode("utf-8")
        start = pos + 2
        if start > size:
            raise _truncated(size, start)
        (id_count,) = u16(data, pos)
        pos = start
        for _ in range(id_count):
            start = pos + 2
            if start > size:
                raise _truncated(size, start)
            pos = start + u16(data, pos)[0]
            if pos > size:
                raise _truncated(size, pos)
            memory_ids.append(data[start:pos].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in frame field: {exc}") from exc
    if pos + 1 > size:
        raise _truncated(size, pos + 1)
    vote_byte = data[pos]
    if vote_byte not in _BYTE_TO_VOTE:
        raise CodecError(f"unknown vote code {vote_byte}")
    start = pos + 3
    if start > size:
        raise _truncated(size, start)
    pos = start + u16(data, pos + 1)[0]
    if pos > size:
        raise _truncated(size, pos)
    if pos < size:
        raise CodecError(f"{size - pos} unparsed bytes inside declared frame body")
    return Frame(
        kind=kind,
        epoch=epoch,
        sender=sender,
        memory_ids=tuple(memory_ids),
        vote=_BYTE_TO_VOTE[vote_byte],
        signature=data[start:pos],
    )


def encode(msg: PbftMessage) -> bytes:
    """Serialize a consensus message to its one-id wire frame."""
    return encode_frame(Frame(msg.kind, msg.epoch, msg.sender, (msg.memory_id,), msg.vote, msg.signature))


def decode(data: bytes) -> PbftMessage:
    """Parse a consensus message; a PROPOSE or PROPOSE_ACK frame raises UnknownMessageKind.

    A frame with other than one id, or one that PbftMessage rejects, raises CodecError.
    """
    frame = decode_frame(data)
    if frame.kind not in _CONSENSUS_KINDS:
        raise UnknownMessageKind(f"frame kind {frame.kind.name} is not a consensus message")
    if len(frame.memory_ids) != 1:
        raise CodecError(f"consensus frames carry exactly one memory id, got {len(frame.memory_ids)}")
    try:
        return PbftMessage(frame.kind, frame.epoch, frame.memory_ids[0], frame.sender, frame.vote, frame.signature)
    except ValueError as exc:
        raise CodecError(str(exc)) from exc


# --- proposal RPC ---------------------------------------------------------------


class CoordinatorEndpoint:
    """In-process coordinator side of the forgetting-proposal RPC.

    Logs each PROPOSE frame in `received` as (sender, ids as sent), repeats
    included, and replies as DEFAULT_COORDINATOR_ID with a PROPOSE_ACK that
    carries no ids. The log is the epoch's proposal record.
    """

    def __init__(self) -> None:
        self.received: list[tuple[str, tuple[str, ...]]] = []

    def handle_frame(self, data: bytes) -> bytes:
        frame = decode_frame(data)
        if frame.kind is not MessageKind.PROPOSE:
            raise CodecError(f"endpoint expects PROPOSE, got {frame.kind.name}")
        self.received.append((frame.sender, frame.memory_ids))
        return encode_frame(Frame(MessageKind.PROPOSE_ACK, frame.epoch, DEFAULT_COORDINATOR_ID, ()))


def propose_forgetting(
    memory_ids: Sequence[str],
    agent_id: str,
    endpoint: CoordinatorEndpoint,
    epoch: int = 0,
) -> None:
    """Send one agent's forget proposals to `endpoint`, which logs them in `received`.

    The ids go out in order over as many PROPOSE frames as keep each body
    within MAX_FRAME_BYTES; each frame must be answered by a PROPOSE_ACK.
    """
    if not memory_ids:
        raise ValueError("memory id list must be non-empty")
    room = MAX_FRAME_BYTES - _FIXED_BODY - len(agent_id.encode("utf-8"))
    # Greedy split: a frame takes ids while their [u16 len][UTF-8] bytes fit
    # in `room`, and at least one. With cost[i] the bytes of ids 0..i and
    # `sent` those of the ids before `start`, a frame ends at the first later
    # id whose cost passes sent + room.
    cost = list(accumulate(map((2).__add__, map(len, map(str.encode, memory_ids)))))
    start = sent = 0
    while start < len(cost):
        end = bisect_right(cost, sent + room, start + 1)
        request = encode_frame(
            Frame(kind=MessageKind.PROPOSE, epoch=epoch, sender=agent_id, memory_ids=tuple(memory_ids[start:end]))
        )
        response = decode_frame(endpoint.handle_frame(request))
        if response.kind is not MessageKind.PROPOSE_ACK:
            raise CodecError(f"expected PROPOSE_ACK, got {response.kind.name}")
        start, sent = end, cost[end - 1]
