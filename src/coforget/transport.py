"""Deterministic simulated network, fault-coin resolution, and the framed codec.

The network delivers messages in timestamp order with seeded-uniform latency
and seeded drops, so a whole run's delivery trace is a pure function of the
submission sequence and the seed. The codec defines the binary frame format
of the in-process transport.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import ClassVar, NamedTuple, Sequence

from .consensus import _CONSENSUS_KINDS, DEFAULT_COORDINATOR_ID, Behavior, MessageKind, PbftMessage
from .core import FaultKind, FaultProfile, Vote

__all__ = [
    "NetworkConfig",
    "resolve_behavior",
    "Delivery",
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
        if not 0.0 <= self.latency_min_ms <= self.latency_max_ms < math.inf:
            problems.append(f"latency band invalid: [{self.latency_min_ms}, {self.latency_max_ms}]")
        if not 0.0 <= self.drop_prob <= 1.0:
            problems.append(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if problems:
            raise ValueError("\n".join(problems))


class Delivery(NamedTuple):
    """One scheduled message and the virtual instant it arrives.

    The network's heap holds these tuples directly, so they order by
    (time_s, sender, seq); seq is unique per sender, so no two compare equal.
    Polling a delivery moves the network's clock to its time_s.
    """

    time_s: float
    sender: str
    seq: int
    dest: str
    msg: object


_new_delivery = tuple.__new__  # builds a Delivery without its Python-level __new__


class SimulatedNetwork:
    """Single-owner event queue with seeded latency and drops.

    Delivery order is (timestamp, sender, per-sender sequence): deterministic
    for a fixed seed and submission sequence. Any string is an address. Every
    message, one addressed to its own sender included, draws a drop and, if
    kept, a latency.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self._rng = random.Random(self.config.seed)
        self._heap: list[Delivery] = []
        self._seq: dict[str, int] = {}
        self.clock = 0.0
        self.delivered = 0
        self.dropped = 0

    def broadcast(self, msg: object, sender: str, dests: Sequence[str]) -> None:
        """Send one message to each destination in order.

        Per destination the sender's sequence number is bumped, then one
        random() draw decides a drop (counted in `dropped`) and a kept message
        draws its latency uniformly from the band.
        """
        heap = self._heap
        draw = self._rng.random
        drop_prob = self.config.drop_prob
        # Random.uniform(lo, hi) is lo + (hi - lo) * random(); inlined, same floats.
        lo = self.config.latency_min_ms
        width = self.config.latency_max_ms - lo
        clock = self.clock
        seq = self._seq.get(sender, 0)
        for dest in dests:
            seq += 1
            if draw() < drop_prob:
                self.dropped += 1
                continue
            latency_s = (lo + width * draw()) / 1000.0
            heappush(heap, _new_delivery(Delivery, (clock + latency_s, sender, seq, dest, msg)))
        self._seq[sender] = seq

    def poll(self) -> Delivery | None:
        """Deliver the next scheduled message, advancing the virtual clock."""
        if not self._heap:
            return None
        delivery = heappop(self._heap)
        self.clock = delivery.time_s
        self.delivered += 1
        return delivery

    def pending(self) -> int:
        return len(self._heap)

    def drain(self) -> int:
        """Discard anything still queued; returns how many messages were dropped."""
        n = len(self._heap)
        self._heap.clear()
        return n


def resolve_behavior(fault: FaultProfile, epoch: int, memory_id: str) -> Behavior:
    """Flip the per-round fault coin for one agent and one consensus round.

    Coins are seeded from (coin_seed, epoch, memory_id) so the schedule is
    reproducible and independent of delivery order.
    """
    if fault.kind is FaultKind.HONEST:
        return Behavior.HONEST
    coin = random.Random(f"{fault.coin_seed}:{epoch}:{memory_id}").random() < 0.5
    if fault.kind is FaultKind.SILENT_HALF:
        return Behavior.SILENT if coin else Behavior.HONEST
    return Behavior.EQUIVOCATE if coin else Behavior.HONEST


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


class _Cursor:
    """Bounds-checked reader over one frame body."""

    def __init__(self, body: bytes):
        self._body = body
        self._pos = 0

    def take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._body):
            raise TruncatedFrame(
                f"frame body ends at {len(self._body)} bytes but field needs {end}"
            )
        chunk = self._body[self._pos : end]
        self._pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def text(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in frame field: {exc}") from exc

    def leftover(self) -> int:
        return len(self._body) - self._pos


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one complete frame of any MessageKind.

    Malformed input always raises a CodecError subclass: TruncatedFrame for
    short or over-declared input, UnknownMessageKind for a bad kind byte,
    OversizeFrame for bodies past the limit.
    """
    if len(data) < 4:
        raise TruncatedFrame(f"need 4 length bytes, got {len(data)}")
    (body_len,) = _U32.unpack(data[:4])
    if body_len > MAX_FRAME_BYTES:
        raise OversizeFrame(f"declared body {body_len} bytes exceeds {MAX_FRAME_BYTES}")
    if len(data) - 4 < body_len:
        raise TruncatedFrame(f"declared body {body_len} bytes, got {len(data) - 4}")
    if len(data) - 4 > body_len:
        raise CodecError(f"{len(data) - 4 - body_len} trailing bytes after frame")
    cur = _Cursor(data[4:])
    kind_byte, epoch = _HEAD.unpack(cur.take(_HEAD.size))
    try:
        kind = MessageKind(kind_byte)
    except ValueError as exc:
        raise UnknownMessageKind(f"unknown frame kind byte {kind_byte:#04x}") from exc
    sender = cur.text()
    id_count = cur.u16()
    memory_ids = tuple(cur.text() for _ in range(id_count))
    vote_byte = cur.take(1)[0]
    if vote_byte not in _BYTE_TO_VOTE:
        raise CodecError(f"unknown vote code {vote_byte}")
    signature = cur.take(cur.u16())
    if cur.leftover():
        raise CodecError(f"{cur.leftover()} unparsed bytes inside declared frame body")
    return Frame(
        kind=kind,
        epoch=epoch,
        sender=sender,
        memory_ids=memory_ids,
        vote=_BYTE_TO_VOTE[vote_byte],
        signature=signature,
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

    Receives PROPOSE frames, records who proposed what, and acknowledges the
    order-preserving deduplicated id list as DEFAULT_COORDINATOR_ID.
    """

    def __init__(self) -> None:
        self.received: list[tuple[str, tuple[str, ...]]] = []

    def handle_frame(self, data: bytes) -> bytes:
        frame = decode_frame(data)
        if frame.kind is not MessageKind.PROPOSE:
            raise CodecError(f"endpoint expects PROPOSE, got {frame.kind.name}")
        acked = tuple(dict.fromkeys(frame.memory_ids))
        self.received.append((frame.sender, acked))
        return encode_frame(
            Frame(kind=MessageKind.PROPOSE_ACK, epoch=frame.epoch, sender=DEFAULT_COORDINATOR_ID, memory_ids=acked)
        )


def propose_forgetting(
    memory_ids: Sequence[str],
    agent_id: str,
    endpoint: CoordinatorEndpoint,
    epoch: int = 0,
) -> list[str]:
    """Send one agent's forget proposals; returns the acknowledged ids in order.

    The ids go out in order over as many PROPOSE frames as keep each body
    within MAX_FRAME_BYTES. An id repeated in the list, within one frame or
    across frames, is acknowledged once.
    """
    if not memory_ids:
        raise ValueError("memory id list must be non-empty")
    room = MAX_FRAME_BYTES - _FIXED_BODY - len(agent_id.encode("utf-8"))
    chunks: list[list[str]] = [[]]
    used = 0
    for memory_id in memory_ids:
        cost = 2 + len(memory_id.encode("utf-8"))
        if chunks[-1] and used + cost > room:
            chunks.append([])
            used = 0
        chunks[-1].append(memory_id)
        used += cost
    acked: dict[str, None] = {}
    for chunk in chunks:
        request = encode_frame(
            Frame(kind=MessageKind.PROPOSE, epoch=epoch, sender=agent_id, memory_ids=tuple(chunk))
        )
        response = decode_frame(endpoint.handle_frame(request))
        if response.kind is not MessageKind.PROPOSE_ACK:
            raise CodecError(f"expected PROPOSE_ACK, got {response.kind.name}")
        acked.update(dict.fromkeys(response.memory_ids))
    return list(acked)
