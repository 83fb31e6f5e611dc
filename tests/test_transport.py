"""Simulated network determinism, fault coins, the wire codec, and the RPC paths."""

from __future__ import annotations

import math
import random
import struct
import uuid

import pytest

from coforget.consensus import MessageKind, Behavior, PbftMessage
from coforget.core import ConfigError, FaultKind, FaultProfile, Vote, spec_from_items
from coforget.transport import (
    MAX_FRAME_BYTES,
    CodecError,
    CoordinatorEndpoint,
    Frame,
    NetworkConfig,
    OversizeFrame,
    SimulatedNetwork,
    TruncatedFrame,
    UnknownMessageKind,
    decode,
    decode_frame,
    encode,
    encode_frame,
    propose_forgetting,
    resolve_behavior,
)


def msg(epoch: int = 0, sender: str = "a", vote: Vote = Vote.KEEP) -> PbftMessage:
    return PbftMessage(MessageKind.PREPARE, epoch, "m", sender, vote=vote)


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        cfg = NetworkConfig()
        assert cfg.latency_min_ms == 1.0
        assert cfg.latency_max_ms == 5.0
        assert cfg.drop_prob == 0.0

    def test_inverted_latency_band_rejected(self):
        with pytest.raises(ValueError, match="latency band"):
            NetworkConfig(latency_min_ms=5.0, latency_max_ms=1.0)

    @pytest.mark.parametrize(
        "band",
        [
            {"latency_min_ms": -1.0},
            {"latency_min_ms": math.nan},
            {"latency_max_ms": math.nan},
            {"latency_max_ms": math.inf},
            {"latency_min_ms": math.inf, "latency_max_ms": math.inf},
        ],
    )
    def test_negative_or_non_finite_latency_rejected(self, band):
        # An infinite latency made every epoch's elapsed_virtual_s NaN.
        with pytest.raises(ValueError, match="latency band"):
            NetworkConfig(**band)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_drop_prob_bounds(self, p):
        with pytest.raises(ValueError, match="drop_prob"):
            NetworkConfig(drop_prob=p)

    def test_from_items_builds(self):
        cfg = spec_from_items(NetworkConfig, {"drop_prob": 0.1, "seed": 7}, "network.")
        assert cfg.drop_prob == 0.1
        assert cfg.seed == 7

    def test_from_items_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="jitter"):
            spec_from_items(NetworkConfig, {"jitter": 1.0}, "network.")

    def test_from_items_wraps_value_errors(self):
        with pytest.raises(ConfigError):
            spec_from_items(NetworkConfig, {"drop_prob": 2.0}, "network.")


class TestSimulatedNetwork:
    def trace(self, seed: int, drop_prob: float) -> tuple[list, int]:
        net = SimulatedNetwork(NetworkConfig(drop_prob=drop_prob, seed=seed))
        for i in range(40):
            net.broadcast(msg(epoch=i), "abc"[i % 3], ("abc"[(i + 1) % 3],))
        out = []
        while (event := net.poll()) is not None:
            out.append((event.msg.epoch, event.sender, event.dest, event.time_s))
        return out, net.dropped

    def test_identical_seeds_produce_identical_traces(self):
        first = self.trace(seed=11, drop_prob=0.2)
        second = self.trace(seed=11, drop_prob=0.2)
        assert first == second

    def test_different_seeds_diverge(self):
        assert self.trace(seed=1, drop_prob=0.0) != self.trace(seed=2, drop_prob=0.0)

    def test_full_loss_drops_everything(self):
        net = SimulatedNetwork(NetworkConfig(drop_prob=1.0, seed=0))
        for i in range(10):
            net.broadcast(msg(epoch=i), "a", ("b",))
            assert net.dropped == i + 1 and net.pending() == 0
        assert net.dropped == 10
        assert net.pending() == 0
        assert net.poll() is None

    def test_lossless_constant_latency_is_fifo(self):
        cfg = NetworkConfig(latency_min_ms=3.0, latency_max_ms=3.0, drop_prob=0.0, seed=0)
        net = SimulatedNetwork(cfg)
        for i in range(20):
            net.broadcast(msg(epoch=i), "a", ("b",))
            assert net.pending() == i + 1 and net.dropped == 0
        epochs = []
        while (event := net.poll()) is not None:
            assert net.clock == event.time_s == pytest.approx(0.003)
            epochs.append(event.msg.epoch)
        assert epochs == list(range(20))

    def test_latency_stays_in_band(self):
        cfg = NetworkConfig(latency_min_ms=2.0, latency_max_ms=7.0, drop_prob=0.0, seed=3)
        net = SimulatedNetwork(cfg)
        for i in range(100):
            sent_s = net.clock
            net.broadcast(msg(epoch=i), "a", ("b",))
            event = net.poll()
            assert sent_s + 0.002 <= event.time_s <= sent_s + 0.007
        assert net.clock > 100 * 0.002

    def test_poll_advances_the_clock(self):
        net = SimulatedNetwork(NetworkConfig(drop_prob=0.0, seed=5))
        net.broadcast(msg(), "a", ("b",))
        event = net.poll()
        assert net.clock == event.time_s > 0.0

    def test_a_message_to_its_own_sender_is_not_special(self):
        # It draws a drop like any other message, and a kept one a latency.
        lossy = SimulatedNetwork(NetworkConfig(drop_prob=1.0, seed=0))
        lossy.broadcast(msg(), "a", ("a",))
        assert lossy.pending() == 0
        assert lossy.dropped == 1
        fixed = SimulatedNetwork(NetworkConfig(latency_min_ms=2.0, latency_max_ms=2.0, drop_prob=0.0))
        fixed.broadcast(msg(), "a", ("a",))
        assert fixed.pending() == 1 and fixed.dropped == 0
        assert fixed.poll().time_s == pytest.approx(0.002)

    def test_drain_reports_and_clears(self):
        net = SimulatedNetwork(NetworkConfig(drop_prob=0.0, seed=0))
        for i in range(7):
            net.broadcast(msg(epoch=i), "a", ("b",))
        assert net.drain() == 7
        assert net.pending() == 0
        assert net.poll() is None

    def test_counters_are_consistent(self):
        net = SimulatedNetwork(NetworkConfig(drop_prob=0.3, seed=9))
        for i in range(200):
            net.broadcast(msg(epoch=i), "a", ("b",))
        scheduled = net.pending()
        times = []
        while (event := net.poll()) is not None:
            times.append(event.time_s)
            assert net.clock == event.time_s
        assert times == sorted(times)
        assert net.delivered == scheduled == len(times)
        assert net.dropped == 200 - scheduled


class TestResolveBehavior:
    def test_honest_fault_is_always_honest(self):
        fault = FaultProfile(FaultKind.HONEST, coin_seed=3)
        assert all(resolve_behavior(fault, e, f"m{e}") is Behavior.HONEST for e in range(50))

    def test_coin_matches_seeded_oracle(self):
        fault = FaultProfile(FaultKind.SILENT_HALF, coin_seed=42)
        for epoch in range(100):
            mid = f"mem-{epoch}"
            coin = random.Random(f"42:{epoch}:{mid}").random() < 0.5
            expected = Behavior.SILENT if coin else Behavior.HONEST
            assert resolve_behavior(fault, epoch, mid) is expected

    def test_coin_is_deterministic_across_calls(self):
        fault = FaultProfile(FaultKind.EQUIVOCATE_HALF, coin_seed=7)
        first = [resolve_behavior(fault, 3, f"m{i}") for i in range(30)]
        second = [resolve_behavior(fault, 3, f"m{i}") for i in range(30)]
        assert first == second

    def test_silent_half_frequency_near_half(self):
        fault = FaultProfile(FaultKind.SILENT_HALF, coin_seed=0)
        hits = sum(
            resolve_behavior(fault, 0, f"mem-{i}") is Behavior.SILENT for i in range(10_000)
        )
        assert 0.48 <= hits / 10_000 <= 0.52

    def test_fault_kinds_share_the_same_coin(self):
        silent = FaultProfile(FaultKind.SILENT_HALF, coin_seed=5)
        equiv = FaultProfile(FaultKind.EQUIVOCATE_HALF, coin_seed=5)
        for i in range(100):
            a = resolve_behavior(silent, 2, f"m{i}") is Behavior.SILENT
            b = resolve_behavior(equiv, 2, f"m{i}") is Behavior.EQUIVOCATE
            assert a == b

    def test_coin_varies_with_epoch_and_memory(self):
        fault = FaultProfile(FaultKind.SILENT_HALF, coin_seed=0)
        by_epoch = {resolve_behavior(fault, e, "m") for e in range(50)}
        by_memory = {resolve_behavior(fault, 0, f"m{i}") for i in range(50)}
        assert by_epoch == {Behavior.SILENT, Behavior.HONEST}
        assert by_memory == {Behavior.SILENT, Behavior.HONEST}


class TestCodecRoundTrip:
    def test_prepare_round_trip(self):
        original = PbftMessage(MessageKind.PREPARE, 3, "m1", "a2", vote=Vote.FORGET)
        assert decode(encode(original)) == original

    def test_evaluate_round_trip_without_vote(self):
        original = PbftMessage(MessageKind.EVALUATE, 0, "m", "coordinator")
        decoded = decode(encode(original))
        assert decoded == original
        assert decoded.vote is None

    def test_commit_round_trip_with_signature(self):
        original = PbftMessage(
            MessageKind.COMMIT, 2**40, "mem/42", "percept-1", vote=Vote.KEEP, signature=b"\x00\xffsig"
        )
        assert decode(encode(original)) == original

    def test_unicode_fields_round_trip(self):
        original = PbftMessage(MessageKind.PREPARE, 1, "mémoire-β", "agent-η", vote=Vote.KEEP)
        assert decode(encode(original)) == original

    def test_propose_frame_round_trip_many_ids(self):
        frame = Frame(MessageKind.PROPOSE, 9, "planner-1", ("a", "b", "c"), signature=b"s")
        assert decode_frame(encode_frame(frame)) == frame

    def test_propose_ack_round_trip_zero_ids(self):
        frame = Frame(MessageKind.PROPOSE_ACK, 0, "coordinator", ())
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_every_kind_round_trips_with_its_value_as_kind_byte(self, kind):
        frame = Frame(kind, 1, "a", ("m",), vote=Vote.FORGET)
        raw = encode_frame(frame)
        assert raw[4] == int(kind)
        assert decode_frame(raw) == frame

    def test_fuzzed_valid_frames_round_trip(self):
        rng = random.Random(777)
        alphabet = "abc-xyz0189 µλ"
        for _ in range(2000):
            kind = MessageKind(rng.randrange(5))
            n_ids = rng.randrange(4) if kind in (MessageKind.PROPOSE, MessageKind.PROPOSE_ACK) else 1
            frame = Frame(
                kind=kind,
                epoch=rng.randrange(2**64),
                sender="".join(rng.choices(alphabet, k=rng.randrange(1, 12))),
                memory_ids=tuple(
                    "".join(rng.choices(alphabet, k=rng.randrange(1, 20))) for _ in range(n_ids)
                ),
                vote=rng.choice([Vote.KEEP, Vote.FORGET, None]),
                signature=rng.randbytes(rng.randrange(16)),
            )
            assert decode_frame(encode_frame(frame)) == frame


class TestCodecErrors:
    VALID = encode(PbftMessage(MessageKind.PREPARE, 3, "m1", "ab", vote=Vote.FORGET))

    def test_empty_input_truncated(self):
        with pytest.raises(TruncatedFrame):
            decode_frame(b"")

    def test_every_strict_prefix_is_truncated(self):
        for cut in range(len(self.VALID)):
            with pytest.raises(TruncatedFrame):
                decode_frame(self.VALID[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_frame(self.VALID + b"xx")

    def test_unknown_kind_byte(self):
        corrupted = self.VALID[:4] + b"\xff" + self.VALID[5:]
        with pytest.raises(UnknownMessageKind, match="0xff"):
            decode_frame(corrupted)

    def test_unknown_vote_byte(self):
        # Layout with an empty signature ends [vote][u16 sig_len=0].
        corrupted = self.VALID[:-3] + b"\x07" + self.VALID[-2:]
        with pytest.raises(CodecError, match="vote code"):
            decode_frame(corrupted)

    def test_invalid_utf8_sender(self):
        # Sender "ab" sits right after the u16 length at offset 15.
        assert self.VALID[15:17] == b"ab"
        corrupted = self.VALID[:15] + b"\xff\xfe" + self.VALID[17:]
        with pytest.raises(CodecError, match="utf-8"):
            decode_frame(corrupted)

    def test_overdeclared_length_is_truncated(self):
        (body_len,) = struct.unpack("!I", self.VALID[:4])
        lying = struct.pack("!I", body_len + 5) + self.VALID[4:]
        with pytest.raises(TruncatedFrame):
            decode_frame(lying)

    def test_underdeclared_length_leaves_trailing(self):
        (body_len,) = struct.unpack("!I", self.VALID[:4])
        lying = struct.pack("!I", body_len - 1) + self.VALID[4:]
        with pytest.raises(CodecError):
            decode_frame(lying)

    def test_oversize_declared_body(self):
        with pytest.raises(OversizeFrame):
            decode_frame(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"\x00" * 16)

    def test_oversize_encode(self):
        frame = Frame(MessageKind.PROPOSE, 0, "a", ("x" * (MAX_FRAME_BYTES + 1),))
        with pytest.raises(OversizeFrame):
            encode_frame(frame)

    @pytest.mark.parametrize("epoch", [-1, 2**64])
    def test_epoch_out_of_u64_range(self, epoch):
        frame = Frame(MessageKind.PREPARE, epoch, "a", ("m",), vote=Vote.KEEP)
        with pytest.raises(CodecError, match="epoch"):
            encode_frame(frame)

    def test_decode_rejects_propose_as_consensus(self):
        raw = encode_frame(Frame(MessageKind.PROPOSE, 0, "a", ("m",)))
        with pytest.raises(UnknownMessageKind, match="PROPOSE"):
            decode(raw)

    def test_decode_rejects_propose_ack_as_consensus(self):
        raw = encode_frame(Frame(MessageKind.PROPOSE_ACK, 0, "coordinator", ("m",)))
        with pytest.raises(UnknownMessageKind, match="PROPOSE_ACK"):
            decode(raw)

    @pytest.mark.parametrize("kind", [MessageKind.PROPOSE, MessageKind.PROPOSE_ACK])
    def test_pbft_message_rejects_rpc_kinds(self, kind):
        with pytest.raises(ValueError, match="not a consensus message"):
            PbftMessage(kind, 0, "m", "a", vote=Vote.KEEP)

    def test_consensus_frame_with_many_ids_rejected(self):
        frame = Frame(MessageKind.PREPARE, 0, "a", ("m1", "m2"), vote=Vote.KEEP)
        with pytest.raises(CodecError, match="exactly one"):
            decode(encode_frame(frame))

    def test_evaluate_with_vote_rejected(self):
        raw = encode_frame(Frame(MessageKind.EVALUATE, 0, "a", ("m",), vote=Vote.KEEP))
        with pytest.raises(CodecError):
            decode(raw)

    def test_prepare_without_vote_rejected(self):
        raw = encode_frame(Frame(MessageKind.PREPARE, 0, "a", ("m",), vote=None))
        with pytest.raises(CodecError, match="carry a vote"):
            decode(raw)

    def test_random_corruption_never_escapes_codec_errors(self):
        rng = random.Random(31337)
        base = bytearray(self.VALID)
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode_frame(bytes(mutated))
            except CodecError:
                pass  # Any codec failure is acceptable; other exceptions are not.


class TestProposalRpc:
    def test_acks_in_submission_order(self):
        endpoint = CoordinatorEndpoint()
        acked = propose_forgetting(["m3", "m1", "m2"], "planner-1", endpoint, epoch=4)
        assert acked == ["m3", "m1", "m2"]
        assert endpoint.received == [("planner-1", ("m3", "m1", "m2"))]

    def test_duplicates_acknowledged_once(self):
        ids = ["a", "b", "a", "c", "b"]
        acked = propose_forgetting(ids, "x", CoordinatorEndpoint())
        assert acked == list(dict.fromkeys(ids))

    def test_empty_proposal_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            propose_forgetting([], "x", CoordinatorEndpoint())

    def test_list_larger_than_one_frame_is_split(self):
        rng = random.Random(5)
        ids = [str(uuid.UUID(int=rng.getrandbits(128))) for _ in range(3000)]
        with pytest.raises(OversizeFrame):
            encode_frame(Frame(MessageKind.PROPOSE, 0, "planner-1", tuple(ids)))

        class RecordingEndpoint(CoordinatorEndpoint):
            def __init__(self):
                super().__init__()
                self.body_sizes = []

            def handle_frame(self, data):
                self.body_sizes.append(len(data) - 4)
                return super().handle_frame(data)

        endpoint = RecordingEndpoint()
        assert propose_forgetting(ids, "planner-1", endpoint) == ids
        assert len(endpoint.body_sizes) > 1
        assert max(endpoint.body_sizes) <= MAX_FRAME_BYTES
        sent = [mid for _, acked in endpoint.received for mid in acked]
        assert sent == ids

        # An id that reappears in a later frame is acknowledged once.
        endpoint = RecordingEndpoint()
        assert propose_forgetting(ids + ids[:1], "planner-1", endpoint) == ids
        assert endpoint.received[-1][1][-1] == ids[0]

    def test_endpoint_rejects_non_propose_frames(self):
        endpoint = CoordinatorEndpoint()
        raw = encode(PbftMessage(MessageKind.PREPARE, 0, "m", "a", vote=Vote.KEEP))
        with pytest.raises(CodecError, match="PROPOSE"):
            endpoint.handle_frame(raw)

