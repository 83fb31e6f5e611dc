"""Self-time arithmetic of the span tracer."""

from __future__ import annotations

import itertools

import numpy as np

import coforget
import coforget.decay
import coforget.store
import coforget.epoch
from coforget.core import MemoryRecord
from coforget.store import MemoryStore, WriteBuffer
from spans import Tracer, public_callables


class FakeClock:
    """Time moves only when a test function says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_self_times():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(4.0)

    def inner():
        clock.advance(2.0)
        leaf()

    def outer():
        clock.advance(1.0)
        inner()
        leaf()
        clock.advance(8.0)

    leaf = tracer.wrap("leaf", leaf)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()

    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].total_s, stats["leaf"].self_s) == (2, 8.0, 8.0)
    assert (stats["inner"].total_s, stats["inner"].self_s) == (6.0, 2.0)
    assert (stats["outer"].total_s, stats["outer"].self_s) == (19.0, 9.0)
    assert sum(s.self_s for s in stats.values()) == stats["outer"].total_s


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(3.0)
        raise KeyError("boom")

    def caller():
        clock.advance(1.0)
        try:
            failing()
        except KeyError:
            pass

    failing = tracer.wrap("failing", failing)
    caller = tracer.wrap("caller", caller)
    caller()
    assert tracer.stats["failing"].total_s == 3.0
    assert tracer.stats["caller"].self_s == 1.0


def test_generator_work_is_charged_to_the_generator():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce():
        for item in range(3):
            clock.advance(5.0)
            yield item

    def consume():
        clock.advance(1.0)
        return list(produce())

    produce = tracer.wrap("produce", produce)
    consume = tracer.wrap("consume", consume)
    assert consume() == [0, 1, 2]
    assert tracer.stats["produce"].total_s == 15.0
    assert tracer.stats["consume"].self_s == 1.0


def _store(n: int) -> MemoryStore:
    store = MemoryStore(4, batch_size=1000)
    for i in range(n):
        store.put(MemoryRecord(f"m{i}", np.ones(4), "planner-1", float(i), 0.5), float(i))
    return store


def test_scan_t_last_is_consumed_inside_its_span():
    # Every id scan_t_last yields costs one WriteBuffer.get. Those spans must
    # nest under scan_t_last, not under the caller that iterates the result.
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    store = _store(5)
    expected = dict(store.scan_t_last())
    originals = {"scan": MemoryStore.scan_t_last, "get": WriteBuffer.get}
    try:
        tracer.install(
            {},
            {
                "store.MemoryStore.scan_t_last": (MemoryStore, "scan_t_last"),
                "store.WriteBuffer.get": (WriteBuffer, "get"),
            },
        )
        consume = tracer.wrap("epoch.consume", lambda s: dict(s.scan_t_last()))
        assert consume(store) == expected
    finally:
        MemoryStore.scan_t_last = originals["scan"]
        WriteBuffer.get = originals["get"]

    scan = tracer.stats["store.MemoryStore.scan_t_last"]
    get = tracer.stats["store.WriteBuffer.get"]
    caller = tracer.stats["epoch.consume"]
    assert get.calls == 5
    assert scan.total_s - scan.self_s == get.total_s
    assert caller.total_s - caller.self_s == scan.total_s


def test_install_rebinds_imported_names():
    tracer = Tracer()
    modules = {"coforget": coforget, "decay": coforget.decay, "epoch": coforget.epoch}
    original = coforget.decay.decay_score
    targets = public_callables("decay", coforget.decay)
    assert set(targets) == {"decay.decay_score"}
    try:
        tracer.install(modules, targets)
        assert coforget.epoch.decay_score is coforget.decay.decay_score is coforget.decay_score
        assert coforget.epoch.decay_score is not original
        coforget.epoch.decay_score(0.0, 5.0, coforget.ProtocolConfig())
        assert tracer.stats["decay.decay_score"].calls == 1
    finally:
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if getattr(value, "__wrapped__", None) is original:
                    setattr(module, key, original)
    assert coforget.epoch.decay_score is original


def test_public_callables_lists_methods_not_private_helpers():
    targets = public_callables("store", coforget.store)
    assert "store.MemoryStore.get" in targets
    assert "store.MemoryStore.scan_t_last" in targets
    assert not any(name.split(".")[-1].startswith("_") for name in targets)
    assert "store.MemoryStore.from_config" not in targets
