"""Store behavior: index accounting, snapshot format, LRU accounting, batched flushes.

Cache and buffer interplay is checked against straight-line reference models:
an OrderedDict LRU for the cache and a flush-every-write twin store for final
state equivalence.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from coforget.core import MemoryRecord
from coforget.relevance import DimensionMismatch
from coforget.store import MemoryStore, MetadataTable, VectorIndex


def record(memory_id: str = "m1", dim: int = 4, **kwargs) -> MemoryRecord:
    defaults = dict(
        id=memory_id,
        embedding=np.ones(dim),
        agent_id="a1",
        t_last=0.0,
        salience=0.5,
    )
    defaults.update(kwargs)
    return MemoryRecord(**defaults)


def store(dim: int = 4, **kwargs) -> MemoryStore:
    defaults = dict(cache_capacity=4, batch_size=3, batch_interval_s=10.0)
    defaults.update(kwargs)
    return MemoryStore(dim, **defaults)


class TestVectorIndex:
    def test_upsert_fetch_delete(self):
        index = VectorIndex(3)
        a, b = record("a", embedding=[1.0, 0.0, 0.0]), record("b", embedding=[0.0, 1.0, 0.0])
        index.upsert([a, b])
        assert index.fetch("a") is a.embedding  # stored as is: no copy, no re-check
        assert index.fetch("b") is b.embedding
        assert index.fetch("ghost") is None
        index.delete(["a", "ghost"])
        assert index.fetch("a") is None
        assert index.fetch("b") is not None

    def test_upsert_replaces_in_place(self):
        index = VectorIndex(2)
        index.upsert([record("a", embedding=[1.0, 0.0])])
        index.upsert([record("a", embedding=[0.0, 1.0])])
        np.testing.assert_array_equal(index.fetch("a"), [0.0, 1.0])

    def test_dimension_mismatch_rejected_before_staging(self):
        index = VectorIndex(3)
        with pytest.raises(DimensionMismatch):
            index.upsert([record("a", dim=3), record("b", dim=2)])
        # The batch is atomic: the valid row must not have landed either.
        assert index.fetch("a") is None
        assert index.upsert_calls == 0

    def test_upsert_call_accounting(self):
        index = VectorIndex(2)
        index.upsert([record("a", dim=2), record("b", dim=2)])
        index.upsert([record("c", dim=2)])
        index.upsert([])  # empty batches are free
        assert index.upsert_calls == 2

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            VectorIndex(0)


class TestMetadataTable:
    def test_update_get_delete(self):
        table = MetadataTable()
        table.update({"a": ("agent", 1.5, 0.25)})
        assert table.rows["a"] == ("agent", 1.5, 0.25)
        table.delete(["a", "ghost"])
        assert "a" not in table.rows

    def test_snapshot_format(self, tmp_path):
        table = MetadataTable()
        table.update({"m1": ("a1", 12.3456789, 0.5), "m,2": ("a2", 0.0, 0.125)})
        path = tmp_path / "snapshot.csv"
        table.write_snapshot(path)
        raw = path.read_bytes()
        assert b"\r\n" in raw  # RFC 4180 line endings
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == "id,agent_id,timestamp,salience"
        assert '"m,2"' in text  # minimal quoting kicks in for the comma
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 2
        byid = {row["id"]: row for row in rows}
        assert byid["m1"]["timestamp"] == "12.345679"  # fixed six decimals
        assert byid["m1"]["salience"] == "0.5"  # repr round-trips exactly
        assert float(byid["m,2"]["salience"]) == 0.125

    def test_snapshot_rewrites_not_appends(self, tmp_path):
        table = MetadataTable()
        table.update({"a": ("x", 0.0, 0.1)})
        path = tmp_path / "snap.csv"
        table.write_snapshot(path)
        table.delete(["a"])
        table.write_snapshot(path)
        assert path.read_text().strip() == "id,agent_id,timestamp,salience"


class TestMemoryStoreReads:
    def test_read_your_own_write_before_flush(self):
        st = store(batch_size=100)
        st.put(record("m1", t_last=5.0), now=0.0)
        assert st.index.fetch("m1") is None  # not flushed yet
        got = st.get("m1", now=0.0)
        assert got is not None and got.id == "m1"

    def test_cache_hit_refreshes_t_last_and_rebuffers(self):
        st = store(batch_size=100)
        st.put(record("m1", t_last=1.0), now=1.0)
        st.commit(now=1.0)
        got = st.get("m1", now=7.5)
        assert got.t_last == 7.5
        assert list(st.buffer.pending) == ["m1"]
        assert st.table.rows["m1"][1] == 1.0  # the flushed copy lags the pending write
        st.commit(now=7.5)
        assert st.table.rows["m1"][1] == 7.5
        assert st.hits == 1 and st.misses == 0

    def test_access_updates_accounting_only(self):
        st = store(cache_capacity=1, batch_size=100)
        first = record("m1", t_last=1.0)
        st.put(first, now=1.0)
        st.put(record("m2", t_last=2.0), now=2.0)  # evicts m1
        st.access(["m1", "m1", "m2", "ghost"], now=9.0)  # miss, hit, miss, unknown
        assert (st.hits, st.misses) == (1, 3)
        assert st.scan_t_last() == [("m1", 9.0), ("m2", 2.0)]
        assert list(st.buffer.pending) == ["m1", "m2"]
        assert st._live["m1"] is first  # no record was built

    def test_reads_leave_the_put_record_in_place(self):
        # t_last lives only in the store's column: a fresh record is built
        # when it has moved, and the put record is never replaced.
        st = store(cache_capacity=1, batch_size=100)
        first = record("m1", t_last=1.0)
        st.put(first, now=1.0)
        st.put(record("m2"), now=1.0)  # evicts m1
        assert st.get("m1", now=5.0) is first  # a miss leaves t_last alone
        fresh = st.get("m1", now=6.0)
        assert fresh is not first and fresh.t_last == 6.0
        assert (fresh.id, fresh.agent_id, fresh.salience) == (first.id, first.agent_id, first.salience)
        assert fresh.embedding is first.embedding
        assert st.record("m1").t_last == 6.0
        assert st._live["m1"] is first and first.t_last == 1.0
        st.commit(now=6.0)
        assert st.table.rows["m1"][1] == 6.0

    @pytest.mark.parametrize("now", [-1.0, math.inf, math.nan])
    def test_access_checks_now_once_per_call(self, now):
        st = store()
        st.put(record("m1"), now=0.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            st.access(["ghost", "m1"], now)
        assert (st.hits, st.misses) == (0, 0)
        with pytest.raises(ValueError):
            st.access([], now)

    def test_cold_miss_reconstructs_without_refreshing_t_last(self):
        st = store(cache_capacity=1, batch_size=1)
        st.put(record("m1", t_last=3.0), now=0.0)  # flushes immediately
        st.put(record("m2", t_last=4.0), now=0.0)  # evicts m1 from the tiny cache
        got = st.get("m1", now=50.0)
        assert got.t_last == 3.0  # reconstruction is not an access refresh
        assert st.misses == 1

    def test_absent_id_is_counted_and_logged(self, caplog):
        st = store()
        st.put(record("m1"), now=0.0)
        with caplog.at_level(logging.ERROR, logger="coforget.store"):
            assert st.get("ghost", now=0.0) is None
        assert st.misses == 1
        assert any("ghost" in r.getMessage() for r in caplog.records)
        # A failed lookup must not disturb the cache.
        assert list(st._cache) == ["m1"]

    def test_buffer_fallback_counts_as_miss(self):
        st = store(cache_capacity=1, batch_size=100)
        st.put(record("m1"), now=0.0)
        st.put(record("m2"), now=0.0)  # m1 evicted from cache, still buffered
        assert st.get("m1", now=0.0) is not None
        assert st.misses == 1

    def test_hits_plus_misses_equals_gets(self):
        st = store(cache_capacity=3, batch_size=5)
        rng = random.Random(0)
        ids = [f"m{i}" for i in range(10)]
        for mid in ids:
            st.put(record(mid), now=0.0)
        n = 200
        for _ in range(n):
            st.get(rng.choice(ids), now=0.0)
        assert st.hits + st.misses == n

    def test_lru_eviction_order(self):
        st = store(cache_capacity=2, batch_size=100)
        st.put(record("a"), now=0.0)
        st.put(record("b"), now=0.0)
        st.get("a", now=0.0)  # a becomes most recent
        st.put(record("c"), now=0.0)  # evicts b
        st.get("b", now=0.0)
        assert st.hits == 1 and st.misses == 1


class TestMemoryStoreWrites:
    def test_put_rejects_wrong_dimension(self):
        st = store(dim=4)
        with pytest.raises(DimensionMismatch):
            st.put(record(dim=5), now=0.0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_flush_interval_that_is_not_finite_and_positive(self, interval):
        # With a NaN interval no time flush would ever fire.
        with pytest.raises(ValueError, match="batch_interval_s"):
            store(batch_interval_s=interval)

    @pytest.mark.parametrize("now", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("method", ["put", "commit"])
    def test_put_and_commit_reject_a_clock_that_is_not_finite_and_non_negative(self, method, now):
        # A NaN clock would stick in last_flush, after which no time flush fires.
        st = store(batch_size=100)
        st.put(record("m1"), now=5.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            if method == "put":
                st.put(record("m2"), now=now)
            else:
                st.commit(now)
        assert st.count() == 1
        assert st.buffer.last_flush == 0.0
        assert st.buffer.pending == {"m1": None}

    def test_flush_stores_the_put_embedding_as_is(self):
        st = store(batch_size=2)
        first, second = record("m1"), record("m2", embedding=[1.0, 2.0, 3.0, 4.0])
        st.put(first, now=0.0)
        st.put(second, now=0.0)  # a full batch flushes both
        assert st.index.fetch("m1") is first.embedding
        assert st.index.fetch("m2") is second.embedding

    def test_batch_size_triggers_exactly_one_flush(self):
        st = store(batch_size=50, cache_capacity=100)
        for i in range(50):
            st.put(record(f"m{i}"), now=0.0)
        assert st.size_flushes == 1
        assert st.index.upsert_calls == 1
        assert all(st.index.fetch(f"m{i}") is not None for i in range(50))
        assert st.buffer.pending == {}

    def test_below_batch_size_never_flushes(self):
        st = store(batch_size=50, cache_capacity=100)
        for i in range(49):
            st.put(record(f"m{i}"), now=0.0)
        assert st.size_flushes == 0
        assert all(st.index.fetch(f"m{i}") is None for i in range(49))

    def test_time_trigger_is_strictly_greater(self):
        st = store(batch_size=100, batch_interval_s=10.0)
        st.put(record("m1"), now=10.0)  # elapsed == interval: no flush
        assert st.time_flushes == 0
        st.put(record("m2"), now=10.0 + 1e-9)
        assert st.time_flushes == 1
        assert st.buffer.pending == {}

    def test_commit_forces_pending_and_counts(self):
        st = store(batch_size=100)
        st.put(record("m1"), now=0.0)
        st.commit(now=1.0)
        assert st.forced_flushes == 1
        assert st.table.rows.keys() == {"m1"}
        assert st.buffer.pending == {}
        assert st.buffer.last_flush == 1.0
        # A commit with nothing pending still advances the flush clock.
        st.commit(now=2.0)
        assert st.forced_flushes == 1
        assert st.table.rows.keys() == {"m1"}
        assert st.buffer.pending == {}
        assert st.buffer.last_flush == 2.0

    def test_commit_writes_snapshot_when_configured(self, tmp_path):
        path = tmp_path / "meta.csv"
        st = store(snapshot_path=path)
        st.put(record("m1"), now=0.0)
        st.commit(now=0.0)
        assert path.exists()
        assert "m1" in path.read_text()

    def test_every_commit_rewrites_the_snapshot(self, tmp_path):
        path = tmp_path / "meta.csv"
        st = store(snapshot_path=path)
        st.put(record("m1"), now=0.0)
        st.put(record("m2"), now=0.0)
        st.commit(now=1.0)
        assert [line.split(",")[0] for line in path.read_text().splitlines()] == ["id", "m1", "m2"]
        st.delete(["m1"])
        st.commit(now=2.0)
        assert [line.split(",")[0] for line in path.read_text().splitlines()] == ["id", "m2"]

    def test_snapshot_rows_are_streamed_to_the_file(self, tmp_path):
        # Rows go to the file one at a time; a list of every formatted row
        # would peak at several times the file's size.
        table = MetadataTable()
        table.update({f"mem-{i:05d}": ("agent-a", float(i), 0.5) for i in range(40000)})
        path = tmp_path / "meta.csv"
        tracemalloc.start()
        try:
            table.write_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_commit_without_snapshot_path_writes_nothing(self, tmp_path):
        st = store()
        st.put(record("m1"), now=0.0)
        st.commit(now=0.0)
        assert list(tmp_path.iterdir()) == []


class TestMemoryStoreDelete:
    def test_delete_purges_everywhere(self):
        st = store(batch_size=1)
        st.put(record("m1"), now=0.0)  # flushed to index+table
        st.put(record("m2"), now=0.0)
        assert st.delete(["m1"]) == 1
        assert st.get("m1", now=0.0) is None
        assert st.index.fetch("m1") is None
        assert "m1" not in st.table.rows
        assert st.count() == 1

    def test_unknown_delete_counted_not_raised(self):
        st = store()
        assert st.delete(["ghost"]) == 0
        assert st.unknown_deletes == 1

    def test_buffered_write_cannot_resurrect_deleted_record(self):
        st = store(batch_size=2)
        st.put(record("m1"), now=0.0)  # pending only
        st.delete(["m1"])
        st.put(record("m2"), now=0.0)
        st.commit(now=0.0)
        assert st.ids() == ("m2",)
        assert st.index.fetch("m1") is None

    def test_index_sees_only_flushed_state(self):
        st = store(dim=2, batch_size=100)
        st.put(record("m1", dim=2, embedding=np.array([1.0, 0.0])), now=0.0)
        assert st.index.fetch("m1") is None
        st.commit(now=0.0)
        np.testing.assert_array_equal(st.index.fetch("m1"), [1.0, 0.0])


class TestScanAndSnapshot:
    def test_scan_prefers_buffer_over_table(self):
        st = store(batch_size=1)
        st.put(record("m1", t_last=1.0), now=0.0)  # flushed: table says 1.0
        st.get("m1", now=9.0)  # hit refreshes and re-buffers at 9.0
        assert dict(st.scan_t_last()) == {"m1": 9.0}
        st.commit(now=9.0)
        assert dict(st.scan_t_last()) == {"m1": 9.0}

    def test_scan_follows_insertion_order(self):
        st = store(cache_capacity=100, batch_size=100)
        for mid in ("c", "a", "b"):
            st.put(record(mid), now=0.0)
        assert [mid for mid, _ in st.scan_t_last()] == ["c", "a", "b"]
        assert st.ids() == ("c", "a", "b")

    def test_record_of_a_deleted_id_is_none(self):
        st = store(batch_size=2)
        st.put(record("m1", t_last=1.0), now=0.0)
        st.put(record("m2", t_last=2.0), now=0.0)
        st.delete(["m1"])
        assert st.record("m1") is None
        assert st.record("m2").t_last == 2.0


class TestReferenceModels:
    def test_cache_decisions_match_lru_oracle(self):
        # Replay a random get/put stream against a hand-rolled LRU and demand
        # identical hit/miss classification at every step.
        capacity = 8
        st = store(cache_capacity=capacity, batch_size=10_000, batch_interval_s=1e9)
        oracle: OrderedDict[str, None] = OrderedDict()
        rng = random.Random(42)
        ids = [f"m{i}" for i in range(30)]
        hits = misses = 0
        for step in range(3000):
            mid = rng.choice(ids)
            if rng.random() < 0.3:
                st.put(record(mid), now=float(step))
                oracle[mid] = None
                oracle.move_to_end(mid)
                while len(oracle) > capacity:
                    oracle.popitem(last=False)
            else:
                expect_hit = mid in oracle
                known = mid in st.ids()
                got = st.get(mid, now=float(step))
                if expect_hit:
                    hits += 1
                    assert got is not None
                else:
                    misses += 1
                    assert (got is not None) == known
                if got is not None:
                    oracle[mid] = None
                    oracle.move_to_end(mid)
                    while len(oracle) > capacity:
                        oracle.popitem(last=False)
                assert (st.hits, st.misses) == (hits, misses)

    def test_final_state_matches_flush_every_write_twin(self):
        # The batched store must land on exactly the state of a twin that
        # commits after every operation, modulo write batching itself.
        batched = store(cache_capacity=16, batch_size=7, batch_interval_s=5.0)
        eager = store(cache_capacity=16, batch_size=1, batch_interval_s=5.0)
        rng = random.Random(99)
        ids = [f"m{i}" for i in range(40)]
        now = 0.0
        for _ in range(800):
            now += rng.random()
            mid = rng.choice(ids)
            action = rng.random()
            if action < 0.5:
                rec = record(mid, t_last=now, salience=rng.random())
                batched.put(rec, now)
                eager.put(rec, now)
            elif action < 0.8:
                a = batched.get(mid, now)
                b = eager.get(mid, now)
                assert (a is None) == (b is None)
            else:
                assert batched.delete([mid]) == eager.delete([mid])
        batched.commit(now)
        eager.commit(now)
        assert batched.ids() == eager.ids()
        assert batched.table.rows == eager.table.rows
        for mid in batched.ids():
            np.testing.assert_array_equal(batched.index.fetch(mid), eager.index.fetch(mid))
        # Batching must actually economize on index writes.
        assert batched.index.upsert_calls < eager.index.upsert_calls


# Ids and agent ids that need CSV quoting ride along with plain ones.
PROPERTY_IDS = ("m1", "m,2", 'q"x', "m4", "m5")
PROPERTY_OP = hst.one_of(
    hst.tuples(
        hst.just("put"),
        hst.sampled_from(PROPERTY_IDS),
        hst.floats(0.0, 1e6),
        hst.floats(0.0, 1.0),
        hst.sampled_from(("a1", "a,2")),
    ),
    hst.tuples(hst.just("get"), hst.sampled_from(PROPERTY_IDS)),
    # One accounting call over 1 to 4 ids, some never put.
    hst.tuples(
        hst.just("access"),
        hst.lists(hst.sampled_from((*PROPERTY_IDS, "ghost")), min_size=1, max_size=4),
    ),
    hst.tuples(hst.just("delete"), hst.sampled_from(PROPERTY_IDS)),
    hst.tuples(hst.just("commit")),
)
# At least 20 ops per example, so that batches fill and flush.
PROPERTY_OPS = hst.lists(PROPERTY_OP, min_size=20, max_size=60)


FLUSH_DTS = hst.one_of(hst.sampled_from((0.0, 0.5, 1.0, 2.5, 5.0)), hst.floats(0.0, 8.0))


def fields(rec: MemoryRecord | None) -> tuple | None:
    if rec is None:
        return None
    return rec.agent_id, rec.t_last, rec.salience, tuple(rec.embedding)


def full_snapshot(rows: dict[str, tuple[str, float, float]]) -> bytes:
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["id", "agent_id", "timestamp", "salience"])
    for memory_id, (agent_id, timestamp, salience) in rows.items():
        writer.writerow([memory_id, agent_id, f"{timestamp:.6f}", repr(salience)])
    return handle.getvalue().encode("utf-8")


class TestStoreProperties:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=PROPERTY_OPS, dts=hst.lists(hst.floats(0.0, 8.0), min_size=60, max_size=60))
    def test_scan_and_snapshot_match_reference(self, tmp_path_factory, ops, dts):
        # Reference: each live id's (agent_id, t_last, salience, embedding) in
        # insertion order, and an LRU of capacity 2 that decides which reads
        # move t_last.
        path = tmp_path_factory.mktemp("snap") / "metadata.csv"
        st = store(cache_capacity=2, batch_size=3, batch_interval_s=5.0, snapshot_path=path)
        model: dict[str, tuple] = {}
        lru: OrderedDict[str, None] = OrderedDict()

        def cache(memory_id: str) -> bool:
            hit = memory_id in lru
            lru[memory_id] = None
            lru.move_to_end(memory_id)
            while len(lru) > 2:
                lru.popitem(last=False)
            return hit

        def read(memory_id: str, now: float) -> None:
            if memory_id in model and cache(memory_id):
                agent_id, _, salience, embedding = model[memory_id]
                model[memory_id] = (agent_id, now, salience, embedding)

        now = 0.0
        for op, dt in zip(ops, dts):
            now += dt
            if op[0] == "put":
                _, memory_id, t_last, salience, agent_id = op
                embedding = np.full(4, 1.0 + salience)
                st.put(
                    record(memory_id, embedding=embedding, t_last=t_last, salience=salience, agent_id=agent_id),
                    now,
                )
                model[memory_id] = (agent_id, t_last, salience, tuple(embedding))
                cache(memory_id)
            elif op[0] == "get":
                read(op[1], now)
                assert fields(st.get(op[1], now)) == model.get(op[1])
            elif op[0] == "access":
                for memory_id in op[1]:
                    read(memory_id, now)
                st.access(op[1], now)
            elif op[0] == "delete":
                if st.delete([op[1]]):
                    del model[op[1]]
                    lru.pop(op[1], None)
            else:
                st.commit(now)
                assert path.read_bytes() == full_snapshot(st.table.rows)
                assert list(st.table.rows) == list(model)
            # The flushed copy lags the model only in the pending ids.
            for memory_id, (agent_id, t_last, salience, embedding) in model.items():
                if memory_id not in st.buffer.pending:
                    assert st.table.rows[memory_id] == (agent_id, t_last, salience)
                    assert tuple(st.index.fetch(memory_id)) == embedding
            assert set(st.table.rows) <= set(model)
            assert [(mid, fields(st.record(mid))) for mid in st.ids()] == list(model.items())
            assert st.scan_t_last() == [(memory_id, row[1]) for memory_id, row in model.items()]
            assert st.ids() == tuple(model)
            assert st.count() == len(model)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=PROPERTY_OPS, dts=hst.lists(FLUSH_DTS, min_size=60, max_size=60))
    def test_flushes_and_cache_match_reference(self, ops, dts):
        # Reference write path: an LRU of capacity 2, the pending ids in order,
        # and the flush rules (full batch first, then elapsed interval; commit
        # forces whatever is pending). At least 20 ops, and short or exact
        # steps, let batches fill and land on the interval boundary. A twin
        # store makes each access op's reads as gets, one at a time.
        st = store(cache_capacity=2, batch_size=3, batch_interval_s=5.0)
        twin = store(cache_capacity=2, batch_size=3, batch_interval_s=5.0)
        live: set[str] = set()
        lru: OrderedDict[str, None] = OrderedDict()
        pending: dict[str, None] = {}
        counts = dict(size=0, time=0, forced=0, upserts=0, hits=0, misses=0)
        last_flush = 0.0

        def flush(now: float) -> None:
            nonlocal last_flush
            pending.clear()
            counts["upserts"] += 1
            last_flush = now

        def write(memory_id: str, now: float) -> None:
            live.add(memory_id)
            lru[memory_id] = None
            lru.move_to_end(memory_id)
            while len(lru) > 2:
                lru.popitem(last=False)
            pending[memory_id] = None
            if len(pending) >= 3:
                counts["size"] += 1
                flush(now)
            elif now - last_flush > 5.0:
                counts["time"] += 1
                flush(now)

        def read(memory_id: str, now: float) -> None:
            if memory_id not in live:
                counts["misses"] += 1
            else:
                counts["hits" if memory_id in lru else "misses"] += 1
                write(memory_id, now)

        def state(s: MemoryStore) -> tuple:
            return (
                s.hits,
                s.misses,
                list(s._cache),
                list(s.buffer.pending),
                s.size_flushes,
                s.time_flushes,
                s.forced_flushes,
                s.index.upsert_calls,
                s.buffer.last_flush,
            )

        now = 0.0
        for op, dt in zip(ops, dts):
            now += dt
            if op[0] == "put":
                _, memory_id, t_last, salience, agent_id = op
                rec = record(memory_id, t_last=t_last, salience=salience, agent_id=agent_id)
                st.put(rec, now)
                twin.put(rec, now)
                write(memory_id, now)
            elif op[0] in ("get", "access"):
                memory_ids = [op[1]] if op[0] == "get" else op[1]
                if op[0] == "get":
                    st.get(op[1], now)
                else:
                    st.access(memory_ids, now)
                for memory_id in memory_ids:
                    twin.get(memory_id, now)
                    read(memory_id, now)
            elif op[0] == "delete":
                st.delete([op[1]])
                twin.delete([op[1]])
                live.discard(op[1])
                lru.pop(op[1], None)
                pending.pop(op[1], None)
            else:
                st.commit(now)
                twin.commit(now)
                if pending:
                    counts["forced"] += 1
                    flush(now)
                else:
                    last_flush = now
            assert state(st) == state(twin)
            assert state(st) == (
                counts["hits"],
                counts["misses"],
                list(lru),
                list(pending),
                counts["size"],
                counts["time"],
                counts["forced"],
                counts["upserts"],
                last_flush,
            )
            assert st.table.rows == twin.table.rows
            assert st.scan_t_last() == twin.scan_t_last()
