"""Dual-store memory persistence: vector index, metadata table, LRU cache, write buffer.

A live id keeps its record as put, and t_last only in a column beside it. A
read only updates accounting (LRU hit or miss, t_last, pending id); `get`
builds the freshest record on demand. Pending ids batch-upsert into the vector
index and the metadata table, which therefore lag unflushed writes, the
modeled behavior of a batched remote store, while record reads never see stale data.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import OrderedDict
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from .core import MemoryRecord, ProtocolConfig
from .relevance import DimensionMismatch

logger = logging.getLogger(__name__)


def _check_now(now: float) -> None:
    # A NaN clock would stick in last_flush, and no time flush would fire again.
    if not 0.0 <= now < math.inf:
        raise ValueError(f"now must be finite and >= 0, got {now}")

__all__ = [
    "VectorIndex",
    "MetadataTable",
    "WriteBuffer",
    "MemoryStore",
]


class VectorIndex:
    """Fixed-dimension embeddings by id, with a count of batched upserts.

    Each upsert call counts once toward the write budget, however many
    embeddings it carries.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._entries: dict[str, np.ndarray] = {}
        self.upsert_calls = 0

    def upsert(self, records: Sequence[MemoryRecord]) -> None:
        """Store each record's embedding, checked when the record was built, as is; all or none."""
        if not records:
            return
        for record in records:
            if record.embedding.shape[0] != self.dimension:
                raise DimensionMismatch(
                    f"embedding length {record.embedding.shape[0]} != index dimension {self.dimension}"
                )
        self.upsert_calls += 1
        for record in records:
            self._entries[record.id] = record.embedding

    def fetch(self, memory_id: str) -> np.ndarray | None:
        return self._entries.get(memory_id)

    def delete(self, memory_ids: Iterable[str]) -> None:
        for memory_id in memory_ids:
            self._entries.pop(memory_id, None)


class MetadataTable:
    """Relational-style rows: id -> (agent_id, timestamp, salience)."""

    def __init__(self) -> None:
        self.rows: dict[str, tuple[str, float, float]] = {}

    def update(self, rows: dict[str, tuple[str, float, float]]) -> None:
        self.rows.update(rows)

    def delete(self, memory_ids: Iterable[str]) -> None:
        for memory_id in memory_ids:
            self.rows.pop(memory_id, None)

    def write_snapshot(self, path) -> None:
        """Rewrite the CSV snapshot (RFC 4180, CRLF, minimal quoting)."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "agent_id", "timestamp", "salience"])
            writer.writerows(
                [memory_id, agent_id, f"{timestamp:.6f}", repr(salience)]
                for memory_id, (agent_id, timestamp, salience) in self.rows.items()
            )


class WriteBuffer:
    """Ordered pending ids; a later write to a pending id keeps its place."""

    def __init__(self, last_flush: float = 0.0):
        self.pending: dict[str, None] = {}
        self.last_flush = last_flush


class MemoryStore:
    """Single-owner composite store; callers serialize through it.

    Read path: `_live` holds each live id's record as put and `_t_last`, the
    only home of t_last, its freshest value, both in insertion order. `_cache`
    is an LRU of ids that only decides hit or miss: a hit moves t_last to the
    read instant, a miss leaves it, and either way the id is re-buffered. The
    buffer, index and table are the flushed, lagging copy behind the metadata
    snapshot. `put` and `access` buffer an id through one write step,
    `_write`, which ends in the flush check: flush when the batch is full or
    the interval since the last flush has elapsed.

    `relevance_columns` maps a caller's opaque key to {memory id: score},
    scores derived from a record as put: `put` and `delete` drop the id from
    every column, so a re-put memory is scored afresh.
    """

    def __init__(
        self,
        dimension: int,
        *,
        cache_capacity: int = 100,
        batch_size: int = 50,
        batch_interval_s: float = 10.0,
        snapshot_path=None,
        start_time: float = 0.0,
    ):
        if cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {cache_capacity}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not 0.0 < batch_interval_s < math.inf:
            raise ValueError(f"batch_interval_s must be > 0 and finite, got {batch_interval_s}")
        self.index = VectorIndex(dimension)
        self.table = MetadataTable()
        self.buffer = WriteBuffer(last_flush=start_time)
        self.cache_capacity = cache_capacity
        self.batch_size = batch_size
        self.batch_interval_s = batch_interval_s
        self.snapshot_path = snapshot_path
        self._live: dict[str, MemoryRecord] = {}
        self._t_last: dict[str, float] = {}
        self._cache: OrderedDict[str, None] = OrderedDict()
        self.relevance_columns: dict[object, dict[str, float]] = {}
        self.hits = 0
        self.misses = 0
        self.size_flushes = 0
        self.time_flushes = 0
        self.forced_flushes = 0
        self.unknown_deletes = 0

    @classmethod
    def from_config(cls, cfg: ProtocolConfig, dimension: int, **kwargs) -> "MemoryStore":
        return cls(
            dimension,
            cache_capacity=cfg.cache_capacity,
            batch_size=cfg.batch_size,
            batch_interval_s=cfg.batch_interval_s,
            **kwargs,
        )

    # --- read/write operations ---

    def access(self, memory_ids: Iterable[str], now: float) -> None:
        """Account one read of each id at `now`, in order; an unknown id is a logged miss."""
        _check_now(now)
        t_last = self._t_last
        cache = self._cache
        write = self._write
        for memory_id in memory_ids:
            if memory_id not in t_last:
                self.misses += 1
                logger.error("memory id not found: %s", memory_id)
                continue
            if memory_id in cache:
                self.hits += 1
                t_last[memory_id] = now
            else:
                self.misses += 1
            write(memory_id, now)

    def get(self, memory_id: str, now: float) -> MemoryRecord | None:
        """Account one read, then return the freshest record; absence is a value, not an error."""
        self.access((memory_id,), now)
        return self.record(memory_id)

    def record(self, memory_id: str) -> MemoryRecord | None:
        """The freshest record of `memory_id`, built on demand; no cache accounting."""
        record = self._live.get(memory_id)
        if record is not None and record.t_last != self._t_last[memory_id]:
            record = replace(record, t_last=self._t_last[memory_id])
        return record

    def put(self, record: MemoryRecord, now: float) -> None:
        _check_now(now)
        if record.embedding.shape[0] != self.index.dimension:
            raise DimensionMismatch(
                f"embedding length {record.embedding.shape[0]} != store dimension {self.index.dimension}"
            )
        memory_id = record.id
        self._live[memory_id] = record
        self._t_last[memory_id] = record.t_last
        for column in self.relevance_columns.values():
            column.pop(memory_id, None)
        self._write(memory_id, now)

    def _write(self, memory_id: str, now: float) -> None:
        """Make the id the most recent LRU entry, buffer it, then run the flush check."""
        cache = self._cache
        if memory_id in cache:
            cache.move_to_end(memory_id)
        else:
            cache[memory_id] = None
            if len(cache) > self.cache_capacity:
                cache.popitem(last=False)
        buffer = self.buffer
        buffer.pending[memory_id] = None
        if len(buffer.pending) >= self.batch_size:
            self.size_flushes += 1
        elif now - buffer.last_flush > self.batch_interval_s:
            self.time_flushes += 1
        else:
            return
        self._flush(now)

    def _flush(self, now: float) -> None:
        pending = self.buffer.pending
        records = [self._live[i] for i in pending]
        pending.clear()
        t_last = self._t_last
        self.index.upsert(records)
        self.table.update({r.id: (r.agent_id, t_last[r.id], r.salience) for r in records})
        self.buffer.last_flush = now

    def commit(self, now: float) -> None:
        """Force any pending writes down and rewrite the snapshot if configured."""
        _check_now(now)
        if self.buffer.pending:
            self.forced_flushes += 1
            self._flush(now)
        else:
            self.buffer.last_flush = now
        if self.snapshot_path is not None:
            self.table.write_snapshot(self.snapshot_path)

    def delete(self, memory_ids: Iterable[str]) -> int:
        """Purge ids from every structure; unknown ids are counted, not errors.

        Purging the buffer prevents a pending write from resurrecting a
        deleted record at the next flush, and purging the relevance columns
        keeps them to live ids.
        """
        purged = []
        for memory_id in memory_ids:
            if self._live.pop(memory_id, None) is None:
                self.unknown_deletes += 1
                continue
            purged.append(memory_id)
            del self._t_last[memory_id]
            self._cache.pop(memory_id, None)
            self.buffer.pending.pop(memory_id, None)
            for column in self.relevance_columns.values():
                column.pop(memory_id, None)
        self.index.delete(purged)
        self.table.delete(purged)
        return len(purged)

    # --- bulk views (no cache accounting) ---

    def scan_t_last(self) -> list[tuple[str, float]]:
        """(id, freshest t_last) per live id, in insertion order."""
        return list(self._t_last.items())

    def ids(self) -> tuple[str, ...]:
        return tuple(self._live)

    def count(self) -> int:
        return len(self._live)
