"""Dual-store memory persistence: vector index, metadata table, LRU cache, write buffer.

Every read is served from one map of the freshest record per live id; an LRU
cache of ids decides whether a read counts as a hit. Writes accumulate in an
ordered buffer that batch-upserts into the vector index and the metadata
table. The index and the metadata snapshot therefore lag unflushed writes,
which is the modeled behavior of a batched remote store, while record reads
never see stale data.
"""

from __future__ import annotations

import csv
import logging
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from .core import MemoryRecord, ProtocolConfig, make_embedding
from .relevance import DimensionMismatch

logger = logging.getLogger(__name__)

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

    def upsert(self, items: Sequence[tuple[str, np.ndarray]]) -> int:
        """Insert or replace a batch; one call counts once toward the write budget."""
        if not items:
            return 0
        staged = []
        for memory_id, embedding in items:
            vec = make_embedding(embedding)
            if vec.shape[0] != self.dimension:
                raise DimensionMismatch(
                    f"embedding length {vec.shape[0]} != index dimension {self.dimension}"
                )
            staged.append((memory_id, vec))
        self.upsert_calls += 1
        for memory_id, vec in staged:
            self._entries[memory_id] = vec
        return len(staged)

    def fetch(self, memory_id: str) -> np.ndarray | None:
        return self._entries.get(memory_id)

    def delete(self, memory_ids: Iterable[str]) -> int:
        removed = 0
        for memory_id in memory_ids:
            if self._entries.pop(memory_id, None) is not None:
                removed += 1
        return removed


class MetadataTable:
    """Relational-style rows: id -> (agent_id, timestamp, salience)."""

    def __init__(self) -> None:
        self.rows: dict[str, tuple[str, float, float]] = {}

    def update(self, rows: dict[str, tuple[str, float, float]]) -> None:
        self.rows.update(rows)

    def delete(self, memory_ids: Iterable[str]) -> int:
        removed = 0
        for memory_id in memory_ids:
            if self.rows.pop(memory_id, None) is not None:
                removed += 1
        return removed

    def write_snapshot(self, path) -> int:
        """Rewrite the CSV snapshot (RFC 4180, CRLF, minimal quoting)."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "agent_id", "timestamp", "salience"])
            writer.writerows(
                [memory_id, agent_id, f"{timestamp:.6f}", repr(salience)]
                for memory_id, (agent_id, timestamp, salience) in self.rows.items()
            )
        return len(self.rows)


class WriteBuffer:
    """Ordered pending writes; later writes to the same id overwrite in place."""

    def __init__(self, last_flush: float = 0.0):
        self.pending: dict[str, MemoryRecord] = {}
        self.last_flush = last_flush

    def __len__(self) -> int:
        return len(self.pending)

    def append(self, record: MemoryRecord) -> None:
        self.pending[record.id] = record

    def discard(self, memory_id: str) -> bool:
        return self.pending.pop(memory_id, None) is not None

    def take_all(self) -> list[MemoryRecord]:
        records = list(self.pending.values())
        self.pending.clear()
        return records


class MemoryStore:
    """Single-owner composite store; callers serialize through it.

    Read path: `_live` holds the freshest record of every live id, in
    insertion order, and serves every read. `_cache` is an LRU of ids that
    only decides hit or miss: a hit refreshes t_last (the record was just
    accessed) and re-buffers the touched record; a miss re-buffers the record
    unchanged. The buffer, index and table are the flushed, lagging copy behind
    the metadata snapshot. Every buffered write runs the flush check: flush
    when the batch is full or the interval since the last flush has elapsed.
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
        if batch_interval_s <= 0.0:
            raise ValueError(f"batch_interval_s must be > 0, got {batch_interval_s}")
        self.index = VectorIndex(dimension)
        self.table = MetadataTable()
        self.buffer = WriteBuffer(last_flush=start_time)
        self.cache_capacity = cache_capacity
        self.batch_size = batch_size
        self.batch_interval_s = batch_interval_s
        self.snapshot_path = snapshot_path
        self._live: dict[str, MemoryRecord] = {}
        self._cache: OrderedDict[str, None] = OrderedDict()
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

    def _write(self, record: MemoryRecord, now: float) -> None:
        """Make `record` the live copy, the most recent cache entry and a pending write."""
        memory_id = record.id
        self._live[memory_id] = record
        if memory_id in self._cache:
            self._cache.move_to_end(memory_id)
        else:
            self._cache[memory_id] = None
            if len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)
        self.buffer.append(record)
        self.maybe_flush(now)

    def get(self, memory_id: str, now: float) -> MemoryRecord | None:
        """Fetch one record; absence is a value, not an error."""
        record = self._live.get(memory_id)
        if record is None:
            self.misses += 1
            logger.error("memory id not found: %s", memory_id)
            return None
        if memory_id in self._cache:
            self.hits += 1
            record = record.touched(now)
        else:
            self.misses += 1
        self._write(record, now)
        return record

    def put(self, record: MemoryRecord, now: float) -> None:
        if record.embedding.shape[0] != self.index.dimension:
            raise DimensionMismatch(
                f"embedding length {record.embedding.shape[0]} != store dimension {self.index.dimension}"
            )
        self._write(record, now)

    def maybe_flush(self, now: float) -> int:
        """Flush when the batch is full or the flush interval has elapsed."""
        buffer = self.buffer
        pending = len(buffer.pending)
        if not pending:
            return 0
        if pending >= self.batch_size:
            self.size_flushes += 1
        elif now - buffer.last_flush > self.batch_interval_s:
            self.time_flushes += 1
        else:
            return 0
        return self._flush(now)

    def _flush(self, now: float) -> int:
        records = self.buffer.take_all()
        self.index.upsert([(r.id, r.embedding) for r in records])
        self.table.update({r.id: (r.agent_id, r.t_last, r.salience) for r in records})
        self.buffer.last_flush = now
        return len(records)

    def commit(self, now: float) -> int:
        """Force any pending writes down and rewrite the snapshot if configured."""
        flushed = 0
        if self.buffer.pending:
            self.forced_flushes += 1
            flushed = self._flush(now)
        else:
            self.buffer.last_flush = now
        if self.snapshot_path is not None:
            self.table.write_snapshot(self.snapshot_path)
        return flushed

    def delete(self, memory_ids: Iterable[str]) -> int:
        """Purge ids from every structure; unknown ids are counted, not errors.

        Purging the buffer prevents a pending write from resurrecting a
        deleted record at the next flush.
        """
        purged = []
        for memory_id in memory_ids:
            if self._live.pop(memory_id, None) is None:
                self.unknown_deletes += 1
                continue
            purged.append(memory_id)
            self._cache.pop(memory_id, None)
            self.buffer.discard(memory_id)
        self.index.delete(purged)
        self.table.delete(purged)
        return len(purged)

    # --- bulk views (no cache accounting) ---

    def scan_t_last(self) -> list[tuple[str, float]]:
        """(id, freshest t_last) per live id, in insertion order."""
        return [(memory_id, record.t_last) for memory_id, record in self._live.items()]

    def records_snapshot(self) -> list[MemoryRecord]:
        """Every live record, freshest copy, in insertion order."""
        return list(self._live.values())

    def ids(self) -> tuple[str, ...]:
        return tuple(self._live)

    def count(self) -> int:
        return len(self._live)

    def cache_len(self) -> int:
        return len(self._cache)
