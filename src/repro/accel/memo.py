"""Cross-run memoization keyed by batch content hashes.

The chunked, resilient and sweep drivers repeatedly rebuild engines over
logically identical batches: an iteration sweep re-runs the same data with
a different ``s``, a resilient re-run replays a chunk after a fault, the
parallel driver re-chunks the same slice.  Recomputing signatures and
recompiling query plans for those runs is pure waste — the inputs are
content-identical.

This module provides small bounded LRU memo tables keyed on *content
hashes* (:meth:`repro.core.csrgo.CSRGO.content_hash` plus every config
field that affects the cached value), so a config change can never serve
a stale entry — changing the radius, the refinement-iteration count (via
the radius actually requested), the wildcard labels, the matching-order
heuristic or induced mode all produce a different key and force a
rebuild.  That keying discipline is asserted in ``tests/accel``.

Thread safety: a single lock per table — the tables are tiny and the
cached payloads are built outside the lock.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

#: Cached signature matrices per (batch, n_labels, ignore_label, radius).
SIGNATURE_MEMO_CAPACITY = 32
#: Cached compiled plan lists per (query batch, counts, order config).
PLAN_MEMO_CAPACITY = 64


@dataclass
class MemoStats:
    """Hit/miss counters of one memo table (tests assert rebuilds on these)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses


class ContentMemo:
    """A bounded, thread-safe, insertion-ordered LRU memo table.

    Values are treated as immutable once stored; callers must not mutate
    what they get back (the accel layer stores read-only NumPy arrays and
    frozen dataclasses only).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = MemoStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` (which is never a stored value)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recent beyond capacity."""
        if value is None:
            raise ValueError("None cannot be memoized (reserved for misses)")
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Cached value, or ``builder()`` stored under ``key``."""
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the stats."""
        with self._lock:
            self._entries.clear()
            self.stats = MemoStats()

    def __len__(self) -> int:
        return len(self._entries)


def array_hash(arr: np.ndarray) -> str:
    """SHA-256 of an array's raw bytes (dtype/shape-tagged)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def frozen_array(arr: np.ndarray) -> np.ndarray:
    """A non-writeable copy safe to share from a memo table."""
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


_SIGNATURE_MEMO = ContentMemo(SIGNATURE_MEMO_CAPACITY)
_PLAN_MEMO = ContentMemo(PLAN_MEMO_CAPACITY)


def signature_memo() -> ContentMemo:
    """The process-wide signature-count memo table.

    Keys: ``(batch content hash, n_labels, ignore_label, radius)`` — see
    :meth:`repro.core.filtering.IterativeFilter._signatures_at`.
    """
    return _SIGNATURE_MEMO


def plan_memo() -> ContentMemo:
    """The process-wide compiled-QueryPlan memo table.

    Keys: ``(query batch content hash, candidate-counts hash, heuristic,
    wildcard_edge_label, induced)`` — every input of
    :func:`repro.core.join.build_query_plan`.
    """
    return _PLAN_MEMO


def clear_accel_caches() -> None:
    """Reset every accel-layer cache (tests and long-lived services)."""
    from repro.accel.local_view import batch_view_cache, local_view_cache

    _SIGNATURE_MEMO.clear()
    _PLAN_MEMO.clear()
    local_view_cache().clear()
    batch_view_cache().clear()

