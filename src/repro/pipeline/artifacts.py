"""Stage artifacts and the per-engine/per-session artifact cache.

The ``refine`` stage's ``FilterResult`` and the ``map`` stage's ``GMCR``
are deterministic functions of the batch contents plus the
filter-affecting config fields, so a cache keyed on that fingerprint can
hand a resumed (or repeated) run its ``FilterResult``/``GMCR`` back
instead of re-running stages 2-5.

The cache is deliberately small and local — one per :class:`~repro.core.
engine.SigmoEngine` / :class:`~repro.pipeline.session.MatcherSession`;
no process-wide cache shares work across engines.  What derives from a
cached artifact travels with it: the compiled query plans live on the
recalled bitmap (:attr:`~repro.core.candidates.CandidateBitmap.plans`),
and signature counts and edge views live on the batches themselves
(:attr:`~repro.core.csrgo.CSRGO.derived`).  Cached values are treated as
immutable; :func:`~repro.pipeline.stages.run_pipeline` hands out
defensive copies of the mutable parts (the GMCR ``matched`` flags).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO

#: Names of the two cached stages (the first half of the cache key).
STAGE_REFINE = "refine"
STAGE_MAP = "map"


@dataclass
class ArtifactCacheStats:
    """Hit/miss/eviction counters of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (telemetry, tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
        }


class ArtifactCache:
    """Bounded LRU of stage artifacts keyed by (stage, fingerprint).

    The fingerprint (:func:`filter_fingerprint`) binds an artifact to its
    exact inputs: batch content hashes, label-vocabulary size and the
    filter-affecting config.

    Insertion of an existing key refreshes both recency and value.  The
    bound is an entry count, not bytes: entries reference arrays the
    owning engine/session already keeps alive, so the marginal footprint
    is one bitmap/GMCR per retained config variant.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.stats = ArtifactCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, stage: str, fingerprint: tuple) -> Any:
        """Recall a stage artifact (``None`` on a miss), refreshing its recency."""
        key = (stage, fingerprint)
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, stage: str, fingerprint: tuple, value: Any) -> None:
        """Store an artifact, evicting the least-recently-used past the bound."""
        key = (stage, fingerprint)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()


def filter_fingerprint(
    query: CSRGO, data: CSRGO, n_labels: int, config: SigmoConfig
) -> tuple:
    """Fingerprint of the filter/map artifacts for one (batch, config) pair.

    Covers exactly the inputs that determine the candidate bitmap (and
    thus the GMCR): batch contents, the label-space size, the array
    backend the artifacts were computed on, and the config fields the
    filter reads.  Join-side knobs (join backend, embedding recording,
    candidate order) deliberately do not participate — flipping them must
    still reuse the filter artifacts.  The array backend *does*: cached
    bitmaps hold backend arrays, so artifacts from different backends
    must never collide.
    """
    return (
        config.array_backend,
        query.content_hash(),
        data.content_hash(),
        n_labels,
        config.refinement_iterations,
        config.word_bits,
        config.signature_bits,
        config.wildcard_label,
        config.wildcard_edge_label,
        config.edge_signatures,
    )
