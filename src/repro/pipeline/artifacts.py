"""Stage artifacts: the refine and map results, cached on their data batch.

The ``refine`` stage's ``FilterResult`` and the ``map`` stage's ``GMCR``
are buffers of one pass of one data batch through the pipeline, so they
live on that batch (:attr:`~repro.core.csrgo.CSRGO.derived`) and die with
it.  A batch holds one slot per (array backend, query batch); the slot is
one immutable ``(filter key, FilterResult, GMCR)`` tuple, replaced on
every store, so a recall under a different filter config misses and the
stages run again.  Because the slot is written with a single dict store,
two sessions sharing a batch never see a half-written entry.

What derives from an artifact travels with it: the compiled query plans
live on the recalled bitmap (:attr:`~repro.core.candidates.
CandidateBitmap.plans`).  Cached values are treated as immutable;
:func:`~repro.pipeline.stages.run_pipeline` hands out defensive copies of
the mutable parts (the GMCR ``matched`` flags).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import FilterResult
from repro.core.mapping import GMCR


@dataclass
class ArtifactStats:
    """Hit/miss counters of one session's artifact recalls.

    Counted per stage artifact: a recalled slot is two hits (refine and
    map), a recomputed one two misses.
    """

    hits: int = 0
    misses: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (telemetry, tests)."""
        return {"hits": self.hits, "misses": self.misses}


def filter_fingerprint(n_labels: int, config: SigmoConfig) -> tuple:
    """The filter key of the refine/map artifacts under one config.

    Covers the inputs besides the two batches that determine the
    candidate bitmap (and thus the GMCR): the label-space size, the array
    backend the artifacts were computed on, and the config fields the
    filter reads.  Join-side knobs (join backend, embedding recording,
    candidate order) deliberately do not participate — flipping them must
    still reuse the filter artifacts.  The array backend *does*: cached
    bitmaps hold backend arrays, so artifacts from different backends
    must never collide.
    """
    return (
        config.array_backend,
        n_labels,
        config.refinement_iterations,
        config.word_bits,
        config.signature_bits,
        config.wildcard_label,
        config.wildcard_edge_label,
        config.edge_signatures,
    )


def _slot(query: CSRGO, config: SigmoConfig) -> tuple:
    return ("artifacts", config.array_backend, query.content_hash())


def recall_artifacts(
    query: CSRGO, data: CSRGO, config: SigmoConfig, key: tuple
) -> tuple[FilterResult, GMCR] | None:
    """The artifacts ``data`` holds for ``query`` under filter ``key``, or None."""
    entry = data.derived.get(_slot(query, config))
    if entry is None or entry[0] != key:
        return None
    return entry[1], entry[2]


def store_artifacts(
    query: CSRGO,
    data: CSRGO,
    config: SigmoConfig,
    key: tuple,
    filter_result: FilterResult,
    gmcr: GMCR,
) -> None:
    """Replace the slot of ``query`` on ``data`` with these artifacts."""
    data.derived[_slot(query, config)] = (key, filter_result, gmcr)
