"""Prepared-query sessions: compile the query side once, stream data batches.

The serving shape Qiu et al.'s batch-dynamic matcher motivates: a
:class:`MatcherSession` converts the query batch exactly once, then
``session.match(data_batch)`` hands both CSR-GO batches to
:func:`~repro.pipeline.stages.run_pipeline`.  ``match`` is the single
path every driver takes: ``SigmoEngine.run`` is a session match over the
engine's own data batch, and the chunked, resilient, pool and serving
drivers each hold sessions.  Each batch owns what derives from it:

* the query CSR-GO lives for the session, and with it everything cached
  on it (its content hash and its signature counts at each radius), so
  every batch recalls the query side instead of recomputing it;
* each data batch carries the ``FilterResult``/``GMCR`` of its last run
  against this query batch (:mod:`repro.pipeline.artifacts`), so
  repeated ``match`` calls on the *same* data batch skip stages 2-5
  outright (the warm path — verified in tests by the absence of
  filter/mapping spans), and truncated Find All runs resumed with
  ``join_start_pair`` recall them instead of deterministically
  re-running the filter.

The session itself keeps only the conversions of the last few data
batches it was handed as Python objects, and a hit/miss counter.
Results are bitwise-identical to fresh engines: every reused artifact is
a deterministic function of (batches, config), and its slot compares the
filter config on every recall.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL, JoinBudget
from repro.core.results import MatchResult
from repro.graph.batch import GraphBatch
from repro.pipeline.artifacts import ArtifactStats
from repro.pipeline.stages import run_pipeline
from repro.xp.numpy_backend import scipy_sparse

#: Data batches whose conversion a session keeps alive (keyed by object
#: identity, so passing the same list again skips ``GraphBatch`` / CSR-GO
#: conversion and finds the artifacts stored on the converted batch).
MAX_CACHED_BATCHES = 8


class MatcherSession:
    """Amortized matcher: one query compilation, many data batches.

    **Concurrency contract.**  ``match()`` is safe to call from multiple
    threads (or interleaved asyncio tasks running it via executors): the
    session serializes calls with an internal lock, so the shared
    mutable state — the data-batch conversion cache, the artifact
    counters and each recalled GMCR's ``matched`` flags — is only ever
    touched by one ``match()`` at a time.  Concurrent callers therefore see exactly
    the results of some sequential interleaving (and since every result
    is a pure function of ``(batch, config)``, *which* interleaving
    never matters).  Calls do not run concurrently on one session; for
    parallel matching use one session per worker — the serving layer's
    :class:`~repro.serve.pool.SessionPool` keeps one lane (session) per
    concurrent batch for exactly this reason.

    Parameters
    ----------
    queries:
        Query graphs — an iterable of ``LabeledGraph``, a ``GraphBatch``,
        or an already-converted ``CSRGO``.
    config:
        Session-default configuration; ``match`` accepts per-call
        overrides.
    """

    def __init__(
        self,
        queries: Iterable | GraphBatch | CSRGO,
        config: SigmoConfig | None = None,
    ) -> None:
        self.config = config or SigmoConfig()
        self._query = self._to_csrgo(queries, "query")
        # Warm the content hash now: every artifact slot is keyed on it,
        # and it is cached on the CSRGO instance.
        self._query.content_hash()
        if self.config.refinement_iterations > 1:
            # Refinement past the label-only first iteration runs the
            # signature BFS: pay its one-off import here, in setup.
            scipy_sparse()
        self._artifact_stats = ArtifactStats()
        # id(batch) -> (strong ref keeping the id valid, converted CSRGO)
        self._data_cache: OrderedDict[int, tuple[Any, CSRGO]] = OrderedDict()
        self.batches_matched = 0
        # Serializes match() calls: the data cache, the counters and the
        # recalled artifacts are not safe under interleaving
        # (see the class docstring's concurrency contract).
        self._lock = threading.RLock()

    # -- introspection -----------------------------------------------------------

    @property
    def query(self) -> CSRGO:
        """The compiled (session-lifetime) query batch."""
        return self._query

    @property
    def artifact_stats(self):
        """Hit/miss counters of this session's artifact recalls (tests, telemetry)."""
        return self._artifact_stats

    # -- matching ----------------------------------------------------------------

    def match(
        self,
        data: Iterable | GraphBatch | CSRGO,
        mode: str = FIND_ALL,
        config: SigmoConfig | None = None,
        join_budget: JoinBudget | None = None,
        join_start_pair: int = 0,
        reuse: bool = True,
    ) -> MatchResult:
        """Run one data batch through the pipeline.

        Identical in result to ``SigmoEngine(queries, data, config).run(
        mode=..., ...)`` — but query-side work is amortized: a batch seen
        before (the same object, the same filter config) skips stages 2-5
        by recalling the artifacts stored on it, and only the join runs.

        ``reuse=False`` disables artifact *recall* for this call; the
        artifacts are still stored on the batch, but the session keeps no
        reference to a batch it converts for such a call, so they die
        with it.  The chunked drivers use it: their chunks are never
        matched twice, and plain ``SigmoEngine.run`` calls keep
        recomputing.

        Thread/task safe: concurrent calls are serialized on the
        session's internal lock (see the class docstring).
        """
        with self._lock:
            result = run_pipeline(
                self._query,
                self._convert_data(data, reuse),
                config or self.config,
                mode,
                join_budget=join_budget,
                join_start_pair=join_start_pair,
                reuse=reuse,
                stats=self._artifact_stats,
            )
            self.batches_matched += 1
            return result

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _to_csrgo(side, what: str) -> CSRGO:
        if isinstance(side, CSRGO):
            if side.n_graphs == 0:
                raise ValueError(f"at least one {what} graph is required")
            return side
        batch = side if isinstance(side, GraphBatch) else GraphBatch(side)
        if batch.n_graphs == 0:
            raise ValueError(f"at least one {what} graph is required")
        return CSRGO.from_batch(batch)

    def _convert_data(self, data, keep: bool) -> CSRGO:
        """Convert a data batch, memoized by object identity.

        The conversion is kept only when ``keep`` is set.  The strong
        reference in the cache keeps ``id(data)`` valid for the entry's
        lifetime; the LRU bound keeps the session from pinning every
        batch it ever saw.
        """
        if isinstance(data, CSRGO):
            return self._to_csrgo(data, "data")
        key = id(data)
        entry = self._data_cache.get(key)
        if entry is not None and entry[0] is data:
            self._data_cache.move_to_end(key)
            return entry[1]
        csrgo = self._to_csrgo(data, "data")
        if keep:
            self._data_cache[key] = (data, csrgo)
            while len(self._data_cache) > MAX_CACHED_BATCHES:
                self._data_cache.popitem(last=False)
        return csrgo
