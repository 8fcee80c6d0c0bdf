"""Result aggregation shared by every multi-run driver.

The historical drivers each re-implemented the same fold: sum match
counts, globalize per-chunk graph indices, merge timers, track peak
memory.  :class:`ResultAccumulator` is that fold written once; the
chunked/parallel/resilient adapters feed it either whole
:class:`~repro.core.results.MatchResult` objects (with an index offset)
or already-aggregated partial results from workers, and
:meth:`ResultAccumulator.finish` materializes the one public aggregate
shape, :class:`AggregateResult`.

This module sits on the session import path, so it must not import
:mod:`repro.runtime` at load time: the runtime types an aggregate
carries are referenced only in annotations, and the empty
:class:`~repro.runtime.telemetry.RunReport` is created on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.join import JoinStats
from repro.core.results import MatchRecord, MatchResult
from repro.utils.timing import StageTimer

if TYPE_CHECKING:
    from repro.runtime.resilient import ChunkRecord, ResumeToken
    from repro.runtime.telemetry import RunReport

#: Run statuses.
COMPLETE = "complete"
PARTIAL = "partial"


def merge_join_stats(into: JoinStats, other: JoinStats | dict | None) -> JoinStats:
    """Accumulate one join's work counters into ``into`` (returned)."""
    if other is None:
        return into
    if isinstance(other, dict):
        other = JoinStats(**{k: int(v) for k, v in other.items()})
    into.pairs_joined += other.pairs_joined
    into.stack_pushes += other.stack_pushes
    into.candidate_visits += other.candidate_visits
    into.edge_checks += other.edge_checks
    return into


def join_stats_dict(stats: JoinStats) -> dict[str, int]:
    """JSON/npz-manifest-ready form of the work counters."""
    return {
        "pairs_joined": stats.pairs_joined,
        "stack_pushes": stats.stack_pushes,
        "candidate_visits": stats.candidate_visits,
        "edge_checks": stats.edge_checks,
    }


def _empty_report() -> RunReport:
    from repro.runtime.telemetry import RunReport

    return RunReport()


@dataclass
class AggregateResult:
    """Aggregated outcome of a multi-run driver.

    Every driver that folds several engine runs — :func:`~repro.core.
    chunked.run_chunked`, :func:`~repro.cluster.parallel.run_parallel`,
    :func:`~repro.runtime.resilient.run_resilient` — returns this one
    shape, built only by :meth:`ResultAccumulator.finish`.

    Attributes
    ----------
    status:
        ``"complete"``, or ``"partial"`` when some range was dropped or a
        resume token is outstanding.
    total_matches:
        Sum over chunks (identical to an unchunked run).
    n_chunks:
        Chunks executed (summed across workers).
    peak_memory_bytes:
        Largest per-chunk engine footprint — the bound chunking buys.
    matched_pairs / embeddings:
        Global ``(data_graph, query_graph)`` pairs and match records.
    chunk_results:
        The underlying per-chunk engine results of an in-process chunked
        run (data-graph indices local to each chunk); empty otherwise.
    timings / stage_counts / join_stats:
        Summed per-phase seconds, invocation counts and join work
        counters.  Summed across workers, so ``timings`` is total engine
        compute, not wall time.
    n_workers / transport:
        Slices dispatched and how batches reached them (``"shared-memory"``
        or ``"pickle"``); ``transport`` is ``None`` for in-process drivers.
    failed_slices:
        Pool slice ranges dropped after exhausting their attempts.
    chunk_records / chunks_from_checkpoint / resume_token:
        Resilient-run chunk telemetry, checkpoint reuse and the
        continuation point of a token-truncated run.
    report:
        Per-attempt log (empty for drivers without retries).
    """

    status: str = COMPLETE
    total_matches: int = 0
    n_chunks: int = 0
    peak_memory_bytes: int = 0
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    embeddings: list[MatchRecord] = field(default_factory=list)
    chunk_results: list[MatchResult] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    join_stats: JoinStats = field(default_factory=JoinStats)
    n_workers: int = 1
    transport: str | None = None
    failed_slices: list[tuple[int, int]] = field(default_factory=list)
    chunk_records: list[ChunkRecord] = field(default_factory=list)
    chunks_from_checkpoint: int = 0
    resume_token: ResumeToken | None = None
    report: RunReport = field(default_factory=_empty_report)

    @property
    def total_seconds(self) -> float:
        """Summed engine seconds across every folded run."""
        return sum(self.timings.values())


@dataclass
class ResultAccumulator:
    """Folds per-chunk/per-worker results into one aggregate.

    ``matched_pairs`` and ``embeddings`` carry *global* data-graph
    indices; :meth:`add_run` applies the chunk's offset while folding.
    ``peak_memory_bytes`` is a max (the bound chunking buys), everything
    else a sum.
    """

    total_matches: int = 0
    n_chunks: int = 0
    peak_memory_bytes: int = 0
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    embeddings: list[MatchRecord] = field(default_factory=list)
    chunk_results: list[MatchResult] = field(default_factory=list)
    join_stats: JoinStats = field(default_factory=JoinStats)
    _timer: StageTimer = field(default_factory=StageTimer)

    def add_run(
        self, result: MatchResult, offset: int = 0, keep_result: bool = True
    ) -> None:
        """Fold one engine/pipeline run whose chunk starts at ``offset``."""
        self.n_chunks += 1
        self.total_matches += result.total_matches
        self.peak_memory_bytes = max(self.peak_memory_bytes, result.memory.total)
        self.matched_pairs.extend(
            (d + offset, q) for d, q in result.matched_pairs()
        )
        self.embeddings.extend(
            MatchRecord(rec.data_graph + offset, rec.query_graph, rec.mapping)
            for rec in result.embeddings
        )
        self._timer.merge(result.timings, counts=result.stage_counts)
        merge_join_stats(self.join_stats, result.join_result.stats)
        if keep_result:
            self.chunk_results.append(result)

    def add_payload(self, payload) -> None:
        """Fold one resilient ``ChunkPayload`` (indices already global)."""
        self.n_chunks += 1
        self.total_matches += payload.total_matches
        self.peak_memory_bytes = max(
            self.peak_memory_bytes, payload.peak_memory_bytes
        )
        self.matched_pairs.extend(payload.matched_pairs)
        self.embeddings.extend(payload.embeddings)
        self._timer.merge(payload.timings, counts=payload.stage_counts)
        merge_join_stats(self.join_stats, getattr(payload, "join_stats", None))

    def add_aggregate(self, other) -> None:
        """Fold an already-aggregated :class:`AggregateResult` (a worker's
        output, or one part of a token-resumed run)."""
        self.total_matches += other.total_matches
        self.n_chunks += other.n_chunks
        self.peak_memory_bytes = max(
            self.peak_memory_bytes, other.peak_memory_bytes
        )
        self.matched_pairs.extend(other.matched_pairs)
        self.embeddings.extend(other.embeddings)
        self._timer.merge(other.timings, counts=other.stage_counts)
        merge_join_stats(self.join_stats, other.join_stats)

    def finish(self, **extra) -> AggregateResult:
        """Materialize the fold; ``extra`` sets the driver-specific fields."""
        return AggregateResult(
            total_matches=self.total_matches,
            n_chunks=self.n_chunks,
            peak_memory_bytes=self.peak_memory_bytes,
            matched_pairs=self.matched_pairs,
            embeddings=self.embeddings,
            chunk_results=self.chunk_results,
            timings=self.timings,
            stage_counts=self.stage_counts,
            join_stats=self.join_stats,
            **extra,
        )

    @property
    def timings(self) -> dict[str, float]:
        """Summed per-stage seconds across everything folded so far."""
        return dict(self._timer.totals)

    @property
    def stage_counts(self) -> dict[str, int]:
        """Summed per-stage invocation counts."""
        return dict(self._timer.counts)
