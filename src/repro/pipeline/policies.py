"""Composable execution policies around the pipeline executor.

A *policy* decides how a workload is cut up, placed, retried, or bounded —
never how a stage computes.  The historical drivers hard-coded one policy
combination each; here every knob is an object the thin adapters compose:

* :class:`ChunkingPolicy` — split the data batch into memory-bounded
  chunks (``run_chunked``'s loop).
* :func:`partition_slices` — the static per-worker block partitioning
  of the process-pool driver (identical blocks ⇒ bitwise-equal
  aggregation regardless of worker count).
* :class:`RetryPolicy` — attempt bounds + exponential backoff
  (``run_parallel``'s ``retry=`` schedule).
* :class:`MemoryBudgetPolicy` — derive chunk sizes from a device pool
  and degrade on infeasibility (``run_resilient``'s sizing).
* :class:`TruncationPolicy` — join-budget watchdog configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.join import JoinBudget


@dataclass(frozen=True)
class WorkUnit:
    """One contiguous data-graph range ``[start, stop)`` with retry state."""

    start: int
    stop: int
    attempt: int = 0

    @property
    def size(self) -> int:
        """Graphs covered by the unit."""
        return self.stop - self.start


class ExecutionPolicy:
    """Marker base class: a named knob composed around the executor."""

    name = "policy"


@dataclass(frozen=True)
class ChunkingPolicy(ExecutionPolicy):
    """Fixed-size chunking of a data range (the memory-wall workaround)."""

    chunk_size: int
    name = "chunking"

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def units(self, start: int, stop: int) -> list[WorkUnit]:
        """Contiguous ``chunk_size`` ranges covering ``[start, stop)``."""
        return [
            WorkUnit(lo, min(lo + self.chunk_size, stop))
            for lo in range(start, stop, self.chunk_size)
        ]


def partition_slices(n_items: int, n_workers: int) -> list[tuple[int, int]]:
    """Static per-worker block partitioning of the process-pool driver.

    Blocks are ``ceil(n_items / n_workers)`` wide, so the cut points —
    and therefore the aggregation order — are a pure function of the
    inputs, which is what keeps parallel runs bitwise-equal to serial.
    """
    if n_items < 1:
        raise ValueError("at least one item is required")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    block = -(-n_items // n_workers)
    return [
        (start, min(start + block, n_items)) for start in range(0, n_items, block)
    ]


@dataclass(frozen=True)
class RetryPolicy(ExecutionPolicy):
    """Attempt bound plus exponential backoff with seeded jitter.

    ``jitter`` spreads each unit's retry delay uniformly over
    ``[base, base * (1 + jitter)]`` so simultaneously failed units don't
    re-dispatch in lockstep (the retry-storm synchronization problem).
    The draw is a pure function of ``(seed, unit, attempt)`` — the same
    decision-function discipline as :class:`~repro.runtime.faults.
    FaultPlan` — so faulted runs stay bit-for-bit replayable.
    """

    max_attempts: int = 4
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    name = "retry"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempt: int, unit: int = 0) -> float:
        """Seconds to wait before retry number ``attempt`` (0 ⇒ no wait)."""
        if not attempt:
            return 0.0
        base = self.backoff_base * self.backoff_factor**attempt
        if base == 0.0 or self.jitter == 0.0:
            return base
        draw = float(np.random.default_rng([self.seed, unit, attempt]).random())
        return base * (1.0 + self.jitter * draw)

    def exhausted(self, attempt: int) -> bool:
        """Whether ``attempt`` (0-based) is past the allowed bound."""
        return attempt >= self.max_attempts


@dataclass(frozen=True)
class MemoryBudgetPolicy(ExecutionPolicy):
    """Chunk sizing under a device-memory budget, degrading to 1.

    ``auto_chunk_size`` mirrors the resilient driver's behavior: solve the
    bitmap-share inequality for the chunk size and, when even one average
    graph cannot fit, fall back to single-graph chunks and let the
    per-chunk lease decide which graphs truly cannot run.
    """

    capacity_bytes: int | None = None
    name = "memory-budget"

    def auto_chunk_size(
        self,
        n_query_nodes: int,
        mean_nodes_per_data_graph: float,
        n_data: int,
        word_bits: int = 64,
    ) -> tuple[int, str | None]:
        """Chunk size for the budget plus a degradation note (or ``None``)."""
        # Imported here: chunked.py is itself a pipeline adapter, so a
        # module-level import would be circular.
        from repro.core.chunked import BudgetInfeasible, chunk_size_for_budget

        if self.capacity_bytes is None:
            return n_data, None
        try:
            size = chunk_size_for_budget(
                max(n_query_nodes, 1),
                max(mean_nodes_per_data_graph, 1e-9),
                self.capacity_bytes,
                word_bits=word_bits,
            )
            return size, None
        except BudgetInfeasible as exc:
            return 1, str(exc)


@dataclass(frozen=True)
class TruncationPolicy(ExecutionPolicy):
    """Join-watchdog configuration (budget + what to do when it fires)."""

    join_budget: JoinBudget | None = None
    on_truncate: str = "resume"
    name = "truncation"

    def __post_init__(self) -> None:
        if self.on_truncate not in ("resume", "token"):
            raise ValueError("on_truncate must be 'resume' or 'token'")
