"""Work partitioning and retry policy of the process-pool driver.

* :func:`partition_slices` — the static per-worker block partitioning
  of :func:`~repro.cluster.parallel.run_parallel` (identical blocks ⇒
  bitwise-equal aggregation regardless of worker count).
* :class:`RetryPolicy` — attempt bounds + exponential backoff
  (``run_parallel``'s ``retry=`` schedule, the serving layer's retries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
class RetryPolicy:
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
