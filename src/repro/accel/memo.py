"""Hit/miss counters of the per-instance artifact caches.

Each derived structure is cached on the object whose lifetime it
shares, so no cache here holds data:

* signature count matrices live on their :class:`~repro.core.csrgo.CSRGO`
  (:attr:`~repro.core.csrgo.CSRGO.derived`), keyed by array backend,
  label-vocabulary size, ignored label and radius — a session's query
  batch therefore answers every chunk's query-side lookups itself;
* compiled :class:`~repro.core.join.QueryPlan` lists live on the
  :class:`~repro.core.candidates.CandidateBitmap` they were ordered from,
  so a resumed run that recalls its refine artifact recalls its plans too.

What stays process-wide is the tally: :func:`signature_memo` counts one
lookup per side per radius and :func:`plan_memo` one per
:func:`~repro.core.join.compile_plans` call, for telemetry and tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass
class MemoStats:
    """Hit/miss counters of one kind of cache lookup."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses


class MemoCounter:
    """Thread-safe, process-wide hit/miss tally (``stats`` is read-only)."""

    def __init__(self) -> None:
        self.stats = MemoStats()
        self._lock = threading.Lock()

    def record(self, hit: bool) -> None:
        """Count one lookup."""
        with self._lock:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1

    def clear(self) -> None:
        """Reset the counters."""
        with self._lock:
            self.stats = MemoStats()


def frozen_array(arr: np.ndarray) -> np.ndarray:
    """A non-writeable copy safe to share from a cache."""
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


_SIGNATURE_MEMO = MemoCounter()
_PLAN_MEMO = MemoCounter()


def signature_memo() -> MemoCounter:
    """Lookups of signature counts on their batch (one per side per radius)."""
    return _SIGNATURE_MEMO


def plan_memo() -> MemoCounter:
    """Lookups of compiled plan lists on their bitmap (one per compile)."""
    return _PLAN_MEMO


def clear_accel_caches() -> None:
    """Reset the process-wide counters (tests and long-lived services).

    The cached artifacts themselves die with the batch or bitmap that owns
    them; there is nothing process-wide to drop.
    """
    _SIGNATURE_MEMO.clear()
    _PLAN_MEMO.clear()
