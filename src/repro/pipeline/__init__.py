"""The pipeline spine: one straight-line run function, sessions, aggregation.

Public surface:

* :func:`~repro.pipeline.stages.run_pipeline` — convert → init-candidates
  → refine → map → join over two CSR-GO batches; the one function every
  run goes through (spans, timers, contract checks, artifact recall).
* :class:`~repro.pipeline.session.MatcherSession` — prepared-query
  serving layer (compile queries once, stream data batches); the entry
  point of every driver, ``SigmoEngine.run`` included.
* :mod:`~repro.pipeline.artifacts` — the ``refine``/``map`` artifacts,
  owned by the data batch they were computed from (one slot per query
  batch in :attr:`~repro.core.csrgo.CSRGO.derived`).
* :mod:`~repro.pipeline.aggregate` — the one multi-run result type and
  its accumulator.
* :mod:`~repro.pipeline.policies` — the pool driver's partitioning and
  retry policy.
"""

from repro.core.filtering import derive_n_labels
from repro.pipeline.aggregate import AggregateResult, ResultAccumulator, merge_join_stats
from repro.pipeline.policies import RetryPolicy, partition_slices
from repro.pipeline.session import MatcherSession
from repro.pipeline.stages import run_pipeline

__all__ = [
    "AggregateResult",
    "MatcherSession",
    "ResultAccumulator",
    "RetryPolicy",
    "derive_n_labels",
    "merge_join_stats",
    "partition_slices",
    "run_pipeline",
]
