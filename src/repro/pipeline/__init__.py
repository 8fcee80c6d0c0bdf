"""The pipeline spine: one straight-line run function, sessions, aggregation.

Public surface:

* :func:`~repro.pipeline.stages.run_pipeline` — convert → init-candidates
  → refine → map → join over two CSR-GO batches; the one function every
  run goes through (spans, timers, contract checks, artifact caching).
* :class:`~repro.pipeline.session.MatcherSession` — prepared-query
  serving layer (compile queries once, stream data batches); the entry
  point of every driver, ``SigmoEngine.run`` included.
* :mod:`~repro.pipeline.artifacts` — the fingerprint-keyed cache of the
  ``refine``/``map`` artifacts.
* :mod:`~repro.pipeline.aggregate` — the one multi-run result type and
  its accumulator.
* :mod:`~repro.pipeline.policies` — the pool driver's partitioning and
  retry policy.
"""

from repro.core.filtering import derive_n_labels
from repro.pipeline.aggregate import AggregateResult, ResultAccumulator, merge_join_stats
from repro.pipeline.artifacts import ArtifactCache, filter_fingerprint
from repro.pipeline.policies import RetryPolicy, partition_slices
from repro.pipeline.session import MatcherSession
from repro.pipeline.stages import run_pipeline

__all__ = [
    "AggregateResult",
    "ArtifactCache",
    "MatcherSession",
    "ResultAccumulator",
    "RetryPolicy",
    "derive_n_labels",
    "filter_fingerprint",
    "merge_join_stats",
    "partition_slices",
    "run_pipeline",
]
