"""Kernel-acceleration layer: cached edge views, join backends, cache counters.

The paper's throughput lives in the join stage (section 4.6); this package
is the reproduction's hot-path engine room.  It provides:

* :mod:`repro.accel.local_view` — sorted-CSR per-data-graph adjacency
  views and the whole-batch edge index, built with NumPy slices (no
  per-edge Python loop) and cached on the data ``CSRGO`` they come from,
  so repeated matches, resume rounds and iteration sweeps over one batch
  never rebuild them.
* :mod:`repro.accel.tabular` — the vectorized *tabular frontier join*: a
  Δ-Motif/GSI-style formulation that extends every partial embedding at a
  depth in one NumPy pass (candidate gather → ``np.searchsorted``
  edge-label probes → injectivity mask), bitwise-equivalent to the scalar
  stack-DFS reference backend in Find All — including
  :class:`~repro.core.join.JoinStats` counters, embedding order and
  budget truncation.
* :mod:`repro.accel.fused` — the whole-batch fused frontier table: every
  fused-dispatched pair of a batch rides one table with a leading pair
  column.
* :mod:`repro.accel.dispatch` — the per-(data graph, query graph) backend
  choice under ``config.join_backend="auto"``: one fixed rule keyed on
  :data:`~repro.accel.dispatch.FUSED_MAX_ELEMENTS` (single-node query →
  DFS, small pairs → fused, enumeration-heavy pairs → tabular), with
  ``"dfs"`` / ``"tabular"`` / ``"fused"`` forcing one backend.
* :mod:`repro.accel.memo` — process-wide hit/miss counters of the
  per-instance caches: signature counts cached on their ``CSRGO`` and
  compiled :class:`~repro.core.join.QueryPlan` lists cached on the
  candidate bitmap they were ordered from.
"""

from repro.accel.dispatch import (
    BACKEND_AUTO,
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    FUSED_MAX_ELEMENTS,
    JOIN_BACKENDS,
)
from repro.accel.local_view import LocalCSRView, get_batch_view, get_local_view
from repro.accel.memo import (
    MemoStats,
    clear_accel_caches,
    plan_memo,
    signature_memo,
)
from repro.accel.tabular import tabular_join_pair

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_DFS",
    "BACKEND_FUSED",
    "BACKEND_TABULAR",
    "FUSED_MAX_ELEMENTS",
    "JOIN_BACKENDS",
    "LocalCSRView",
    "MemoStats",
    "clear_accel_caches",
    "get_batch_view",
    "get_local_view",
    "plan_memo",
    "signature_memo",
    "tabular_join_pair",
]
