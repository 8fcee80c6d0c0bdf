"""Chunked batch execution: operate beyond the single-device memory wall.

Fig. 12's single-GPU experiment ends when the candidate bitmap
(``|V_Q| x |V_D| / 8`` bytes) no longer fits device memory (scale factor
~26 on a 32 GB V100S).  Because SIGMo's data graphs are independent, the
batch can be split into chunks that are filtered/mapped/joined one at a
time, bounding peak memory at the cost of re-running the (cheap) query-side
signature work per chunk.  This module implements that driver — the natural
out-of-core extension of the paper's design, and the same decomposition the
multi-GPU version uses across devices (section 5.4).

Both drivers are thin adapters: a
:class:`~repro.pipeline.session.MatcherSession` compiles the query side
once, a loop over ``range(start, stop, chunk_size)`` cuts the data range,
and a :class:`~repro.pipeline.aggregate.ResultAccumulator` folds the
per-chunk results.  Outputs are bitwise-identical to the historical
per-chunk-engine loop.  Both return the one aggregate shape,
:class:`~repro.pipeline.aggregate.AggregateResult`.
"""

from __future__ import annotations

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL
from repro.graph.labeled_graph import LabeledGraph
from repro.pipeline.aggregate import AggregateResult, ResultAccumulator
from repro.pipeline.session import MatcherSession


class BudgetInfeasible(ValueError):
    """No chunk size can satisfy the memory budget.

    Raised by :func:`chunk_size_for_budget` when even a single data graph's
    candidate-bitmap share exceeds the budget — chunking cannot help, the
    run needs a bigger device (or the resilient runtime's degradation
    path, which catches this error; see :mod:`repro.runtime`).
    """

    def __init__(self, message: str, required_bytes: int, budget_bytes: int) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


def run_chunked(
    queries: list[LabeledGraph],
    data: list[LabeledGraph],
    chunk_size: int,
    mode: str = FIND_ALL,
    config: SigmoConfig | None = None,
) -> AggregateResult:
    """Run the pipeline on ``data`` in chunks of ``chunk_size`` graphs.

    Results are exactly those of one big run; only peak memory differs.
    Data-graph indices in ``matched_pairs`` and ``embeddings`` are global
    (i.e. indices into ``data``).

    Parameters
    ----------
    chunk_size:
        Data graphs per chunk; pick it so
        ``n_query_nodes * chunk_nodes / 8`` fits the memory budget (see
        :func:`chunk_size_for_budget`).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not data:
        raise ValueError("at least one data graph is required")
    session = MatcherSession(queries, config=config)
    acc = ResultAccumulator()
    for lo in range(0, len(data), chunk_size):
        result = session.match(data[lo : lo + chunk_size], mode=mode, reuse=False)
        acc.add_run(result, offset=lo)
    return acc.finish()


def run_chunked_csrgo(
    query: "CSRGO",
    data: "CSRGO",
    chunk_size: int,
    mode: str = FIND_ALL,
    config: SigmoConfig | None = None,
    start_graph: int = 0,
    stop_graph: int | None = None,
) -> AggregateResult:
    """Chunked run over already-converted CSR-GO batches.

    Same aggregation (and bitwise-identical results) as
    :func:`run_chunked`, but chunks are carved out of ``data`` with
    :meth:`~repro.core.csrgo.CSRGO.slice_graphs` — no per-graph Python
    conversion.  The shared-memory cluster workers run their slice ``[start_graph, stop_graph)`` of the
    mapped batch through this; reported data-graph indices are relative
    to ``start_graph``, matching :func:`run_chunked` over the same slice.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    stop = data.n_graphs if stop_graph is None else stop_graph
    if not 0 <= start_graph < stop <= data.n_graphs:
        raise ValueError(
            f"graph range [{start_graph}, {stop}) invalid for "
            f"{data.n_graphs} data graphs"
        )
    session = MatcherSession(query, config=config)
    acc = ResultAccumulator()
    for lo in range(start_graph, stop, chunk_size):
        result = session.match(
            data.slice_graphs(lo, min(lo + chunk_size, stop)), mode=mode, reuse=False
        )
        acc.add_run(result, offset=lo - start_graph)
    return acc.finish()


def chunk_size_for_budget(
    n_query_nodes: int,
    mean_nodes_per_data_graph: float,
    budget_bytes: int,
    word_bits: int = 64,
    bitmap_share: float = 0.8,
) -> int:
    """Chunk size whose candidate bitmap fits a memory budget.

    Solves ``n_query_nodes * chunk_size * mean_nodes / 8 <= budget *
    bitmap_share`` (the bitmap is ~80 % of the footprint, section 5.1.3).

    Raises
    ------
    BudgetInfeasible
        When even a single graph's bitmap share exceeds the budget; a
        chunk size of 1 would still OOM, so returning it silently (the
        historical behaviour) only deferred the failure to the device.
    """
    if budget_bytes <= 0:
        raise ValueError("budget_bytes must be > 0")
    if n_query_nodes <= 0 or mean_nodes_per_data_graph <= 0:
        raise ValueError("node counts must be > 0")
    bytes_per_graph = n_query_nodes * mean_nodes_per_data_graph / 8
    usable = budget_bytes * bitmap_share
    size = int(usable // max(bytes_per_graph, 1e-9))
    if size < 1:
        raise BudgetInfeasible(
            f"a single data graph needs ~{bytes_per_graph:.0f} bitmap bytes "
            f"but only {usable:.0f} of {budget_bytes} are usable "
            f"(bitmap_share={bitmap_share})",
            required_bytes=int(bytes_per_graph),
            budget_bytes=int(budget_bytes),
        )
    return size
