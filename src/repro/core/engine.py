"""SIGMo engine: the six-stage pipeline of paper Fig. 2.

``SigmoEngine`` wires the stages together::

    queries, molecules ── CSR-GO ─▶ init candidates ─▶ (signatures ─▶
    refine) x s ─▶ GMCR mapping ─▶ stack-DFS join ─▶ matches

The engine is a thin adapter over the prepared-query session: ``run`` is
a :meth:`~repro.pipeline.session.MatcherSession.match` of the engine's
data batch, and the session hands both batches to
:func:`~repro.pipeline.stages.run_pipeline`, which owns the obs spans,
the timers, the contract checks and the label-space size.  The engine
contributes what only it has: batches converted once at construction.
Every run stores its ``FilterResult``/``GMCR`` on the engine's data
batch, so truncated runs resumed via ``join_start_pair``, and further
sessions from :meth:`session`, recall them instead of recomputing.

Use :func:`find_all` / :func:`find_first` for one-shot convenience, or
construct an engine to reuse the converted batches across runs (e.g. the
refinement-iteration sweeps of Figs. 5-7 re-run the same batches with
different configs).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget
from repro.core.results import MatchResult
from repro.graph.batch import GraphBatch
from repro.graph.labeled_graph import LabeledGraph
from repro.pipeline.session import MatcherSession


class SigmoEngine:
    """Batched subgraph-isomorphism engine.

    Parameters
    ----------
    queries:
        Query graphs (functional groups / patterns), each connected.
    data:
        Data graphs (molecules).
    config:
        Tunables; defaults to the paper's NVIDIA-style configuration with
        6 refinement iterations.

    Examples
    --------
    >>> from repro.graph.generators import path_graph
    >>> engine = SigmoEngine([path_graph([0, 1])], [path_graph([0, 1, 0])])
    >>> engine.run().total_matches
    2
    """

    def __init__(
        self,
        queries: Iterable[LabeledGraph] | GraphBatch,
        data: Iterable[LabeledGraph] | GraphBatch,
        config: SigmoConfig | None = None,
    ) -> None:
        self.config = config or SigmoConfig()
        query_batch = queries if isinstance(queries, GraphBatch) else GraphBatch(queries)
        data_batch = data if isinstance(data, GraphBatch) else GraphBatch(data)
        if query_batch.n_graphs == 0:
            raise ValueError("at least one query graph is required")
        if data_batch.n_graphs == 0:
            raise ValueError("at least one data graph is required")
        self.query_batch = query_batch
        self.data_batch = data_batch
        # Stage 1: convert to CSR-GO.
        self._finish_init(CSRGO.from_batch(query_batch), CSRGO.from_batch(data_batch))

    @classmethod
    def from_csrgo(
        cls,
        query: CSRGO,
        data: CSRGO,
        config: SigmoConfig | None = None,
    ) -> "SigmoEngine":
        """Build an engine directly from CSR-GO batches (stage 1 skipped).

        The cluster workers use this: shared-memory-mapped CSR-GO arrays
        are attached once per worker and sliced per chunk, with no
        ``LabeledGraph`` round trip (``query_batch`` / ``data_batch`` are
        ``None`` on such engines).
        """
        engine = cls.__new__(cls)
        engine.config = config or SigmoConfig()
        if query.n_graphs == 0:
            raise ValueError("at least one query graph is required")
        if data.n_graphs == 0:
            raise ValueError("at least one data graph is required")
        engine.query_batch = None
        engine.data_batch = None
        engine._finish_init(query, data)
        return engine

    def _finish_init(self, query: CSRGO, data: CSRGO) -> None:
        """Shared tail of both constructors: the session over ``query``."""
        self.query = query
        self.data = data
        self._session = MatcherSession(query, config=self.config)

    # -- public API -------------------------------------------------------------

    def run(
        self,
        mode: str = FIND_ALL,
        config: SigmoConfig | None = None,
        join_budget: JoinBudget | None = None,
        join_start_pair: int = 0,
    ) -> MatchResult:
        """Execute the full pipeline and return a :class:`MatchResult`.

        Parameters
        ----------
        mode:
            ``"find-all"`` enumerates every node-to-node embedding;
            ``"find-first"`` stops each (data, query) pair at its first
            embedding (graph-to-graph matching).
        config:
            Optional per-run config override (batches are reused).
        join_budget:
            Optional join watchdog (see :class:`~repro.core.join.JoinBudget`);
            when it fires the result is *truncated*: ``result.truncated`` is
            true and ``result.resume_pair`` is the GMCR pair index to pass
            back as ``join_start_pair`` to continue.  The filter and mapping
            stages are deterministic, so a resumed run rebuilds the exact
            same GMCR and pair indices stay valid across calls.
        join_start_pair:
            Resume token from a previous truncated run of the same batches.
            Resumed runs (``join_start_pair > 0``) recall the
            ``FilterResult``/``GMCR`` the previous run of the same config
            stored on the data batch instead of recomputing them; the
            artifacts are deterministic, so pair indices stay valid and
            results are identical to a full recompute.
        """
        return self._session.match(
            self.data,
            mode=mode,
            config=config or self.config,
            join_budget=join_budget,
            join_start_pair=join_start_pair,
            # Plain runs recompute (storing as they go); only explicit
            # resumes reuse, so repeated `.run()` calls keep their
            # historical stage counts and traces.
            reuse=join_start_pair > 0,
        )

    def run_iteration_sweep(
        self,
        iterations: Sequence[int],
        mode: str = FIND_ALL,
        join_budget: JoinBudget | None = None,
    ) -> dict[int, MatchResult]:
        """Run the pipeline once per refinement-iteration count.

        The sweep behind Figs. 5-7: same batches, varying ``s``.  Routed
        through the engine's :class:`~repro.pipeline.session.MatcherSession`
        over the engine's own batch objects, so what is cached on them
        (content hashes, signature counts per radius, edge views) is
        computed once for the whole sweep, and ``join_budget``/``mode``
        pass straight through to each run.
        """
        results: dict[int, MatchResult] = {}
        for s in iterations:
            results[s] = self._session.match(
                self.data,
                mode=mode,
                config=self.config.with_iterations(s),
                join_budget=join_budget,
            )
        return results

    def session(self, config: SigmoConfig | None = None):
        """A :class:`~repro.pipeline.session.MatcherSession` over this query batch.

        The artifacts live on the data batch, so engine runs and session
        matches over :attr:`data` recall each other's filter/GMCR
        artifacts.
        """
        return MatcherSession(self.query, config=config or self.config)


def find_all(
    queries: Iterable[LabeledGraph],
    data: Iterable[LabeledGraph],
    config: SigmoConfig | None = None,
) -> MatchResult:
    """One-shot Find All: enumerate every embedding of every query."""
    return SigmoEngine(queries, data, config).run(mode=FIND_ALL)


def find_first(
    queries: Iterable[LabeledGraph],
    data: Iterable[LabeledGraph],
    config: SigmoConfig | None = None,
) -> MatchResult:
    """One-shot Find First: graph-to-graph matching with early stop."""
    return SigmoEngine(queries, data, config).run(mode=FIND_FIRST)


def count_matches(
    query: LabeledGraph, data: LabeledGraph, config: SigmoConfig | None = None
) -> int:
    """Count embeddings of a single query in a single data graph."""
    return find_all([query], [data], config).total_matches
