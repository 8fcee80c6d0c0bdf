"""The pipeline: init-candidates → refine → map → join, in one function.

The paper's Fig. 2 is one fixed dataflow, so :func:`run_pipeline` runs it
as straight-line code over two CSR-GO batches (stage 1, the conversion,
happens once per batch in the session or engine).  It is the single place where the obs span
hierarchy (``run`` → ``stage:*`` → ``kernel:*`` → ``wg:*``), the
:class:`~repro.utils.timing.StageTimer` totals and counts, the
``REPRO_CHECK=1`` contract checks and the artifact recall attach.  Every
driver reaches it through :meth:`~repro.pipeline.session.MatcherSession.
match`; what varies between drivers (chunking, retries, process
placement) lives around the session, never in here.

The ``refine`` and ``map`` artifacts are stored on the data batch on
every run (:mod:`repro.pipeline.artifacts`) and, when ``reuse`` is set,
recalled instead of recomputed: the recalled stages' spans and timer
entries are then simply absent, which is how tests verify the skip.
"""

from __future__ import annotations

from repro.analysis import contracts
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import IterativeFilter, derive_n_labels
from repro.core.join import JoinBudget, run_join
from repro.core.mapping import GMCR, build_gmcr
from repro.core.results import MatchResult, MemoryReport
from repro.obs.trace import get_tracer
from repro.pipeline.artifacts import (
    ArtifactStats,
    filter_fingerprint,
    recall_artifacts,
    store_artifacts,
)
from repro.utils.timing import StageTimer
from repro.xp import use_backend


def run_pipeline(
    query: CSRGO,
    data: CSRGO,
    config: SigmoConfig,
    mode: str,
    join_budget: JoinBudget | None,
    join_start_pair: int,
    reuse: bool,
    stats: ArtifactStats,
) -> MatchResult:
    """Run both CSR-GO batches through the pipeline; return the match result.

    The whole run executes under ``config.array_backend``.  ``reuse`` lets
    the run recall the ``refine``/``map`` artifacts from ``data``, counting
    the recall in ``stats``; storing happens regardless, so a plain run
    leaves them on the batch for a later resume.
    """
    with use_backend(config.array_backend):
        if contracts.enabled():
            contracts.check_csrgo(query, "query batch")
            contracts.check_csrgo(data, "data batch")
        n_labels = derive_n_labels(query, data, config.wildcard_label)
        key = filter_fingerprint(n_labels, config)
        timer = StageTimer()
        tracer = get_tracer()
        with tracer.span(
            "run",
            category="engine",
            mode=mode,
            n_queries=query.n_graphs,
            n_data_graphs=data.n_graphs,
        ) as root:
            recalled = recall_artifacts(query, data, config, key) if reuse else None
            if recalled is None:
                if reuse:
                    stats.misses += 2
                filter_result = IterativeFilter(query, data, config, n_labels).run(timer)
                gmcr = None
            else:
                stats.hits += 2
                filter_result, gmcr = recalled
            if contracts.enabled():
                contracts.check_filter_result(filter_result)

            if gmcr is None:
                with tracer.span("stage:mapping", category="stage") as stage_sp:
                    with timer.stage("mapping"):
                        with tracer.span(
                            "kernel:gmcr", category="kernel", work_items=data.n_graphs
                        ):
                            gmcr = build_gmcr(filter_result.bitmap, query, data)
                    stage_sp.set(pairs=gmcr.n_pairs)
                store_artifacts(
                    query, data, config, key, filter_result, _fresh_matched(gmcr)
                )
            else:
                gmcr = _fresh_matched(gmcr)
            if contracts.enabled():
                contracts.check_gmcr(gmcr, query.n_graphs)

            join_result = run_join(
                query,
                data,
                filter_result.bitmap,
                gmcr,
                config,
                mode=mode,
                timer=timer,
                budget=join_budget,
                start_pair=join_start_pair,
            )
            root.set(matches=join_result.total_matches)

        memory = MemoryReport(
            candidate_bitmap=filter_result.bitmap.nbytes(),
            data_graphs=data.nbytes(),
            query_graphs=query.nbytes(),
            # One packed uint64 per node on each side.
            signatures=sum(
                counts.shape[0] * 8
                for counts in (
                    filter_result.query_signatures,
                    filter_result.data_signatures,
                )
                if counts is not None
            ),
            gmcr=gmcr.nbytes(),
        )
        return MatchResult(
            mode=mode,
            total_matches=join_result.total_matches,
            filter_result=filter_result,
            gmcr=gmcr,
            join_result=join_result,
            timings=dict(timer.totals),
            stage_counts=dict(timer.counts),
            memory=memory,
        )


def _fresh_matched(gmcr: GMCR) -> GMCR:
    """The GMCR with its own copy of the ``matched`` flags.

    ``matched`` is the one part of a stored artifact the join
    mutates: the stored copy keeps pristine (all-False) flags, and each
    recalled GMCR gets a fresh array, so a resumed run's Find First flags
    cover exactly the pairs *it* joined.
    """
    return GMCR(gmcr.data_graph_offsets, gmcr.query_graph_indices, gmcr.matched.copy())

