"""Host-parallel chunked execution across CPU workers.

The simulated cluster (:mod:`repro.cluster.mpi_sim`) models the paper's
multi-GPU runs; this module is the *practical* counterpart: run SIGMo's
independent data chunks on multiple host processes, mpi4py-style SPMD
without MPI.  It composes the chunked driver (:mod:`repro.core.chunked`)
with a process pool over a static slice partitioning; results are
bitwise identical to a serial run (asserted in tests), since chunks share
nothing.

Transport: both batches are converted to CSR-GO once in the parent and
exported via :mod:`repro.cluster.shm`; each worker maps the arrays a
single time (cached for its lifetime) and carves its chunks out with
``slice_graphs`` — payloads shrink to a name + layout tuple regardless of
batch size.  When the platform cannot allocate shared memory the driver
warns and pickles each worker's graph slice instead.  Results are bitwise
identical either way.

Fault handling keeps the static partitioning, so a recovered run still
aggregates to exactly the serial result:

* **retry with backoff** — a slice whose worker crashed or OOMed is
  re-dispatched (same slice, incremented attempt counter) after
  :meth:`~repro.pipeline.policies.RetryPolicy.delay` seconds;
* **memory degradation** — an OOMed slice retries with half its
  within-worker chunk size (chunking never changes results);
* **hard-crash recovery** — a worker process that dies outright
  (``FaultPlan(crash_hard=True)``, or a real segfault) breaks the whole
  ``ProcessPoolExecutor``; the driver rebuilds the pool and re-dispatches
  every unfinished slice;
* **bounded failure** — a slice still failing after the policy's attempt
  bound is dropped from the aggregate and the run returns
  ``status="partial"`` instead of raising.

Any other exception propagates, so a real engine bug still raises.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass

from repro.cluster.shm import SharedCSRGO, ShmHandle, attached_csrgo, detach_all
from repro.core.chunked import run_chunked, run_chunked_csrgo
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL
from repro.core.results import MatchRecord
from repro.device.memory import DeviceOutOfMemory
from repro.graph.labeled_graph import LabeledGraph
from repro.pipeline.aggregate import (
    COMPLETE,
    PARTIAL,
    AggregateResult,
    ResultAccumulator,
)
from repro.pipeline.policies import RetryPolicy, partition_slices
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, WorkerCrash
from repro.runtime.telemetry import Attempt, RunReport


def _worker(task) -> AggregateResult:
    """Pool entry: inject scheduled faults, then run one graph range.

    ``source`` is either the two shared-memory handles — mapped once per
    process (:func:`repro.cluster.shm.attached_csrgo`) and sliced per
    chunk — or the pickled ``(queries, data slice)`` graph lists.
    """
    (
        source,
        start,
        stop,
        chunk_size,
        mode,
        config,
        fault_plan,
        slice_index,
        attempt,
        inline,
    ) = task
    if fault_plan is not None:
        if fault_plan.injects_crash(slice_index, attempt):
            if fault_plan.crash_hard and not inline:
                os._exit(13)  # simulate the process dying outright
            raise WorkerCrash(slice_index, attempt)
        fault_plan.check_oom(slice_index, attempt)
    queries, data = source
    if isinstance(data, ShmHandle):
        result = run_chunked_csrgo(
            attached_csrgo(queries),
            attached_csrgo(data),
            chunk_size,
            mode=mode,
            config=config,
            start_graph=start,
            stop_graph=stop,
        )
    else:
        result = run_chunked(queries, data, chunk_size, mode=mode, config=config)
    # globalize indices relative to the worker's slice start
    result.matched_pairs = [(d + start, q) for d, q in result.matched_pairs]
    result.embeddings = [
        MatchRecord(rec.data_graph + start, rec.query_graph, rec.mapping)
        for rec in result.embeddings
    ]
    # Per-chunk MatchResults hold bitmaps/GMCRs (potentially large);
    # don't ship them back per worker.
    result.chunk_results = []
    return result


@dataclass
class _Slice:
    """Dispatch state of one contiguous data slice."""

    index: int
    start: int
    stop: int
    chunk_size: int
    attempt: int = 0
    result: AggregateResult | None = None
    failed: bool = False

    @property
    def unit(self) -> str:
        """Telemetry label of the slice."""
        return f"slice-{self.index}[{self.start}:{self.stop}]"


def run_parallel(
    queries: list[LabeledGraph],
    data: list[LabeledGraph],
    n_workers: int | None = None,
    chunk_size: int = 256,
    mode: str = FIND_ALL,
    config: SigmoConfig | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> AggregateResult:
    """Run the pipeline over ``data`` with a pool of worker processes.

    Each worker receives a contiguous slice (static partitioning, like the
    paper's per-GPU blocks) and chunks it further to bound memory.  A
    single slice runs in-process; there a hard crash downgrades to a
    retried raise.

    Parameters
    ----------
    n_workers:
        Process count; defaults to ``os.cpu_count()`` capped at 8 and at
        the number of data graphs.
    chunk_size:
        Within-worker chunk size (memory bound per process).
    retry:
        Attempt bound and backoff schedule for crashed/OOMed slices
        (default :class:`~repro.pipeline.policies.RetryPolicy`: 4
        attempts, no sleeping).  An exhausted slice is dropped and the
        run returns ``status="partial"`` with its range listed in
        ``failed_slices``; every attempt is logged in ``report``.
    fault_plan:
        Deterministic fault injection per ``(slice, attempt)``.
    """
    if not data:
        raise ValueError("at least one data graph is required")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    retry = retry or RetryPolicy()
    n_workers = n_workers or min(os.cpu_count() or 1, 8)
    n_workers = max(1, min(n_workers, len(data)))
    slices = [
        _Slice(index=i, start=start, stop=stop, chunk_size=chunk_size)
        for i, (start, stop) in enumerate(partition_slices(len(data), n_workers))
    ]
    inline = len(slices) == 1
    report = RunReport()
    with ExitStack() as stack:
        try:
            handles = tuple(
                stack.enter_context(SharedCSRGO(CSRGO.from_graphs(batch))).handle
                for batch in (queries, data)
            )
            transport = "shared-memory"
        except OSError as exc:
            warnings.warn(
                f"shared-memory transport unavailable ({exc}); "
                "falling back to pickle",
                RuntimeWarning,
                stacklevel=2,
            )
            handles = None
            transport = "pickle"
        if inline and handles is not None:
            # In-process run: release the parent-cached mapping before
            # the stack unlinks the blocks.
            stack.callback(detach_all)

        def task_of(sl: _Slice):
            source = handles or (queries, data[sl.start : sl.stop])
            return (
                source,
                sl.start,
                sl.stop,
                sl.chunk_size,
                mode,
                config,
                fault_plan,
                sl.index,
                sl.attempt,
                inline,
            )

        _dispatch(slices, task_of, n_workers, retry, report)

    acc = ResultAccumulator()
    failed_slices = []
    for sl in slices:
        if sl.result is None:
            failed_slices.append((sl.start, sl.stop))
        else:
            acc.add_aggregate(sl.result)
    acc.matched_pairs.sort()
    return acc.finish(
        status=PARTIAL if failed_slices else COMPLETE,
        n_workers=len(slices),
        transport=transport,
        failed_slices=failed_slices,
        report=report,
    )


def _dispatch(slices, task_of, n_workers, retry, report) -> None:
    """Run every slice to success or exhaustion, filling ``sl.result``."""
    inline = len(slices) == 1

    def record(sl: _Slice, outcome: str, elapsed: float, detail: str = "") -> None:
        ok = outcome == telemetry.OK
        report.record(
            Attempt(
                unit=sl.unit,
                attempt=sl.attempt,
                outcome=outcome,
                chunk_size=sl.chunk_size,
                seconds=elapsed,
                backoff_seconds=0.0 if ok else retry.delay(sl.attempt, unit=sl.index),
                detail=detail,
            )
        )
        if ok:
            return
        if outcome == telemetry.OOM:
            sl.chunk_size = max(1, sl.chunk_size // 2)
        sl.attempt += 1
        sl.failed = retry.exhausted(sl.attempt)

    pending = list(slices)
    executor: ProcessPoolExecutor | None = None
    try:
        while pending:
            delay = max(retry.delay(sl.attempt, unit=sl.index) for sl in pending)
            if delay > 0:
                time.sleep(delay)
            started = time.perf_counter()
            if inline:
                sl = pending[0]
                runs = [(sl, lambda sl=sl: _worker(task_of(sl)))]
            else:
                if executor is None:
                    executor = ProcessPoolExecutor(max_workers=n_workers)
                runs = [
                    (sl, executor.submit(_worker, task_of(sl)).result)
                    for sl in pending
                ]
            pool_broken = False
            for sl, outcome_of in runs:
                try:
                    sl.result = outcome_of()
                except WorkerCrash as exc:
                    record(sl, telemetry.CRASH, time.perf_counter() - started, str(exc))
                except DeviceOutOfMemory as exc:
                    record(sl, telemetry.OOM, time.perf_counter() - started, str(exc))
                except BrokenProcessPool:
                    # One worker died hard; every in-flight slice is
                    # collateral.  Rebuild the pool and advance every
                    # affected attempt counter (the crashed slice is
                    # indistinguishable from its victims).
                    record(
                        sl,
                        telemetry.CRASH,
                        time.perf_counter() - started,
                        "process pool broken",
                    )
                    pool_broken = True
                else:
                    record(sl, telemetry.OK, time.perf_counter() - started)
            if pool_broken:
                executor.shutdown(wait=False)
                executor = None
            pending = [sl for sl in slices if sl.result is None and not sl.failed]
    finally:
        if executor is not None:
            executor.shutdown()
