"""Iterative candidate filtering (paper Algorithm 1 and section 4.4).

The filter runs ``s`` refinement iterations.  Iteration ``i`` compares
radius-``i-1`` signatures: a data node stays a candidate for a query node
iff its (saturated) signature dominates the query node's per label.
Refinement is monotone — bits are only ever cleared — matching the paper's
invariant that a node pruned at iteration ``i-1`` cannot return at ``i``.

Kernel-equivalent layout notes:

* ``InitializeCandidates`` builds one boolean stripe per *label* and
  assigns it to every query node with that label, rather than looping the
  ``n_q x n_d`` product — same output as Alg. 1's kernel.
* ``RefineCandidates`` splits domination by label.  Saturated counts are
  small ``uint8`` values, so for each label the distinct thresholds the
  query side uses each get one packed *threshold row* over the data
  nodes (``sat_d[:, l] >= t``); a query node's mask is the AND, over its
  labels, of the row its own count indexes.  Labels no query node counts
  are skipped.  The work per iteration follows the number of
  (label, threshold) pairs — at most 64 label fields times a few
  thresholds — not the number of distinct signatures, which grows with
  the radius into the hundreds on molecular queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import xp
from repro.accel.memo import frozen_array, signature_memo
from repro.analysis import contracts
from repro.analysis.markers import kernel
from repro.core.candidates import CandidateBitmap
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.signatures import SignaturePacking, SignatureState
from repro.obs.trace import get_tracer
from repro.utils.bitops import pack_bool_rows
from repro.utils.timing import StageTimer

if TYPE_CHECKING:
    import numpy as np

#: Signature count matrices above this size are not cached on their batch
#: (the cache is for the many-runs-per-batch pattern — a session's query
#: batch, sweeps, resumes — not for pinning hundred-MB matrices of one giant
#: batch in memory).
SIGNATURE_MEMO_MAX_BYTES = 32 << 20


@dataclass
class IterationStats:
    """Per-refinement-iteration observability (drives Figs. 5-6).

    Attributes
    ----------
    iteration:
        1-based refinement iteration number.
    radius:
        Signature radius used (``iteration - 1``).
    total_candidates:
        Sum of candidate-set sizes over all query nodes (Fig. 5 line).
    candidates_per_node:
        Candidate-set size per query node (Fig. 5 box plots).
    filter_seconds:
        Wall-clock host time of this iteration's signature + refine step,
        as the run's ``StageTimer`` measured it under ``filter``.
    """

    iteration: int
    radius: int
    total_candidates: int
    candidates_per_node: np.ndarray
    filter_seconds: float


@dataclass
class FilterResult:
    """Output of the filtering phase.

    Attributes
    ----------
    bitmap:
        Final candidate bitmap.
    packing:
        The signature packing used (shared by query and data sides).
    iterations:
        Per-iteration statistics, oldest first.
    query_signatures / data_signatures:
        Final raw (unsaturated) signature count matrices, kept for
        diagnostics and the device-simulation work model.
    """

    bitmap: CandidateBitmap
    packing: SignaturePacking
    iterations: list[IterationStats] = field(default_factory=list)
    query_signatures: np.ndarray | None = None
    data_signatures: np.ndarray | None = None

    @property
    def total_candidates(self) -> int:
        """Candidate count after the final iteration."""
        return self.iterations[-1].total_candidates if self.iterations else 0


@kernel(writes=())
def initialize_candidates(
    query: CSRGO, data: CSRGO, word_bits: int = 64, wildcard_label: int | None = None
) -> CandidateBitmap:
    """Stage 2 of the pipeline: label-equality candidate seeding.

    Equivalent to Alg. 1's ``InitializeCandidates``: data node ``v_d`` is an
    initial candidate of query node ``v_q`` iff their labels are equal.
    Query nodes carrying ``wildcard_label`` start with *every* data node as
    a candidate (wildcard atoms, the paper's future-work extension).
    """
    bitmap = CandidateBitmap(query.n_nodes, data.n_nodes, word_bits)
    if query.n_nodes == 0 or data.n_nodes == 0:
        return bitmap
    tracer = get_tracer()
    with tracer.span(
        "kernel:initialize_candidates", category="kernel", work_items=data.n_nodes
    ):
        for label in xp.unique(query.labels):
            # One work-group batch per label stripe (Alg. 1 layout).
            with tracer.span(
                f"wg:label-{int(label)}", category="workgroup"
            ) as wg:
                if wildcard_label is not None and label == wildcard_label:
                    mask = xp.ones(data.n_nodes, dtype=xp.bool_)
                else:
                    mask = data.labels == label
                packed = pack_bool_rows(mask[None, :], word_bits)[0]
                rows = xp.nonzero(query.labels == label)[0]
                bitmap.words[rows] = packed
                wg.set(query_rows=int(rows.size), candidates=int(mask.sum()))
    return bitmap


@kernel(writes=("words",))
def and_domination_masks(
    words: np.ndarray, sat_q: np.ndarray, sat_d: np.ndarray, word_bits: int
) -> int:
    """AND every query row of ``words`` with its packed domination mask.

    Data node ``d`` stays in row ``q`` iff ``sat_d[d, l] >= sat_q[q, l]``
    for every column ``l``.  Per column, each distinct query threshold
    ``t`` gets one packed row ``sat_d[:, l] >= t``; a query row's mask is
    the AND, over columns, of the row its own threshold indexes (AND
    commutes, so each column's gathered rows go straight into ``words``).
    Columns whose only threshold is 0 are skipped, so the Python loop
    runs once per column some query row counts: at most 64 label fields
    for :func:`refine_candidates` (``SignaturePacking``), and for
    :func:`repro.core.edge_signatures.refine_candidates_edge_aware` the
    (edge label, neighbour label) pairs present in the query batch — at
    most ``n_edge_labels * n_labels`` and at most twice the query edge
    count.  At most one ``(thresholds, n_data)`` boolean block and one
    ``(n_query, n_words)`` gathered block are live at a time.

    Parameters
    ----------
    words:
        Packed bitmap ``(n_query, n_words)``, refined in place.  Its tail
        bits are never set (every packed row has them clear).
    sat_q / sat_d:
        Saturated count matrices ``(n_query, n_cols)`` and
        ``(n_data, n_cols)``.
    word_bits:
        Bitmap word width.

    Returns
    -------
    int
        Number of packed threshold rows built (0 when nothing is refined).
    """
    n_rows = 0
    if words.size == 0:
        return n_rows
    for col in xp.nonzero(xp.max(sat_q, axis=0))[0]:
        thresholds, inverse = xp.unique(sat_q[:, col], return_inverse=True)
        rows = pack_bool_rows(sat_d[None, :, col] >= thresholds[:, None], word_bits)
        words[:] &= rows[inverse]
        n_rows += thresholds.shape[0]
    return n_rows


@kernel(writes=("bitmap",))
def refine_candidates(
    bitmap: CandidateBitmap,
    query_counts: np.ndarray,
    data_counts: np.ndarray,
    packing: SignaturePacking,
) -> None:
    """One ``RefineCandidates`` step: AND domination masks into the bitmap.

    Parameters
    ----------
    bitmap:
        Candidate bitmap, refined in place (monotone: only clears bits).
    query_counts / data_counts:
        Raw signature count matrices ``(n_nodes, n_labels)`` at the current
        radius.
    packing:
        Saturation layout; domination is evaluated on saturated counts,
        which is exactly the packed-bitset comparison of section 4.2.
    """
    sat_q = packing.saturate(query_counts)
    sat_d = packing.saturate(data_counts)
    if sat_q.shape[0] != bitmap.n_query_nodes:
        raise ValueError("query_counts rows != bitmap query nodes")
    if sat_d.shape[0] != bitmap.n_data_nodes:
        raise ValueError("data_counts rows != bitmap data nodes")
    with get_tracer().span(
        "kernel:refine_candidates",
        category="kernel",
        work_items=bitmap.n_data_nodes,
    ) as sp:
        n_rows = and_domination_masks(bitmap.words, sat_q, sat_d, bitmap.word_bits)
        sp.set(threshold_rows=n_rows)


def derive_n_labels(query: CSRGO, data: CSRGO, wildcard_label: int | None) -> int:
    """Label-vocabulary size shared by every stage (wildcard excluded).

    The max over the query labels (minus the wildcard, whose rows match
    anything) and the data batch's label count, floored at 1.
    """
    q_labels = query.labels
    if wildcard_label is not None:
        q_labels = q_labels[q_labels != wildcard_label]
    q_max = int(q_labels.max()) + 1 if q_labels.size else 0
    return max(q_max, data.n_labels, 1)


class IterativeFilter:
    """Runs the full multi-iteration filtering phase.

    Parameters
    ----------
    query / data:
        Query and data batches in CSR-GO form.
    config:
        Engine configuration (iterations, word width, signature bits).
    n_labels:
        Optional explicit label-vocabulary size; defaults to
        :func:`derive_n_labels`.
    """

    def __init__(
        self,
        query: CSRGO,
        data: CSRGO,
        config: SigmoConfig | None = None,
        n_labels: int | None = None,
    ) -> None:
        self.query = query
        self.data = data
        self.config = config or SigmoConfig()
        if n_labels is None:
            n_labels = derive_n_labels(query, data, self.config.wildcard_label)
        self.n_labels = n_labels
        freq = xp.bincount(data.labels, minlength=n_labels).astype(xp.float64)
        self.packing = self.config.packing_for(freq)
        self._query_state: SignatureState | None = None
        self._data_state: SignatureState | None = None
        self._last_signatures: tuple[np.ndarray, np.ndarray] | None = None

    def run(self, timer: StageTimer | None = None) -> FilterResult:
        """Execute ``refinement_iterations`` filter iterations.

        Returns the final bitmap plus per-iteration statistics.  Signature
        states are created lazily at iteration 2 (iteration 1 is label-only
        and needs no BFS), and their frontiers are cached across iterations.

        ``run`` owns the ``stage:filter`` span and runs the two phases
        (:meth:`initialize` / :meth:`refine`) in it.
        """
        timer = timer or StageTimer()
        with get_tracer().span(
            "stage:filter",
            category="stage",
            iterations=self.config.refinement_iterations,
        ) as stage_sp:
            result = self.initialize(timer)
            self.refine(result, timer)
            stage_sp.set(candidates=result.total_candidates)
        return result

    def initialize(self, timer: StageTimer | None = None) -> FilterResult:
        """Stage 2: seed the candidate bitmap (plus the edge-aware pass).

        Returns a :class:`FilterResult` shell holding the initialized
        bitmap; :meth:`refine` completes it in place.  Opens no stage
        span — :meth:`run` owns that.
        """
        timer = timer or StageTimer()
        tracer = get_tracer()
        with timer.stage("initialize_candidates"):
            bitmap = initialize_candidates(
                self.query,
                self.data,
                self.config.word_bits,
                self.config.wildcard_label,
            )
        result = FilterResult(bitmap=bitmap, packing=self.packing)
        if self.config.edge_signatures:
            from repro.core.edge_signatures import refine_candidates_edge_aware

            with timer.stage("filter"):
                with tracer.span("kernel:refine_edge_aware", category="kernel"):
                    refine_candidates_edge_aware(
                        bitmap,
                        self.query,
                        self.data,
                        self.n_labels,
                        wildcard_label=self.config.wildcard_label,
                        wildcard_edge_label=self.config.wildcard_edge_label,
                    )
        if contracts.enabled():
            contracts.check_bitmap(bitmap, name="initialize_candidates")
        return result

    def refine(
        self, result: FilterResult, timer: StageTimer | None = None
    ) -> FilterResult:
        """Stages 3-4: run the refinement iterations over an initialized bitmap.

        Mutates ``result`` in place (bitmap bits cleared monotonically,
        per-iteration stats appended, final signature matrices attached)
        and returns it.  Each iteration's ``filter_seconds`` is its share
        of the timer's ``filter`` total.
        """
        timer = timer or StageTimer()
        bitmap = result.bitmap
        checking = contracts.enabled()
        for iteration in range(1, self.config.refinement_iterations + 1):
            start = timer.totals.get("filter", 0.0)
            radius = iteration - 1
            prev_words = bitmap.words.copy() if checking else None
            with timer.stage("filter"):
                if radius > 0:
                    q_counts, d_counts = self._signatures_at(radius)
                    refine_candidates(bitmap, q_counts, d_counts, self.packing)
            elapsed = timer.totals["filter"] - start
            per_node = bitmap.row_counts()
            if checking:
                contracts.check_bitmap(
                    bitmap,
                    name=f"refine iteration {iteration}",
                    expected_counts=per_node,
                )
                contracts.check_refinement_monotone(
                    prev_words, bitmap.words, name=f"refine iteration {iteration}"
                )
            result.iterations.append(
                IterationStats(
                    iteration=iteration,
                    radius=radius,
                    total_candidates=int(per_node.sum()),
                    candidates_per_node=per_node,
                    filter_seconds=elapsed,
                )
            )
        if self._last_signatures is not None:
            result.query_signatures, result.data_signatures = self._last_signatures
        return result

    def _signatures_at(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """Query and data signature counts at the given radius.

        Each side is cached on its own batch (:attr:`CSRGO.derived`),
        keyed by the active array backend, label-vocabulary size, the
        ignored (wildcard) label and the radius — so every chunk a session
        streams recalls the query side from the session's query batch, and
        sweeps or resumes over one data batch recall the data side.
        Oversized matrices are not cached (:data:`SIGNATURE_MEMO_MAX_BYTES`);
        cached arrays are frozen (non-writeable) — ``refine_candidates``
        only reads them.
        """
        q = self._side_signatures_at("query", radius)
        d = self._side_signatures_at("data", radius)
        self._last_signatures = (q, d)
        return q, d

    def _side_signatures_at(self, side: str, radius: int) -> np.ndarray:
        """One side's counts at ``radius``, cached on its batch."""
        batch = self.query if side == "query" else self.data
        ignore = self.config.wildcard_label if side == "query" else None
        key = ("signatures", xp.backend_name(), self.n_labels, ignore, radius)
        cached = batch.derived.get(key)
        signature_memo().record(hit=cached is not None)
        if cached is not None:
            return cached

        state_attr = "_query_state" if side == "query" else "_data_state"
        state = getattr(self, state_attr)
        if state is None:
            state = SignatureState(batch, self.n_labels, ignore_label=ignore)
            setattr(self, state_attr, state)
        counts = state.run_to(radius)
        if counts.nbytes <= SIGNATURE_MEMO_MAX_BYTES:
            counts = batch.derived.setdefault(key, frozen_array(counts))
        return counts
