"""Per-pair join backend selection: one fixed crossover rule.

The engine exposes one dispatch point (``run_join``); this module decides,
for each (data graph, query graph) pair, which backend joins it:

* ``"dfs"`` — the scalar stack-DFS reference (paper section 4.6);
* ``"tabular"`` — the per-pair vectorized tabular frontier backend
  (:func:`repro.accel.tabular.tabular_join_pair`);
* ``"fused"`` — the whole-batch fused frontier table
  (:mod:`repro.accel.fused`): every fused-dispatched pair of a batch
  rides one table with a leading pair column, so the per-pair Python
  call and frontier setup are paid once per *batch*, not once per pair.

Because the backends are bitwise-equivalent in Find All — match sets,
stats, truncation, embedding order — the choice is *purely* a performance
decision and may differ pair to pair within one run.

Under ``join_backend="auto"`` each pair is routed by its *pre-dispatch*
work estimate ``E = c0 + c0*c1`` (root candidates plus the
first-expansion cross product), the same rule in Find All and Find First:

* a single-node query → ``"dfs"`` (nothing to vectorize);
* ``E <= FUSED_MAX_ELEMENTS`` → ``"fused"`` (molecular pairs, hundreds
  of elements, amortize their setup across the batch table);
* otherwise → ``"tabular"`` (enumeration-heavy pairs probe one graph's
  edge index per pair).

The same estimate orders pairs *within* the fused table (descending),
which packs expensive pairs into early row blocks — ordering never
changes results, only block shapes.

``join_backend="dfs"`` / ``"tabular"`` / ``"fused"`` force the respective
backend for every pair (parity tests and the hot-path benchmark arms).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Scalar stack-DFS reference backend (paper section 4.6).
BACKEND_DFS = "dfs"
#: Per-pair vectorized tabular frontier backend (:mod:`repro.accel.tabular`).
BACKEND_TABULAR = "tabular"
#: Whole-batch fused frontier table (:mod:`repro.accel.fused`).
BACKEND_FUSED = "fused"
#: Per-pair rule-based choice.
BACKEND_AUTO = "auto"
#: Valid ``SigmoConfig.join_backend`` values.
JOIN_BACKENDS = (BACKEND_AUTO, BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)

#: Largest estimated element count (``c0 + c0*c1``) a pair may carry and
#: still ride the fused batch table under ``"auto"``; above it the
#: per-pair tabular pass is cheaper.  It is the fused/tabular crossover
#: of per-backend linear cost fits to join timings on the seeded
#: ``benchmarks/bench_hotpath.py`` suites, the same in both modes.
FUSED_MAX_ELEMENTS = 1794


class PlanCostModel:
    """Pre-dispatch work estimates, the dispatch rule and fused packing order.

    Stateless; a class so that ``run_join`` reaches the three steps as
    methods that a profiler can wrap by class attribute.
    """

    def estimate_elements_batch(
        self, n_depths: int, counts: np.ndarray
    ) -> np.ndarray:
        """Per-pair work estimate over the columns of ``counts``.

        ``counts`` is ``int[n_depths, n_pairs]`` — one column of per-depth
        candidate sizes per pair sharing the same query plan.  The
        estimate is root visits plus the first-expansion cross product —
        the two terms every backend pays before any pruning can
        differentiate them; deeper levels are unknowable pre-join.
        """
        c0 = counts[0].astype(np.int64)
        if n_depths < 2:
            return c0
        return c0 + c0 * counts[1].astype(np.int64)

    def choose_batch(
        self, n_depths: int, counts: np.ndarray, requested: str = BACKEND_AUTO
    ) -> list[str]:
        """The backend of every pair (column of ``counts``) sharing a plan.

        ``requested`` is ``SigmoConfig.join_backend`` — a forced backend
        or ``"auto"``.  The rule is the same in Find All and Find First.
        """
        n_pairs = counts.shape[1]
        if requested in (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED):
            return [requested] * n_pairs
        if requested != BACKEND_AUTO:
            raise ValueError(
                f"join_backend must be one of {JOIN_BACKENDS}, got {requested!r}"
            )
        if n_depths < 2:
            return [BACKEND_DFS] * n_pairs
        fused = self.estimate_elements_batch(n_depths, counts) <= FUSED_MAX_ELEMENTS
        return [BACKEND_FUSED if f else BACKEND_TABULAR for f in fused.tolist()]

    def ordering(self, estimates: Sequence[int]) -> list[int]:
        """Packing order of fused pairs: descending estimated cost.

        Expensive pairs lead the table so early row blocks are dense;
        stable on the original index, so equal-cost pairs keep GMCR
        order.  Results are invariant to this order (asserted in
        ``tests/accel/test_fused.py``) — it shapes blocks, nothing else.
        """
        return sorted(
            range(len(estimates)), key=lambda i: (-int(estimates[i]), i)
        )
