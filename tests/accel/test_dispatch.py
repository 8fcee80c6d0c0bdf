"""Backend selection: the fixed dispatch rule and the config override."""

import numpy as np
import pytest

from repro.accel import dispatch
from repro.accel.dispatch import (
    BACKEND_AUTO,
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    FUSED_MAX_ELEMENTS,
    JOIN_BACKENDS,
    PlanCostModel,
)
from repro.core.config import SigmoConfig
from repro.core.join import FIND_ALL, FIND_FIRST
from tests.accel.test_parity import _run, three_backend_mix

pytestmark = pytest.mark.perf_accel

def _choose(*pairs, requested=BACKEND_AUTO):
    """Backends of ``pairs`` (per-depth candidate sizes) sharing one plan."""
    counts = np.array(pairs, dtype=np.int64).T
    return PlanCostModel().choose_batch(counts.shape[0], counts, requested)


class TestCostModel:
    def test_estimate_is_root_plus_first_expansion(self):
        model = PlanCostModel()
        assert model.estimate_elements_batch(1, np.array([[7]])).tolist() == [7]
        # Deeper candidate lists never enter the estimate: pruning makes
        # them unknowable pre-join.
        deep = np.array([[4, 2], [5, 0], [10_000, 9]])
        assert model.estimate_elements_batch(3, deep).tolist() == [4 + 4 * 5, 2]

    def test_default_crossover_matches_static_threshold(self):
        # E = c0 + c0*c1: [1, 1793] sits exactly on FUSED_MAX_ELEMENTS,
        # [1, 1794] one element above it.
        assert FUSED_MAX_ELEMENTS == 1794
        at, above = [1, FUSED_MAX_ELEMENTS - 1], [1, FUSED_MAX_ELEMENTS]
        assert _choose(at, above) == [BACKEND_FUSED, BACKEND_TABULAR]
        # The same edge through a deeper plan: only c0 and c1 count.
        assert _choose(at + [10**6, 10**6], above + [0, 0]) == [
            BACKEND_FUSED,
            BACKEND_TABULAR,
        ]

    def test_crossover_follows_coefficients(self, monkeypatch):
        # The rule reads the module constant at call time.
        monkeypatch.setattr(dispatch, "FUSED_MAX_ELEMENTS", 50)
        assert _choose([5, 9], [5, 10]) == [BACKEND_FUSED, BACKEND_TABULAR]

    def test_find_first_is_a_cost_decision(self):
        # Find First routes every pair exactly as Find All does, on a
        # batch whose inputs exercise all three branches of the rule.
        queries, data = three_backend_mix()
        find_all = _run(queries, data, BACKEND_AUTO, mode=FIND_ALL)
        find_first = _run(queries, data, BACKEND_AUTO, mode=FIND_FIRST)
        split = find_all.join_result.backend_pairs
        assert min(split.values()) > 0
        assert find_first.join_result.backend_pairs == split

    def test_fused_tabular_crossover(self):
        # Molecular-sized and empty pairs ride the fused table; 60x60
        # (E = 3660) is past the crossover.
        assert _choose([10, 50], [0, 0], [60, 60]) == [
            BACKEND_FUSED,
            BACKEND_FUSED,
            BACKEND_TABULAR,
        ]

    def test_single_node_query_stays_on_dfs(self):
        # Nothing to vectorize at depth 1, whatever the candidate count.
        assert _choose([1], [10**6]) == [BACKEND_DFS, BACKEND_DFS]

    def test_ordering_descending_and_stable(self):
        model = PlanCostModel()
        assert model.ordering([5, 9, 5, 12]) == [3, 1, 0, 2]
        assert model.ordering([]) == []


class TestOverride:
    def test_forced_backends_win_over_model(self):
        # Forcing beats every rule branch, including the depth-1 guard.
        for forced in (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED):
            assert _choose([1], requested=forced) == [forced]
            assert _choose([1, 1], [1, FUSED_MAX_ELEMENTS], requested=forced) == [
                forced,
                forced,
            ]

    def test_auto_is_default(self):
        counts = np.array([[100], [100]])
        model = PlanCostModel()
        assert model.choose_batch(2, counts) == model.choose_batch(
            2, counts, BACKEND_AUTO
        )

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="join_backend"):
            _choose([10, 10], requested="gpu")


class TestConfigKnob:
    def test_config_validates_backend(self):
        for backend in JOIN_BACKENDS:
            assert SigmoConfig(join_backend=backend).join_backend == backend
        with pytest.raises(ValueError, match="join_backend"):
            SigmoConfig(join_backend="vectorized")

    def test_with_backend_copies(self):
        base = SigmoConfig()
        forced = base.with_backend(BACKEND_TABULAR)
        assert base.join_backend == BACKEND_AUTO
        assert forced.join_backend == BACKEND_TABULAR
        assert forced.refinement_iterations == base.refinement_iterations
