"""The whole-batch fused frontier table: parity, budgets, packing, reuse.

Seeded property-style sweeps assert the fused backend is bitwise-equal to
the scalar DFS reference in Find All (match sets, embeddings and their
order, every ``JoinStats`` counter, budget truncation and resume tokens)
and result-equal in Find First (the first embedding is the DFS-first
one).  Packing order inside the table and wave boundaries are shape-only:
reordering slots must not change a single output bit.
"""

import threading

import numpy as np
import pytest

from repro.accel.dispatch import PlanCostModel
from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget
from repro.pipeline.session import MatcherSession
from tests.accel.test_parity import (
    _embeddings,
    _run,
    assert_find_all_parity,
    three_backend_mix,
)

pytestmark = pytest.mark.perf_accel

SEEDS = [0, 1, 2, 3]


def _ascending_order(self, estimates):
    """Packing order that puts the cheapest fused pairs first."""
    return sorted(range(len(estimates)), key=lambda i: (int(estimates[i]), i))


class TestFusedFindAllParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_equal_to_dfs(self, seed):
        ds = build_benchmark(
            scale=1.0, n_queries=16, n_data_graphs=40, seed=seed
        )
        ra = _run(ds.queries, ds.data, "dfs")
        rf = _run(ds.queries, ds.data, "fused")
        assert_find_all_parity(ra, rf)

    def test_induced_mode_parity(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=5)
        ra = _run(ds.queries, ds.data, "dfs", induced=True)
        rf = _run(ds.queries, ds.data, "fused", induced=True)
        assert_find_all_parity(ra, rf)

    def test_record_cap_truncation_parity(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=2)
        ra = _run(ds.queries, ds.data, "dfs", max_embeddings_recorded=7)
        rf = _run(ds.queries, ds.data, "fused", max_embeddings_recorded=7)
        assert len(rf.join_result.embeddings) == 7
        assert _embeddings(ra) == _embeddings(rf)

    def test_one_table_carries_every_pair(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=0)
        rf = _run(ds.queries, ds.data, "fused")
        jr = rf.join_result
        assert jr.fused_tables == 1
        assert sum(jr.fused_pairs_per_table) == jr.backend_pairs["fused"]
        assert jr.backend_visits["fused"] == jr.stats.candidate_visits


class TestFusedFindFirst:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_embedding_is_dfs_first(self, seed):
        ds = build_benchmark(
            scale=1.0, n_queries=16, n_data_graphs=40, seed=seed
        )
        ra = _run(ds.queries, ds.data, "dfs", mode=FIND_FIRST)
        rf = _run(ds.queries, ds.data, "fused", mode=FIND_FIRST)
        assert ra.total_matches == rf.total_matches
        assert np.array_equal(
            ra.join_result.pair_matches, rf.join_result.pair_matches
        )
        assert _embeddings(ra) == _embeddings(rf)

    def test_early_exit_depths_recorded(self):
        # Retirement fires when a pair matches while it still has stacked
        # frontier rows: a label-uniform ring gives a path query frontiers
        # far wider than one block, so the first match retires the rest.
        from repro.graph.generators import path_graph, ring_graph

        queries = [path_graph([1, 1, 1])]
        data = [ring_graph(400, [1] * 400)]
        rf = _run(queries, data, "fused", mode=FIND_FIRST)
        depths = rf.join_result.fused_early_exit_depths
        assert depths
        assert all(d >= 1 for d in depths)

    def test_find_all_records_no_early_exits(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=0)
        rf = _run(ds.queries, ds.data, "fused")
        assert rf.join_result.fused_early_exit_depths == []


class TestFusedBudgets:
    @pytest.mark.parametrize(
        "budget",
        [
            JoinBudget(max_visits=500),
            JoinBudget(max_pushes=200),
            JoinBudget(max_matches=20),
        ],
    )
    def test_find_all_truncation_point_identical(self, budget):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        ra = _run(ds.queries, ds.data, "dfs", budget=budget)
        rf = _run(ds.queries, ds.data, "fused", budget=budget)
        ja, jf = ra.join_result, rf.join_result
        assert ja.truncated and jf.truncated
        assert ja.resume_pair == jf.resume_pair
        assert ja.truncate_reason == jf.truncate_reason
        assert_find_all_parity(ra, rf)

    @pytest.mark.parametrize("backend", ["fused", "auto"])
    def test_cross_engine_resume_completes(self, backend):
        # A token minted by a fused run resumes on any backend (and vice
        # versa) because truncation happens at GMCR pair boundaries.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        full = _run(ds.queries, ds.data, "dfs")
        config = SigmoConfig(record_embeddings=True, join_backend=backend)
        engine = SigmoEngine(ds.queries, ds.data, config)
        part = engine.run(join_budget=JoinBudget(max_visits=500))
        assert part.truncated
        rest_engine = SigmoEngine(
            ds.queries, ds.data, SigmoConfig(record_embeddings=True, join_backend="dfs")
        )
        rest = rest_engine.run(join_start_pair=part.resume_pair)
        assert part.total_matches + rest.total_matches == full.total_matches

    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    def test_same_backend_resume_is_lossless(self, mode):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=1)
        config = SigmoConfig(join_backend="fused")
        full = SigmoEngine(ds.queries, ds.data, config).run(mode=mode)
        engine = SigmoEngine(ds.queries, ds.data, config)
        part = engine.run(mode=mode, join_budget=JoinBudget(max_visits=400))
        assert part.truncated
        rest = engine.run(mode=mode, join_start_pair=part.resume_pair)
        assert part.total_matches + rest.total_matches == full.total_matches
        assert sorted(part.matched_pairs() + rest.matched_pairs()) == sorted(
            full.matched_pairs()
        )

    def test_budget_splits_waves(self):
        # With a budget the fused queue runs in lazily sized waves sized
        # by the remaining headroom, never the whole batch in one table.
        # Waves are speculative: a wave may execute a few more pairs than
        # the replay commits before truncating.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        full = _run(ds.queries, ds.data, "fused")
        rf = _run(ds.queries, ds.data, "fused", budget=JoinBudget(max_visits=500))
        jr = rf.join_result
        assert jr.fused_tables >= 1
        executed = sum(jr.fused_pairs_per_table)
        assert executed >= jr.backend_pairs["fused"]
        assert executed < full.join_result.backend_pairs["fused"]


class TestPackingInvariance:
    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    def test_table_order_never_changes_results(self, mode, monkeypatch):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=2)
        baseline = _run(ds.queries, ds.data, "fused", mode=mode)
        monkeypatch.setattr(PlanCostModel, "ordering", _ascending_order)
        reordered = _run(ds.queries, ds.data, "fused", mode=mode)
        assert _embeddings(baseline) == _embeddings(reordered)
        if mode == FIND_ALL:
            assert_find_all_parity(baseline, reordered)

    def test_mixed_dispatch_keeps_gmcr_emission_order(self):
        # On a three-backend mix the replay pass interleaves fused, DFS
        # and tabular pairs back into GMCR order, so embeddings come out
        # exactly as the all-DFS reference emits them.
        queries, data = three_backend_mix()
        ra = _run(queries, data, "dfs")
        rc = _run(queries, data, "auto")
        assert rc.join_result.backend_pairs["dfs"] > 0
        assert rc.join_result.backend_pairs["fused"] > 0
        assert rc.join_result.backend_pairs["tabular"] > 0
        assert_find_all_parity(ra, rc)


class TestSessionReuse:
    def test_warm_session_reuses_batch_view(self, bench, batch_view_builds):
        session = MatcherSession(bench.queries)
        r1 = session.match(bench.data)
        assert len(batch_view_builds) == 1
        r2 = session.match(bench.data)
        assert len(batch_view_builds) == 1  # warm path: no rebuild
        assert r1.total_matches == r2.total_matches

    def test_concurrent_matches_equal_sequential(self, bench):
        config = SigmoConfig(record_embeddings=True)
        expected = _run(bench.queries, bench.data, "fused")
        session = MatcherSession(bench.queries, config=config)
        results = [None] * 4
        errors = []

        def work(i):
            try:
                results[i] = session.match(bench.data)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results:
            assert r is not None
            assert r.total_matches == expected.total_matches
            assert _embeddings(r) == _embeddings(expected)
