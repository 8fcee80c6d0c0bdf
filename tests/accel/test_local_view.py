"""Sorted-CSR local views: correctness and the cache on each batch."""

import gc
import weakref

import numpy as np
import pytest

from repro.accel.local_view import (
    BatchCSRView,
    LocalCSRView,
    get_batch_view,
    get_local_view,
)
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from tests.conftest import random_case

pytestmark = pytest.mark.perf_accel


class TestViewCorrectness:
    def test_matches_csrgo_edge_labels(self, rng):
        for _ in range(10):
            _, d, _ = random_case(rng, n_edge_labels=3)
            data = CSRGO.from_graphs([d])
            view = LocalCSRView(data, 0)
            n = data.n_nodes
            for u in range(n):
                for v in range(n):
                    if data.has_edge(u, v):
                        assert view.edge_label(u, v) == data.edge_label(u, v)
                    else:
                        assert view.edge_label(u, v) == -1

    def test_vectorized_lookup_matches_scalar(self, rng):
        _, d, _ = random_case(rng, max_data_nodes=15, n_edge_labels=3)
        data = CSRGO.from_graphs([d])
        view = LocalCSRView(data, 0)
        n = view.width
        us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        labels = view.lookup_edge_labels(us.ravel(), vs.ravel())
        for u, v, lbl in zip(us.ravel(), vs.ravel(), labels):
            expected = view.edge_label(int(u), int(v))
            # vectorized uses -2 for absent, scalar -1
            assert lbl == (expected if expected != -1 else -2)

    def test_flat_keys_globally_sorted(self, rng):
        for _ in range(5):
            _, d, _ = random_case(rng)
            view = LocalCSRView(CSRGO.from_graphs([d]), 0)
            assert np.all(np.diff(view.flat_keys) > 0)

    def test_empty_graph_lookup(self):
        from repro.graph.labeled_graph import LabeledGraph

        data = CSRGO.from_graphs([LabeledGraph([1, 2], [])])
        view = LocalCSRView(data, 0)
        assert view.n_edges == 0
        out = view.lookup_edge_labels(np.array([0]), np.array([1]))
        assert out.tolist() == [-2]


class TestViewCache:
    def test_second_access_hits(self, bench, local_view_builds):
        data = CSRGO.from_graphs(bench.data)
        v1 = get_local_view(data, 3)
        assert len(local_view_builds) == 1
        v2 = get_local_view(data, 3)
        assert v2 is v1
        assert len(local_view_builds) == 1

    def test_rebuilt_batch_builds_own_views(self, bench, local_view_builds):
        # Views belong to the CSRGO instance: a content-equal rebuild
        # builds its own, with identical contents.
        data1 = CSRGO.from_graphs(bench.data)
        data2 = CSRGO.from_graphs(bench.data)
        v1 = get_local_view(data1, 0)
        v2 = get_local_view(data2, 0)
        assert v2 is not v1
        assert len(local_view_builds) == 2
        assert np.array_equal(v1.flat_keys, v2.flat_keys)
        assert np.array_equal(v1.edge_labels, v2.edge_labels)

    def test_different_batch_misses(self, bench, local_view_builds):
        data1 = CSRGO.from_graphs(bench.data[:10])
        data2 = CSRGO.from_graphs(bench.data[10:20])
        get_local_view(data1, 0)
        get_local_view(data2, 0)
        assert [args[0] for args in local_view_builds] == [data1, data2]

    def test_views_are_freed_with_their_batch(self, bench):
        config = SigmoConfig(join_backend="tabular")
        data = CSRGO.from_graphs(bench.data)
        SigmoEngine.from_csrgo(CSRGO.from_graphs(bench.queries), data, config).run()
        local_keys = weakref.ref(get_local_view(data, 0).flat_keys)
        batch_keys = weakref.ref(get_batch_view(data).flat_keys)
        batch = weakref.ref(data)
        del data
        gc.collect()
        assert batch() is None
        assert local_keys() is None
        assert batch_keys() is None


class TestRunJoinHoisting:
    """View construction is hoisted out of ``run_join``.

    Pinned to the per-pair tabular backend — under ``auto`` the dispatch
    rule routes pairs to the fused table, which probes the *batch*-level
    view instead of per-graph local views (covered below).
    """

    def test_second_run_builds_no_views(self, bench, local_view_builds):
        config = SigmoConfig(join_backend="tabular")
        engine = SigmoEngine(bench.queries, bench.data, config)
        engine.run()
        builds_after_first = len(local_view_builds)
        assert builds_after_first > 0
        engine.run()
        assert len(local_view_builds) == builds_after_first

    def test_sweep_shares_views(self, bench, local_view_builds):
        config = SigmoConfig(join_backend="tabular")
        engine = SigmoEngine(bench.queries, bench.data, config)
        engine.run_iteration_sweep([2, 4, 6])
        # All three sweep points share one batch's views: each graph's
        # view is built once, on the engine's batch.
        assert {id(args[0]) for args in local_view_builds} == {id(engine.data)}
        graphs = [args[1] for args in local_view_builds]
        assert len(graphs) == len(set(graphs))

    def test_batch_change_invalidates(self, bench, local_view_builds):
        config = SigmoConfig(join_backend="tabular")
        SigmoEngine(bench.queries, bench.data[:20], config).run()
        first_builds = len(local_view_builds)
        SigmoEngine(bench.queries, bench.data[20:40], config).run()
        assert len(local_view_builds) > first_builds


class TestBatchViewCorrectness:
    def test_probe_matches_csrgo_edges(self, rng):
        _, d, _ = random_case(rng, max_data_nodes=12, n_edge_labels=3)
        data = CSRGO.from_graphs([d])
        view = BatchCSRView(data)
        n = data.n_nodes
        us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        keys = us.ravel() * np.int64(n) + vs.ravel()
        mask, slot = view.probe(keys)
        for u, v, hit, s in zip(us.ravel(), vs.ravel(), mask, slot):
            if data.has_edge(int(u), int(v)):
                assert hit
                assert view.edge_labels[s] == data.edge_label(int(u), int(v))
            else:
                assert not hit

    def test_flat_keys_globally_sorted_across_graphs(self, bench):
        data = CSRGO.from_graphs(bench.data)
        view = BatchCSRView(data)
        assert np.all(np.diff(view.flat_keys) > 0)
        assert view.n_edges == data.column_indices.size

    def test_empty_batch_probe(self):
        from repro.graph.labeled_graph import LabeledGraph

        data = CSRGO.from_graphs([LabeledGraph([1, 2], [])])
        view = BatchCSRView(data)
        mask, _ = view.probe(np.array([0, 1], dtype=np.int64))
        assert not mask.any()


class TestBatchViewHoisting:
    """One batch-view build per batch, however many runs probe it."""

    def test_fused_runs_build_one_view_per_batch(self, bench, batch_view_builds):
        engine = SigmoEngine(bench.queries, bench.data)
        engine.run()  # auto -> fused tables probe the batch view
        assert len(batch_view_builds) == 1
        engine.run()
        engine.run(mode="find-first")
        assert len(batch_view_builds) == 1

    def test_rebuilt_batch_builds_own_view(self, bench, batch_view_builds):
        config = SigmoConfig(record_embeddings=True)
        query = CSRGO.from_graphs(bench.queries)
        data1 = CSRGO.from_graphs(bench.data)
        data2 = CSRGO.from_graphs(bench.data)
        r1 = SigmoEngine.from_csrgo(query, data1, config).run()
        r2 = SigmoEngine.from_csrgo(query, data2, config).run()
        assert [args[0] for args in batch_view_builds] == [data1, data2]
        assert get_batch_view(data1) is not get_batch_view(data2)
        assert r1.total_matches == r2.total_matches
        assert r1.embeddings == r2.embeddings
        assert r1.join_result.stats == r2.join_result.stats

    def test_batch_change_builds_again(self, bench, batch_view_builds):
        SigmoEngine(bench.queries, bench.data[:20]).run()
        assert len(batch_view_builds) == 1
        SigmoEngine(bench.queries, bench.data[20:40]).run()
        assert len(batch_view_builds) == 2
