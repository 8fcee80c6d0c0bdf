"""Shared-memory CSR-GO transport: roundtrip, isolation, and parity."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.cluster import parallel
from repro.cluster.parallel import run_parallel
from repro.cluster.shm import (
    CSRGO_FIELDS,
    SharedCSRGO,
    attach_csrgo,
    attached_csrgo,
    detach_all,
)
from repro.core.chunked import run_chunked, run_chunked_csrgo
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.runtime import FaultPlan

pytestmark = pytest.mark.perf_accel


@pytest.fixture(autouse=True)
def clean_mappings():
    yield
    detach_all()


class TestRoundtrip:
    def test_arrays_survive_export_attach(self, bench):
        original = CSRGO.from_graphs(bench.data)
        with SharedCSRGO(original) as shared:
            attached, shm = attach_csrgo(shared.handle)
            try:
                for f in CSRGO_FIELDS:
                    assert np.array_equal(
                        getattr(attached, f), getattr(original, f)
                    ), f
                assert attached.content_hash() == original.content_hash()
            finally:
                del attached
                shm.close()

    def test_attached_arrays_are_readonly_views(self, bench):
        original = CSRGO.from_graphs(bench.data[:5])
        with SharedCSRGO(original) as shared:
            attached, shm = attach_csrgo(shared.handle)
            try:
                assert not attached.labels.flags.writeable
                with pytest.raises(ValueError):
                    attached.labels[0] = 99
            finally:
                del attached
                shm.close()

    def test_attach_cache_maps_once(self, bench):
        original = CSRGO.from_graphs(bench.data[:5])
        with SharedCSRGO(original) as shared:
            a = attached_csrgo(shared.handle)
            b = attached_csrgo(shared.handle)
            assert a is b
            detach_all()

    def test_slices_do_not_reference_shared_block(self, bench):
        # Worker results must survive the parent unlinking the block.
        original = CSRGO.from_graphs(bench.data)
        with SharedCSRGO(original) as shared:
            attached, shm = attach_csrgo(shared.handle)
            chunk = attached.slice_graphs(2, 7)
            for f in CSRGO_FIELDS:
                assert not np.shares_memory(
                    getattr(chunk, f), getattr(attached, f)
                ), f
            del attached
            shm.close()
        # Block is unlinked now; the chunk still works.
        assert chunk.n_graphs == 5
        assert SigmoEngine.from_csrgo(
            CSRGO.from_graphs(bench.queries), chunk
        ).run().total_matches >= 0


class TestChunkedCSRGO:
    def test_matches_list_based_chunking(self, bench):
        config = SigmoConfig(record_embeddings=True)
        by_list = run_chunked(bench.queries, bench.data, 7, config=config)
        by_csrgo = run_chunked_csrgo(
            CSRGO.from_graphs(bench.queries),
            CSRGO.from_graphs(bench.data),
            7,
            config=config,
        )
        assert by_csrgo.total_matches == by_list.total_matches
        assert by_csrgo.n_chunks == by_list.n_chunks
        assert sorted(by_csrgo.matched_pairs) == sorted(by_list.matched_pairs)
        embs = lambda r: sorted(
            (e.data_graph, e.query_graph, tuple(e.mapping.tolist()))
            for e in r.embeddings
        )
        assert embs(by_csrgo) == embs(by_list)

    def test_graph_range_slice(self, bench):
        query = CSRGO.from_graphs(bench.queries)
        data = CSRGO.from_graphs(bench.data)
        whole = run_chunked_csrgo(query, data, 7)
        part = run_chunked_csrgo(query, data, 7, start_graph=10, stop_graph=30)
        subset = [
            (d - 10, q) for d, q in whole.matched_pairs if 10 <= d < 30
        ]
        assert sorted(part.matched_pairs) == sorted(subset)

    def test_invalid_range_rejected(self, bench):
        query = CSRGO.from_graphs(bench.queries)
        data = CSRGO.from_graphs(bench.data[:5])
        with pytest.raises(ValueError, match="graph range"):
            run_chunked_csrgo(query, data, 2, start_graph=3, stop_graph=9)


def embedding_keys(result):
    return [
        (e.data_graph, e.query_graph, tuple(e.mapping.tolist()))
        for e in result.embeddings
    ]


def assert_bitwise_equal(result, expected):
    assert result.total_matches == expected.total_matches
    assert result.n_chunks == expected.n_chunks
    assert result.matched_pairs == sorted(expected.matched_pairs)
    assert embedding_keys(result) == embedding_keys(expected)
    assert result.join_stats == expected.join_stats


class _FailingShared:
    def __init__(self, csrgo):
        raise OSError("shared memory disabled for this test")


class _RecordingShared(parallel.SharedCSRGO):
    names: list[str] = []

    def __init__(self, csrgo):
        super().__init__(csrgo)
        self.names.append(self.handle.name)


class TestParallelSharedMemory:
    def test_bitwise_equal_to_pickle_transport(self, bench, monkeypatch):
        config = SigmoConfig(record_embeddings=True)
        shm = run_parallel(
            bench.queries, bench.data, n_workers=3, chunk_size=9, config=config
        )
        monkeypatch.setattr(parallel, "SharedCSRGO", _FailingShared)
        with pytest.warns(RuntimeWarning, match="falling back to pickle"):
            pick = run_parallel(
                bench.queries, bench.data, n_workers=3, chunk_size=9, config=config
            )
        assert shm.transport == "shared-memory"
        assert pick.transport == "pickle"
        assert_bitwise_equal(pick, shm)

    def test_single_worker_in_process_path(self, bench):
        serial = run_chunked(bench.queries, bench.data, 9)
        shm = run_parallel(bench.queries, bench.data, n_workers=1, chunk_size=9)
        assert shm.transport == "shared-memory"
        assert shm.total_matches == serial.total_matches

    def test_find_first_mode(self, bench):
        serial = run_chunked(bench.queries, bench.data, 9, mode="find-first")
        shm = run_parallel(
            bench.queries, bench.data, n_workers=2, chunk_size=9, mode="find-first"
        )
        assert shm.total_matches == serial.total_matches
        assert shm.matched_pairs == sorted(serial.matched_pairs)

    def test_hard_crash_recovers_and_unlinks_segments(self, bench, monkeypatch):
        config = SigmoConfig(record_embeddings=True)
        # 3 slices of 20 graphs, chunked by 10: the serial chunk cuts.
        serial = run_chunked(bench.queries, bench.data, 10, config=config)
        monkeypatch.setattr(_RecordingShared, "names", [])
        monkeypatch.setattr(parallel, "SharedCSRGO", _RecordingShared)
        result = run_parallel(
            bench.queries,
            bench.data,
            n_workers=3,
            chunk_size=10,
            config=config,
            fault_plan=FaultPlan(crash_at=((1, 0),), crash_hard=True),
        )
        assert result.status == "complete"
        assert result.transport == "shared-memory"
        assert any(a.detail == "process pool broken" for a in result.report.attempts)
        assert_bitwise_equal(result, serial)
        assert len(_RecordingShared.names) == 2
        for name in _RecordingShared.names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
