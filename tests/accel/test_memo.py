"""Per-instance artifact caches: keying, lifetimes and the hit counters.

Signature counts are cached on their ``CSRGO`` and compiled plans on the
candidate bitmap they were ordered from; :mod:`repro.accel.memo` only
counts the lookups.  Every config field that influences a cached value
must be part of its key, asserted by flipping the field and observing a
miss instead of a stale hit.  The lifetime tests pin who owns what: a
rebuilt batch starts cold, the caches never travel in pickles or
shared-memory handles, and sessions sharing one query batch across
threads get serial results.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.accel.memo import (
    MemoCounter,
    clear_accel_caches,
    frozen_array,
    plan_memo,
    signature_memo,
)
from repro.cluster.shm import SharedCSRGO, attach_csrgo
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.filtering import IterativeFilter
from repro.core.join import JoinBudget, compile_plans
from repro.pipeline.session import MatcherSession

pytestmark = pytest.mark.perf_accel


def _signature_keys(batch):
    return sorted(k for k in batch.derived if k[0] == "signatures")


class TestMemoCounter:
    def test_record_counts_hits_and_misses(self):
        counter = MemoCounter()
        counter.record(hit=False)
        counter.record(hit=True)
        counter.record(hit=True)
        assert (counter.stats.hits, counter.stats.misses) == (2, 1)
        assert counter.stats.lookups == 3

    def test_clear_resets(self):
        counter = MemoCounter()
        counter.record(hit=True)
        counter.clear()
        assert counter.stats.lookups == 0

    def test_frozen_array_is_readonly_copy(self):
        a = np.arange(3)
        f = frozen_array(a)
        assert not f.flags.writeable
        a[0] = 99
        assert f[0] == 0


class TestPlanMemoKeying:
    def test_identical_run_hits(self, bench):
        session = MatcherSession(bench.queries)
        session.match(bench.data)
        misses = plan_memo().stats.misses
        assert misses == 1
        session.match(bench.data)  # recalls the refine artifact, plans included
        assert plan_memo().stats.misses == misses
        assert plan_memo().stats.hits == 1

    @pytest.mark.parametrize(
        "field_flip",
        [
            {"candidate_order": "bfs"},
            {"wildcard_edge_label": 0},
            {"induced": True},
        ],
    )
    def test_plan_affecting_field_forces_rebuild(self, bench, field_flip):
        config = SigmoConfig()
        session = MatcherSession(bench.queries, config=config)
        session.match(bench.data)
        misses = plan_memo().stats.misses
        flipped = SigmoConfig(**field_flip)
        result = session.match(bench.data, config=flipped)
        assert plan_memo().stats.misses > misses, (
            f"flipping {field_flip} must rebuild the plans, not hit the cache"
        )
        fresh = SigmoEngine(bench.queries, bench.data, flipped).run()
        assert np.array_equal(
            result.join_result.pair_matches, fresh.join_result.pair_matches
        )

    def test_refinement_iterations_key_via_counts(self, bench):
        # A bitmap refined after its plans were compiled has new counts
        # (which feed the matching order): the stored plans must not serve.
        query = CSRGO.from_graphs(bench.queries)
        data = CSRGO.from_graphs(bench.data)
        config = SigmoConfig(refinement_iterations=1)
        filt = IterativeFilter(query, data, config)
        result = filt.refine(filt.initialize())
        compile_plans(query, result.bitmap, config)
        compile_plans(query, result.bitmap, config)
        assert (plan_memo().stats.hits, plan_memo().stats.misses) == (1, 1)
        deeper = IterativeFilter(
            query, data, config.with_iterations(4), filt.n_labels
        )
        deeper.refine(result)  # refines the same bitmap in place
        plans = compile_plans(query, result.bitmap, config)
        assert plan_memo().stats.misses == 2
        fresh = compile_plans(query, result.bitmap.copy(), config)
        assert [p.order.tolist() for p in plans] == [p.order.tolist() for p in fresh]

    def test_resume_chain_compiles_plans_once(self, bench):
        session = MatcherSession(bench.queries)
        budget = JoinBudget(max_visits=20000)
        result = session.match(bench.data, join_budget=budget)
        rounds = 1
        while result.truncated:
            result = session.match(
                bench.data, join_budget=budget, join_start_pair=result.resume_pair
            )
            rounds += 1
        assert rounds > 2
        assert plan_memo().stats.misses == 1
        assert plan_memo().stats.hits == rounds - 1


class TestSignatureMemoKeying:
    def test_identical_run_hits(self, bench):
        engine = SigmoEngine(bench.queries, bench.data)
        config = SigmoConfig(refinement_iterations=3)
        engine.run(config=config)
        misses = signature_memo().stats.misses
        assert misses == 4  # query + data sides, radii 1..2
        engine.run(config=config)  # recomputes the filter on the same batches
        assert signature_memo().stats.misses == misses
        assert signature_memo().stats.hits == misses

    def test_deeper_sweep_reuses_shallow_radii(self, bench):
        engine = SigmoEngine(bench.queries, bench.data)
        engine.run(config=SigmoConfig(refinement_iterations=3))  # radii 1, 2
        misses = signature_memo().stats.misses
        engine.run(config=SigmoConfig(refinement_iterations=4))  # adds radius 3 only
        new_misses = signature_memo().stats.misses - misses
        assert new_misses == 2  # query + data at radius 3, nothing else

    def test_sweep_computes_each_data_radius_once(self, bench):
        engine = SigmoEngine(bench.queries, bench.data)
        results = engine.run_iteration_sweep(range(1, 7))
        # Radii 1..5, each computed once per side, recalled by later points.
        assert signature_memo().stats.misses == 2 * 5
        assert signature_memo().stats.hits == 2 * (0 + 1 + 2 + 3 + 4)
        assert [k[-1] for k in _signature_keys(engine.data)] == [1, 2, 3, 4, 5]
        for s, result in results.items():
            fresh = SigmoEngine(
                bench.queries, bench.data, SigmoConfig(refinement_iterations=s)
            ).run()
            assert result.total_matches == fresh.total_matches
            assert result.filter_result.total_candidates == (
                fresh.filter_result.total_candidates
            )

    def test_wildcard_label_forces_rebuild(self, bench):
        engine = SigmoEngine(bench.queries, bench.data)
        engine.run(config=SigmoConfig(refinement_iterations=2))
        misses = signature_memo().stats.misses
        engine.run(config=SigmoConfig(refinement_iterations=2, wildcard_label=0))
        # The query side re-runs (different ignore_label in its key).
        assert signature_memo().stats.misses > misses

    def test_results_identical_through_memo(self, bench):
        config = SigmoConfig(refinement_iterations=4, record_embeddings=True)
        engine = SigmoEngine(bench.queries, bench.data, config)
        r1 = engine.run()
        r2 = engine.run()
        r3 = SigmoEngine(bench.queries, bench.data, config).run()
        for other in (r2, r3):
            assert other.total_matches == r1.total_matches
            assert np.array_equal(
                r1.join_result.pair_matches, other.join_result.pair_matches
            )
            assert other.embeddings == r1.embeddings
        assert signature_memo().stats.hits > 0

    def test_size_guard_skips_memoization(self, bench, monkeypatch):
        import repro.core.filtering as filtering

        monkeypatch.setattr(filtering, "SIGNATURE_MEMO_MAX_BYTES", 0)
        engine = SigmoEngine(bench.queries, bench.data)
        config = SigmoConfig(refinement_iterations=3)
        engine.run(config=config)
        engine.run(config=config)
        assert _signature_keys(engine.query) == []
        assert _signature_keys(engine.data) == []
        assert signature_memo().stats.hits == 0


class TestCacheLifetimes:
    def test_rebuilt_batch_starts_cold(self, bench):
        config = SigmoConfig(refinement_iterations=3)
        first = SigmoEngine(bench.queries, bench.data, config).run()
        misses = signature_memo().stats.misses
        second = SigmoEngine(bench.queries, bench.data, config).run()
        # Content-equal but rebuilt batches share nothing...
        assert signature_memo().stats.misses == 2 * misses
        assert signature_memo().stats.hits == 0
        # ...and compute the identical result.
        assert np.array_equal(
            first.join_result.pair_matches, second.join_result.pair_matches
        )

    def test_cache_is_not_pickled(self, bench):
        engine = SigmoEngine(bench.queries, bench.data)
        engine.run()
        data = engine.data
        assert data.derived
        restored = pickle.loads(pickle.dumps(data))
        assert restored.derived == {}
        assert restored.content_hash() == data.content_hash()
        assert not pickle.loads(pickle.dumps(engine.query)).derived

    def test_cache_does_not_travel_in_shm_handles(self, bench):
        data = CSRGO.from_graphs(bench.data[:10])
        SigmoEngine.from_csrgo(CSRGO.from_graphs(bench.queries), data).run()
        assert data.derived
        with SharedCSRGO(data) as shared:
            pickled = pickle.dumps(shared.handle)
            assert b"batch_view" not in pickled and b"signatures" not in pickled
            attached, shm = attach_csrgo(pickle.loads(pickled))
            try:
                assert attached.derived == {}
                assert attached.content_hash() == data.content_hash()
            finally:
                del attached
                shm.close()

    def test_threads_sharing_a_query_batch_match_serial(self, bench):
        # One session per worker over a shared query CSRGO: the documented
        # concurrency pattern, and how SessionPool lanes share a query set.
        # More threads than cores and a short switch interval make racing
        # builders of the shared query signatures likely.
        config = SigmoConfig(refinement_iterations=4, record_embeddings=True)
        slices = [bench.data[i * 15 : (i + 1) * 15] for i in range(4)]
        serial = [SigmoEngine(bench.queries, part, config).run() for part in slices]
        query = CSRGO.from_graphs(bench.queries)
        results = [None] * len(slices)
        errors = []
        barrier = threading.Barrier(len(slices))

        def work(i):
            try:
                session = MatcherSession(query, config=config)
                barrier.wait()
                results[i] = session.match(slices[i])
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        clear_accel_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # No lost counter update: 4 matches x 2 sides x radii 1..3.
        assert signature_memo().stats.lookups == 4 * 2 * 3
        for got, want in zip(results, serial):
            assert got.total_matches == want.total_matches
            assert np.array_equal(
                got.join_result.pair_matches, want.join_result.pair_matches
            )
            assert got.embeddings == want.embeddings
            assert got.join_result.stats == want.join_result.stats
