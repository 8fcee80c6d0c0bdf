"""Cross-driver parity: one seeded workload, every entry point, one answer.

The multi-layer refactor's acceptance criterion: every driver —
``SigmoEngine.run``, ``run_chunked``, ``run_chunked_csrgo``,
``run_resilient``, ``run_parallel`` (fault-free and under injected
faults) — reaches the one :func:`~repro.pipeline.stages.run_pipeline`
through a :class:`~repro.pipeline.session.MatcherSession`, and all of
them (plus ``run_pipeline`` invoked directly) must produce identical
match sets, embeddings, summed :class:`~repro.core.join.JoinStats`, and — for drivers
sharing a partition — identical ``stage_counts`` and ``n_chunks``.
"""

import pytest

from repro.chem.datasets import build_benchmark
from repro.cluster.parallel import run_parallel
from repro.core.chunked import run_chunked, run_chunked_csrgo
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.join import JoinStats
from repro.pipeline import RetryPolicy, run_pipeline
from repro.pipeline.artifacts import ArtifactStats
from repro.runtime.faults import FaultPlan
from repro.runtime.resilient import run_resilient

pytestmark = pytest.mark.pipeline

N_QUERIES = 6
N_DATA = 30
SEED = 7
ITERATIONS = 3
CHUNK = 10
#: Soft and hard worker crashes: retried without changing any chunk cut
#: (an OOM would halve the slice's chunk size and so its ``n_chunks``).
CRASHES = FaultPlan(crash_at=((0, 0), (1, 0), (1, 1)), crash_hard=True)


@pytest.fixture(scope="module")
def dataset():
    return build_benchmark(
        scale=1.0, n_queries=N_QUERIES, n_data_graphs=N_DATA, seed=SEED
    )


@pytest.fixture(scope="module")
def config():
    return SigmoConfig(refinement_iterations=ITERATIONS, record_embeddings=True)


@pytest.fixture(scope="module")
def reference(dataset, config):
    """The whole-batch engine run every driver must reproduce."""
    engine = SigmoEngine(dataset.queries, dataset.data, config)
    return engine.run(mode="find-all")


def embedding_set(records):
    return {(r.data_graph, r.query_graph, tuple(int(v) for v in r.mapping)) for r in records}


def stats_tuple(stats: JoinStats):
    return (
        stats.pairs_joined,
        stats.stack_pushes,
        stats.candidate_visits,
        stats.edge_checks,
    )


class TestDriverParity:
    """Each legacy entry point against the whole-batch reference."""

    def check(self, result, reference):
        assert result.total_matches == reference.total_matches
        assert sorted(result.matched_pairs) == sorted(reference.matched_pairs())
        assert embedding_set(result.embeddings) == embedding_set(
            reference.embeddings
        )
        # Join work is per-(data, query) pair, so any partition of the
        # data batch must sum to exactly the whole-batch counters.
        assert stats_tuple(result.join_stats) == stats_tuple(
            reference.join_result.stats
        )

    def test_run_chunked(self, dataset, config, reference):
        result = run_chunked(dataset.queries, dataset.data, CHUNK, config=config)
        assert result.n_chunks == 3
        self.check(result, reference)

    def test_run_chunked_csrgo(self, dataset, config, reference):
        query = CSRGO.from_graphs(dataset.queries)
        data = CSRGO.from_graphs(dataset.data)
        result = run_chunked_csrgo(query, data, CHUNK, config=config)
        self.check(result, reference)

    def test_run_resilient(self, dataset, config, reference):
        result = run_resilient(
            dataset.queries, dataset.data, chunk_size=CHUNK, config=config
        )
        assert result.status == "complete"
        self.check(result, reference)

    def test_run_parallel(self, dataset, config, reference):
        result = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=2,
            chunk_size=CHUNK,
            config=config,
        )
        self.check(result, reference)

    def test_run_parallel_resilient(self, dataset, config, reference):
        """``run_parallel`` recovering from injected crashes."""
        result = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=2,
            chunk_size=CHUNK,
            config=config,
            retry=RetryPolicy(max_attempts=4),
            fault_plan=CRASHES,
        )
        assert result.status == "complete"
        assert result.report.n_retries > 0
        self.check(result, reference)

    def test_run_pipeline_direct(self, dataset, config, reference):
        result = run_pipeline(
            CSRGO.from_graphs(dataset.queries),
            CSRGO.from_graphs(dataset.data),
            config,
            "find-all",
            join_budget=None,
            join_start_pair=0,
            reuse=False,
            stats=ArtifactStats(),
        )
        assert result.total_matches == reference.total_matches
        assert result.matched_pairs() == reference.matched_pairs()
        assert embedding_set(result.embeddings) == embedding_set(
            reference.embeddings
        )
        assert stats_tuple(result.join_result.stats) == stats_tuple(
            reference.join_result.stats
        )
        assert result.stage_counts == reference.stage_counts


class TestSharedPartition:
    """Drivers cutting the data identically must agree on everything."""

    def test_chunked_vs_resilient(self, dataset, config):
        chunked = run_chunked(dataset.queries, dataset.data, CHUNK, config=config)
        resilient = run_resilient(
            dataset.queries, dataset.data, chunk_size=CHUNK, config=config
        )
        assert resilient.matched_pairs == chunked.matched_pairs
        assert resilient.embeddings == chunked.embeddings
        assert resilient.stage_counts == chunked.stage_counts
        assert stats_tuple(resilient.join_stats) == stats_tuple(
            chunked.join_stats
        )

    def test_single_worker_pool_vs_chunked(self, dataset, config):
        chunked = run_chunked(dataset.queries, dataset.data, CHUNK, config=config)
        pooled = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=1,
            chunk_size=CHUNK,
            config=config,
        )
        assert pooled.matched_pairs == sorted(chunked.matched_pairs)
        assert pooled.stage_counts == chunked.stage_counts
        assert stats_tuple(pooled.join_stats) == stats_tuple(chunked.join_stats)

    def test_pool_vs_resilient_pool(self, dataset, config):
        """Fault-free and crash-recovered pool runs equal serial chunking."""
        chunked = run_chunked(dataset.queries, dataset.data, CHUNK, config=config)
        runs = [
            run_parallel(
                dataset.queries,
                dataset.data,
                n_workers=3,
                chunk_size=CHUNK,
                config=config,
                fault_plan=plan,
            )
            for plan in (None, CRASHES)
        ]
        for result in runs:
            assert result.status == "complete"
            assert result.matched_pairs == sorted(chunked.matched_pairs)
            assert result.embeddings == chunked.embeddings
            assert result.n_chunks == chunked.n_chunks
            assert result.stage_counts == chunked.stage_counts
            assert stats_tuple(result.join_stats) == stats_tuple(chunked.join_stats)
        assert runs[0].report.n_retries == 0
        assert runs[1].report.n_retries > 0


class TestFindFirstParity:
    def test_modes_agree_across_drivers(self, dataset, config, reference):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        first = engine.run(mode="find-first")
        chunked = run_chunked(
            dataset.queries, dataset.data, CHUNK, mode="find-first", config=config
        )
        assert chunked.total_matches == first.total_matches
        assert sorted(chunked.matched_pairs) == sorted(first.matched_pairs())
        # Find First visits a prefix of Find All's work per pair.
        assert first.total_matches <= reference.total_matches
