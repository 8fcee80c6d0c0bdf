"""Truncated-run resume reuses the engine's cached stage artifacts.

The historical bug this pins down: resuming a budget-truncated Find All
via ``join_start_pair`` on the same engine re-ran conversion, filtering,
and GMCR construction from scratch.  ``run_pipeline`` now recalls
the ``FilterResult``/``GMCR`` artifacts on resume — results stay bitwise
equal to the uninterrupted run while the refine kernels never re-trace.
"""

import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import JoinBudget
from repro.obs.trace import tracing

pytestmark = pytest.mark.pipeline

N_QUERIES = 6
N_DATA = 30
SEED = 7
ITERATIONS = 3


@pytest.fixture(scope="module")
def dataset():
    return build_benchmark(
        scale=1.0, n_queries=N_QUERIES, n_data_graphs=N_DATA, seed=SEED
    )


@pytest.fixture(scope="module")
def config():
    return SigmoConfig(refinement_iterations=ITERATIONS, record_embeddings=True)


@pytest.fixture(scope="module")
def full(dataset, config):
    return SigmoEngine(dataset.queries, dataset.data, config).run()


class TestResume:
    def test_resume_is_bitwise_equal_to_the_uninterrupted_run(
        self, dataset, config, full
    ):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        part = engine.run(join_budget=JoinBudget(max_matches=2))
        assert part.truncated and part.resume_pair is not None
        rest = engine.run(join_start_pair=part.resume_pair)
        assert part.total_matches + rest.total_matches == full.total_matches
        assert part.embeddings + rest.embeddings == full.embeddings
        assert sorted(
            set(part.matched_pairs()) | set(rest.matched_pairs())
        ) == sorted(full.matched_pairs())

    def test_resume_does_not_rerun_query_side_stages(self, dataset, config):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        with tracing() as first:
            part = engine.run(join_budget=JoinBudget(max_matches=2))
        assert len(first.find("stage:filter")) == 1
        with tracing() as second:
            engine.run(join_start_pair=part.resume_pair)
        assert second.find("stage:filter") == []
        assert second.find("stage:mapping") == []
        assert [
            s for s in second.spans if s.name.startswith("kernel:refine")
        ] == []
        assert len(second.find("stage:join")) == 1
        # The plain run stores without looking; the resume recalls the
        # refine and the map artifact once each.
        assert engine._session.artifact_stats.as_dict() == {"hits": 2, "misses": 0}

    def test_cached_gmcr_is_isolated_between_resumes(self, dataset, config, full):
        # The join mutates the GMCR ``matched`` flags; a resumed run must
        # see a fresh copy, not flags left behind by the previous segment.
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        part = engine.run(join_budget=JoinBudget(max_matches=2))
        once = engine.run(join_start_pair=part.resume_pair)
        twice = engine.run(join_start_pair=part.resume_pair)
        assert twice.total_matches == once.total_matches
        assert twice.matched_pairs() == once.matched_pairs()
        assert twice.embeddings == once.embeddings
        # Each segment's result reports only its own pairs as matched.
        assert set(part.matched_pairs()).isdisjoint(once.matched_pairs())

    def test_multi_segment_resume_chain(self, dataset, config, full):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        budget = JoinBudget(max_matches=1)
        segments = []
        start = 0
        for _ in range(200):
            result = engine.run(join_budget=budget, join_start_pair=start)
            segments.append(result)
            if not result.truncated:
                break
            start = result.resume_pair
        else:
            pytest.fail("resume chain did not terminate")
        assert sum(r.total_matches for r in segments) == full.total_matches
        chained = [rec for r in segments for rec in r.embeddings]
        assert chained == full.embeddings
