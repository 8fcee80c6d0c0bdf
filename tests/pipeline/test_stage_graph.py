"""Unit tests of the artifact slot, its filter key, and the pool policies."""

import dataclasses

import pytest

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.graph.generators import random_connected_graph
from repro.pipeline import RetryPolicy, derive_n_labels, partition_slices
from repro.pipeline.artifacts import (
    filter_fingerprint,
    recall_artifacts,
    store_artifacts,
)

pytestmark = pytest.mark.pipeline


class TestFingerprint:
    @pytest.fixture(scope="class")
    def batches(self):
        import numpy as np

        rng = np.random.default_rng(3)
        graphs = [
            random_connected_graph(8, extra_edges=4, n_labels=3, rng=rng)
            for _ in range(4)
        ]
        return CSRGO.from_graphs(graphs[:2]), CSRGO.from_graphs(graphs[2:])

    def test_sensitive_to_filter_knobs(self, batches):
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        n = derive_n_labels(query, data, config.wildcard_label)
        base = filter_fingerprint(n, config)
        assert base == filter_fingerprint(n, config)
        for change in (
            {"refinement_iterations": 4},
            {"word_bits": 32 if config.word_bits == 64 else 64},
            {"edge_signatures": not config.edge_signatures},
        ):
            other = dataclasses.replace(config, **change)
            assert filter_fingerprint(n, other) != base

    def test_insensitive_to_join_knobs(self, batches):
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        n = derive_n_labels(query, data, config.wildcard_label)
        base = filter_fingerprint(n, config)
        other = dataclasses.replace(config, record_embeddings=True)
        assert filter_fingerprint(n, other) == base

    def test_sensitive_to_batch_content(self, batches):
        # The slot lives on the data batch object and is keyed by the
        # query batch's content: no other pairing recalls it.
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        n = derive_n_labels(query, data, config.wildcard_label)
        key = filter_fingerprint(n, config)
        store_artifacts(query, data, config, key, "filter", "gmcr")
        assert recall_artifacts(query, data, config, key) == ("filter", "gmcr")
        assert recall_artifacts(data, data, config, key) is None
        assert recall_artifacts(query, query, config, key) is None
        rebuilt = CSRGO(
            data.graph_offsets,
            data.row_offsets,
            data.column_indices,
            data.labels,
            data.adj_edge_labels,
        )
        assert rebuilt.content_hash() == data.content_hash()
        assert recall_artifacts(query, rebuilt, config, key) is None

    def test_store_replaces_the_slot(self, batches):
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        other = dataclasses.replace(config, refinement_iterations=4)
        n = derive_n_labels(query, data, config.wildcard_label)
        store_artifacts(query, data, config, filter_fingerprint(n, config), 1, 1)
        store_artifacts(query, data, other, filter_fingerprint(n, other), 2, 2)
        assert recall_artifacts(query, data, config, filter_fingerprint(n, config)) is None
        assert recall_artifacts(query, data, other, filter_fingerprint(n, other)) == (2, 2)


class TestPolicies:
    def test_partition_slices_are_deterministic_blocks(self):
        assert partition_slices(30, 2) == [(0, 15), (15, 30)]
        assert partition_slices(30, 4) == [(0, 8), (8, 16), (16, 24), (24, 30)]
        assert partition_slices(3, 8) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError, match="at least one item"):
            partition_slices(0, 2)
        with pytest.raises(ValueError, match="n_workers"):
            partition_slices(5, 0)

    def test_retry_policy_schedule(self):
        retry = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_factor=2.0)
        assert retry.delay(0) == 0.0
        assert retry.delay(1) == 1.0
        assert retry.delay(2) == 2.0
        assert not retry.exhausted(2)
        assert retry.exhausted(3)
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-1.0)
