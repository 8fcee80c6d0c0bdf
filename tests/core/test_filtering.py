"""Unit tests for the iterative filter (paper Alg. 1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateBitmap
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import (
    IterativeFilter,
    initialize_candidates,
    refine_candidates,
)
from repro.core.signatures import SignaturePacking
from repro.graph.generators import path_graph, ring_graph
from repro.utils.bitops import pack_bool_rows


class TestInitializeCandidates:
    def test_label_equality(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 2, 1, 3])])
        b = initialize_candidates(q, d)
        np.testing.assert_array_equal(b.row_bool(0), [True, False, True, False])
        np.testing.assert_array_equal(b.row_bool(1), [False, True, False, False])

    def test_no_shared_labels(self):
        q = CSRGO.from_graphs([path_graph([5])])
        d = CSRGO.from_graphs([path_graph([1, 2])])
        assert initialize_candidates(q, d).total_candidates() == 0


class TestRefineCandidates:
    def test_domination_prunes(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 2, 1, 3])])
        bitmap = initialize_candidates(q, d)
        packing = SignaturePacking.uniform(4)
        # radius-1 signatures
        q_counts = np.array([[0, 0, 1, 0], [0, 1, 0, 0]])
        d_counts = np.array([[0, 0, 1, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]])
        refine_candidates(bitmap, q_counts, d_counts, packing)
        # data node 0 and 2 both have an adjacent label-2 node; both stay.
        np.testing.assert_array_equal(bitmap.row_bool(0), [True, False, True, False])

    def test_monotone_never_adds(self, rng):
        q = CSRGO.from_graphs([ring_graph(3, [0, 1, 2])])
        d = CSRGO.from_graphs([ring_graph(6, [0, 1, 2, 0, 1, 2])])
        bitmap = initialize_candidates(q, d)
        before = bitmap.to_bool()
        packing = SignaturePacking.uniform(3)
        refine_candidates(
            bitmap, np.ones((3, 3), dtype=int), np.zeros((6, 3), dtype=int), packing
        )
        after = bitmap.to_bool()
        assert not (after & ~before).any()

    def test_shape_validation(self):
        bitmap = CandidateBitmap(2, 3)
        packing = SignaturePacking.uniform(2)
        with pytest.raises(ValueError):
            refine_candidates(bitmap, np.zeros((1, 2)), np.zeros((3, 2)), packing)
        with pytest.raises(ValueError):
            refine_candidates(bitmap, np.zeros((2, 2)), np.zeros((4, 2)), packing)


@st.composite
def refine_inputs(draw):
    """A pre-refine bitmap plus raw counts and the packing that saturates them.

    Covers every word width, data-node counts off the word boundary, a
    query label column that is all zero, all-zero query signatures, a
    single 8-bit label field (saturation at 255) and empty sides.
    """
    word_bits = draw(st.sampled_from([8, 16, 32, 64]))
    if draw(st.booleans()):
        packing = SignaturePacking.uniform(1, 8)
    else:
        packing = SignaturePacking.uniform(
            draw(st.integers(1, 8)), draw(st.integers(1, 4))
        )
    n_labels = packing.n_labels
    n_query = draw(st.integers(0, 12))
    n_data = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    high = draw(st.sampled_from([2, 5, 300]))
    q_counts = rng.integers(0, high, (n_query, n_labels))
    q_counts *= rng.random((n_query, n_labels)) < 0.6
    d_counts = rng.integers(0, high + 2, (n_data, n_labels))
    zero_label = draw(st.integers(-1, n_labels - 1))
    if zero_label >= 0:
        q_counts[:, zero_label] = 0
    if draw(st.booleans()):
        q_counts[:] = 0
    init = rng.random((n_query, n_data)) < 0.7
    return CandidateBitmap.from_bool(init, word_bits), q_counts, d_counts, packing


class TestRefineAgainstBruteForce:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(refine_inputs())
    def test_matches_per_pair_domination(self, case):
        bitmap, q_counts, d_counts, packing = case
        before = bitmap.words.copy()
        pre = bitmap.to_bool()
        sat_q = packing.saturate(q_counts)
        sat_d = packing.saturate(d_counts)
        expected = np.zeros_like(pre)
        for q in range(bitmap.n_query_nodes):
            for d in range(bitmap.n_data_nodes):
                expected[q, d] = pre[q, d] and bool(np.all(sat_d[d] >= sat_q[q]))

        refine_candidates(bitmap, q_counts, d_counts, packing)

        # Bitwise, tail bits included: the packed reference has them clear.
        np.testing.assert_array_equal(
            bitmap.words, pack_bool_rows(expected, bitmap.word_bits)
        )
        tail = bitmap.n_data_nodes % bitmap.word_bits
        if tail and bitmap.n_query_nodes:
            assert not (bitmap.words[:, -1] >> tail).any()
        if not sat_q.any():
            np.testing.assert_array_equal(bitmap.words, before)

    def test_kernel_span_counts_threshold_rows(self):
        from repro.obs.trace import tracing

        packing = SignaturePacking.uniform(3, 2)
        bitmap = CandidateBitmap.from_bool(np.ones((3, 5), dtype=bool))
        # Label 0: thresholds {0, 1, 2}; label 1: {3}; label 2 unused.
        q_counts = np.array([[1, 3, 0], [2, 3, 0], [0, 3, 0]])
        d_counts = np.full((5, 3), 3)
        with tracing() as t:
            refine_candidates(bitmap, q_counts, d_counts, packing)
        (span,) = t.find("kernel:refine_candidates")
        assert span.attrs["threshold_rows"] == 4
        assert not any(s.name.startswith("wg:sig") for s in t.spans)


class TestIterativeFilter:
    def test_iteration_one_is_label_only(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 3, 2])])
        filt = IterativeFilter(q, d, SigmoConfig(refinement_iterations=1))
        result = filt.run()
        # label-only: data node 0 is candidate for query node 0 even though
        # its neighborhood (label 3) cannot support the match
        assert result.bitmap.test(0, 0)

    def test_deeper_iterations_prune_more(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 3, 2])])
        filt = IterativeFilter(q, d, SigmoConfig(refinement_iterations=2))
        result = filt.run()
        assert not result.bitmap.test(0, 0)

    def test_candidate_counts_monotone_nonincreasing(self, small_dataset):
        from repro.core.csrgo import CSRGO as C

        q = C.from_graphs(small_dataset.queries[:8])
        d = C.from_graphs(small_dataset.data[:20])
        result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=6)).run()
        totals = [s.total_candidates for s in result.iterations]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_stats_structure(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 2])])
        result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=3)).run()
        assert [s.iteration for s in result.iterations] == [1, 2, 3]
        assert [s.radius for s in result.iterations] == [0, 1, 2]
        assert all(s.candidates_per_node.shape == (2,) for s in result.iterations)

    def test_filter_soundness_never_prunes_true_match(self, rng):
        """Core invariant: a filtered-out node can never be part of a match."""
        from tests.conftest import random_case
        from repro.baselines.networkx_ref import networkx_count_matches

        for _ in range(10):
            qg, dg, _ = random_case(rng)
            q = CSRGO.from_graphs([qg])
            d = CSRGO.from_graphs([dg])
            result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=5)).run()
            # collect all embeddings via oracle and check every mapped node
            # survived the filter
            import networkx as nx
            from networkx.algorithms.isomorphism import GraphMatcher

            gm = GraphMatcher(
                dg.to_networkx(),
                qg.to_networkx(),
                node_match=lambda a, b: a["label"] == b["label"],
                edge_match=lambda a, b: a["label"] == b["label"],
            )
            for mapping in gm.subgraph_monomorphisms_iter():
                for d_node, q_node in mapping.items():
                    assert result.bitmap.test(q_node, d_node)

    def test_packing_derived_from_data_frequencies(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1] * 6 + [2])])
        filt = IterativeFilter(q, d)
        assert filt.packing.bits[1] >= filt.packing.bits[2]
