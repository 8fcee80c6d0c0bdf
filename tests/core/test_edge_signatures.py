"""Unit tests for the edge-aware signature extension."""

import numpy as np
import pytest

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.edge_signatures import (
    PAIR_COUNT_CAP,
    edge_pair_histograms,
    refine_candidates_edge_aware,
)
from repro.core.engine import SigmoEngine, find_all
from repro.core.filtering import initialize_candidates
from repro.graph.generators import path_graph, star_graph
from repro.utils.bitops import pack_bool_rows
from tests.conftest import random_case


class TestHistograms:
    def test_counts_pairs(self):
        # node 0: neighbors (label 1, bond 2) and (label 2, bond 1)
        g = CSRGO.from_graphs([star_graph(0, [1, 2])])
        # star_graph uses default edge labels (0); rebuild with orders
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs([LabeledGraph([0, 1, 2], [(0, 1), (0, 2)], [2, 1])])
        hist = edge_pair_histograms(g, n_labels=3, n_edge_labels=3)
        assert hist[0, 2 * 3 + 1] == 1  # bond 2, label 1
        assert hist[0, 1 * 3 + 2] == 1  # bond 1, label 2
        assert hist[0].sum() == 2

    def test_empty_graph(self):
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs([LabeledGraph([0, 1])])
        hist = edge_pair_histograms(g, 2, 2)
        assert hist.sum() == 0

    def test_wildcards_ignored(self):
        from repro.chem.smarts import ANY_BOND_LABEL, WILDCARD_ATOM_LABEL
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs(
            [LabeledGraph([0, WILDCARD_ATOM_LABEL, 1], [(0, 1), (0, 2)],
                          [1, ANY_BOND_LABEL])]
        )
        hist = edge_pair_histograms(
            g, n_labels=2, n_edge_labels=2,
            ignore_label=WILDCARD_ATOM_LABEL,
            ignore_edge_label=ANY_BOND_LABEL,
        )
        assert hist[0].sum() == 0  # both incident pairs involve a wildcard


class TestRefineEdgeAware:
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_matches_per_pair_domination(self, rng, word_bits):
        for _ in range(8):
            qg, dg, _ = random_case(rng, max_data_nodes=40, n_edge_labels=3)
            q = CSRGO.from_graphs([qg])
            d = CSRGO.from_graphs([dg, qg])
            n_labels = int(max(q.labels.max(), d.labels.max())) + 1
            n_edge_labels = int(max(q.adj_edge_labels.max(), d.adj_edge_labels.max())) + 1
            bitmap = initialize_candidates(q, d, word_bits)
            pre = bitmap.to_bool()
            sat_q = np.minimum(edge_pair_histograms(q, n_labels, n_edge_labels), PAIR_COUNT_CAP)
            sat_d = np.minimum(edge_pair_histograms(d, n_labels, n_edge_labels), PAIR_COUNT_CAP)
            expected = np.zeros_like(pre)
            for qi in range(q.n_nodes):
                for di in range(d.n_nodes):
                    expected[qi, di] = pre[qi, di] and bool(np.all(sat_d[di] >= sat_q[qi]))

            refine_candidates_edge_aware(bitmap, q, d, n_labels)

            np.testing.assert_array_equal(bitmap.words, pack_bool_rows(expected, word_bits))


class TestEngineIntegration:
    def test_results_invariant(self, rng):
        for _ in range(12):
            q, d, _ = random_case(rng)
            base = find_all([q], [d]).total_matches
            with_edges = find_all(
                [q], [d], SigmoConfig(edge_signatures=True)
            ).total_matches
            assert base == with_edges

    def test_prunes_bond_order_mismatch_in_filter(self):
        # query needs a double bond to a label-1 node; data node 0 has only
        # a single bond to its label-1 neighbor.  Plain label signatures
        # cannot distinguish them; the edge-aware pass can.
        q = path_graph([0, 1], [2])
        d = path_graph([0, 1], [1])
        plain = SigmoEngine([q], [d], SigmoConfig(refinement_iterations=2))
        aware = SigmoEngine(
            [q], [d], SigmoConfig(refinement_iterations=2, edge_signatures=True)
        )
        r_plain = plain.run()
        r_aware = aware.run()
        assert r_plain.total_matches == r_aware.total_matches == 0
        # the plain filter keeps the spurious candidate; edge-aware kills it
        assert r_plain.filter_result.total_candidates > 0
        assert r_aware.filter_result.total_candidates == 0

    def test_never_prunes_more_matches(self, small_dataset):
        queries = small_dataset.queries[:8]
        data = small_dataset.data[:20]
        base = SigmoEngine(queries, data).run()
        aware = SigmoEngine(
            queries, data, SigmoConfig(edge_signatures=True)
        ).run()
        assert aware.total_matches == base.total_matches
        assert (
            aware.filter_result.total_candidates
            <= base.filter_result.total_candidates
        )

    def test_wildcard_compatibility(self):
        from repro.chem.smarts import pattern_from_smarts, wildcard_config
        from repro.chem.smiles import mol_from_smiles

        mols = [mol_from_smiles("CC(=O)Oc1ccccc1").graph()]
        pattern = pattern_from_smarts("C~*")
        base = SigmoEngine([pattern], mols, wildcard_config()).run().total_matches
        aware = SigmoEngine(
            [pattern], mols, wildcard_config(edge_signatures=True)
        ).run().total_matches
        assert base == aware
