"""Tests for graph contraction and the coarsening chain."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.builder import from_edges
from repro.partitioning.coarsen import coarsen_once, coarsen_to_size, contract_graph


class TestContractGraph:
    def test_weights_aggregate(self):
        g = from_edges(4, [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)])
        coarse = contract_graph(g, np.asarray([0, 0, 1, 1]), 2)
        assert coarse.n == 2
        assert coarse.m == 1
        assert coarse.edge_weight(0, 1) == 5.0  # 2.0 + 3.0 across the cut

    def test_vertex_weights_sum(self):
        g = from_edges(3, [(0, 1), (1, 2)], vertex_weights=[1.0, 2.0, 4.0])
        coarse = contract_graph(g, np.asarray([0, 0, 1]), 2)
        assert coarse.vertex_weights.tolist() == [3.0, 4.0]

    def test_internal_edges_vanish(self, triangle):
        coarse = contract_graph(triangle, np.asarray([0, 0, 0]), 1)
        assert coarse.n == 1 and coarse.m == 0

    def test_shape_mismatch(self, triangle):
        with pytest.raises(ValueError):
            contract_graph(triangle, np.asarray([0, 1]), 2)

    def test_negative_coarse_id_on_isolated_vertex(self):
        # Path 0-1-2 plus isolated vertex 3: -1 must not wrap onto vertex 1.
        g = from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"range\(n_coarse\)"):
            contract_graph(g, np.asarray([0, 0, 1, -1]), 2)

    def test_coarse_id_past_n_coarse_on_isolated_vertex(self):
        g = from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"range\(n_coarse\)"):
            contract_graph(g, np.asarray([0, 0, 1, 5]), 2)

    def test_total_cross_weight_preserved(self, ba_graph):
        rng = np.random.default_rng(0)
        groups = rng.integers(0, 10, ba_graph.n)
        coarse = contract_graph(ba_graph, groups, 10)
        us, vs, ws = ba_graph.edge_arrays()
        cross = ws[groups[us] != groups[vs]].sum()
        assert np.isclose(coarse.total_edge_weight(), cross)


class TestCoarsenChain:
    def test_coarsen_once_shrinks(self, ba_graph):
        level = coarsen_once(ba_graph, seed=1)
        assert level.coarse.n < ba_graph.n
        assert level.coarse_of.shape == (ba_graph.n,)

    def test_coarsen_to_size(self, ba_graph):
        levels = coarsen_to_size(ba_graph, 50, seed=2)
        assert levels[-1].coarse.n <= max(50, int(0.95 * levels[-1].fine.n))
        # chain is consistent
        for a, b in zip(levels, levels[1:]):
            assert a.coarse == b.fine

    def test_preserves_total_vertex_weight(self, ba_graph):
        levels = coarsen_to_size(ba_graph, 50, seed=3)
        for level in levels:
            assert np.isclose(
                level.coarse.vertex_weights.sum(), ba_graph.vertex_weights.sum()
            )

    def test_stalls_gracefully_on_star(self):
        g = gen.star(30)
        levels = coarsen_to_size(g, 2, seed=4)
        # star resists matching: must terminate, not loop forever
        assert isinstance(levels, list)
