"""Tests for label-driven contraction (paper section 6, Figure 4)."""

import numpy as np

from repro.core.contraction import (
    build_hierarchy,
    contract_level,
    make_finest_level,
)
from repro.graphs import generators as gen
from repro.graphs.builder import from_edges
from repro.utils.bitops import label_to_int


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


def _level_of(graph, labels):
    return make_finest_level(graph.edge_arrays(), np.asarray(labels, dtype=np.int64))


class TestContractLevel:
    def test_siblings_merge(self):
        g = from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
        lvl = _level_of(g, [0b00, 0b01, 0b10, 0b11])
        coarse = contract_level(lvl)
        assert coarse.n == 2
        assert _ints(coarse.labels) == [0b0, 0b1]
        # only edge (1,2) crosses the prefix groups
        assert coarse.ws.tolist() == [2.0]

    def test_parent_pointers(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        lvl = _level_of(g, [0b00, 0b01, 0b10, 0b11])
        coarse = contract_level(lvl)
        assert lvl.parent.tolist() == [0, 0, 1, 1]
        assert coarse.parent is None

    def test_parallel_edges_merge(self):
        g = from_edges(4, [(0, 2, 1.5), (1, 3, 2.5)])
        lvl = _level_of(g, [0b00, 0b01, 0b10, 0b11])
        coarse = contract_level(lvl)
        assert coarse.ws.tolist() == [4.0]

    def test_unpaired_labels_survive(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        lvl = _level_of(g, [0b00, 0b10, 0b11])
        coarse = contract_level(lvl)
        assert coarse.n == 2  # prefix 0 (single child) and prefix 1 (pair)

    def test_cross_weight_preserved(self, ba_graph):
        rng = np.random.default_rng(1)
        labels = rng.permutation(ba_graph.n).astype(np.int64)
        lvl = make_finest_level(ba_graph.edge_arrays(), labels)
        coarse = contract_level(lvl)
        us, vs, ws = ba_graph.edge_arrays()
        cross = ws[(labels[us] >> 1) != (labels[vs] >> 1)].sum()
        assert np.isclose(coarse.ws.sum(), cross)


class TestBuildHierarchy:
    def test_level_count(self, ba_graph):
        rng = np.random.default_rng(2)
        dim = 10
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        levels = build_hierarchy(ba_graph.edge_arrays(), labels, dim)
        assert len(levels) == dim - 1

    def test_sizes_nonincreasing(self, ba_graph):
        rng = np.random.default_rng(3)
        dim = 10
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        levels = build_hierarchy(ba_graph.edge_arrays(), labels, dim)
        sizes = [lvl.n for lvl in levels]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_labels_unique_every_level(self, ba_graph):
        rng = np.random.default_rng(4)
        dim = 10
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        for lvl in build_hierarchy(ba_graph.edge_arrays(), labels, dim):
            assert len(set(_ints(lvl.labels))) == lvl.n

    def test_coarsest_width_two(self):
        """Paper: the loop stops at G^{dim-1}, whose labels have 2 digits."""
        g = gen.cycle(8)
        labels = np.arange(8, dtype=np.int64)
        levels = build_hierarchy(g.edge_arrays(), labels, 3)
        assert len(levels) == 2
        assert levels[-1].labels.max() < 4


class TestFigure4Scenario:
    def test_figure4_contraction(self):
        """Figure 4: 3-digit labels contract into a 4-vertex level-2 graph.

        We reproduce the structure: level-1 labels 000..111 on 8 vertices;
        after contraction the level-2 graph has vertices 00,01,10,11.
        """
        edges = [
            (0, 1, 1.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 1.0),
            (4, 5, 1.0), (4, 6, 2.0), (5, 7, 2.0), (6, 7, 1.0),
            (2, 4, 2.0), (3, 5, 2.0),
        ]
        g = from_edges(8, edges)
        lvl = _level_of(g, list(range(8)))
        coarse = contract_level(lvl)
        assert coarse.n == 4
        assert sorted(_ints(coarse.labels)) == [0, 1, 2, 3]
        # cross-group weights aggregate
        w = {tuple(sorted((int(a), int(b)))): float(wt)
             for a, b, wt in zip(coarse.us, coarse.vs, coarse.ws)}
        assert w[(0, 1)] == 2.0 + 2.0  # edges (0,2),(1,3)
        assert w[(1, 2)] == 2.0 + 2.0  # edges (2,4),(3,5)
