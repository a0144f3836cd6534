"""Tests for partial-cube recognition and labeling (paper section 3)."""

import numpy as np
import pytest

from repro.errors import NotPartialCubeError
from repro.graphs import generators as gen
from repro.graphs.algorithms import all_pairs_distances
from repro.graphs.builder import from_edges
from repro.partialcube.djokovic import (
    _djokovic_classes_loop,
    _djokovic_classes_vectorized,
    djokovic_classes,
    is_partial_cube,
    partial_cube_labeling,
)


class TestRecognitionPositive:
    @pytest.mark.parametrize(
        "maker,expected_dim",
        [
            (lambda: gen.path(5), 4),
            (lambda: gen.grid(3, 3), 4),
            (lambda: gen.grid(4, 4), 6),
            (lambda: gen.grid(2, 3, 4), 6),
            (lambda: gen.cycle(6), 3),
            (lambda: gen.cycle(8), 4),
            (lambda: gen.torus(4, 4), 4),
            (lambda: gen.torus(4, 6), 5),
            (lambda: gen.hypercube(3), 3),
            (lambda: gen.hypercube(5), 5),
            (lambda: gen.star(6), 6),
            (lambda: gen.complete_binary_tree(3), 14),
        ],
    )
    def test_dimension(self, maker, expected_dim):
        g = maker()
        lab = partial_cube_labeling(g)
        assert lab.dim == expected_dim

    def test_isometry_holds(self, small_grid):
        lab = partial_cube_labeling(small_grid)
        d = all_pairs_distances(small_grid)
        ham = np.bitwise_count(lab.labels[:, None] ^ lab.labels[None, :])
        assert np.array_equal(ham, d)

    def test_tree_every_edge_own_class(self):
        t = gen.random_tree(20, seed=1)
        edge_class, classes = djokovic_classes(t)
        assert len(classes) == t.m
        assert len(set(edge_class.tolist())) == t.m

    def test_hypercube_labels_unique(self):
        lab = partial_cube_labeling(gen.hypercube(4))
        assert len(set(lab.labels.tolist())) == 16

    def test_cut_edges_partition_edge_set(self, small_grid):
        lab = partial_cube_labeling(small_grid)
        total = sum(ce.shape[0] for ce in lab.cut_edges)
        assert total == small_grid.m

    def test_side_membership(self, small_grid):
        lab = partial_cube_labeling(small_grid)
        for j in range(lab.dim):
            side = lab.side(j)
            assert 0 < side.sum() < small_grid.n

    def test_bit_matrix(self, small_torus):
        lab = partial_cube_labeling(small_torus)
        mat = lab.as_bit_matrix()
        assert mat.shape == (small_torus.n, lab.dim)
        packed = (mat.astype(np.int64) << np.arange(lab.dim)).sum(axis=1)
        assert np.array_equal(packed, lab.labels)


class TestRecognitionNegative:
    def test_odd_cycle(self):
        with pytest.raises(NotPartialCubeError) as exc:
            partial_cube_labeling(gen.cycle(5))
        assert exc.value.reason == "not-bipartite"

    def test_odd_torus(self):
        assert not is_partial_cube(gen.torus(3, 4))

    def test_k23_not_partial_cube(self):
        # K_{2,3} is bipartite but not a partial cube (classes overlap).
        g = from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        with pytest.raises(NotPartialCubeError) as exc:
            partial_cube_labeling(g)
        assert exc.value.reason in ("overlapping-classes", "not-isometric")

    def test_disconnected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NotPartialCubeError) as exc:
            partial_cube_labeling(g)
        assert exc.value.reason == "disconnected"

    def test_empty(self):
        with pytest.raises(NotPartialCubeError):
            partial_cube_labeling(from_edges(0, []))

    def test_dimension_beyond_63_goes_wide(self):
        # A 70-vertex star has dimension 70 > 63 packed bits; it used to
        # raise "dimension-too-large", now it labels into the wide
        # (n, 2)-word representation.
        g = gen.star(70)
        pc = partial_cube_labeling(g)
        assert pc.dim == g.m > 63
        assert pc.labels.ndim == 2 and pc.labels.shape == (g.n, 2)
        assert pc.labels.dtype == np.uint64

    def test_is_partial_cube_wrapper(self):
        assert is_partial_cube(gen.grid(3, 3))
        assert not is_partial_cube(gen.cycle(7))


class TestPaperTopologies:
    """Convex-cut counts for the evaluation topologies (§7.2 bullet 2)."""

    @pytest.mark.parametrize(
        "name,maker,dim",
        [
            ("grid16x16", lambda: gen.grid(16, 16), 30),
            ("hq8", lambda: gen.hypercube(8), 8),
            # The paper reports 32/24 convex cuts for the tori; the true
            # isometric dimension is half per torus dimension (antipodal
            # meridians share a Djokovic class).  See DESIGN.md.
            ("torus16x16", lambda: gen.torus(16, 16), 16),
        ],
    )
    def test_dims(self, name, maker, dim):
        g = maker()
        assert partial_cube_labeling(g).dim == dim


class TestVectorizedMatchesLoop:
    """The batched side-test implementation must reproduce the sequential
    per-class loop exactly on partial cubes (trees, grids, hypercubes)."""

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: gen.random_tree(40, seed=2),
            lambda: gen.random_tree(120, seed=9),
            lambda: gen.path(17),
            lambda: gen.star(12),
            lambda: gen.complete_binary_tree(4),
            lambda: gen.grid(5, 7),
            lambda: gen.grid(3, 3, 3),
            lambda: gen.hypercube(4),
            lambda: gen.hypercube(6),
            lambda: gen.cycle(10),
            lambda: gen.torus(4, 6),
        ],
    )
    def test_identical_classes(self, maker):
        g = maker()
        dist = all_pairs_distances(g)
        ec_loop, cls_loop = _djokovic_classes_loop(g, dist)
        ec_vec, cls_vec = _djokovic_classes_vectorized(g, dist)
        assert np.array_equal(ec_loop, ec_vec)
        assert cls_loop == cls_vec

    def test_default_auto_matches_both(self, small_grid):
        dist = all_pairs_distances(small_grid)
        ec_default, cls_default = djokovic_classes(small_grid)
        for strategy in (_djokovic_classes_loop, _djokovic_classes_vectorized):
            ec, cls = strategy(small_grid, dist)
            assert np.array_equal(ec_default, ec)
            assert cls_default == cls

    def test_auto_falls_back_to_batch_on_many_classes(self):
        # a 100-edge tree has 100 classes > the 64-class loop cap
        t = gen.random_tree(101, seed=4)
        ec_auto, cls_auto = djokovic_classes(t)
        ec_loop, cls_loop = _djokovic_classes_loop(t, all_pairs_distances(t))
        assert np.array_equal(ec_auto, ec_loop)
        assert cls_auto == cls_loop

    def test_vectorized_detects_overlap(self):
        g = from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        with pytest.raises(NotPartialCubeError) as exc:
            _djokovic_classes_vectorized(g, all_pairs_distances(g))
        assert exc.value.reason == "overlapping-classes"
