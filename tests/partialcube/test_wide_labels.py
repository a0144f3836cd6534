"""Wide-vs-reference equivalence on >= 64-class partial cubes.

The wide labeling must agree, class by class, with the raw Djokovic
structure (the representation-independent ground truth) and pass the
exhaustive Hamming-equals-distance check on random trees with n >= 100
and on the 255-switch ``fattree2x7``.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.algorithms import all_pairs_distances
from repro.graphs.builder import from_edges
from repro.partialcube.djokovic import _djokovic_classes_loop, partial_cube_labeling
from repro.partialcube.hierarchy import hierarchy_from_permutation
from repro.partialcube.verify import labeling_distance_error, verify_labeling
from repro.utils.bitops import pairwise_hamming, words_for_bits


def _random_tree(n, seed):
    """Uniform-ish random tree: attach vertex i to a random earlier one."""
    rng = np.random.default_rng(seed)
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    return from_edges(n, [(p, i + 1) for i, p in enumerate(parents)])


class TestRandomTrees:
    @pytest.mark.parametrize("n,seed", [(100, 0), (150, 1), (230, 2)])
    def test_labeling_is_isometric(self, n, seed):
        t = _random_tree(n, seed)
        pc = partial_cube_labeling(t)
        assert pc.dim == n - 1
        assert pc.labels.shape == (n, words_for_bits(n - 1))
        assert labeling_distance_error(t, pc.labels) == 0

    @pytest.mark.parametrize("n,seed", [(110, 3), (170, 4)])
    def test_labels_match_reference_classes(self, n, seed):
        t = _random_tree(n, seed)
        dist = all_pairs_distances(t)
        edge_class, classes = _djokovic_classes_loop(t, dist)
        pc = partial_cube_labeling(t)
        # Reference side test per class, straight from the definition.
        bits = pc.as_bit_matrix()
        for j, (x, y) in enumerate(classes):
            on_y = dist[y] < dist[x]
            assert np.array_equal(bits[:, j].astype(bool), on_y)

    def test_hamming_equals_distance_pairwise(self):
        t = _random_tree(120, 9)
        pc = partial_cube_labeling(t)
        assert np.array_equal(pairwise_hamming(pc.labels), all_pairs_distances(t))


class TestFatTree2x7:
    def test_end_to_end_labeling(self):
        t = gen.fat_tree(2, 7)
        assert t.n == 255
        pc = partial_cube_labeling(t)
        assert pc.dim == 254 and pc.labels.shape == (255, 4)
        assert verify_labeling(t, pc.labels)
        # every class's cut is exactly one tree edge
        assert all(c.shape == (1, 2) for c in pc.cut_edges)

    def test_wide_hierarchy_partitions(self):
        t = gen.fat_tree(2, 6)
        pc = partial_cube_labeling(t)
        h = hierarchy_from_permutation(pc.labels, pc.dim, seed=0)
        assert h.dim == 126
        # partitions refine monotonically and end at singletons
        sizes = [h.n_parts(i) for i in range(h.dim + 1)]
        assert sizes[0] == 1 and sizes[-1] == t.n
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_narrow_boundary_unchanged(self):
        # 63-class path: still the packed int64 fast path.
        p = gen.path(64)
        pc = partial_cube_labeling(p)
        assert pc.labels.ndim == 1 and pc.labels.dtype == np.int64
        assert verify_labeling(p, pc.labels)
