"""Tests for hierarchy reassembly (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.assemble import assemble, grant_preferences
from repro.utils.segments import group_ranks
from repro.core.contraction import contract_level, make_finest_level
from repro.core.swaps import swap_pass
from repro.graphs import generators as gen
from repro.utils.bitops import int_to_label_row, label_to_int


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


def _build_levels(graph, labels, dim, swap_signs=None, sweeps=1):
    """Mimic the enhancer's hierarchy loop."""
    levels = [make_finest_level(graph.edge_arrays(), np.asarray(labels, np.int64).copy())]
    for i in range(2, dim):
        if swap_signs is not None:
            swap_pass(levels[-1], swap_signs[i - 2], sweeps=sweeps)
        levels.append(contract_level(levels[-1]))
    return levels


class TestRankWithinGroups:
    def test_basic(self):
        gids = np.asarray([0, 1, 0, 1, 0])
        assert group_ranks(gids).tolist() == [0, 0, 1, 1, 2]

    def test_empty(self):
        assert group_ranks(np.asarray([], dtype=np.int64)).size == 0


class TestIdentityProperty:
    """Without swaps, assemble must reproduce the input labeling."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_swaps_identity(self, ba_graph, seed):
        rng = np.random.default_rng(seed)
        dim = 11
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        levels = _build_levels(ba_graph, labels, dim, swap_signs=None)
        out = assemble(levels, dim)
        assert _ints(out) == labels.tolist()

    def test_level1_swaps_only_pass_through(self, ba_graph):
        """With only level-1 swaps, assemble returns the swapped labels."""
        rng = np.random.default_rng(3)
        dim = 11
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        finest = make_finest_level(ba_graph.edge_arrays(), labels.copy())
        swap_pass(finest, sign=1)
        snapshot = finest.labels.copy()
        levels = [finest]
        for _ in range(2, dim):
            levels.append(contract_level(levels[-1]))
        out = assemble(levels, dim)
        assert np.array_equal(out, snapshot)


class TestBijectivity:
    @pytest.mark.parametrize("seed", range(5))
    def test_bijection_after_arbitrary_swaps(self, ba_graph, seed):
        rng = np.random.default_rng(seed)
        dim = 12
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        signs = rng.choice([-1, 1], size=dim)
        levels = _build_levels(ba_graph, labels, dim, swap_signs=signs, sweeps=2)
        out = assemble(levels, dim)
        assert sorted(_ints(out)) == sorted(labels.tolist())

    def test_bijection_with_adversarial_coarse_relabeling(self, ba_graph):
        """Shuffle coarse labels arbitrarily (stronger than real swaps)."""
        rng = np.random.default_rng(9)
        dim = 10
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        levels = _build_levels(ba_graph, labels, dim)
        for lvl in levels[1:]:
            rng.shuffle(lvl.labels)  # destroys prefix consistency entirely
        out = assemble(levels, dim)
        assert sorted(_ints(out)) == sorted(labels.tolist())

    def test_small_dims(self):
        g = gen.cycle(4)
        labels = np.asarray([0, 1, 2, 3], dtype=np.int64)
        levels = _build_levels(g, labels, 2)
        out = assemble(levels, 2)
        assert sorted(_ints(out)) == sorted(labels.tolist())

    def test_non_contiguous_labelset(self, ba_graph):
        """Label sets with holes (the real case: labels live in a sparse
        subset of {0,1}^dim) still assemble to a bijection."""
        rng = np.random.default_rng(11)
        dim = 14
        labels = rng.choice(1 << dim, size=200, replace=False).astype(np.int64)
        g = gen.barabasi_albert(200, 3, seed=1)
        levels = _build_levels(g, labels, dim, swap_signs=rng.choice([-1, 1], dim))
        out = assemble(levels, dim)
        assert sorted(_ints(out)) == sorted(labels.tolist())


class TestGrantPreferences:
    def test_overflow_goes_to_the_other_side_in_vertex_order(self):
        labels = np.arange(4, dtype=np.uint64).reshape(-1, 1)
        prefs = np.asarray([[2], [2], [1], [1]], dtype=np.uint64)
        # Digit 0 is granted to all; at digit 1 each suffix group has
        # one label per digit, so the second vertex of each pair is
        # refused.
        assert _ints(grant_preferences(labels, prefs, 2)) == [2, 0, 1, 3]

    def test_duplicate_labels_are_refused(self):
        labels = np.asarray([[3], [3], [4]], dtype=np.uint64)
        with pytest.raises(ValueError, match="unique"):
            grant_preferences(labels, labels.copy(), 3)

    def test_labels_equal_within_dim_bits_are_refused(self):
        labels = np.stack([int_to_label_row(v, 2) for v in (1, 1 | 1 << 70, 2)])
        with pytest.raises(ValueError, match="unique within 8 bits"):
            grant_preferences(labels, labels.copy(), 8)
