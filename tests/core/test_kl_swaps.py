"""Tests for the KL-style swap pass (future-work extension)."""

import numpy as np
import pytest

from repro.core.config import TimerConfig
from repro.core.contraction import contract_level, make_finest_level
from repro.core.enhancer import timer_enhance
from repro.core.objective import coco_plus_signed
from repro.core.swaps import kl_swap_pass, kl_swap_pass_reference, swap_pass
from repro.errors import ConfigurationError
from repro.graphs import generators as gen
from repro.graphs.builder import from_edges
from repro.partialcube.djokovic import partial_cube_labeling
from repro.partitioning.kway import partition_kway
from repro.utils.bitops import label_to_int


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


def _signed(graph, labels, sign, dim):
    signs = np.full(dim, -sign)
    signs[0] = sign
    return coco_plus_signed(graph, labels, signs)


class TestKlPass:
    def test_never_worse_than_start(self, ba_graph):
        rng = np.random.default_rng(1)
        dim = 10
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        for sign in (1, -1):
            lvl = make_finest_level(ba_graph.edge_arrays(), labels.copy())
            before = _signed(ba_graph, lvl.labels, sign, dim)
            n, delta = kl_swap_pass(lvl, sign=sign)
            after = _signed(ba_graph, lvl.labels, sign, dim)
            assert after <= before + 1e-9
            assert np.isclose(after - before, delta, atol=1e-9)

    def test_multiset_preserved(self, ba_graph):
        rng = np.random.default_rng(2)
        labels = rng.permutation(ba_graph.n).astype(np.int64)
        lvl = make_finest_level(ba_graph.edge_arrays(), labels.copy())
        kl_swap_pass(lvl, sign=1, sweeps=2)
        assert sorted(_ints(lvl.labels)) == sorted(labels.tolist())

    def test_at_least_as_good_as_greedy(self, ba_graph):
        """KL explores supersets of greedy's moves: final estimate <=."""
        rng = np.random.default_rng(3)
        dim = 10
        labels = rng.choice(1 << dim, size=ba_graph.n, replace=False).astype(np.int64)
        greedy_lvl = make_finest_level(ba_graph.edge_arrays(), labels.copy())
        kl_lvl = make_finest_level(ba_graph.edge_arrays(), labels.copy())
        _, d_greedy = swap_pass(greedy_lvl, sign=1)
        _, d_kl = kl_swap_pass(kl_lvl, sign=1)
        assert d_kl <= d_greedy + 1e-9

    def test_escapes_local_plateau(self):
        """KL can chain a zero/negative-gain swap into a later gain.

        Construct a path of sibling pairs where the first swap alone has
        negative gain but enables a bigger one.
        """
        # vertices 0..3, labels 0,1,2,3: pairs (0,1) and (2,3)
        g = from_edges(4, [(1, 2, 10.0), (0, 2, 1.0), (0, 3, 12.0)])
        labels = [0, 1, 2, 3]
        lvl = make_finest_level(g.edge_arrays(), np.asarray(labels, np.int64))
        n, delta = kl_swap_pass(lvl, sign=1)
        assert delta <= 0.0
        assert sorted(_ints(lvl.labels)) == [0, 1, 2, 3]

    def test_sign_validated(self, triangle):
        lvl = make_finest_level(triangle.edge_arrays(), np.asarray([0, 1, 2]))
        with pytest.raises(ValueError):
            kl_swap_pass(lvl, sign=2)

    def test_empty(self):
        g = from_edges(3, [])
        lvl = make_finest_level(g.edge_arrays(), np.asarray([0, 1, 2]))
        assert kl_swap_pass(lvl, sign=1) == (0, 0.0)


class TestKlVectorizedEquivalence:
    """The vectorized gain maintenance must match the scalar reference.

    Byte-identical labelings, swap counts and kept deltas on
    integer-weight levels (the guarantee the batch greedy kernel already
    documents), across signs, sweeps and contraction depths.
    """

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_finest_level_byte_identical(self, seed, sign):
        rng = np.random.default_rng(seed)
        g = gen.barabasi_albert(90 + 12 * seed, 3, seed=seed)
        dim = 9
        labels = rng.choice(1 << dim, size=g.n, replace=False).astype(np.int64)
        ref = make_finest_level(g.edge_arrays(), labels.copy())
        vec = make_finest_level(g.edge_arrays(), labels.copy())
        n_ref, d_ref = kl_swap_pass_reference(ref, sign)
        n_vec, d_vec = kl_swap_pass(vec, sign)
        assert np.array_equal(ref.labels, vec.labels)
        assert n_ref == n_vec
        assert d_ref == d_vec

    @pytest.mark.parametrize("seed", range(4))
    def test_contracted_levels_byte_identical(self, seed):
        """Integer-weight contracted levels (merged parallel edges)."""
        rng = np.random.default_rng(100 + seed)
        g = gen.barabasi_albert(150, 3, seed=seed)
        labels = rng.choice(1 << 9, size=g.n, replace=False).astype(np.int64)
        lvl = make_finest_level(g.edge_arrays(), labels)
        for _depth in range(3):
            lvl = contract_level(lvl)
            ref = make_finest_level((lvl.us, lvl.vs, lvl.ws), lvl.labels.copy())
            vec = make_finest_level((lvl.us, lvl.vs, lvl.ws), lvl.labels.copy())
            out_ref = kl_swap_pass_reference(ref, 1, sweeps=2)
            out_vec = kl_swap_pass(vec, 1, sweeps=2)
            assert np.array_equal(ref.labels, vec.labels)
            assert out_ref == out_vec

    def test_plateau_chain_byte_identical(self):
        g = from_edges(4, [(1, 2, 10.0), (0, 2, 1.0), (0, 3, 12.0)])
        for sign in (1, -1):
            ref = make_finest_level(g.edge_arrays(), np.asarray([0, 1, 2, 3], np.int64))
            vec = make_finest_level(g.edge_arrays(), np.asarray([0, 1, 2, 3], np.int64))
            out_ref = kl_swap_pass_reference(ref, sign)
            out_vec = kl_swap_pass(vec, sign)
            assert np.array_equal(ref.labels, vec.labels)
            assert out_ref == out_vec


class TestKlInEnhancer:
    def test_end_to_end(self):
        ga = gen.barabasi_albert(300, 3, seed=4)
        gp = gen.grid(4, 4)
        pc = partial_cube_labeling(gp)
        part = partition_kway(ga, gp.n, seed=4)
        cfg = TimerConfig(n_hierarchies=4, swap_strategy="kl")
        res = timer_enhance(ga, gp, pc, part.assignment, seed=5, config=cfg)
        res.labeling.check_bijective()
        assert res.coco_after <= res.coco_before

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            TimerConfig(swap_strategy="annealing")
