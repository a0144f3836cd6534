"""Equivalence and property tests for the vectorized swap kernels.

The batch kernels must be *indistinguishable* from the scalar reference:
per-pair gains match ``pair_delta`` exactly on integer weights (and to
float tolerance on random weights), and the full batch pass produces
byte-identical final labelings, swap counts and total deltas versus the
sequential greedy sweep.  Tests are hypothesis-style: randomized over many
seeded instances so the conflict-resolution fixpoint is exercised on
diverse conflict structures (hubs, chains, isolated pairs).
"""

import numpy as np
import pytest

from repro.core.backend import (
    available_backends,
    get_backend,
    resolve_backend_name,
    set_default_backend,
)
from repro.core.contraction import contract_level, make_finest_level
from repro.core.kernels import (
    batch_pair_deltas,
    batch_swap_pass,
    level_csr,
    pair_delta,
    sibling_pair_weights,
    sibling_pairs,
)
from repro.core.swaps import swap_pass, swap_pass_reference
from repro.graphs import generators as gen
from repro.graphs.builder import from_edges
from repro.utils.bitops import label_to_int


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


def _random_level(g, rng, dim=9, weights=None):
    labels = rng.choice(1 << dim, size=g.n, replace=False).astype(np.int64)
    us, vs, ws = g.edge_arrays()
    if weights is not None:
        ws = weights
    return make_finest_level((us, vs, ws), labels)


class TestBatchPairDeltas:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_scalar_on_random_levels(self, seed, sign):
        rng = np.random.default_rng(seed)
        g = gen.barabasi_albert(80 + 10 * seed, 3, seed=seed)
        lvl = _random_level(g, rng)
        csr = level_csr(lvl)
        pairs = sibling_pairs(lvl.labels)
        pair_w = sibling_pair_weights(lvl, pairs)
        got = batch_pair_deltas(lvl.labels, pairs, csr, sign, pair_w)
        expect = [
            pair_delta(lvl.labels, *csr, int(u), int(v), sign) for u, v in pairs
        ]
        assert np.array_equal(got, np.asarray(expect))

    def test_matches_scalar_with_float_weights(self):
        rng = np.random.default_rng(99)
        g = gen.barabasi_albert(150, 3, seed=4)
        ws = rng.uniform(0.1, 5.0, size=g.m)
        lvl = _random_level(g, rng, weights=ws)
        csr = level_csr(lvl)
        pairs = sibling_pairs(lvl.labels)
        pair_w = sibling_pair_weights(lvl, pairs)
        got = batch_pair_deltas(lvl.labels, pairs, csr, 1, pair_w)
        expect = [pair_delta(lvl.labels, *csr, int(u), int(v), 1) for u, v in pairs]
        assert np.allclose(got, expect, atol=1e-9)

    def test_pair_weight_extraction(self):
        # path 0-1 where 0 and 1 are siblings: internal edge weight 7
        g = from_edges(2, [(0, 1, 7.0)])
        lvl = make_finest_level(g.edge_arrays(), np.asarray([2, 3], dtype=np.int64))
        pairs = sibling_pairs(lvl.labels)
        assert pairs.shape == (1, 2)
        assert sibling_pair_weights(lvl, pairs).tolist() == [7.0]
        # the internal edge must not affect the gain: swapping changes nothing
        deltas = batch_pair_deltas(lvl.labels, pairs, level_csr(lvl), 1,
                                   sibling_pair_weights(lvl, pairs))
        assert deltas.tolist() == [0.0]


class TestBatchSwapPassEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_byte_identical_on_random_ba(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.barabasi_albert(120 + 20 * seed, 3, seed=seed)
        sign = 1 if seed % 2 == 0 else -1
        sweeps = 1 + seed % 3
        base = _random_level(g, rng)
        la = make_finest_level((base.us, base.vs, base.ws), base.labels.copy())
        lb = make_finest_level((base.us, base.vs, base.ws), base.labels.copy())
        ra = swap_pass_reference(la, sign, sweeps=sweeps)
        rb = batch_swap_pass(lb, sign, sweeps=sweeps)
        assert ra == rb
        assert np.array_equal(la.labels, lb.labels)

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: gen.grid(8, 8),
            lambda: gen.hypercube(6),
            lambda: gen.random_tree(100, seed=5),
            lambda: gen.cycle(64),
        ],
    )
    def test_byte_identical_on_structured_graphs(self, maker):
        g = maker()
        rng = np.random.default_rng(7)
        base = _random_level(g, rng, dim=8)
        la = make_finest_level((base.us, base.vs, base.ws), base.labels.copy())
        lb = make_finest_level((base.us, base.vs, base.ws), base.labels.copy())
        for sign in (1, -1):
            ra = swap_pass_reference(la, sign, sweeps=2)
            rb = batch_swap_pass(lb, sign, sweeps=2)
            assert ra == rb
            assert np.array_equal(la.labels, lb.labels)

    def test_byte_identical_down_a_contraction_chain(self):
        g = gen.barabasi_albert(400, 4, seed=11)
        rng = np.random.default_rng(12)
        lvl = _random_level(g, rng, dim=10)
        while lvl.n > 2:
            la = make_finest_level((lvl.us, lvl.vs, lvl.ws), lvl.labels.copy())
            lb = make_finest_level((lvl.us, lvl.vs, lvl.ws), lvl.labels.copy())
            ra = swap_pass_reference(la, -1, sweeps=2)
            rb = batch_swap_pass(lb, -1, sweeps=2)
            assert ra == rb
            assert np.array_equal(la.labels, lb.labels)
            lvl = contract_level(lvl)

    def test_label_multiset_preserved(self):
        g = gen.barabasi_albert(300, 3, seed=3)
        rng = np.random.default_rng(3)
        lvl = _random_level(g, rng)
        before = sorted(_ints(lvl.labels))
        batch_swap_pass(lvl, 1, sweeps=4)
        assert sorted(_ints(lvl.labels)) == before

    def test_empty_and_trivial_levels(self):
        g = from_edges(4, [])
        lvl = make_finest_level(g.edge_arrays(), np.arange(4, dtype=np.int64))
        assert batch_swap_pass(lvl, 1) == (0, 0.0)
        one = make_finest_level(
            from_edges(1, []).edge_arrays(), np.zeros(1, dtype=np.int64)
        )
        assert batch_swap_pass(one, -1) == (0, 0.0)

    def test_sign_validation(self):
        g = from_edges(3, [(0, 1, 1.0)])
        lvl = make_finest_level(g.edge_arrays(), np.arange(3, dtype=np.int64))
        with pytest.raises(ValueError):
            batch_swap_pass(lvl, 0)

    def test_swap_pass_is_the_batch_kernel(self):
        """core.swaps.swap_pass must route through the vectorized kernel."""
        g = gen.barabasi_albert(200, 3, seed=8)
        rng = np.random.default_rng(8)
        la = _random_level(g, rng)
        lb = make_finest_level((la.us, la.vs, la.ws), la.labels.copy())
        assert swap_pass(la, 1, sweeps=2) == batch_swap_pass(lb, 1, sweeps=2)
        assert np.array_equal(la.labels, lb.labels)


class TestLevelCsrCache:
    def test_built_once(self):
        g = gen.grid(5, 5)
        lvl = make_finest_level(g.edge_arrays(), np.arange(g.n, dtype=np.int64))
        first = level_csr(lvl)
        assert level_csr(lvl) is first
        assert lvl.csr is first

    def test_precomputed_csr_accepted(self):
        g = gen.barabasi_albert(100, 3, seed=2)
        rng = np.random.default_rng(2)
        la = _random_level(g, rng)
        lb = make_finest_level((la.us, la.vs, la.ws), la.labels.copy())
        csr = level_csr(lb)
        ra = batch_swap_pass(la, 1)
        rb = batch_swap_pass(lb, 1, csr=csr)
        assert ra == rb
        assert np.array_equal(la.labels, lb.labels)


class TestBackendSeam:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_set_backend_roundtrip(self, restore_default_backend):
        set_default_backend("numpy")
        assert get_backend() == "numpy"

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend_name("cuda")
        with pytest.raises(ValueError):
            set_default_backend("cuda")
