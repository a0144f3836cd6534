"""Differential tests: the level walk's contraction and pair-row swap pass.

A swap pass reads only the CSR rows of its sibling-pair vertices
(``pair_rows``), and a contraction merges the level's edges into the
coarse CSR.  Each is checked against the code it replaced, kept in-tree
as an oracle:

- ``contract_level`` against ``contract_level_reference`` on hand-made
  levels: a merge at vertex 0 and at ``n - 2``, no edges, two adjacent
  rows whose boundary entries map to one coarse vertex, and three and
  four fine edges in one coarse edge;
- ``pair_rows`` / ``pair_row_gains`` against ``sibling_pair_weights`` /
  ``batch_pair_deltas`` over the whole CSR, bit for bit, and the greedy
  and KL passes run on either;
- the backend's row-subset ``vertex_lsb_sums`` against the numpy one;
- on the walk, one ``adjacent_siblings`` call per hierarchy level, and a
  walk that releases each level's adjacency gives the same labels.

Weights are one-decimal floats, so any change of summation order shows.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import enhancer, kernels, swaps
from repro.core.assemble import assemble
from repro.core.backend import available_backends, current_backend, use_backend
from repro.core.config import TimerConfig
from repro.core.contraction import (
    Level,
    contract_level,
    contract_level_reference,
    make_finest_level,
    sibling_mask,
)
from repro.core.kernels import (
    batch_pair_deltas,
    batch_swap_pass,
    level_csr,
    pair_row_gains,
    pair_rows,
    sibling_pair_weights,
    sibling_pairs,
)
from repro.core.labels import build_application_labeling
from repro.core.swaps import kl_swap_pass, swap_pass
from repro.graphs import generators as gen
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils import bitops
from repro.utils.bitops import permute_bits
from repro.utils.segments import build_csr, concat_ranges
from tests.core.test_hierarchy_order import (
    SETTINGS,
    _assert_levels_equal,
    _count_calls,
    _random_swaps,
    levels,
)


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _contract_both(level):
    """``contract_level`` and the reference on a copy."""
    ref = Level(labels=level.labels.copy(), order=level.order, edges=level.edges,
                csr=level.csr)
    coarse = contract_level(level)
    coarse_ref = contract_level_reference(ref)
    assert level.parent.dtype == np.int64 and np.array_equal(level.parent, ref.parent)
    _assert_levels_equal(coarse, coarse_ref)
    return coarse


def _contracted(n, edges, labels):
    """A contracted level: ``labels`` ascend, sorted merged edges, their CSR."""
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in edges)
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    ws = np.array([e[2] for e in edges], dtype=np.float64)
    rows = bitops.as_label_array(np.asarray(labels, dtype=np.int64))
    assert np.array_equal(bitops.argsort_labels(rows), np.arange(n))
    return Level(labels=rows, order=np.arange(n, dtype=np.int64), edges=(us, vs, ws),
                 csr=build_csr(n, us, vs, ws))


class TestContractionOnHandMadeLevels:
    @pytest.mark.parametrize(
        "labels",
        [
            [0, 1, 2, 4, 6, 8],  # merge at vertex 0
            [0, 2, 4, 6, 10, 11],  # merge at n - 2
            [0, 1, 2, 4, 6, 7],  # both
            [1, 2, 4, 6, 8, 10],  # no merge
        ],
    )
    def test_hand_made_levels(self, labels):
        # Rows 2 and 3 reach the merged pair (0, 1) from either side: row
        # 2 ends with its smaller neighbour 1, row 3 has no larger
        # neighbour and starts with 0, so their boundary entries map to
        # one coarse vertex.  Row 4 holds both 0 and 1 and collapses them;
        # row 5 meets the pair (4, 5) inside it.
        edges = [(1, 2, 0.3), (0, 3, 1.4), (0, 4, 3.2), (1, 4, 0.2),
                 (4, 5, 2.5), (2, 5, 0.7), (0, 1, 4.4)]
        _contract_both(_contracted(6, edges, labels))

    def test_cross_row_boundary_is_not_collapsed(self):
        level = _contracted(4, [(1, 2, 1.5), (0, 3, 2.5)], [0, 1, 2, 4])
        coarse = _contract_both(level)
        indptr, indices, weights = coarse.csr
        assert indptr.tolist() == [0, 2, 3, 4]
        assert indices.tolist() == [1, 2, 0, 0]
        assert weights.tolist() == [1.5, 2.5, 1.5, 2.5]

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_level_without_edges(self, n):
        coarse = _contract_both(_contracted(n, [], list(range(n))))
        assert coarse.csr[1].size == 0

    def test_four_fine_edges_in_one_coarse_edge(self):
        # Pairs (0, 1) and (2, 3) joined by all four fine edges: the
        # coarse weight adds them in (min, max) order, 0.1 + (0.2 + ...).
        level = _contracted(
            4, [(0, 2, 0.1), (0, 3, 0.2), (1, 2, 0.3), (1, 3, 0.4)], [0, 1, 2, 3]
        )
        coarse = _contract_both(level)
        assert coarse.csr[2].tolist() == [0.1 + (0.2 + 0.3 + 0.4)] * 2

    def test_three_fine_edges_sum_in_min_max_order(self):
        # Seen from row 2 or 3, the fine edges of the coarse edge come in
        # the order (2, 1), (3, 0), (3, 1), which would give
        # 0.2 + (0.1 + 0.3) = 0.6000000000000001; (min, max) order gives
        # (0, 3), (1, 2), (1, 3) and 0.1 + (0.2 + 0.3) = 0.6.
        level = _contracted(4, [(0, 3, 0.1), (1, 2, 0.2), (1, 3, 0.3)], [0, 1, 2, 3])
        coarse = _contract_both(level)
        assert coarse.csr[2].tolist() == [0.6, 0.6]


def _oracle_rows(level, pairs, csr):
    rows = pair_rows(level, pairs, csr)
    return rows._replace(pair_w=sibling_pair_weights(level, pairs))


def _oracle_gains(labels, rows, sign):
    return batch_pair_deltas(labels, rows.pairs, rows.csr, sign, rows.pair_w)


def _walk_levels(edges, labels, dim, rng):
    """The finest level, then contracted levels after random swaps."""
    level = make_finest_level(edges, labels)
    out = [level]
    for _ in range(min(dim - 1, 6)):
        _random_swaps(level, rng)
        level = contract_level(level)
        out.append(level)
    return out


class TestPairRows:
    @SETTINGS
    @given(levels(), st.sampled_from([1, -1]))
    def test_gains_and_weights_equal_the_full_csr_bitwise(self, case, sign):
        edges, labels, dim, rng = case
        for level in _walk_levels(edges, labels, dim, rng):
            csr = level_csr(level)
            pairs = sibling_pairs(level.labels, level.order, sibling_mask(level))
            rows = pair_rows(level, pairs, csr)
            pair_w = sibling_pair_weights(level, pairs)
            assert _bitwise_equal(rows.pair_w, pair_w)
            got = pair_row_gains(level.labels, rows, sign)
            ref = batch_pair_deltas(level.labels, pairs, csr, sign, pair_w)
            assert _bitwise_equal(got, ref)

    @SETTINGS
    @given(levels(), st.sampled_from([1, -1]), st.integers(1, 3),
           st.sampled_from(["greedy", "kl"]))
    def test_passes_equal_the_passes_on_full_csr_gains(self, case, sign, sweeps, kind):
        edges, labels, dim, rng = case
        run = batch_swap_pass if kind == "greedy" else kl_swap_pass
        for level in _walk_levels(edges, labels, dim, rng):
            twin = Level(labels=level.labels.copy(), order=level.order,
                         edges=level.edges, csr=level_csr(level))
            got = run(level, sign, sweeps=sweeps)
            with pytest.MonkeyPatch.context() as mp:
                for module in (kernels, swaps):
                    mp.setattr(module, "pair_rows", _oracle_rows)
                    mp.setattr(module, "pair_row_gains", _oracle_gains)
                ref = run(twin, sign, sweeps=sweeps)
            assert got == ref
            assert np.array_equal(level.labels, twin.labels)

    def test_parallel_edges_inside_a_pair_add_in_edge_order(self):
        # Summed in row 0's order these give 5.1000000000000005; the
        # edge order gives 5.1.
        us = np.array([0, 1, 0, 1, 2], dtype=np.int64)
        vs = np.array([1, 0, 1, 0, 0], dtype=np.int64)
        ws = np.array([3.2, 1.4, 0.3, 0.2, 1.0])
        level = make_finest_level((us, vs, ws), np.array([2, 3, 4], dtype=np.int64))
        pairs = sibling_pairs(level.labels)
        rows = pair_rows(level, pairs, level_csr(level))
        assert rows.pair_w.tolist() == sibling_pair_weights(level, pairs).tolist()
        assert rows.pair_w.tolist() == [((3.2 + 1.4) + 0.3) + 0.2]


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("weights_kind", ["one-decimal", "integer"])
def test_row_subset_lsb_sums(name, weights_kind):
    """Gathered rows sum as in the whole CSR; on integer weights every
    backend equals numpy (the backend contract)."""
    g = gen.barabasi_albert(200, 3, seed=9)
    rng = np.random.default_rng(9)
    us, vs, _ = g.edge_arrays()
    ws = rng.uniform(0.1, 5.0, us.shape[0])
    ws = np.round(ws, 1) if weights_kind == "one-decimal" else np.ceil(ws)
    indptr, indices, weights = build_csr(g.n, us, vs, ws)
    lsb = rng.integers(0, 2, g.n).astype(np.int64)
    rows = rng.choice(g.n, 60, replace=False)
    counts = indptr[rows + 1] - indptr[rows]
    at = concat_ranges(indptr[rows], counts)
    sub_ptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_ptr[1:])

    def sums():
        backend = current_backend()
        whole = backend.vertex_lsb_sums(lsb, np.arange(g.n), indptr, indices, weights)
        return backend.vertex_lsb_sums(lsb, rows, sub_ptr, indices[at], weights[at]), whole

    with use_backend("numpy"):
        ref, _ = sums()
    with use_backend(name):
        sub, whole = sums()
    assert _bitwise_equal(sub, whole[rows])
    if weights_kind == "integer" or name == "numpy":
        assert _bitwise_equal(sub, ref)


def _app(topology, n=120):
    ga = gen.barabasi_albert(n, 3, seed=5)
    pc = partial_cube_labeling(topology)
    app = build_application_labeling(ga, pc, np.arange(ga.n) % topology.n, seed=1)
    perm = np.random.default_rng(2).permutation(app.dim).astype(np.int64)
    return ga, app, perm


CONFIGS = [
    (gen.grid(4, 4), TimerConfig()),
    (gen.fat_tree(4, 3), TimerConfig()),
    (gen.fat_tree(4, 3), TimerConfig(swap_strategy="kl", sweeps_per_level=2)),
    (gen.fat_tree(2, 5), TimerConfig(sweeps_per_level=3, swap_coarsest=True)),
]


class TestHierarchyWalk:
    """The level walk (``blocks=False``), which float weights and KL take."""

    @pytest.mark.parametrize("topology,cfg", CONFIGS)
    def test_one_adjacent_siblings_call_per_level(self, monkeypatch, topology, cfg):
        ga, app, perm = _app(topology)
        contracted = []
        monkeypatch.setattr(
            enhancer, "contract_level",
            lambda lev: contracted.append(contract_level(lev)) or contracted[-1],
        )
        calls = _count_calls(monkeypatch, bitops.adjacent_siblings)
        enhancer._one_hierarchy(
            ga.edge_arrays(), app.labels, app.dim, app.dim_e, perm, cfg, blocks=False
        )
        coarsest = contracted[-1]
        swapped = cfg.swap_coarsest and coarsest.n >= 2 and coarsest.csr[1].size > 0
        assert len(contracted) == app.dim - 2
        assert len(calls) == len(contracted) + int(swapped)

    @pytest.mark.parametrize("topology,cfg", CONFIGS)
    def test_released_adjacency_leaves_the_walk_unchanged(self, monkeypatch, topology, cfg):
        ga, app, perm = _app(topology)
        edges = ga.edge_arrays()
        seen = []
        monkeypatch.setattr(
            enhancer, "contract_level",
            lambda lev: seen.append((lev, contract_level(lev))) or seen[-1][1],
        )
        got = enhancer._one_hierarchy(
            edges, app.labels, app.dim, app.dim_e, perm, cfg, blocks=False
        )
        assert all(lev.csr is None and lev.edges is None for lev, _ in seen)
        assert seen[-1][1].csr is not None  # the coarsest keeps its adjacency
        # The same walk by hand, every level's adjacency kept.
        monkeypatch.undo()
        run = kl_swap_pass if cfg.swap_strategy == "kl" else swap_pass
        signs = np.where(perm >= app.dim_e, 1, -1)
        walk = [make_finest_level(edges, permute_bits(app.labels, perm))]
        for i in range(2, app.dim):
            run(walk[-1], int(signs[i - 2]), sweeps=cfg.sweeps_per_level)
            walk.append(contract_level(walk[-1]))
        if cfg.swap_coarsest:
            run(walk[-1], int(signs[app.dim - 2]), sweeps=cfg.sweeps_per_level)
        assert all(lev.csr is not None for lev in walk)
        expect = bitops.unpermute_bits(assemble(walk, app.dim), perm)
        assert np.array_equal(got, expect)
