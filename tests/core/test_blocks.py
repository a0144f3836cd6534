"""Differential tests: a hierarchy's swap passes in blocks against the walk.

On exact weights ``_one_hierarchy`` solves the greedy passes a block of
levels at a time (:mod:`repro.core.blocks`).  The level walk is its
oracle: both must give the same labels, and every ``swap_pass`` call must
return the same ``(n_swaps, total_delta)`` and every ``contract_level``
call a level of the same size -- what perfbench's ledger counts.  The
preferred labels assembly grants (``BlockHierarchy.preferences``, from
the flips) must equal the walk's chain of parents and LSBs.

Levels come from ``test_hierarchy_order.levels()`` (1 to 5 words, n of 0,
1 and 2, no pairs and all pairs, isolated vertices, parallel and
reversed edges) with integer, unit or zero weights, crossed with 1-3
sweeps and ``swap_coarsest``.  The shape's helpers are checked against
plain Python, and the block size rule against its extremes.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import blocks, enhancer
from repro.core.assemble import assemble, assemble_reference, walk_preferences
from repro.core.blocks import enclosing_boundaries, highest_differing_bits
from repro.core.config import TimerConfig
from repro.core.contraction import contract_level
from repro.core.labels import build_application_labeling
from repro.core.swaps import swap_pass
from repro.graphs import generators as gen
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils.bitops import int_to_label_row
from tests.core.test_hierarchy_order import SETTINGS, levels


def _integer_weights(case, kind):
    (us, vs, ws), labels, dim, rng = case
    if kind == "unit":
        ws = np.ones_like(ws)
    elif kind == "zero":
        ws = np.zeros_like(ws)
    else:  # 0 .. 5, zeros included
        ws = np.floor(ws)
    return (us, vs, ws), labels, dim, rng


def _traced_hierarchy(edges, labels, dim, dim_e, perm, cfg, blocks_):
    """``_one_hierarchy``'s labels, with every swap result and level size,
    and the levels it assembled from."""
    calls = []
    assembled = []

    def swaps(level, sign, sweeps=1):
        out = swap_pass(level, sign, sweeps=sweeps)
        calls.append(("swap", level.n, out))
        return out

    def contract(level):
        out = contract_level(level)
        calls.append(("contract", level.n, out.n))
        return out

    def assemble_(levels_, dim_):
        assembled.append(levels_)
        return assemble(levels_, dim_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enhancer, "swap_pass", swaps)
        mp.setattr(enhancer, "contract_level", contract)
        mp.setattr(enhancer, "assemble", assemble_)
        got = enhancer._one_hierarchy(
            edges, labels, dim, dim_e, perm, cfg, blocks=blocks_
        )
    (levels_,) = assembled
    return got, calls, levels_


def _assert_blocks_match_walk(edges, labels, dim, dim_e, perm, cfg):
    walk, walk_calls, walk_levels = _traced_hierarchy(
        edges, labels, dim, dim_e, perm, cfg, False
    )
    got, calls, views = _traced_hierarchy(edges, labels, dim, dim_e, perm, cfg, True)
    assert got.dtype == walk.dtype and np.array_equal(got, walk)
    assert calls == walk_calls
    # The flips' prefix XOR gives the preferred labels the walk's chain of
    # parents and LSBs gives.
    prefs = views[0].hierarchy.preferences()
    assert np.array_equal(prefs, walk_preferences(walk_levels, dim))
    return calls


class TestBlocksMatchTheWalk:
    @SETTINGS
    @given(
        levels(),
        st.sampled_from(["integer", "unit", "zero"]),
        st.integers(1, 3),
        st.booleans(),
        st.data(),
    )
    def test_labels_and_every_level(self, case, kind, sweeps, coarsest, data):
        edges, labels, dim, rng = _integer_weights(case, kind)
        perm = rng.permutation(dim).astype(np.int64)
        dim_e = data.draw(st.integers(0, dim))
        cfg = TimerConfig(sweeps_per_level=sweeps, swap_coarsest=coarsest)
        _assert_blocks_match_walk(edges, labels, dim, dim_e, perm, cfg)

    @pytest.mark.parametrize("budget", [-1, 2**40], ids=["level-per-block", "one-block"])
    @pytest.mark.parametrize(
        "topology,cfg",
        [
            (gen.grid(4, 4), TimerConfig()),
            (gen.fat_tree(4, 3), TimerConfig(sweeps_per_level=2)),
            (gen.fat_tree(2, 5), TimerConfig(sweeps_per_level=3, swap_coarsest=True)),
        ],
    )
    def test_block_size_does_not_change_the_result(self, monkeypatch, budget, topology, cfg):
        ga = gen.barabasi_albert(150, 3, seed=4)
        pc = partial_cube_labeling(topology)
        app = build_application_labeling(ga, pc, np.arange(ga.n) % topology.n, seed=2)
        perm = np.random.default_rng(3).permutation(app.dim).astype(np.int64)
        args = (ga.edge_arrays(), app.labels, app.dim, app.dim_e, perm, cfg)
        default = enhancer._one_hierarchy(*args, blocks=True)
        solves = []
        solve = blocks.BlockHierarchy._solve_block
        monkeypatch.setattr(blocks, "BLOCK_ENTRIES", budget)
        monkeypatch.setattr(
            blocks.BlockHierarchy, "_solve_block",
            lambda self, level: solves.append(level) or solve(self, level),
        )
        calls = _assert_blocks_match_walk(*args)
        swapped_levels = sum(1 for call in calls if call[0] == "swap")
        if budget < 0:
            assert solves == list(range(1, swapped_levels + 1))
        else:
            assert solves == [1]
        assert np.array_equal(enhancer._one_hierarchy(*args, blocks=True), default)

    def test_the_grant_overrides_preferences_as_the_reference_does(self):
        ga = gen.barabasi_albert(150, 3, seed=4)
        pc = partial_cube_labeling(gen.fat_tree(2, 5))
        app = build_application_labeling(ga, pc, np.arange(ga.n) % pc.n, seed=2)
        perm = np.random.default_rng(3).permutation(app.dim).astype(np.int64)
        args = (ga.edge_arrays(), app.labels, app.dim, app.dim_e, perm, TimerConfig())
        _, _, walk_levels = _traced_hierarchy(*args, False)
        _, _, views = _traced_hierarchy(*args, True)
        prefs = views[0].hierarchy.preferences()
        got = assemble(views, app.dim)
        # Some preferences are not granted, so the conflict branch ran.
        assert not np.array_equal(got, prefs)
        assert np.array_equal(got, assemble_reference(walk_levels, app.dim))

    def test_the_enhancer_takes_blocks_exactly_on_exact_greedy_runs(self, monkeypatch):
        ga = gen.barabasi_albert(60, 2, seed=1)
        pc = partial_cube_labeling(gen.grid(4, 4))
        app = build_application_labeling(ga, pc, np.arange(ga.n) % 16, seed=1)
        perm = np.arange(app.dim, dtype=np.int64)
        seen = []
        monkeypatch.setattr(
            enhancer, "BlockHierarchy",
            lambda *a: seen.append(1) or blocks.BlockHierarchy(*a),
        )
        edges = ga.edge_arrays()
        run = enhancer._one_hierarchy
        run(edges, app.labels, app.dim, app.dim_e, perm, TimerConfig())
        assert len(seen) == 1
        run(edges, app.labels, app.dim, app.dim_e, perm, TimerConfig(swap_strategy="kl"))
        halves = (edges[0], edges[1], edges[2] / 2)
        run(halves, app.labels, app.dim, app.dim_e, perm, TimerConfig())
        assert len(seen) == 1


def _int_rows(values, words):
    return np.stack([int_to_label_row(v, words) for v in values])


class TestShape:
    @pytest.mark.parametrize("bit", [0, 1, 31, 32, 33, 63, 64, 65, 127, 191, 255])
    def test_highest_differing_bit_at_word_and_half_word_edges(self, bit):
        words = 4
        base = (1 << 256) - 1 - (1 << bit)  # every bit set but ``bit``
        values = sorted({0, 1 << bit, base, base | (1 << bit), (1 << bit) - 1})
        got = highest_differing_bits(_int_rows(values, words))
        want = [(a ^ b).bit_length() - 1 for a, b in zip(values, values[1:])]
        assert got.tolist() == want

    @SETTINGS
    @given(st.integers(1, 5), st.lists(st.integers(0, 2**320 - 1), max_size=40))
    def test_highest_differing_bits_match_python(self, words, raw):
        values = sorted({v % (1 << (64 * words)) for v in raw})
        rows = _int_rows(values, words) if values else np.zeros((0, words), np.uint64)
        want = [(a ^ b).bit_length() - 1 for a, b in zip(values, values[1:])]
        assert highest_differing_bits(rows).tolist() == want

    def test_equal_rows_give_minus_one(self):
        assert highest_differing_bits(_int_rows([5, 5, 7], 2)).tolist() == [-1, 1]

    @SETTINGS
    @given(st.lists(st.integers(0, 300), max_size=200))
    def test_enclosing_boundaries_match_a_scan(self, h):
        h = np.asarray(h, dtype=np.int64)
        left, right = enclosing_boundaries(h)
        for j in range(h.shape[0]):
            larger = [i for i in range(h.shape[0]) if h[i] > h[j]]
            assert left[j] == max([i for i in larger if i < j], default=-1)
            assert right[j] == min([i for i in larger if i > j], default=h.shape[0])

    def test_duplicate_labels_are_refused(self):
        labels = _int_rows([3, 3, 4], 1)
        csr = (np.zeros(4, dtype=np.int64), np.empty(0, np.int64), np.empty(0))
        with pytest.raises(ValueError, match="unique"):
            blocks.BlockHierarchy(csr, labels, np.ones(3, np.int64), 1, 1)

    def test_a_view_refuses_a_foreign_sign(self):
        labels = _int_rows([0, 1, 2, 3], 1)
        csr = (np.zeros(5, dtype=np.int64), np.empty(0, np.int64), np.empty(0))
        view = blocks.BlockHierarchy(csr, labels, np.array([1, -1]), 1, 1).finest()
        with pytest.raises(ValueError, match="signs and sweeps"):
            swap_pass(view, -1)
        assert swap_pass(view, 1) == (0, 0.0)
