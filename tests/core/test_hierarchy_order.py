"""Differential tests: the one-sort hierarchy against the sort-based oracles.

A hierarchy sorts its labels once, at the finest level; every later
grouping reads the level order (``Level.order``), and assembly sorts the
bit-reversed labels once for the trie its grant walks.  Each fast path
here is checked array for array against the code it replaced, kept
in-tree as an oracle:

- ``contract_level`` against ``contract_level_reference`` (labels,
  parents, merged edges and every CSR array);
- ``assemble`` against ``assemble_reference`` after random swaps;
- ``sibling_pairs(labels, order)`` against ``sibling_pairs(labels)``,
  before and after swaps;
- ``counting_argsort`` against ``np.argsort(kind="stable")``.

Levels are adversarial: 1 to 5 label words, 0, 1 and 2 vertices, no
sibling pairs or nothing but sibling pairs, sparse labels with 1 to 4
set bits (a deep, lopsided trie for the grant), isolated vertices,
parallel and reversed edges, one-decimal float weights.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import enhancer
from repro.core.assemble import assemble, assemble_reference
from repro.core.config import TimerConfig
from repro.core.contraction import (
    contract_level,
    contract_level_reference,
    make_finest_level,
)
from repro.core.kernels import sibling_pairs
from repro.core.labels import build_application_labeling
from repro.graphs import generators as gen
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils import bitops
from repro.utils.bitops import int_to_label_row, swap_label_rows
from repro.utils.segments import build_csr, counting_argsort

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def levels(draw):
    """``(edges, labels, dim, rng)`` for one adversarial finest level."""
    words = draw(st.integers(1, 5))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 40)))
    shape = draw(st.sampled_from(["no pairs", "all pairs", "mixed", "sparse"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    top = 64 * words - 1
    values: list[int] = []
    if shape == "sparse":
        # Like a tree topology's root paths: 1 to 4 set bits each, so the
        # labels' trie read least significant bit first is deep and
        # lopsided.
        sparse: set[int] = set()
        while len(sparse) < n:
            bits = rng.choice(top + 1, size=int(rng.integers(1, 5)), replace=False)
            sparse.add(sum(1 << int(b) for b in bits))
        values = sorted(sparse)
    else:
        # Prefixes cluster around a few bases, so adjacent labels often
        # share every high word and differ only low down.
        bases = [int(rng.integers(0, 2**62)) << max(0, top - 62) for _ in range(3)]
        prefixes: set[int] = set()
        while len(prefixes) < n:
            low = int(rng.integers(0, 2 ** min(top, 12)))
            prefixes.add((bases[int(rng.integers(0, 3))] ^ low) % (1 << top))
        for p in sorted(prefixes):
            both = shape == "all pairs" or (shape == "mixed" and rng.random() < 0.5)
            if both and len(values) + 2 <= n:
                values += [2 * p, 2 * p + 1]
            elif len(values) < n:
                values.append(2 * p + int(rng.integers(0, 2)))
    rng.shuffle(values)
    rows = [int_to_label_row(v, words) for v in values]
    labels = np.stack(rows) if rows else np.zeros((0, words), dtype=np.uint64)
    m = int(rng.integers(0, 3 * n + 1)) if n >= 2 else 0
    us = rng.integers(0, max(n, 1), m)
    vs = rng.integers(0, max(n, 1), m)
    keep = us != vs
    us, vs = us[keep].astype(np.int64), vs[keep].astype(np.int64)
    ws = np.round(rng.uniform(0.1, 5.0, us.shape[0]), 1)
    dim = max(2, max(values, default=0).bit_length(), int(rng.integers(2, 64 * words + 1)))
    return (us, vs, ws), labels, dim, rng


def _random_swaps(level, rng):
    """Exchange the labels of a random subset of sibling pairs."""
    for u, v in sibling_pairs(level.labels):
        if rng.random() < 0.5:
            swap_label_rows(level.labels, int(u), int(v))


def _assert_levels_equal(got, ref):
    for name in ("us", "vs", "ws", "labels", "order"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for a, b in zip(got.csr, ref.csr):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _hierarchy(edges, labels, dim, rng, swaps=True, max_levels=12):
    """Swap-then-contract walk with the fast contraction; parents set."""
    levels_ = [make_finest_level(edges, labels)]
    for _ in range(2, min(dim, max_levels + 1)):
        if swaps:
            _random_swaps(levels_[-1], rng)
        levels_.append(contract_level(levels_[-1]))
    return levels_


class TestContractLevel:
    @SETTINGS
    @given(levels())
    def test_matches_reference_level_after_level(self, case):
        edges, labels, dim, rng = case
        fast = make_finest_level(edges, labels)
        ref = make_finest_level(edges, labels)
        for _ in range(min(dim - 1, 8)):
            _random_swaps(fast, rng)
            ref.labels[:] = fast.labels
            coarse = contract_level(fast)
            coarse_ref = contract_level_reference(ref)
            assert np.array_equal(fast.parent, ref.parent)
            assert fast.parent.dtype == ref.parent.dtype == np.int64
            _assert_levels_equal(coarse, coarse_ref)
            fast, ref = coarse, coarse_ref

    def test_coarse_csr_is_build_csr(self, ba_graph):
        rng = np.random.default_rng(3)
        labels = rng.permutation(ba_graph.n).astype(np.int64)
        coarse = contract_level(make_finest_level(ba_graph.edge_arrays(), labels))
        expect = build_csr(coarse.n, coarse.us, coarse.vs, coarse.ws)
        for a, b in zip(coarse.csr, expect):
            assert np.array_equal(a, b)

    def test_coarse_order_is_the_identity(self, ba_graph):
        labels = np.random.default_rng(4).permutation(ba_graph.n).astype(np.int64)
        coarse = contract_level(make_finest_level(ba_graph.edge_arrays(), labels))
        assert np.array_equal(coarse.order, np.arange(coarse.n))
        assert np.array_equal(coarse.order, bitops.argsort_labels(coarse.labels))


class TestAssemble:
    @SETTINGS
    @given(levels())
    def test_matches_reference_after_random_swaps(self, case):
        edges, labels, dim, rng = case
        levels_ = _hierarchy(edges, labels, dim, rng)
        assert np.array_equal(assemble(levels_, dim), assemble_reference(levels_, dim))

    @SETTINGS
    @given(levels())
    def test_matches_reference_on_shuffled_coarse_labels(self, case):
        # Stronger than swaps: coarse labels lose all prefix consistency,
        # so most digits overflow their capacities.
        edges, labels, dim, rng = case
        levels_ = _hierarchy(edges, labels, dim, rng, swaps=False)
        for lvl in levels_[1:]:
            rng.shuffle(lvl.labels)
        assert np.array_equal(assemble(levels_, dim), assemble_reference(levels_, dim))


class TestSiblingPairs:
    @SETTINGS
    @given(levels())
    def test_level_order_matches_sorting_before_and_after_swaps(self, case):
        edges, labels, dim, rng = case
        for lvl in _hierarchy(edges, labels, dim, rng, swaps=False, max_levels=6):
            for _ in range(3):
                got = sibling_pairs(lvl.labels, lvl.order)
                ref = sibling_pairs(lvl.labels)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                _random_swaps(lvl, rng)


class TestCountingArgsort:
    @SETTINGS
    @given(
        st.sampled_from([1, 2, 255, 2**16, 2**16 + 1, 2**32, 2**32 + 7, 2**48]),
        st.lists(st.integers(0, 2**48 - 1), max_size=300),
        st.integers(1, 6),
    )
    def test_matches_numpy_stable_argsort(self, bound, raw, repeat):
        # ``repeat`` copies of each key exercise stability.
        keys = np.repeat(np.asarray(raw, dtype=np.int64) % bound, repeat)
        np.random.default_rng(len(raw)).shuffle(keys)
        got = counting_argsort(keys, bound)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("bound", [2**16, 2**32, 2**48])
    def test_every_digit_pass_orders(self, bound):
        rng = np.random.default_rng(bound % 97)
        keys = rng.integers(0, bound, 5000)
        keys[:100] = keys[100:200]  # duplicates across the whole key
        assert np.array_equal(counting_argsort(keys, bound), np.argsort(keys, kind="stable"))


def _count_calls(monkeypatch, func) -> list:
    """Count calls of ``func`` through every ``repro`` module that binds it."""
    calls: list = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, wrapper)
    return calls


class TestOneLabelSortPerHierarchy:
    @pytest.mark.parametrize(
        "topology,cfg",
        [
            (gen.grid(4, 4), TimerConfig()),
            (gen.fat_tree(4, 3), TimerConfig()),
            (gen.fat_tree(4, 3), TimerConfig(swap_strategy="kl", sweeps_per_level=2)),
            (gen.fat_tree(2, 5), TimerConfig(sweeps_per_level=3, swap_coarsest=True)),
        ],
    )
    def test_one_argsort_labels_and_no_unique_labels(self, monkeypatch, topology, cfg):
        ga = gen.barabasi_albert(120, 3, seed=5)
        pc = partial_cube_labeling(topology)
        mu = np.arange(ga.n) % topology.n
        app = build_application_labeling(ga, pc, mu, seed=1)
        perm = np.random.default_rng(2).permutation(app.dim).astype(np.int64)
        argsorts = _count_calls(monkeypatch, bitops.argsort_labels)
        uniques = _count_calls(monkeypatch, bitops.unique_labels)
        sort_keys = _count_calls(monkeypatch, bitops.label_sort_keys)
        reversals = _count_calls(monkeypatch, bitops.reverse_label_bits)
        enhancer._one_hierarchy(ga.edge_arrays(), app.labels, app.dim, app.dim_e, perm, cfg)
        assert len(argsorts) == 1
        assert len(uniques) == 0
        assert len(sort_keys) == 1  # the one argsort's keys
        assert len(reversals) == 1  # the grant's trie, sorted by lexsort
