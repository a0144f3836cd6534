"""Micro-benchmarks of TIMER's building blocks.

Not tied to a paper artifact; these watch the hot kernels the running-time
analysis of §6.3 talks about (per-level swap pass O(|E|), contraction
O(|E|), assemble O(|V| dim)) plus partial-cube recognition (§3).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assemble import assemble, assemble_reference
from repro.core.contraction import contract_level, make_finest_level
from repro.core.kernels import (
    batch_pair_deltas,
    level_csr,
    pair_delta,
    pair_row_gains,
    pair_rows,
    sibling_pair_weights,
    sibling_pairs,
)
from repro.core.labels import build_application_labeling
from repro.core.objective import coco_plus
from repro.core.swaps import swap_pass, swap_pass_reference
from repro.graphs import generators as gen
from repro.partialcube.djokovic import (
    _djokovic_classes_loop,
    _djokovic_classes_vectorized,
    djokovic_classes,
    partial_cube_labeling,
)
from repro.partitioning.kway_refine import kway_refine, kway_refine_reference
from repro.utils.bitops import label_sort_keys, permute_bits

from bench_regress import assembled_levels, perturbed_partition


@pytest.fixture(scope="module")
def workload():
    ga = gen.barabasi_albert(2000, 4, seed=1)
    gp = gen.grid(16, 16)
    pc = partial_cube_labeling(gp)
    rng = np.random.default_rng(2)
    mu = (np.arange(ga.n) % gp.n).astype(np.int64)
    rng.shuffle(mu)
    app = build_application_labeling(ga, pc, mu, seed=3)
    return ga, gp, pc, app


def test_bench_partial_cube_recognition(benchmark):
    gp = gen.grid(16, 16)
    lab = benchmark(partial_cube_labeling, gp)
    assert lab.dim == 30


def test_bench_recognition_torus512(benchmark):
    gp = gen.torus(8, 8, 8)
    lab = benchmark(partial_cube_labeling, gp)
    assert lab.dim == 12


def test_bench_coco_plus_eval(benchmark, workload):
    ga, _, _, app = workload
    val = benchmark(coco_plus, ga, app.labels, app.dim_p, app.dim_e)
    assert np.isfinite(val)


def test_bench_swap_pass_level1(benchmark, workload):
    """The production path: the vectorized batch kernel."""
    ga, _, _, app = workload

    def run():
        lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
        return swap_pass(lvl, sign=1)

    n_swaps, _ = benchmark(run)
    assert n_swaps >= 0


def test_bench_swap_pass_scalar_reference(benchmark, workload):
    """The seed's per-pair scalar loop -- the 'before' of the kernel PR."""
    ga, _, _, app = workload

    def run():
        lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
        return swap_pass_reference(lvl, sign=1)

    n_swaps, _ = benchmark(run)
    assert n_swaps >= 0


def test_bench_pair_deltas_batch(benchmark, workload):
    """Gain evaluation of every sibling pair from the gathered pair rows."""
    ga, _, _, app = workload
    lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
    csr = level_csr(lvl)
    pairs = sibling_pairs(lvl.labels)
    rows = pair_rows(lvl, pairs, csr)

    deltas = benchmark(pair_row_gains, lvl.labels, rows, 1)
    full = batch_pair_deltas(lvl.labels, pairs, csr, 1, sibling_pair_weights(lvl, pairs))
    assert np.array_equal(deltas, full)


def test_bench_pair_deltas_full_csr(benchmark, workload):
    """The same gains summed over every CSR row (the oracle)."""
    ga, _, _, app = workload
    lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
    csr = level_csr(lvl)
    pairs = sibling_pairs(lvl.labels)
    pair_w = sibling_pair_weights(lvl, pairs)

    deltas = benchmark(batch_pair_deltas, lvl.labels, pairs, csr, 1, pair_w)
    assert deltas.shape[0] == pairs.shape[0]


def test_bench_pair_deltas_scalar(benchmark, workload):
    """Same gains via the scalar per-pair reference (the seed hot loop)."""
    ga, _, _, app = workload
    lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
    indptr, indices, weights = level_csr(lvl)
    pairs = sibling_pairs(lvl.labels)

    def run():
        return [
            pair_delta(lvl.labels, indptr, indices, weights, int(u), int(v), 1)
            for u, v in pairs
        ]

    deltas = benchmark(run)
    assert len(deltas) == pairs.shape[0]


@pytest.fixture(scope="module")
def grid16_distances():
    """Precomputed distances so the djokovic benches time the class
    computation itself, not the shared all-pairs BFS."""
    from repro.graphs.algorithms import all_pairs_distances

    gp = gen.grid(16, 16)
    return gp, all_pairs_distances(gp)


def test_bench_djokovic_vectorized(benchmark, grid16_distances):
    gp, dist = grid16_distances
    edge_class, classes = benchmark(_djokovic_classes_vectorized, gp, dist)
    ref_class, ref_classes = djokovic_classes(gp, dist)
    assert len(classes) == 30
    assert np.array_equal(edge_class, ref_class) and classes == ref_classes


def test_bench_djokovic_loop(benchmark, grid16_distances):
    gp, dist = grid16_distances
    edge_class, classes = benchmark(_djokovic_classes_loop, gp, dist)
    ref_class, ref_classes = djokovic_classes(gp, dist)
    assert len(classes) == 30
    assert np.array_equal(edge_class, ref_class) and classes == ref_classes


def test_bench_contraction(benchmark, workload):
    ga, _, _, app = workload

    def run():
        lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
        return contract_level(lvl)

    coarse = benchmark(run)
    assert coarse.n <= ga.n


def test_bench_assemble(benchmark, workload):
    """The production path: a block hierarchy after its swap passes."""
    ga, _, _, app = workload
    perm = np.random.default_rng(6).permutation(app.dim).astype(np.int64)
    views = assembled_levels(ga.edge_arrays(), app, perm, blocks=True)
    out = benchmark(assemble, views, app.dim)
    walk = assembled_levels(ga.edge_arrays(), app, perm, blocks=False)
    assert np.array_equal(out, assemble_reference(walk, app.dim))


def test_bench_permute_labels(benchmark, workload):
    ga, _, _, app = workload
    rng = np.random.default_rng(4)
    perm = rng.permutation(app.dim)
    out = benchmark(permute_bits, app.labels, perm)
    assert out.shape == app.labels.shape


def test_bench_kway_refine(benchmark, workload):
    """The production path: block sums in a dict over Python lists, on
    ``bench_regress``'s perturbed 64-block partition."""
    part = perturbed_partition(workload[0], 64)
    out = benchmark(kway_refine, part, 0.03)
    want = kway_refine_reference(part, 0.03)
    assert np.array_equal(out.assignment, want.assignment)


# ----------------------------------------------------------------------
# Wide-label (multi-word) benches: same kernels past the 63-class cap
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wide_workload():
    """BA n=2000 mapped onto fattree2x7 (255 PEs, dim 254 + 3 -> 5 words)."""
    ga = gen.barabasi_albert(2000, 4, seed=1)
    gp = gen.fat_tree(2, 7)
    pc = partial_cube_labeling(gp)
    rng = np.random.default_rng(2)
    mu = (np.arange(ga.n) % gp.n).astype(np.int64)
    rng.shuffle(mu)
    app = build_application_labeling(ga, pc, mu, seed=3)
    assert app.labels.shape[1] == 5  # really multi-word
    return ga, gp, pc, app


def test_bench_wide_recognition_fattree2x7(benchmark):
    gp = gen.fat_tree(2, 7)
    lab = benchmark(partial_cube_labeling, gp)
    assert lab.dim == 254 and lab.labels.shape == (255, 4)


def test_bench_wide_coco_plus_eval(benchmark, wide_workload):
    ga, _, _, app = wide_workload
    val = benchmark(coco_plus, ga, app.labels, app.dim_p, app.dim_e)
    assert np.isfinite(val)


def test_bench_wide_swap_pass_level1(benchmark, wide_workload):
    ga, _, _, app = wide_workload

    def run():
        lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
        return swap_pass(lvl, sign=1)

    n_swaps, _ = benchmark(run)
    assert n_swaps >= 0


def test_bench_wide_swap_pass_scalar_reference(benchmark, wide_workload):
    ga, _, _, app = wide_workload

    def run():
        lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
        return swap_pass_reference(lvl, sign=1)

    n_swaps, _ = benchmark(run)
    assert n_swaps >= 0


def test_bench_wide_contraction(benchmark, wide_workload):
    ga, _, _, app = wide_workload

    def run():
        lvl = make_finest_level(ga.edge_arrays(), app.labels.copy())
        return contract_level(lvl)

    coarse = benchmark(run)
    assert coarse.n <= ga.n


def test_bench_wide_contraction_coarse(benchmark, wide_workload):
    """A contracted level that merges few vertices, as the level walk runs it."""
    ga, _, _, app = wide_workload
    perm = np.random.default_rng(6).permutation(app.dim)
    finest = make_finest_level(ga.edge_arrays(), permute_bits(app.labels, perm))
    lvl = contract_level(finest)

    coarse = benchmark(contract_level, lvl)
    assert coarse.n <= lvl.n


def test_bench_wide_permute_labels(benchmark, wide_workload):
    ga, _, _, app = wide_workload
    rng = np.random.default_rng(4)
    perm = rng.permutation(app.dim)
    out = benchmark(permute_bits, app.labels, perm)
    assert out.shape == app.labels.shape


# ----------------------------------------------------------------------
# Wide-label argsort: the one label sort of a hierarchy
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def two_word_labels():
    """BA n=2000 labels on fattree2x5 (dim 62 + 5 -> W=2)."""
    ga = gen.barabasi_albert(2000, 4, seed=1)
    gp = gen.fat_tree(2, 5)
    pc = partial_cube_labeling(gp)
    mu = (np.arange(ga.n) % gp.n).astype(np.int64)
    np.random.default_rng(2).shuffle(mu)
    app = build_application_labeling(ga, pc, mu, seed=3)
    assert app.labels.shape[1] == 2
    return app.labels


def test_bench_wide_argsort_void_reference(benchmark, two_word_labels):
    """Stable argsort of big-endian void keys, as ``argsort_labels`` does."""
    from repro.utils.bitops import label_sort_keys

    def run():
        return np.argsort(label_sort_keys(two_word_labels), kind="stable")

    order = benchmark(run)
    from repro.utils.bitops import argsort_labels

    assert np.array_equal(order, argsort_labels(two_word_labels))
