"""Property tests: swap deltas must equal brute-force recomputation.

The O(deg) incremental gain formulas in ``repro.core.swaps`` are the most
error-prone arithmetic in the repo (signs, xor flips, the excluded shared
edge).  These tests compare every executed swap against full objective
recomputation on random graphs and labelings.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.contraction import make_finest_level
from repro.core.objective import coco_plus_signed
from repro.core.kernels import pair_delta
from repro.core.swaps import kl_swap_pass, sibling_pairs, swap_pass
from repro.graphs import generators as gen
from repro.utils.bitops import swap_label_rows
from repro.utils.segments import build_csr


def _signed_objective(g, labels, sign, dim):
    signs = np.full(dim, 7)  # arbitrary positive sign for untouched bits
    signs[:] = 1  # untouched bits cancel in differences; any sign works
    signs[0] = sign
    return coco_plus_signed(g, labels, signs)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(min_value=6, max_value=60),
    sign=st.sampled_from([1, -1]),
)
def test_single_swap_delta_matches_bruteforce(seed, n, sign):
    rng = np.random.default_rng(seed)
    g = gen.erdos_renyi(n, 0.2, seed=int(rng.integers(1 << 30)))
    if g.m == 0:
        return
    dim = 8
    labels = rng.choice(1 << dim, size=n, replace=False).astype(np.int64)
    lvl = make_finest_level(g.edge_arrays(), labels.copy())
    indptr, indices, weights = build_csr(lvl.n, lvl.us, lvl.vs, lvl.ws)
    pairs = sibling_pairs(lvl.labels)
    for u, v in pairs[:5]:
        u, v = int(u), int(v)
        before = _signed_objective(g, lvl.labels, sign, dim)
        predicted = pair_delta(lvl.labels, indptr, indices, weights, u, v, sign)
        swapped = lvl.labels.copy()
        swap_label_rows(swapped, u, v)
        after = _signed_objective(g, swapped, sign, dim)
        assert np.isclose(after - before, predicted, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sign=st.sampled_from([1, -1]),
    weighted=st.booleans(),
)
def test_full_pass_total_delta_matches(seed, sign, weighted):
    rng = np.random.default_rng(seed)
    g = gen.barabasi_albert(80, 3, seed=int(rng.integers(1 << 30)))
    if weighted:
        # randomize edge weights through a rebuilt graph
        from repro.graphs.builder import from_arrays

        us, vs, _ = g.edge_arrays()
        g = from_arrays(g.n, us, vs, rng.uniform(0.5, 5.0, us.shape[0]))
    dim = 9
    labels = rng.choice(1 << dim, size=g.n, replace=False).astype(np.int64)
    for pass_fn in (swap_pass, kl_swap_pass):
        lvl = make_finest_level(g.edge_arrays(), labels.copy())
        before = _signed_objective(g, lvl.labels, sign, dim)
        _, total_delta = pass_fn(lvl, sign=sign, sweeps=2)
        after = _signed_objective(g, lvl.labels, sign, dim)
        assert np.isclose(after - before, total_delta, atol=1e-6)
        assert total_delta <= 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_ncm_swap_gain_matches_bruteforce(seed):
    """Same property for the NCM refiner's gain."""
    from repro.mapping.objective import coco_from_distances, network_cost_matrix
    from repro.mapping.refine import swap_gain

    rng = np.random.default_rng(seed)
    gc = gen.barabasi_albert(16, 2, seed=int(rng.integers(1 << 30)))
    gp = gen.grid(4, 4)
    dist = network_cost_matrix(gp)
    nu = rng.permutation(16).astype(np.int64)
    # "application" = the communication graph itself, identity partition
    base = coco_from_distances(gc, nu, dist)
    a, b = int(rng.integers(0, 16)), int(rng.integers(0, 16))
    if a == b:
        return
    predicted = swap_gain(gc, dist, nu, a, b)
    swapped = nu.copy()
    swapped[a], swapped[b] = swapped[b], swapped[a]
    after = coco_from_distances(gc, swapped, dist)
    assert np.isclose(base - after, predicted, atol=1e-9)
