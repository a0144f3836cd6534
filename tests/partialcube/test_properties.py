"""Property-based tests: partial-cube labelings on random topologies."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import generators as gen
from repro.graphs.algorithms import all_pairs_distances
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils.bitops import label_to_int, popcount_labels


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=6),
    cols=st.integers(min_value=2, max_value=6),
)
def test_grid_labeling_isometric(rows, cols):
    g = gen.grid(rows, cols)
    lab = partial_cube_labeling(g)
    assert lab.dim == (rows - 1) + (cols - 1)
    d = all_pairs_distances(g)
    ham = popcount_labels(lab.labels[:, None] ^ lab.labels[None, :])
    assert np.array_equal(ham, d)


@settings(max_examples=15, deadline=None)
@given(
    rows=st.sampled_from([4, 6, 8]),
    cols=st.sampled_from([4, 6, 8]),
)
def test_even_torus_labeling_isometric(rows, cols):
    g = gen.torus(rows, cols)
    lab = partial_cube_labeling(g)
    assert lab.dim == rows // 2 + cols // 2
    d = all_pairs_distances(g)
    ham = popcount_labels(lab.labels[:, None] ^ lab.labels[None, :])
    assert np.array_equal(ham, d)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**31 - 1))
def test_random_tree_labeling(n, seed):
    t = gen.random_tree(n, seed=seed)
    lab = partial_cube_labeling(t)
    assert lab.dim == n - 1
    d = all_pairs_distances(t)
    ham = popcount_labels(lab.labels[:, None] ^ lab.labels[None, :])
    assert np.array_equal(ham, d)


@settings(max_examples=10, deadline=None)
@given(dim=st.integers(min_value=1, max_value=7))
def test_hypercube_dimension_recovered(dim):
    g = gen.hypercube(dim)
    lab = partial_cube_labeling(g)
    assert lab.dim == dim
    assert len(set(_ints(lab.labels))) == g.n


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(min_value=10, max_value=60),
    p=st.floats(min_value=0.1, max_value=0.4),
)
def test_random_graphs_never_crash_recognition(seed, n, p):
    """Recognition must return a clean verdict on arbitrary input."""
    from repro.graphs.algorithms import is_connected
    from repro.partialcube.djokovic import is_partial_cube

    g = gen.erdos_renyi(n, p, seed=seed)
    verdict = is_partial_cube(g)  # must not raise anything non-ReproError
    if verdict:
        # positives must verify exhaustively
        lab = partial_cube_labeling(g)
        assert is_connected(g)
        d = all_pairs_distances(g)
        ham = popcount_labels(lab.labels[:, None] ^ lab.labels[None, :])
        assert np.array_equal(ham, d)
