"""Differential tests: incremental partitioner paths against their oracles.

FM and greedy growing keep gains incrementally on graphs with exact
(integral) weights and must then match the fresh-sum reference
implementations bit for bit; any other graph must run the reference.
``Graph.subgraph`` is checked against a per-vertex loop kept here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.builder import from_arrays, from_edges
from repro.graphs.graph import Graph
from repro.partitioning import fm, initial
from repro.partitioning.fm import exact_gain_weights, fm_refine, fm_refine_reference
from repro.partitioning.initial import grow_bisection, grow_bisection_reference

WEIGHTS = {
    "unit": st.just(1),
    "small": st.integers(0, 5),  # zero-weight edges included
    "big": st.integers(0, 10**6),
}


@st.composite
def graphs(draw, max_n=40):
    """Integral-weight graphs: isolated vertices, several components,
    zero-weight edges, heavy edges, non-unit vertex weights, n = 1, 2."""
    n = draw(st.integers(1, max_n))
    active = draw(st.integers(1, n))  # vertices >= active stay isolated
    parts = draw(st.integers(1, 3))  # edges only inside u % parts classes
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, active - 1), st.integers(0, active - 1)),
            max_size=3 * n,
        )
    )
    pairs = [(u, v) for u, v in pairs if u % parts == v % parts]
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    ws = draw(st.lists(WEIGHTS[kind], min_size=len(pairs), max_size=len(pairs)))
    vw = draw(st.none() | st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return from_arrays(
        n,
        np.asarray([u for u, _ in pairs], dtype=np.int64),
        np.asarray([v for _, v in pairs], dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
        vertex_weights=vw,
    )


def _float_graph() -> Graph:
    return from_edges(
        5,
        [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (3, 4, 0.7), (0, 4, 1.5), (1, 3, 2.2)],
    )


class TestFmDifferential:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs(), data=st.data())
    def test_matches_reference(self, g, data):
        assert exact_gain_weights(g)
        assign = np.asarray(
            data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n)),
            dtype=np.int64,
        )
        total = float(g.vertex_weights.sum())
        # From infeasible (0) to loose (1.2) on either side.
        caps = (
            data.draw(st.floats(0.0, 1.2)) * total,
            data.draw(st.floats(0.0, 1.2)) * total,
        )
        passes = data.draw(st.integers(1, 8))
        got = fm_refine(g, assign, caps, max_passes=passes)
        want = fm_refine_reference(g, assign, caps, max_passes=passes)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


class TestGrowDifferential:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs(), data=st.data())
    def test_matches_reference(self, g, data):
        total = float(g.vertex_weights.sum())
        target = data.draw(st.floats(0.0, 1.1)) * total
        seed = data.draw(st.integers(0, 2**32 - 1))
        attempts = data.draw(st.integers(1, 4))
        got = grow_bisection(g, target, seed=seed, attempts=attempts)
        want = grow_bisection_reference(g, target, seed=seed, attempts=attempts)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


class TestExactnessGuard:
    def test_predicate(self):
        assert exact_gain_weights(from_edges(3, [(0, 1, 3.0), (1, 2, 0.0)]))
        assert exact_gain_weights(from_edges(0, []))
        assert not exact_gain_weights(_float_graph())
        # Each edge is stored twice: 2 * 2**51 < 2**53 <= 2 * 2**52.
        assert exact_gain_weights(from_edges(2, [(0, 1, 2.0**51)]))
        assert not exact_gain_weights(from_edges(2, [(0, 1, 2.0**52)]))

    @pytest.fixture
    def no_fast_paths(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("incremental path taken")

        monkeypatch.setattr(fm, "_fm_pass", boom)
        monkeypatch.setattr(initial, "_grow_once", boom)

    def test_non_integral_weights_take_reference(self, no_fast_paths):
        g = _float_graph()
        assign = np.asarray([0, 1, 0, 1, 0])
        caps = (4.0, 4.0)
        assert np.array_equal(
            fm_refine(g, assign, caps), fm_refine_reference(g, assign, caps)
        )
        assert np.array_equal(
            grow_bisection(g, 2.5, seed=1), grow_bisection_reference(g, 2.5, seed=1)
        )

    def test_integral_weights_take_fast_path(self, no_fast_paths):
        g = from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 2.0)])
        with pytest.raises(AssertionError, match="incremental"):
            fm_refine(g, np.asarray([0, 1, 0, 1]), (3.0, 3.0))
        with pytest.raises(AssertionError, match="incremental"):
            grow_bisection(g, 2.0, seed=1)


def _subgraph_oracle(g: Graph, vertices: np.ndarray) -> tuple[Graph, np.ndarray]:
    """The per-vertex loop ``Graph.subgraph`` replaced."""
    vertices = np.asarray(vertices, dtype=np.int64)
    inv = np.full(g.n, -1, dtype=np.int64)
    inv[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
    indptr, indices, weights = [0], [], []
    for v in vertices:
        nbrs, wts = g.neighbors(int(v)), g.incident_weights(int(v))
        keep = inv[nbrs] >= 0
        indices.append(inv[nbrs[keep]])
        weights.append(wts[keep])
        indptr.append(indptr[-1] + int(keep.sum()))
    sub = Graph(
        np.asarray(indptr, dtype=np.int64),
        np.concatenate(indices) if indices else np.empty(0, np.int64),
        np.concatenate(weights) if weights else np.empty(0, np.float64),
        g.vertex_weights[vertices],
        _validate=False,
    )
    return sub, vertices


def _assert_same_subgraph(g: Graph, vertices) -> None:
    got, got_ids = g.subgraph(vertices)
    want, want_ids = _subgraph_oracle(g, vertices)
    for attr in ("indptr", "indices", "weights", "vertex_weights"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert np.array_equal(a, b), attr
    assert np.array_equal(got_ids, want_ids) and got_ids.dtype == np.int64


class TestSubgraph:
    @settings(max_examples=150, deadline=None)
    @given(g=graphs(), data=st.data())
    def test_matches_loop_unsorted(self, g, data):
        vertices = data.draw(st.permutations(range(g.n)))
        size = data.draw(st.integers(0, g.n))
        _assert_same_subgraph(g, np.asarray(vertices[:size], dtype=np.int64))

    @settings(max_examples=30, deadline=None)
    @given(g=graphs())
    def test_empty_and_full(self, g):
        _assert_same_subgraph(g, np.empty(0, dtype=np.int64))
        _assert_same_subgraph(g, np.arange(g.n))
        _assert_same_subgraph(g, np.arange(g.n)[::-1])

    def test_name_and_validity(self):
        g = from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)], name="p4")
        sub, ids = g.subgraph(np.asarray([3, 1, 2]))
        assert sub.name == "p4|sub" and sub.n == 3 and sub.m == 2
        sub._validate()  # symmetric CSR
        assert ids.tolist() == [3, 1, 2]
