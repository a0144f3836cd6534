"""Differential tests: partitioner fast paths against their oracles.

FM and greedy growing keep gains incrementally on graphs with exact
(integral) weights and must then match the fresh-sum reference
implementations bit for bit; any other graph must run the reference.
k-way refinement on Python lists must match its numpy reference on any
weights.  ``Graph.subgraph`` is checked against a per-vertex loop kept
here, and ``contract_graph`` against the ``from_arrays`` construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.builder import from_arrays, from_edges
from repro.graphs.graph import Graph, exact_weights
from repro.partitioning import fm, initial
from repro.partitioning.coarsen import contract_graph
from repro.partitioning.fm import fm_refine, fm_refine_reference
from repro.partitioning.initial import grow_bisection, grow_bisection_reference
from repro.partitioning.kway_refine import kway_refine, kway_refine_reference
from repro.partitioning.partition import Partition

WEIGHTS = {
    "unit": st.just(1),
    "small": st.integers(0, 5),  # zero-weight edges included
    "big": st.integers(0, 10**6),
}
#: one-decimal floats: sums that depend on the order of additions
FLOAT_WEIGHTS = WEIGHTS | {"tenths": st.integers(0, 50).map(lambda x: x / 10)}
#: integers up to 2**40: FM's heap keys ``-gain * n + v`` get large
HUGE_WEIGHTS = {"huge": st.integers(0, 2**40)}


@st.composite
def graphs(draw, max_n=40, weights=WEIGHTS):
    """Graphs with isolated vertices, several components, zero-weight
    edges, heavy edges, non-unit vertex weights, n = 1, 2; edge weights
    from one of the ``weights`` strategies (integral by default)."""
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
    kind = draw(st.sampled_from(sorted(weights)))
    ws = draw(st.lists(weights[kind], min_size=len(pairs), max_size=len(pairs)))
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


def _assert_fm_matches(g: Graph, data) -> None:
    assert exact_weights(g.weights)
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


class TestFmDifferential:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs(), data=st.data())
    def test_matches_reference(self, g, data):
        _assert_fm_matches(g, data)

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(weights=HUGE_WEIGHTS), data=st.data())
    def test_matches_reference_on_huge_weights(self, g, data):
        _assert_fm_matches(g, data)

    def test_heap_keys_beyond_int64(self):
        # Gains near 2**49 on a graph of 2**16 vertices: keys pass 2**63.
        n = 2**16
        path = np.arange(12, dtype=np.int64)
        ws = np.asarray([2**48 + 7 * i for i in range(11)], dtype=np.float64)
        g = from_arrays(n, path[:-1], path[1:], ws)
        assert exact_weights(g.weights)
        assign = np.zeros(n, dtype=np.int64)
        assign[path[::2]] = 1
        caps = (0.6 * n, 0.6 * n)
        got = fm_refine(g, assign, caps)
        assert np.array_equal(got, fm_refine_reference(g, assign, caps))
        assert not np.array_equal(got, assign)


class TestKwayRefineDifferential:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs(weights=FLOAT_WEIGHTS), data=st.data())
    def test_matches_reference(self, g, data):
        k = data.draw(st.integers(2, 9))  # small graphs leave blocks empty
        assign = data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n))
        part = Partition(g, np.asarray(assign, dtype=np.int64), k)
        # From caps below the mean block weight to no cap at all.
        epsilon = data.draw(st.floats(-0.5, 2.0))
        passes = data.draw(st.integers(1, 3))
        got = kway_refine(part, epsilon, max_passes=passes)
        want = kway_refine_reference(part, epsilon, max_passes=passes)
        assert got.k == want.k == k
        assert got.assignment.dtype == want.assignment.dtype == np.int64
        assert np.array_equal(got.assignment, want.assignment)

    def test_float_sums_keep_the_reference_order(self):
        # Vertex 0's weight into block 1 is 100000.1 + 0.1 + 0.1 in CSR
        # order, one ulp (1.5e-11) above its own-block edge 100000.3, the
        # same three added in reverse.  Only the CSR order makes the move.
        g = from_edges(
            5, [(0, 1, 100000.1), (0, 2, 0.1), (0, 3, 0.1), (0, 4, 100000.3)]
        )
        assert (100000.1 + 0.1) + 0.1 > (0.1 + 0.1) + 100000.1 == 100000.3
        part = Partition(g, np.asarray([0, 1, 1, 1, 0]), 2)
        got = kway_refine(part, epsilon=2.0, max_passes=1)
        want = kway_refine_reference(part, epsilon=2.0, max_passes=1)
        assert np.array_equal(got.assignment, want.assignment)
        assert got.assignment[0] == 1

    def test_gain_ties_go_to_the_lowest_block(self):
        # Vertex 0 meets block 2 before block 1 in CSR order; the gains tie,
        # and the reference scans blocks in ascending id.
        g = from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
        part = Partition(g, np.asarray([0, 2, 1]), 3)
        got = kway_refine(part, epsilon=2.0, max_passes=1)
        want = kway_refine_reference(part, epsilon=2.0, max_passes=1)
        assert np.array_equal(got.assignment, want.assignment)
        assert got.assignment[0] == 1


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
        assert exact_weights(from_edges(3, [(0, 1, 3.0), (1, 2, 0.0)]).weights)
        assert exact_weights(from_edges(0, []).weights)
        assert not exact_weights(_float_graph().weights)
        # Each edge is stored twice: 2 * 2**51 < 2**53 <= 2 * 2**52.
        assert exact_weights(from_edges(2, [(0, 1, 2.0**51)]).weights)
        assert not exact_weights(from_edges(2, [(0, 1, 2.0**52)]).weights)

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


def _contract_oracle(g: Graph, coarse_of: np.ndarray, n_coarse: int, name: str) -> Graph:
    """The ``from_arrays`` construction ``contract_graph`` replaced."""
    us, vs, ws = g.edge_arrays()
    cu, cv = coarse_of[us], coarse_of[vs]
    keep = cu != cv
    vertex_weights = np.zeros(n_coarse, dtype=np.float64)
    np.add.at(vertex_weights, coarse_of, g.vertex_weights)
    return from_arrays(
        n_coarse, cu[keep], cv[keep], ws[keep], vertex_weights=vertex_weights, name=name
    )


class TestContractGraph:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs(weights=FLOAT_WEIGHTS), data=st.data())
    def test_matches_from_arrays(self, g, data):
        kind = data.draw(st.sampled_from(["random", "all-in-one", "identity"]))
        if kind == "identity":
            n_coarse, coarse_of = g.n, np.arange(g.n, dtype=np.int64)
        elif kind == "all-in-one":
            n_coarse, coarse_of = 1, np.zeros(g.n, dtype=np.int64)
        else:
            # Ids past the largest one drawn stay isolated coarse vertices.
            n_coarse = data.draw(st.integers(1, g.n + 2))
            coarse_of = np.asarray(
                data.draw(
                    st.lists(
                        st.integers(0, n_coarse - 1), min_size=g.n, max_size=g.n
                    )
                ),
                dtype=np.int64,
            )
        got = contract_graph(g, coarse_of, n_coarse, name="c")
        want = _contract_oracle(g, coarse_of, n_coarse, "c")
        for attr in ("indptr", "indices", "weights", "vertex_weights"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype, attr
            assert np.array_equal(a, b), attr
        assert got.name == want.name == "c"
        got._validate()

    def test_default_names(self):
        g = from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)], name="p3")
        assert contract_graph(g, np.asarray([0, 0, 1]), 2).name == "p3|coarse"
        assert contract_graph(g.copy(name=""), np.asarray([0, 0, 1]), 2).name == "coarse"
