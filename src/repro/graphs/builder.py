"""Construction of :class:`~repro.graphs.Graph` instances.

:class:`GraphBuilder` accumulates undirected edges (merging duplicates by
summing weights, dropping self-loops on request) and finalizes into CSR in
one vectorized pass.  Conversions to/from :mod:`networkx` are provided for
interoperability and for cross-checking our algorithms in tests.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph


class GraphBuilder:
    """Incrementally build an undirected weighted graph.

    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1).add_edge(1, 2, 2.5).add_edge(0, 1)  # doctest: +ELLIPSIS
    <...GraphBuilder...>
    >>> g = b.build()
    >>> g.m, g.edge_weight(0, 1)
    (2, 2.0)
    """

    def __init__(self, n: int, name: str = "") -> None:
        if n < 0:
            raise GraphFormatError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self.name = name
        self._us: list[int] = []
        self._vs: list[int] = []
        self._ws: list[float] = []
        self._vertex_weights: np.ndarray | None = None

    def add_edge(self, u: int, v: int, w: float = 1.0) -> "GraphBuilder":
        """Add edge ``{u, v}``; duplicate edges have their weights summed."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u} not allowed")
        if w < 0:
            raise GraphFormatError(f"negative edge weight {w}")
        self._us.append(u)
        self._vs.append(v)
        self._ws.append(float(w))
        return self

    def add_edges(self, edges: Iterable[tuple]) -> "GraphBuilder":
        """Add ``(u, v)`` or ``(u, v, w)`` tuples."""
        for e in edges:
            if len(e) == 2:
                self.add_edge(e[0], e[1])
            else:
                self.add_edge(e[0], e[1], e[2])
        return self

    def set_vertex_weights(self, vw) -> "GraphBuilder":
        vw = np.asarray(vw, dtype=np.float64)
        if vw.shape != (self.n,):
            raise GraphFormatError(f"vertex weights must have shape ({self.n},)")
        self._vertex_weights = vw
        return self

    def build(self) -> Graph:
        """Finalize into an immutable CSR :class:`Graph`."""
        us = np.asarray(self._us, dtype=np.int64)
        vs = np.asarray(self._vs, dtype=np.int64)
        ws = np.asarray(self._ws, dtype=np.float64)
        return _csr_from_coo(self.n, us, vs, ws, self._vertex_weights, self.name)


def _csr_from_coo(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    vertex_weights: np.ndarray | None,
    name: str,
    validate: bool = True,
) -> Graph:
    """Symmetrize, deduplicate and pack a COO edge list into CSR.

    ``validate=False`` skips ``Graph._validate``: for a caller whose
    endpoints are in ``range(n)``, with no self-loops and non-negative
    weights, the output is a valid graph by construction.
    """
    if us.size == 0:
        return Graph(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            vertex_weights,
            name=name,
            _validate=validate,
        )
    # Canonical key per undirected edge, merge duplicates by summing.
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    ws_sorted = ws[order]
    uniq_keys, starts = np.unique(keys_sorted, return_index=True)
    merged_w = np.add.reduceat(ws_sorted, starts)
    mu = uniq_keys // n
    mv = uniq_keys % n
    # Expand both directions, then bucket by source.
    src = np.concatenate([mu, mv])
    dst = np.concatenate([mv, mu])
    wgt = np.concatenate([merged_w, merged_w])
    order2 = np.argsort(src * n + dst, kind="stable")
    src, dst, wgt = src[order2], dst[order2], wgt[order2]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(indptr, dst, wgt, vertex_weights, name=name, _validate=validate)


def from_edges(
    n: int,
    edges: Iterable[tuple],
    vertex_weights=None,
    name: str = "",
) -> Graph:
    """Build a graph directly from an edge iterable."""
    b = GraphBuilder(n, name=name)
    b.add_edges(edges)
    if vertex_weights is not None:
        b.set_vertex_weights(vertex_weights)
    return b.build()


def from_arrays(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray | None = None,
    vertex_weights=None,
    name: str = "",
) -> Graph:
    """Vectorized construction from parallel COO arrays (one direction)."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if ws is None:
        ws = np.ones(us.shape[0], dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    if us.shape != vs.shape or us.shape != ws.shape:
        raise GraphFormatError("edge arrays must have equal length")
    if us.size:
        if us.min() < 0 or vs.min() < 0 or us.max() >= n or vs.max() >= n:
            raise GraphFormatError("edge endpoint out of range")
        loops = us == vs
        if loops.any():
            us, vs, ws = us[~loops], vs[~loops], ws[~loops]
    vw = None if vertex_weights is None else np.asarray(vertex_weights, np.float64)
    return _csr_from_coo(n, us, vs, ws, vw, name)


def from_networkx(nx_graph, weight: str = "weight", name: str = "") -> Graph:
    """Convert an undirected networkx graph (nodes relabeled to 0..n-1)."""
    import networkx as nx

    if nx_graph.is_directed():
        raise GraphFormatError("directed graphs are not supported")
    nodes = list(nx_graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    b = GraphBuilder(len(nodes), name=name or str(nx_graph.name or ""))
    for u, v, data in nx_graph.edges(data=True):
        if u == v:
            continue
        b.add_edge(index[u], index[v], float(data.get(weight, 1.0)))
    return b.build()


def to_networkx(g: Graph):
    """Convert to a networkx graph (for cross-checks and visual debugging)."""
    import networkx as nx

    out = nx.Graph(name=g.name)
    out.add_nodes_from(range(g.n))
    for u, v, w in g.edges():
        out.add_edge(u, v, weight=w)
    return out
