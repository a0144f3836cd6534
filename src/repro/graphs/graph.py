"""The static CSR graph type used throughout the library.

Design notes
------------
The paper's algorithms are all neighborhood sweeps: Djokovic classes need
BFS layers, the partitioner needs gain updates over adjacency lists, TIMER's
swap passes need ``O(deg(u) + deg(v))`` gain evaluations.  A compressed
sparse row (CSR) layout serves all of them with contiguous memory access
(see the cache-effects guidance in the scientific-python optimization
notes): ``indptr`` of length ``n+1``, and ``indices``/``weights`` of length
``2m`` storing each undirected edge in both directions.

Instances are immutable; construction goes through
:class:`repro.graphs.builder.GraphBuilder` or the generator functions.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.utils.segments import concat_ranges

#: above this total weight a float sum of integers may round
_EXACT_LIMIT = 2.0**53


def exact_weights(weights: np.ndarray) -> bool:
    """Whether every sum of a subset of ``weights`` is an exact float.

    True when every weight is an integer and their absolute values sum
    below ``2**53``: every partial sum, gain and update is then an
    exactly representable integer, so the order of additions cannot
    matter.  Pass a graph's CSR ``weights`` (each edge twice).  FM,
    greedy growing and the enhancer's block hierarchies take their fast
    paths only then.
    """
    w = np.asarray(weights)
    return bool(np.all(w == np.floor(w))) and float(np.abs(w).sum()) < _EXACT_LIMIT


class Graph:
    """Undirected, edge-weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbors of vertex ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of neighbor ids (both directions of every edge).
    weights:
        ``float64`` array aligned with ``indices``; ``weights`` of the two
        directions of an edge must agree.
    vertex_weights:
        optional ``float64`` array of length ``n`` (defaults to all ones);
        used by the partitioner's balance constraint.
    name:
        optional human-readable name carried through experiments.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "vertex_weights",
        "name",
        "_edge_arrays_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vertex_weights: np.ndarray | None = None,
        name: str = "",
        _validate: bool = True,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        n = self.indptr.shape[0] - 1
        if vertex_weights is None:
            vertex_weights = np.ones(n, dtype=np.float64)
        self.vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
        self.name = name
        self._edge_arrays_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if _validate:
            self._validate()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.indptr.shape[0] - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        """Array of vertex degrees."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of ``v`` (a CSR view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def total_edge_weight(self) -> float:
        """Sum of undirected edge weights."""
        return float(self.weights.sum()) / 2.0

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate undirected edges ``(u, v, w)`` with ``u < v``."""
        for u in range(self.n):
            start, stop = self.indptr[u], self.indptr[u + 1]
            for idx in range(start, stop):
                v = int(self.indices[idx])
                if u < v:
                    yield u, v, float(self.weights[idx])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized undirected edge list ``(us, vs, ws)`` with ``us < vs``.

        This is the workhorse accessor for objective evaluation: TIMER's
        ``Coco+`` is a single vectorized expression over these arrays.
        Graphs are immutable, so the arrays are computed once and cached;
        callers get the *same* arrays on every call and must not mutate
        them (every ``coco_*`` evaluation used to rebuild them from
        scratch, which dominated short enhancer runs).
        """
        if self._edge_arrays_cache is None:
            us = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            mask = us < self.indices
            self._edge_arrays_cache = (us[mask], self.indices[mask], self.weights[mask])
        return self._edge_arrays_cache

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).item()) if 0 <= u < self.n else False

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if hits.size == 0:
            raise KeyError(f"no edge {{{u}, {v}}}")
        return float(self.incident_weights(u)[hits[0]])

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.m}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.vertex_weights, other.vertex_weights)
        )

    def __hash__(self) -> int:  # graphs are immutable value objects
        return hash((self.n, self.m, self.indices.tobytes(), self.weights.tobytes()))

    def copy(self, name: str | None = None) -> "Graph":
        return Graph(
            self.indptr.copy(),
            self.indices.copy(),
            self.weights.copy(),
            self.vertex_weights.copy(),
            name=self.name if name is None else name,
            _validate=False,
        )

    def with_unit_weights(self) -> "Graph":
        """Same structure, all edge weights reset to 1."""
        return Graph(
            self.indptr,
            self.indices,
            np.ones_like(self.weights),
            self.vertex_weights,
            name=self.name,
            _validate=False,
        )

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph and the array mapping new vertex ids back to
        the original ids (``vertices`` itself, as int64).  Used by the
        recursive-bisection partitioner.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.shape[0]
        inv = np.full(self.n, -1, dtype=np.int64)
        inv[vertices] = np.arange(k, dtype=np.int64)
        # Gather the rows of ``vertices`` in that order.
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        pos = concat_ranges(starts, counts)
        nbrs = inv[self.indices[pos]]
        keep = nbrs >= 0
        row = np.repeat(np.arange(k, dtype=np.int64), counts)
        sub_indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row[keep], minlength=k), out=sub_indptr[1:])
        indices = nbrs[keep]
        weights = self.weights[pos[keep]]
        sub = Graph(
            sub_indptr,
            indices,
            weights,
            self.vertex_weights[vertices],
            name=f"{self.name}|sub" if self.name else "",
            _validate=False,
        )
        return sub, vertices

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.shape[0] < 1:
            raise GraphFormatError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphFormatError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"len(indices)={self.indices.shape[0]}"
            )
        if self.indices.shape != self.weights.shape:
            raise GraphFormatError("indices and weights must align")
        n = self.n
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphFormatError("neighbor index out of range")
        if self.vertex_weights.shape[0] != n:
            raise GraphFormatError("vertex_weights must have length n")
        if self.indices.size and np.any(self.weights < 0):
            raise GraphFormatError("edge weights must be non-negative")
        # Undirectedness: each direction must appear with equal weight.
        us = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        if us.size:
            fwd = us * n + self.indices
            bwd = self.indices * n + us
            order_f = np.argsort(fwd, kind="stable")
            order_b = np.argsort(bwd, kind="stable")
            if not np.array_equal(fwd[order_f], bwd[order_b]) or not np.allclose(
                self.weights[order_f], self.weights[order_b]
            ):
                raise GraphFormatError("graph is not symmetric (undirected)")
            if np.any(us == self.indices):
                raise GraphFormatError("self-loops are not allowed")
