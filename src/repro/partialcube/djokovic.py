"""Partial-cube recognition and labeling via the Djokovic relation.

Implements the paper's §3 procedure:

1. check bipartiteness (non-bipartite graphs are never partial cubes);
2. repeatedly pick an unclassified edge ``e = {x, y}`` and compute its
   Djokovic class: all edges ``f`` with exactly one endpoint closer to
   ``x`` than to ``y``.  For bipartite graphs this equals the cut-set of
   the vertex bipartition ``(W_xy, W_yx)``;
3. if a class overlaps a previously computed class, the cut-sets do not
   partition ``E`` and the graph is not a partial cube;
4. while computing class ``j``, set bit ``j`` of every vertex label to 0
   iff the vertex lies on the ``x`` side (Eq. 5);
5. finally verify ``d_G(u, v) == Hamming(l(u), l(v))`` for all pairs --
   cheap at processor-graph scale and makes recognition sound rather than
   merely heuristic.

Labels are packed with Djokovic class ``j`` at bit ``j`` into the
``(n, W)`` ``uint64`` representation of :mod:`repro.utils.bitops`: one
word up to 64 classes (every topology in the paper; the 16x16 torus is
the largest with 32), more beyond (trees past 65 vertices, large
fat-trees), so recognition, labeling and verification work at any
isometric dimension.  :func:`djokovic_classes` still exposes the raw
class structure directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NotPartialCubeError
from repro.graphs.algorithms import all_pairs_distances, bipartition_colors, is_connected
from repro.graphs.graph import Graph
from repro.utils.bitops import (
    WORD_BITS,
    bitwise_count,
    get_label_bit,
    pack_bit_matrix,
    pairwise_hamming,
    unpack_bit_matrix,
)


@dataclass(frozen=True)
class PartialCubeLabeling:
    """A Hamming labeling of a partial cube.

    Attributes
    ----------
    labels:
        one packed bitvector per vertex, ``(n, W)`` ``uint64``; bit
        ``j`` is the side of Djokovic class ``j``.
    dim:
        number of Djokovic classes (= isometric dimension of the graph).
    cut_edges:
        for each class ``j``, the ``(k_j, 2)`` array of cut-set edges --
        the paper's convex cuts, kept for inspection and testing.
    """

    labels: np.ndarray
    dim: int
    cut_edges: tuple = field(default_factory=tuple, repr=False)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def side(self, j: int) -> np.ndarray:
        """Boolean array: which vertices have bit ``j`` set."""
        if not (0 <= j < self.dim):
            raise IndexError(f"class {j} out of range [0, {self.dim})")
        return get_label_bit(self.labels, j).astype(bool)

    def as_bit_matrix(self) -> np.ndarray:
        """``(n, dim)`` 0/1 matrix; column ``j`` = class ``j``."""
        return unpack_bit_matrix(self.labels, self.dim)


def djokovic_classes(g: Graph, distances: np.ndarray | None = None):
    """Compute the Djokovic classes of a connected bipartite graph.

    Returns ``(edge_class, classes)`` where ``edge_class`` assigns every
    undirected edge (in ``g.edge_arrays()`` order) a class id and
    ``classes`` is a list of ``(x, y)`` representative edges.  Raises
    :class:`NotPartialCubeError` if classes overlap (step 3 of §3) or the
    graph is not bipartite / not connected.

    The implementation strategy is owned by the active kernel backend
    (:meth:`repro.core.backend.KernelBackend.djokovic_classes`): the
    reference hybrid runs the one-class-at-a-time loop capped at 64
    classes -- ``O(C * (n + m))``, unbeatable while classes pack into
    one word -- and falls back to the fully batched ``(m, n)``
    side-matrix computation when the cap is hit (trees, where every edge
    is a class).  All strategies produce identical output on partial
    cubes, so callers never branch on representation.  The two
    strategies stay importable as ``_djokovic_classes_loop`` (the
    reference oracle) and ``_djokovic_classes_vectorized``.
    """
    if g.n == 0:
        return np.empty(0, np.int64), []
    if not is_connected(g):
        raise NotPartialCubeError(
            "graph is disconnected; partial cubes are connected", reason="disconnected"
        )
    if bipartition_colors(g) is None:
        raise NotPartialCubeError("graph is not bipartite", reason="not-bipartite")
    if distances is None:
        distances = all_pairs_distances(g)
    # Imported lazily: repro.core's package __init__ imports this module,
    # so a top-level import of repro.core.backend would cycle.
    from repro.core.backend import current_backend

    return current_backend().djokovic_classes(g, distances)


def _djokovic_classes_vectorized(g: Graph, distances: np.ndarray):
    """Batched class computation: one ``(m, n)`` side matrix, row grouping.

    Row ``e`` of the side matrix answers ``d(vs[e], u) < d(us[e], u)`` for
    every vertex ``u`` at once -- the paper's side test batched over all
    edges simultaneously instead of one BFS comparison per class.  Edges
    of one Djokovic class have identical rows up to complement, so classes
    fall out of grouping canonicalized rows; the partition property
    (step 3 of §3) reduces to each class's crossing set matching its row
    group exactly.
    """
    us, vs, _ = g.edge_arrays()
    m = us.shape[0]
    if m == 0:
        return np.empty(0, np.int64), []
    # int16 keeps the (m, n) gathers 4x lighter than int64; guard the
    # downcast for pathological diameters (a >32767-diameter path would
    # silently wrap and corrupt every side test).
    if distances.shape[0] and int(distances.max()) <= np.iinfo(np.int16).max:
        d16 = distances.astype(np.int16, copy=False)
    else:  # pragma: no cover - needs a diameter > 32767 graph
        d16 = distances
    side = d16[vs] < d16[us]  # (m, n); row e: True = closer to vs[e]
    # Canonicalize orientation so complementary rows compare equal: force
    # vertex 0 onto the False side of every row.
    canon = side ^ side[:, :1]
    packed = np.packbits(canon, axis=1)
    first_idx, inverse = _group_rows(packed)
    # Row groups come out in lexicographic order; renumber classes in
    # order of first appearance to match the sequential reference exactly.
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    edge_class = rank[inverse].astype(np.int64)
    reps = first_idx[order]
    classes = [(int(us[e]), int(vs[e])) for e in reps]
    # Partition check (step 3 of §3).  Every edge crosses its *own* class
    # bipartition by construction, so the cut-sets partition E iff no edge
    # crosses a second one.  Packing each vertex's per-class side bits
    # into a byte signature turns that into one popcount per edge --
    # O(m * C / 8) instead of a (C, m) crossing matrix.
    sig = np.packbits(side[reps], axis=0)  # (ceil(C/8), n)
    crossings = bitwise_count(sig[:, us] ^ sig[:, vs]).sum(axis=0)
    if np.any(crossings != 1):
        raise NotPartialCubeError(
            "Djokovic cut-sets overlap; edges do not partition into convex "
            "cut-sets",
            reason="overlapping-classes",
        )
    return edge_class, classes


def _group_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group identical rows of a 2-D uint8 array.

    Returns ``(first_idx, inverse)``: the first row index of each group
    (groups in lexicographic row order) and the group id of every row.
    Equivalent to ``np.unique(packed, axis=0, ...)`` but ~30x faster: one
    memcmp-based argsort over a void view instead of numpy's generic
    axis-unique machinery.
    """
    m = packed.shape[0]
    v = np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))
    v = v.ravel()
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = sv[1:] != sv[:-1]
    gid_sorted = np.cumsum(new_group) - 1
    inverse = np.empty(m, dtype=np.int64)
    inverse[order] = gid_sorted
    n_groups = int(gid_sorted[-1]) + 1
    first_idx = np.full(n_groups, m, dtype=np.int64)
    np.minimum.at(first_idx, inverse, np.arange(m, dtype=np.int64))
    return first_idx, inverse


def _djokovic_classes_loop(
    g: Graph, distances: np.ndarray, max_classes: int | None = None
):
    """The original one-class-at-a-time reference implementation.

    When ``max_classes`` is given and a ``(max_classes + 1)``-th class
    would be created, returns ``None`` so the caller can switch to the
    fully batched implementation (the loop is quadratic when every edge
    is its own class).
    """
    us, vs, _ = g.edge_arrays()
    m = us.shape[0]
    edge_class = np.full(m, -1, dtype=np.int64)
    classes: list[tuple[int, int]] = []
    for e_idx in range(m):
        if edge_class[e_idx] >= 0:
            continue
        if max_classes is not None and len(classes) >= max_classes:
            return None
        x, y = int(us[e_idx]), int(vs[e_idx])
        side_y = distances[y] < distances[x]  # True = closer to y (the "1" side)
        # Bipartite => no vertex is equidistant from the endpoints of an edge.
        crossing = side_y[us] != side_y[vs]
        conflict = crossing & (edge_class >= 0)
        if conflict.any():
            raise NotPartialCubeError(
                "Djokovic cut-sets overlap; edges do not partition into convex "
                "cut-sets",
                reason="overlapping-classes",
            )
        j = len(classes)
        edge_class[crossing] = j
        classes.append((x, y))
    return edge_class, classes


def _assemble_cut_edges(edge_class, us, vs, dim: int) -> tuple:
    """Per-class ``(k, 2)`` endpoint arrays from per-edge class indices.

    The stable argsort keeps edges in their original order within each
    class -- both the fresh recognition path and the cache-rebuild path
    (:func:`cut_edges_from_labels`) go through this exact assembly, so a
    labeling loaded from disk yields byte-identical cut-edge arrays.
    """
    by_class = np.argsort(edge_class, kind="stable")
    splits = np.searchsorted(edge_class[by_class], np.arange(1, dim))
    return tuple(
        np.stack([us[members], vs[members]], axis=1)
        for members in np.split(by_class, splits)
    )


def cut_edges_from_labels(labels, dim: int, us, vs) -> tuple:
    """Rebuild the per-class cut-edge arrays from the labeling alone.

    Class ``j`` is, by construction, exactly the set of edges whose
    endpoint labels differ in bit ``j`` -- so ``cut_edges`` is fully
    derived data and the disk cache stores only ``labels``/``dim``.
    The power-of-two ``log2`` recovery of the bit inside its word is
    exact in float64 up to ``2**63``.

    Raises ``ValueError`` when the labels are not a valid partial-cube
    labeling of these edges (an endpoint pair differing in zero or
    several bits) -- corrupt cache entries must fail loudly here so the
    loader can degrade to a recompute.
    """
    if not dim:
        return ()
    us = np.asarray(us)
    vs = np.asarray(vs)
    diff = labels[us] ^ labels[vs]  # (m, W) uint64 words
    nonzero = diff != 0
    if (nonzero.sum(axis=1) != 1).any():
        raise ValueError("labels are not a partial-cube labeling of these edges")
    word = np.argmax(nonzero, axis=1)
    bits = diff[np.arange(diff.shape[0]), word]
    if (bits & (bits - np.uint64(1))).any():
        raise ValueError("labels are not a partial-cube labeling of these edges")
    edge_class = WORD_BITS * word.astype(np.int64) + np.log2(
        bits.astype(np.float64)
    ).astype(np.int64)
    if edge_class.size and int(edge_class.max()) >= dim:
        raise ValueError(f"edge class exceeds labeling dimension {dim}")
    return _assemble_cut_edges(edge_class, us, vs, dim)


def partial_cube_labeling(g: Graph, verify: bool = True) -> PartialCubeLabeling:
    """Recognize ``g`` as a partial cube and return its Hamming labeling.

    Parameters
    ----------
    g:
        candidate processor graph.
    verify:
        when True (default), additionally check the labeling is isometric
        (distance == Hamming for *all* vertex pairs).  The Djokovic
        partition test is the paper's criterion; the verification pass
        turns silent miscomputations into loud errors at negligible cost
        for ``n <= ~2000``.

    Labels come back as ``(n, words_for_bits(dim))`` ``uint64``, so any
    partial cube labels, including trees with hundreds of vertices; a
    single vertex (dim 0) gets ``(1, 1)`` zeros.
    """
    if g.n == 0:
        raise NotPartialCubeError("empty graph has no labeling", reason="empty")
    distances = all_pairs_distances(g)
    edge_class, classes = djokovic_classes(g, distances)
    dim = len(classes)
    us, vs, _ = g.edge_arrays()
    # All side tests d(x, u) vs d(y, u) batched over vertices x classes.
    xs = np.fromiter((x for x, _ in classes), dtype=np.int64, count=dim)
    ys = np.fromiter((y for _, y in classes), dtype=np.int64, count=dim)
    on_y_side = distances[ys] < distances[xs]  # (dim, n)
    labels = pack_bit_matrix(on_y_side.T)
    cut_edges = _assemble_cut_edges(edge_class, us, vs, dim) if dim else ()
    result = PartialCubeLabeling(labels=labels, dim=dim, cut_edges=cut_edges)
    if verify:
        # Backend-dispatched (compiled SWAR loop on the numba tiers).
        ham = pairwise_hamming(labels)
        if not np.array_equal(ham, distances):
            raise NotPartialCubeError(
                "labeling is not isometric: Hamming distance disagrees with "
                "graph distance",
                reason="not-isometric",
            )
    return result


def is_partial_cube(g: Graph) -> bool:
    """True iff ``g`` is a (connected) partial cube."""
    try:
        partial_cube_labeling(g)
        return True
    except NotPartialCubeError:
        return False
