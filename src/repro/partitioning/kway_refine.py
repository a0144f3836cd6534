"""Direct k-way boundary refinement.

Recursive bisection never reconsiders a cut once made; real multilevel
partitioners (KaHIP included) finish with a k-way local search.  This
module implements the standard greedy boundary refinement: repeatedly move
a boundary vertex to the adjacent block with the highest positive cut gain
that keeps the Eq. (1) balance cap, until a pass finds nothing.

Kept separate from the recursion so tests can exercise it on arbitrary
partitions and so :func:`~repro.partitioning.kway.partition_kway` can
toggle it.

:func:`kway_refine` reads the CSR, the assignment and the weights as
Python lists, taken once per call, and sums each boundary vertex's edge
weight into every adjacent block in a dict.  It adds in CSR order from
``0.0``, the order ``np.add.at`` adds in, so every sum is bitwise equal
to :func:`kway_refine_reference`'s for any weights; that numpy version is
kept as the oracle the fast path is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.metrics import boundary_vertices
from repro.partitioning.partition import Partition
from repro.partitioning.rebalance import balance_limit


def kway_refine(
    part: Partition,
    epsilon: float,
    max_passes: int = 3,
) -> Partition:
    """Greedy k-way boundary refinement under the Eq. (1) balance cap."""
    g = part.graph
    cap = balance_limit(g, part.k, epsilon) + 1e-9
    indptr, adj, wts = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    assign = part.assignment.tolist()
    vw = g.vertex_weights.tolist()
    bw = part.block_weights().tolist()
    for _ in range(max_passes):
        moved = 0
        for v in boundary_vertices(g, np.asarray(assign)).tolist():
            b = assign[v]
            # weight of edges into each adjacent block
            into: dict[int, float] = {}
            for i in range(indptr[v], indptr[v + 1]):
                t = assign[adj[i]]
                into[t] = into.get(t, 0.0) + wts[i]
            if len(into) == 1 and b in into:
                continue
            own = into.get(b, 0.0)
            wv = vw[v]
            best_gain, best_t = 0.0, -1
            for t in sorted(into):
                if t == b or bw[t] + wv > cap:
                    continue
                gain = into[t] - own
                if gain > best_gain + 1e-12:
                    best_gain, best_t = gain, t
            if best_t >= 0:
                bw[b] -= wv
                bw[best_t] += wv
                assign[v] = best_t
                moved += 1
        if moved == 0:
            break
    return Partition(g, np.asarray(assign, dtype=np.int64), part.k)


def kway_refine_reference(
    part: Partition,
    epsilon: float,
    max_passes: int = 3,
) -> Partition:
    """:func:`kway_refine` on numpy slices, one ``np.add.at`` per vertex.

    The oracle that tests and benches compare :func:`kway_refine` against;
    the pipeline never calls it.
    """
    g = part.graph
    k = part.k
    assign = part.assignment.copy()
    vw = g.vertex_weights
    limit = balance_limit(g, k, epsilon)
    bw = np.zeros(k, dtype=np.float64)
    np.add.at(bw, assign, vw)

    indptr, indices, weights = g.indptr, g.indices, g.weights
    for _ in range(max_passes):
        moved = 0
        boundary = boundary_vertices(g, assign)
        for v in boundary:
            v = int(v)
            b = int(assign[v])
            nbrs = indices[indptr[v] : indptr[v + 1]]
            wts = weights[indptr[v] : indptr[v + 1]]
            nbr_blocks = assign[nbrs]
            if (nbr_blocks == b).all():
                continue
            # weight of edges into each adjacent block
            blocks, inv = np.unique(nbr_blocks, return_inverse=True)
            into = np.zeros(blocks.shape[0], dtype=np.float64)
            np.add.at(into, inv, wts)
            own_idx = np.nonzero(blocks == b)[0]
            own = float(into[own_idx[0]]) if own_idx.size else 0.0
            best_gain, best_t = 0.0, -1
            for t_idx, t in enumerate(blocks):
                t = int(t)
                if t == b or bw[t] + vw[v] > limit + 1e-9:
                    continue
                gain = float(into[t_idx]) - own
                if gain > best_gain + 1e-12:
                    best_gain, best_t = gain, t
            if best_t >= 0:
                bw[b] -= vw[v]
                bw[best_t] += vw[v]
                assign[v] = best_t
                moved += 1
        if moved == 0:
            break
    return Partition(g, assign, k)
