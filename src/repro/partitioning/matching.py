"""Heavy-edge matching for multilevel coarsening.

The classic Karypis-Kumar heuristic: visit vertices in random order and
match each unmatched vertex with the unmatched neighbor connected by the
heaviest edge.  Heavy edges disappear inside coarse vertices, so the cut
of any coarse partition (and hence of the final partition) avoids them.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, make_rng

UNMATCHED = -1


def heavy_edge_matching(
    g: Graph,
    seed: SeedLike = None,
    max_vertex_weight: float | None = None,
) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = partner of ``v`` (or ``v`` itself).

    ``max_vertex_weight`` optionally forbids matches whose combined vertex
    weight exceeds the limit, preventing coarse vertices that could never
    fit a balanced block.
    """
    rng = make_rng(seed)
    order = rng.permutation(g.n)
    match = [UNMATCHED] * g.n
    indptr, adj, wt = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    vw = g.vertex_weights.tolist()
    for v in order.tolist():
        if match[v] != UNMATCHED:
            continue
        best_u, best_w = v, -1.0
        for i in range(indptr[v], indptr[v + 1]):
            u = adj[i]
            if match[u] != UNMATCHED or u == v:
                continue
            if max_vertex_weight is not None and vw[v] + vw[u] > max_vertex_weight:
                continue
            if wt[i] > best_w:
                best_u, best_w = u, wt[i]
        match[v] = best_u
        if best_u != v:
            match[best_u] = v
    return np.asarray(match, dtype=np.int64)


def matching_to_coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Convert a matching into a fine->coarse vertex map.

    Returns ``(coarse_of, n_coarse)``; matched pairs share an id, singletons
    keep their own.  Ids are assigned in increasing order of the smaller
    endpoint, which keeps the map deterministic given the matching.
    """
    partner = match.tolist()
    coarse_of = [-1] * len(partner)
    nxt = 0
    for v, u in enumerate(partner):
        if coarse_of[v] >= 0:
            continue
        coarse_of[v] = nxt
        if u != v and u != UNMATCHED:
            coarse_of[u] = nxt
        nxt += 1
    return np.asarray(coarse_of, dtype=np.int64), nxt
