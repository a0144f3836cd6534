"""Mapping quality objectives.

The paper's primary objective is ``Coco`` (Eq. 3), also known as
*hop-bytes*: every application edge pays its weight times the hop distance
of its endpoints' PEs in ``G_p``.  This module evaluates Coco both from a
distance matrix (arbitrary ``G_p``) and from partial-cube labels (O(1) per
edge), and adds the auxiliary measures used in the broader mapping
literature (average/maximum dilation, a congestion estimate, and the
Walshaw-Cross network cost matrix for reference).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.graphs.algorithms import all_pairs_distances, bfs_distances
from repro.graphs.graph import Graph
from repro.utils.bitops import as_label_array, hamming_labels
from repro.utils.validation import as_int_array, check_assignment


def network_cost_matrix(gp: Graph) -> np.ndarray:
    """All-pairs hop distances of ``G_p`` (the NCM of Walshaw & Cross).

    TIMER's selling point is avoiding this matrix via labels; it is
    provided for the baseline mappers and for cross-checks.
    """
    return all_pairs_distances(gp)


def coco_from_distances(
    ga: Graph, mu: np.ndarray, dist: np.ndarray
) -> float:
    """Coco(mu) = sum over edges of w(e) * d_Gp(mu(u), mu(v)) (Eq. 3)."""
    mu = as_int_array("mu", mu, ga.n)
    check_assignment("mu", mu, dist.shape[0])
    us, vs, ws = ga.edge_arrays()
    return float((ws * dist[mu[us], mu[vs]]).sum())


def coco(ga: Graph, gp: Graph, mu: np.ndarray) -> float:
    """Coco via a fresh distance matrix (convenience; O(|Vp| * |Ep|))."""
    if (np.asarray(mu) < 0).any() or (np.asarray(mu) >= gp.n).any():
        raise MappingError("mu maps outside V_p")
    return coco_from_distances(ga, np.asarray(mu, dtype=np.int64), network_cost_matrix(gp))


def coco_from_labels(ga: Graph, labels_p_of_vertex: np.ndarray) -> float:
    """Coco evaluated as Hamming distance of per-vertex PE labels.

    ``labels_p_of_vertex[v]`` must be the packed partial-cube label of
    ``mu(v)`` -- a 1-D array of non-negative integers or ``(n, W)``
    ``uint64``; the hop distance is then ``popcount(xor)`` (Definition
    2.2), the identity that makes TIMER fast.
    """
    lab = as_label_array(labels_p_of_vertex)
    us, vs, ws = ga.edge_arrays()
    return float((ws * hamming_labels(lab[us], lab[vs])).sum())


def average_dilation(ga: Graph, gp: Graph, mu: np.ndarray) -> float:
    """Weighted mean hop distance per unit of communication."""
    mu = as_int_array("mu", mu, ga.n)
    dist = network_cost_matrix(gp)
    us, vs, ws = ga.edge_arrays()
    total_w = ws.sum()
    if total_w == 0:
        return 0.0
    return float((ws * dist[mu[us], mu[vs]]).sum() / total_w)


def maximum_dilation(ga: Graph, gp: Graph, mu: np.ndarray) -> int:
    """Largest hop distance paid by any communicating edge."""
    mu = as_int_array("mu", mu, ga.n)
    dist = network_cost_matrix(gp)
    us, vs, ws = ga.edge_arrays()
    live = ws > 0
    if not live.any():
        return 0
    return int(dist[mu[us[live]], mu[vs[live]]].max())


def congestion_estimate(ga: Graph, gp: Graph, mu: np.ndarray, seed=None) -> float:
    """Maximum traffic over any ``G_p`` edge under single-shortest-path routing.

    The paper abstracts routing away by assuming shortest paths; this
    estimate routes every application edge along one BFS shortest path
    (deterministic tie-breaking by parent order) and reports the maximum
    accumulated load per processor edge.  Used by extension experiments
    only -- not part of the paper's headline metrics.
    """
    mu = as_int_array("mu", mu, ga.n)
    # Build per-source BFS parents lazily.
    parents: dict[int, np.ndarray] = {}

    def parent_tree(src: int) -> np.ndarray:
        if src not in parents:
            dist = bfs_distances(gp, src)
            par = np.full(gp.n, -1, dtype=np.int64)
            order = np.argsort(dist, kind="stable")
            for v in order:
                v = int(v)
                if v == src or dist[v] < 0:
                    continue
                for u in gp.neighbors(v):
                    if dist[int(u)] == dist[v] - 1:
                        par[v] = int(u)
                        break
            parents[src] = par
        return parents[src]

    load: dict[tuple[int, int], float] = {}
    us, vs, ws = ga.edge_arrays()
    for u, v, w in zip(us, vs, ws):
        a, b = int(mu[u]), int(mu[v])
        if a == b or w == 0:
            continue
        par = parent_tree(a)
        x = b
        while x != a:
            p = int(par[x])
            key = (min(x, p), max(x, p))
            load[key] = load.get(key, 0.0) + float(w)
            x = p
    return max(load.values()) if load else 0.0
