"""Initial bisection by greedy graph growing.

Runs on the coarsest graph of the multilevel chain: grow a region from a
random seed vertex by repeatedly absorbing the boundary vertex with the
highest (internal - external) attachment until the target weight is
reached; take the best of several attempts.  Cheap, and FM refinement on
the way back up fixes its rough edges.

Attachments are kept incrementally: each starts at minus the vertex's
incident weight and rises by ``2 w(u, v)`` when a neighbour ``v`` is
absorbed, so every push carries the value a fresh sum would.  As in
:mod:`~repro.partitioning.fm` that holds only under
:func:`~repro.graphs.graph.exact_weights`; other graphs grow
with :func:`grow_bisection_reference`, which recomputes each attachment
from numpy slices.  Both draw the same random numbers.
"""

from __future__ import annotations

import heapq
from functools import partial

import numpy as np

from repro.graphs.graph import Graph, exact_weights
from repro.utils.rng import SeedLike, make_rng


def grow_bisection(
    g: Graph,
    target_weight_0: float,
    seed: SeedLike = None,
    attempts: int = 4,
) -> np.ndarray:
    """Bisect ``g``; side 0 receives ~``target_weight_0`` of vertex weight.

    Returns a 0/1 assignment array.  Side 0 is grown; everything else is
    side 1.  The best of ``attempts`` runs (by cut weight) wins.
    """
    if not exact_weights(g.weights):
        return grow_bisection_reference(g, target_weight_0, seed, attempts)
    grow = partial(_grow_once, _grow_lists(g))
    return _best_growth(g, grow, target_weight_0, seed, attempts)


def grow_bisection_reference(
    g: Graph,
    target_weight_0: float,
    seed: SeedLike = None,
    attempts: int = 4,
) -> np.ndarray:
    """:func:`grow_bisection` growing with :func:`_grow_once_reference`.

    Exact for any weights; :func:`grow_bisection` runs it on graphs that
    fail :func:`~repro.graphs.graph.exact_weights` and is tested
    against it on all others.
    """
    grow = partial(_grow_once_reference, g)
    return _best_growth(g, grow, target_weight_0, seed, attempts)


def _best_growth(
    g: Graph, grow, target_weight_0: float, seed: SeedLike, attempts: int
) -> np.ndarray:
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    rng = make_rng(seed)
    best_assign: np.ndarray | None = None
    best_cut = np.inf
    for _ in range(max(1, attempts)):
        assign = grow(target_weight_0, rng)
        cut = _cut_of(g, assign)
        if cut < best_cut:
            best_cut, best_assign = cut, assign
    assert best_assign is not None
    return best_assign


def _grow_lists(g: Graph) -> tuple[list, list, list, list, list]:
    """``g``'s CSR (doubled weights), vertex weights, starting attachments."""
    us = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    incident = np.bincount(us, weights=g.weights, minlength=g.n)
    return (
        g.indptr.tolist(),
        g.indices.tolist(),
        (2.0 * g.weights).tolist(),
        g.vertex_weights.tolist(),
        (-incident).tolist(),
    )


def _grow_once(lists: tuple, target: float, rng: np.random.Generator) -> np.ndarray:
    """One incremental growing run; pushes what the reference pushes."""
    indptr, adj, wt2, vw, base_gain = lists
    n = len(vw)
    gain = base_gain.copy()
    in_region = bytearray(n)
    start = int(rng.integers(0, n))
    region_weight = 0.0
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [(-gain[start], 1, start)]
    stamp = 1
    while heap and region_weight < target:
        _, _, v = heappop(heap)
        if in_region[v]:
            continue
        wv = vw[v]
        # Stop before overshooting badly on weighted vertices.
        if region_weight + wv > target and region_weight > 0 and (
            region_weight + wv - target > target - region_weight
        ):
            continue
        in_region[v] = 1
        region_weight += wv
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = adj[lo:hi]
        for u, w2 in zip(nbrs, wt2[lo:hi]):
            if not in_region[u]:
                gain[u] += w2
        for u in nbrs:
            if not in_region[u]:
                stamp += 1
                heappush(heap, (-gain[u], stamp, u))
        if not heap and region_weight < target:
            outside = np.flatnonzero(np.frombuffer(in_region, dtype=np.uint8) == 0)
            if outside.size == 0:
                break
            u = int(outside[rng.integers(0, outside.size)])
            stamp += 1
            heappush(heap, (-gain[u], stamp, u))
    if 1 not in in_region:  # degenerate: single vertex heavier than target
        in_region[start] = 1
    return 1 - np.frombuffer(in_region, dtype=np.uint8).astype(np.int64)


def _grow_once_reference(
    g: Graph, target: float, rng: np.random.Generator
) -> np.ndarray:
    """:func:`_grow_once` recomputing every attachment from numpy slices."""
    n = g.n
    in_region = np.zeros(n, dtype=bool)
    vw = g.vertex_weights
    start = int(rng.integers(0, n))
    region_weight = 0.0
    # Max-heap on gain = (weight to region) - (weight to outside).
    heap: list[tuple[float, int, int]] = []
    stamp = 0

    def push(v: int):
        nonlocal stamp
        nbrs = g.neighbors(v)
        wts = g.incident_weights(v)
        inside = in_region[nbrs]
        gain = float(wts[inside].sum() - wts[~inside].sum())
        stamp += 1
        heapq.heappush(heap, (-gain, stamp, v))

    push(start)
    while heap and region_weight < target:
        _, _, v = heapq.heappop(heap)
        if in_region[v]:
            continue
        # Stop before overshooting badly on weighted vertices.
        if region_weight + vw[v] > target and region_weight > 0 and (
            region_weight + vw[v] - target > target - region_weight
        ):
            continue
        in_region[v] = True
        region_weight += float(vw[v])
        for u in g.neighbors(v):
            u = int(u)
            if not in_region[u]:
                push(u)
        if not heap and region_weight < target:
            outside = np.nonzero(~in_region)[0]
            if outside.size == 0:
                break
            push(int(outside[rng.integers(0, outside.size)]))
    if not in_region.any():  # degenerate: single vertex heavier than target
        in_region[start] = True
    return np.where(in_region, 0, 1).astype(np.int64)


def _cut_of(g: Graph, assign: np.ndarray) -> float:
    us, vs, ws = g.edge_arrays()
    return float(ws[assign[us] != assign[vs]].sum())


def random_bisection(
    g: Graph, target_weight_0: float, seed: SeedLike = None
) -> np.ndarray:
    """Weight-aware random bisection (baseline / fallback)."""
    rng = make_rng(seed)
    order = rng.permutation(g.n)
    assign = np.ones(g.n, dtype=np.int64)
    acc = 0.0
    for v in order:
        if acc >= target_weight_0:
            break
        assign[v] = 0
        acc += float(g.vertex_weights[v])
    return assign
