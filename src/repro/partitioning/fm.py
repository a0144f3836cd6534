"""Fiduccia-Mattheyses 2-way refinement.

Classic FM with a lazy-deletion heap per side: repeatedly move the
boundary vertex with the highest cut gain to the other side, subject to
the balance constraint; after a full pass, roll back to the best prefix.
Multiple passes until a pass yields no improvement.

Gains are kept incrementally, as Fiduccia & Mattheyses (1982) define
them.  A pass computes every vertex's gain in one CSR pass; after ``v``
moves off side ``s``, each unlocked neighbour ``u`` gains ``+2 w(u, v)``
if it sits on ``s`` (the edge is now cut) and ``-2 w(u, v)`` otherwise,
and is pushed again.  The heap pops in the order of the fresh-sum
implementation's ``(-gain, v)`` tuples, so moves, tie-breaks and results
are the same -- provided every partial sum is an exact float.
:func:`~repro.graphs.graph.exact_weights` of the CSR weights is that
predicate (integral edge weights, total below ``2**53``); a graph that
fails it runs :func:`fm_refine_reference`, the fresh-sum implementation
kept as the oracle the fast path is tested against.  On such a graph every gain is
an integer, so the fast path keeps gains as Python ints and pushes the
single int ``-gain * n + v``: with ``0 <= v < n`` it orders exactly as
``(-gain, v)`` does, and ``divmod(key, n)`` gives back ``(-gain, v)``
(Python's floor division makes that hold for negative keys too).

This is the refinement engine both of the multilevel bisection
(:mod:`~repro.partitioning.multilevel`) and -- run on the communication
graph -- of the DRB mapper.  Kernighan-Lin-style swap logic is what the
paper's §6 explicitly compares TIMER against, so the implementation is
deliberately textbook.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.graph import Graph, exact_weights

def fm_refine(
    g: Graph,
    assignment: np.ndarray,
    max_weight: tuple[float, float],
    max_passes: int = 8,
) -> np.ndarray:
    """Refine a 2-way ``assignment`` in place-like fashion (returns a copy).

    Parameters
    ----------
    g:
        the graph.
    assignment:
        0/1 array (will not be mutated).
    max_weight:
        ``(limit_side_0, limit_side_1)``; a move to side ``s`` is allowed
        only while side ``s`` stays within ``max_weight[s]``.
    max_passes:
        upper bound on full FM passes.
    """
    if not exact_weights(g.weights):
        return fm_refine_reference(g, assignment, max_weight, max_passes)
    assign = np.asarray(assignment, dtype=np.int64).copy()
    if g.n == 0:
        return assign
    totals = np.zeros(2, dtype=np.float64)
    np.add.at(totals, assign, g.vertex_weights)

    # The CSR (weights doubled as ints: the update step) and the
    # per-vertex state as lists, taken once per call: the move loop reads
    # one scalar at a time, which numpy makes slow.
    csr = (
        g.indptr.tolist(),
        g.indices.tolist(),
        (2.0 * g.weights).astype(np.int64).tolist(),
    )
    us = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    side = assign.tolist()
    side_weight = totals.tolist()
    vw = g.vertex_weights.tolist()
    caps = (float(max_weight[0]), float(max_weight[1]))
    for _ in range(max_passes):
        if not _fm_pass(g, us, csr, side, side_weight, vw, caps):
            break
    return np.asarray(side, dtype=np.int64)


def _fm_pass(
    g: Graph,
    us: np.ndarray,
    csr: tuple[list, list, list],
    side: list[int],
    side_weight: list[float],
    vw: list[float],
    caps: tuple[float, float],
) -> bool:
    """One incremental pass; updates ``side`` and ``side_weight`` in place.

    Gains are ints and a heap entry is the int ``v - gain[v] * n``, so
    ``key % n`` is ``v``; an entry is stale unless it equals the key ``v``
    would push now (``gain[v] == -(key // n)``).
    """
    indptr, adj, wt2 = csr
    n = g.n
    a = np.asarray(side, dtype=np.int64)
    cross = a[us] != a[g.indices]
    gain = (
        np.bincount(us, weights=np.where(cross, g.weights, -g.weights), minlength=n)
        .astype(np.int64)
        .tolist()
    )
    # Seed with boundary vertices only: interior moves never help first.
    heap = [v - gain[v] * n for v in np.unique(us[cross]).tolist()]
    if not heap:
        return False
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop

    locked = [False] * n
    moves: list[int] = []
    cum_gain = 0
    best_prefix, best_gain = 0, 0
    while heap:
        key = heappop(heap)
        v = key % n
        if locked[v] or key != v - gain[v] * n:
            continue
        s = side[v]
        target = 1 - s
        if side_weight[target] + vw[v] > caps[target]:
            continue
        # Execute the move.
        locked[v] = True
        side_weight[s] -= vw[v]
        side_weight[target] += vw[v]
        side[v] = target
        cum_gain += gain[v]
        moves.append(v)
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_prefix = len(moves)
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = adj[lo:hi]
        for u, w2 in zip(nbrs, wt2[lo:hi]):
            if not locked[u]:
                if side[u] == s:
                    gain[u] += w2
                else:
                    gain[u] -= w2
        # Push only after every update: a parallel edge must not push a
        # half-updated gain.
        for u in nbrs:
            if not locked[u]:
                heappush(heap, u - gain[u] * n)

    # Roll back past the best prefix.
    for v in moves[best_prefix:]:
        s = side[v]
        side_weight[s] -= vw[v]
        side_weight[1 - s] += vw[v]
        side[v] = 1 - s
    return best_gain > 0


# ----------------------------------------------------------------------
# Reference oracle: fresh gain sums (any weights)
# ----------------------------------------------------------------------
def fm_refine_reference(
    g: Graph,
    assignment: np.ndarray,
    max_weight: tuple[float, float],
    max_passes: int = 8,
) -> np.ndarray:
    """:func:`fm_refine` recomputing every pushed gain from numpy slices.

    Exact for any weights; :func:`fm_refine` runs it on graphs that fail
    :func:`~repro.graphs.graph.exact_weights` and is tested against it on all
    others.
    """
    assign = np.asarray(assignment, dtype=np.int64).copy()
    if g.n == 0:
        return assign
    vw = g.vertex_weights
    side_weight = np.zeros(2, dtype=np.float64)
    np.add.at(side_weight, assign, vw)

    for _ in range(max_passes):
        improved = _fm_pass_reference(g, assign, side_weight, max_weight)
        if not improved:
            break
    return assign


def _gain(g: Graph, assign: np.ndarray, v: int) -> float:
    """Cut reduction if ``v`` switches sides: w(external) - w(internal)."""
    nbrs = g.neighbors(v)
    wts = g.incident_weights(v)
    same = assign[nbrs] == assign[v]
    return float(wts[~same].sum() - wts[same].sum())


def _fm_pass_reference(
    g: Graph,
    assign: np.ndarray,
    side_weight: np.ndarray,
    max_weight: tuple[float, float],
) -> bool:
    n = g.n
    vw = g.vertex_weights
    locked = np.zeros(n, dtype=bool)
    # Lazy heap entries (-gain, tiebreak, v, recorded_gain).
    heap: list[tuple[float, int, int, float]] = []
    current_gain = np.full(n, np.nan)

    def push(v: int):
        gv = _gain(g, assign, v)
        current_gain[v] = gv
        heapq.heappush(heap, (-gv, v, v, gv))

    # Seed with boundary vertices only: interior moves never help first.
    us = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    boundary = np.zeros(n, dtype=bool)
    cross = assign[us] != assign[g.indices]
    boundary[us[cross]] = True
    for v in np.nonzero(boundary)[0]:
        push(int(v))
    if not heap:
        return False

    moves: list[int] = []
    cum_gain = 0.0
    best_prefix, best_gain = 0, 0.0
    while heap:
        neg_g, _, v, g_rec = heapq.heappop(heap)
        if locked[v] or current_gain[v] != g_rec:
            continue
        target = 1 - int(assign[v])
        if side_weight[target] + vw[v] > max_weight[target]:
            continue
        # Execute the move.
        locked[v] = True
        side_weight[int(assign[v])] -= vw[v]
        side_weight[target] += vw[v]
        assign[v] = target
        cum_gain += -neg_g
        moves.append(v)
        if cum_gain > best_gain + 1e-12:
            best_gain = cum_gain
            best_prefix = len(moves)
        for u in g.neighbors(v):
            u = int(u)
            if not locked[u]:
                push(u)

    # Roll back past the best prefix.
    for v in moves[best_prefix:]:
        side = int(assign[v])
        side_weight[side] -= vw[v]
        side_weight[1 - side] += vw[v]
        assign[v] = 1 - side
    return best_gain > 1e-12
