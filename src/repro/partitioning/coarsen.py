"""Graph contraction for the multilevel partitioner.

:func:`contract_graph` collapses groups of vertices given a fine->coarse
map: parallel edges merge by weight summation, intra-group edges vanish,
vertex weights add up.  The same primitive serves the partitioner (with
matchings) and the mapping layer (building communication graphs from
partitions), so it lives here once and is reused.

A contracted graph is valid by construction, so it is built without
:meth:`Graph._validate` or ``from_arrays``'s checks: the builder
symmetrizes the coarse edges, intra-group edges are dropped before it
sees them, and every coarse weight is a sum of non-negative fine weights.
The one check left is that ``coarse_of`` lies in ``range(n_coarse)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.builder import _csr_from_coo
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class CoarseLevel:
    """One level of a multilevel hierarchy."""

    fine: Graph
    coarse: Graph
    coarse_of: np.ndarray  # fine vertex -> coarse vertex


def contract_graph(g: Graph, coarse_of: np.ndarray, n_coarse: int, name: str = "") -> Graph:
    """Contract ``g`` along ``coarse_of`` (values in ``range(n_coarse)``)."""
    coarse_of = np.asarray(coarse_of, dtype=np.int64)
    if coarse_of.shape != (g.n,):
        raise ValueError(f"coarse_of must have shape ({g.n},)")
    if g.n and (coarse_of.min() < 0 or coarse_of.max() >= n_coarse):
        raise ValueError(f"coarse_of must lie in range(n_coarse) = range({n_coarse})")
    us, vs, ws = g.edge_arrays()
    cu, cv = coarse_of[us], coarse_of[vs]
    keep = cu != cv
    vertex_weights = np.zeros(n_coarse, dtype=np.float64)
    np.add.at(vertex_weights, coarse_of, g.vertex_weights)
    return _csr_from_coo(
        n_coarse,
        cu[keep],
        cv[keep],
        ws[keep],
        vertex_weights,
        name or (f"{g.name}|coarse" if g.name else "coarse"),
        validate=False,
    )


def coarsen_once(g: Graph, seed=None, max_vertex_weight: float | None = None) -> CoarseLevel:
    """One round of heavy-edge matching + contraction."""
    from repro.partitioning.matching import heavy_edge_matching, matching_to_coarse_map

    match = heavy_edge_matching(g, seed=seed, max_vertex_weight=max_vertex_weight)
    coarse_of, n_coarse = matching_to_coarse_map(match)
    coarse = contract_graph(g, coarse_of, n_coarse)
    return CoarseLevel(fine=g, coarse=coarse, coarse_of=coarse_of)


def coarsen_to_size(
    g: Graph,
    target_n: int,
    seed=None,
    max_vertex_weight: float | None = None,
    shrink_floor: float = 0.95,
) -> list[CoarseLevel]:
    """Coarsen repeatedly until ``target_n`` vertices or progress stalls.

    ``shrink_floor`` aborts when a round shrinks the graph by less than 5%
    (star-like graphs resist matching), mirroring standard multilevel
    practice.
    """
    levels: list[CoarseLevel] = []
    current = g
    from repro.utils.rng import make_rng

    rng = make_rng(seed)
    while current.n > target_n:
        level = coarsen_once(current, seed=rng, max_vertex_weight=max_vertex_weight)
        if level.coarse.n >= int(current.n * shrink_floor):
            break
        levels.append(level)
        current = level.coarse
    return levels
