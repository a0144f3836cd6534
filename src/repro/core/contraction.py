"""Label-driven contraction for TIMER's hierarchies (paper section 6.1).

``contract`` (Algorithm 1, line 13) merges every pair of vertices whose
labels agree on all but the least significant digit, cuts that digit off,
and records the parent relation.  Because level-1 labels are unique, every
coarse vertex has at most two children, so a level-``i`` graph halves in
the limit and the whole hierarchy costs ``O(|E_a| * dim_Ga)``.

Unlike the partitioner's matching-based coarsening, the grouping here is
purely label-driven -- "oblivious to G_a's edges" as the paper stresses.

This is the level walk, which float weights and KL swaps take: every
contraction merges the level's edges by a sort and places the coarse
CSR from them, array for array :func:`contract_level_reference`'s.  On
exact weights the greedy passes run a block of levels at a time
(:mod:`repro.core.blocks`), and ``contract_level`` hands out the next
view of the hierarchy instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import LevelView
from repro.utils.bitops import (
    adjacent_siblings,
    argsort_labels,
    as_label_array,
    shift_right_labels,
    unique_labels,
)
from repro.utils.segments import (
    build_csr,
    counting_argsort,
    group_reduce_sum,
    run_sums,
    sorted_runs,
)


@dataclass
class Level:
    """One hierarchy level: labels, vertex order, adjacency and parents.

    ``labels`` are the level's (unique) label values; ``parent`` maps this
    level's vertex ids to the next-coarser level's ids and is filled in
    when the next level is built.

    ``order`` lists the vertex ids in ascending label order as the level
    was built.  A sibling swap exchanges two labels that differ only in
    bit 0, so along ``order`` the prefixes ``labels >> 1`` stay
    non-decreasing and siblings stay adjacent however many swaps run --
    which is all the contraction and the sibling-pair search need.
    ``siblings`` caches which neighbours along ``order`` are siblings
    (:func:`sibling_mask`).

    The adjacency never changes after construction (swaps only permute
    ``labels``).  The finest level keeps the caller's edge arrays
    ``edges = (us, vs, ws)`` and builds ``csr`` on first use
    (:func:`repro.core.kernels.level_csr`).  A contracted level is
    numbered in label order, so its ``order`` is the identity; it keeps
    its merged edges and the CSR placed from them.
    """

    labels: np.ndarray
    order: np.ndarray
    edges: tuple | None = None
    csr: tuple | None = None
    parent: np.ndarray | None = None
    siblings: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def edge_arrays(self) -> tuple:
        """``(us, vs, ws)``: the level's edges."""
        return self.edges

    @property
    def us(self) -> np.ndarray:
        return self.edge_arrays()[0]

    @property
    def vs(self) -> np.ndarray:
        return self.edge_arrays()[1]

    @property
    def ws(self) -> np.ndarray:
        return self.edge_arrays()[2]


def make_finest_level(ga_edges: tuple, labels: np.ndarray) -> Level:
    """Wrap ``G_a``'s edge arrays and a copy of the labels as level 1.

    Accepts caller-supplied labels (see
    :func:`~repro.utils.bitops.as_label_array`).  Sorting them here is
    the one label sort of a whole hierarchy: every coarser level is
    numbered in label order by construction.
    """
    us, vs, ws = ga_edges
    labels = as_label_array(labels).copy()
    return Level(labels=labels, order=argsort_labels(labels), edges=(us, vs, ws))


def sibling_mask(level: Level) -> np.ndarray:
    """``out[i]``: vertices ``order[i]`` and ``order[i + 1]`` are siblings.

    :func:`~repro.utils.bitops.adjacent_siblings` along ``level.order``,
    computed once per level and cached on ``level.siblings``: swaps keep
    every prefix, so the swap passes and the contraction share it.
    """
    if level.siblings is None:
        level.siblings = adjacent_siblings(np.take(level.labels, level.order, axis=0))
    return level.siblings


def contract_level(level: Level | LevelView) -> Level | LevelView:
    """Build the next-coarser level (cut the least significant digit).

    Sets ``level.parent`` as a side effect and returns the coarse level.
    Parallel edges arising from the contraction are merged by weight
    summation; edges collapsing inside a coarse vertex vanish (they can no
    longer influence any coarser gain).

    Coarse vertices are numbered by prefix rank, read off the runs of
    equal prefixes along ``level.order`` (:func:`sibling_mask`), so the
    coarse level's own order is the identity.  Labels, parents, edges and
    CSR equal :func:`contract_level_reference`'s array for array.  A
    block hierarchy's view returns its next view and sets nothing
    (:meth:`~repro.core.blocks.LevelView.contract`).
    """
    if isinstance(level, LevelView):
        return level.contract()
    n = level.n
    merged = sibling_mask(level)
    starts = np.ones(n, dtype=bool)
    starts[1:] = ~merged
    parent = np.empty(n, dtype=np.int64)
    parent[level.order] = np.cumsum(starts) - 1
    level.parent = parent
    heads = level.order[starts]
    coarse_labels = shift_right_labels(np.take(level.labels, heads, axis=0), 1)
    n_c = coarse_labels.shape[0]
    edges = _merge_edges(parent, level.edge_arrays(), n_c)
    return Level(
        labels=coarse_labels,
        order=np.arange(n_c, dtype=np.int64),
        edges=edges,
        csr=_csr_of_sorted_edges(n_c, *edges),
    )


def _merge_edges(parent: np.ndarray, edges: tuple, n_c: int) -> tuple:
    """The edges between coarse vertices, parallel edges summed.

    Returns ``(us, vs, ws)`` with ``us < vs``, sorted by ``(us, vs)``:
    the grouping and the sums of :func:`group_reduce_sum`; a group's
    endpoints are read off its first edge, which is cheaper than
    dividing them out of its key.
    """
    us, vs, ws = edges
    cu = parent[us]
    cv = parent[vs]
    keep = cu != cv
    cu, cv, cw = cu[keep], cv[keep], ws[keep]
    if not cu.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    order, starts = sorted_runs(lo * n_c + hi)
    first = order[starts]
    return lo[first], hi[first], run_sums(cw[order], starts)


def _csr_of_sorted_edges(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> tuple:
    """``build_csr(n, us, vs, ws)`` for edges with ``us < vs`` sorted by ``(us, vs)``.

    Row ``r`` of that CSR lists its larger neighbours ascending (the
    edges with ``us == r``, a contiguous run), then its smaller
    neighbours ascending (the edges with ``vs == r`` in edge order), so
    every entry's position follows from the per-row counts.
    """
    m = us.shape[0]
    larger = np.bincount(us, minlength=n)
    smaller = np.bincount(vs, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(larger + smaller, out=indptr[1:])
    indices = np.empty(2 * m, dtype=np.int64)
    weights = np.empty(2 * m, dtype=np.float64)
    edge = np.arange(m, dtype=np.int64)
    # Edge e holds row us[e]'s (e - #edges of earlier rows)-th larger
    # entry; indptr[us[e]] adds the entries of earlier rows, so the
    # position is e plus their smaller entries.
    larger_at = edge + (np.cumsum(smaller) - smaller)[us]
    indices[larger_at] = vs
    weights[larger_at] = ws
    # Likewise the k-th edge in (vs, us) order sits k plus the larger
    # entries of rows up to and including its own.
    by_v = counting_argsort(vs, n)
    smaller_at = edge + np.cumsum(larger)[vs[by_v]]
    indices[smaller_at] = us[by_v]
    weights[smaller_at] = ws[by_v]
    return indptr, indices, weights


def contract_level_reference(level: Level) -> Level:
    """The sort-based contraction :func:`contract_level` replaced (test oracle).

    Groups the prefixes with :func:`~repro.utils.bitops.unique_labels`,
    which sorts them afresh, and builds the coarse CSR with
    :func:`~repro.utils.segments.build_csr`.
    """
    prefixes = shift_right_labels(level.labels, 1)
    coarse_labels, parent = unique_labels(prefixes)
    level.parent = parent.astype(np.int64)
    us, vs, ws = level.edge_arrays()
    cu = level.parent[us]
    cv = level.parent[vs]
    keep = cu != cv
    cu, cv, cw = cu[keep], cv[keep], ws[keep]
    n_c = coarse_labels.shape[0]
    if cu.size:
        # Merge parallel edges: canonical key, then one grouped sum.
        keys = np.minimum(cu, cv) * n_c + np.maximum(cu, cv)
        uniq, merged_w = group_reduce_sum(keys, cw)
        mu_ = uniq // n_c
        mv_ = uniq % n_c
    else:
        mu_ = np.empty(0, dtype=np.int64)
        mv_ = np.empty(0, dtype=np.int64)
        merged_w = np.empty(0, dtype=np.float64)
    return Level(
        labels=coarse_labels,
        order=np.arange(n_c, dtype=np.int64),
        edges=(mu_, mv_, merged_w),
        csr=build_csr(n_c, mu_, mv_, merged_w),
    )


def build_hierarchy(ga_edges: tuple, labels: np.ndarray, dim: int) -> list[Level]:
    """All levels ``1 .. dim-1`` without swap passes (testing helper).

    The enhancer interleaves swaps with contraction; this pure version
    exists so invariants of the contraction alone are testable.
    """
    levels = [make_finest_level(ga_edges, labels)]
    for _ in range(2, max(2, dim)):
        levels.append(contract_level(levels[-1]))
    return levels
