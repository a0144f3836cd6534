"""Label-driven contraction for TIMER's hierarchies (paper section 6.1).

``contract`` (Algorithm 1, line 13) merges every pair of vertices whose
labels agree on all but the least significant digit, cuts that digit off,
and records the parent relation.  Because level-1 labels are unique, every
coarse vertex has at most two children, so a level-``i`` graph halves in
the limit and the whole hierarchy costs ``O(|E_a| * dim_Ga)``.

Unlike the partitioner's matching-based coarsening, the grouping here is
purely label-driven -- "oblivious to G_a's edges" as the paper stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import as_label_array, shift_right_labels, unique_labels
from repro.utils.segments import group_reduce_sum


@dataclass
class Level:
    """One hierarchy level: edge arrays, labels and the parent pointers.

    ``labels`` are the level's (unique) label values; ``parent`` maps this
    level's vertex ids to the next-coarser level's ids and is filled in
    when the next level is built.  ``csr`` caches the symmetric adjacency
    ``(indptr, indices, weights)`` of the edge arrays -- the level's
    structure never changes after construction (swaps only permute
    ``labels``), so the swap kernels build it at most once per level via
    :func:`repro.core.kernels.level_csr`.
    """

    us: np.ndarray
    vs: np.ndarray
    ws: np.ndarray
    labels: np.ndarray
    parent: np.ndarray | None = None
    csr: tuple | None = None

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])


def make_finest_level(ga_edges: tuple, labels: np.ndarray) -> Level:
    """Wrap ``G_a``'s edge arrays and a copy of the labels as level 1.

    Accepts caller-supplied labels (see
    :func:`~repro.utils.bitops.as_label_array`).
    """
    us, vs, ws = ga_edges
    return Level(us=us, vs=vs, ws=ws, labels=as_label_array(labels).copy())


def contract_level(level: Level) -> Level:
    """Build the next-coarser level (cut the least significant digit).

    Sets ``level.parent`` as a side effect and returns the coarse level.
    Parallel edges arising from the contraction are merged by weight
    summation; edges collapsing inside a coarse vertex vanish (they can no
    longer influence any coarser gain).
    """
    prefixes = shift_right_labels(level.labels, 1)
    coarse_labels, parent = unique_labels(prefixes)
    level.parent = parent.astype(np.int64)
    cu = level.parent[level.us]
    cv = level.parent[level.vs]
    keep = cu != cv
    cu, cv, cw = cu[keep], cv[keep], level.ws[keep]
    if cu.size:
        # Merge parallel edges: canonical key, then one grouped sum.
        n_c = coarse_labels.shape[0]
        keys = np.minimum(cu, cv) * n_c + np.maximum(cu, cv)
        uniq, merged_w = group_reduce_sum(keys, cw)
        mu_ = uniq // n_c
        mv_ = uniq % n_c
    else:
        mu_ = np.empty(0, dtype=np.int64)
        mv_ = np.empty(0, dtype=np.int64)
        merged_w = np.empty(0, dtype=np.float64)
    return Level(us=mu_, vs=mv_, ws=merged_w, labels=coarse_labels)


def build_hierarchy(ga_edges: tuple, labels: np.ndarray, dim: int) -> list[Level]:
    """All levels ``1 .. dim-1`` without swap passes (testing helper).

    The enhancer interleaves swaps with contraction; this pure version
    exists so invariants of the contraction alone are testable.
    """
    levels = [make_finest_level(ga_edges, labels)]
    for _ in range(2, max(2, dim)):
        levels.append(contract_level(levels[-1]))
    return levels
