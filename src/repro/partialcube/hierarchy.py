"""Permutation-induced hierarchies on labeled vertex sets (paper §2).

For a partial-cube labeling ``l`` of dimension ``d`` and a permutation
``pi`` of the label positions, the equivalence relations

    u ~_{pi,i} v  <=>  the permuted labels agree on the first i positions

produce a chain of increasingly fine partitions ``P_1, ..., P_d``
(Figure 2 shows the two opposite hierarchies of the 4-D hypercube).  TIMER
exploits exactly these hierarchies, built on the *application* graph's
labels; this module provides the standalone object for inspection, tests
and the Figure 2 demo.

Position convention: the paper reads labels left to right, entry 1 first.
We store labels packed LSB-first per Djokovic class, so "the first i
positions" of the paper correspond to the ``i`` *highest* bits here once a
display width is fixed.  :class:`LabelHierarchy` works purely on permuted
digit sequences, so the caller chooses the convention via ``perm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import as_label_array, get_label_bit
from repro.utils.rng import SeedLike, make_rng

#: Deepest level whose group ids are the literal prefix values: an id
#: is an int64 part id, so it holds at most 63 prefix bits.  This bounds
#: the part ids, not the label width.
_PREFIX_ID_BITS = 63


@dataclass(frozen=True)
class LabelHierarchy:
    """A chain of partitions of ``range(n)`` induced by label prefixes.

    ``group_ids[i]`` (for ``i`` in ``1..dim``) is an ``int64`` array giving
    each vertex an id for the first ``i`` permuted label entries; equal
    value = same part of partition ``P_i``, and sorting by value sorts by
    prefix.  ``group_ids[0]`` is all zeros (the single root part).

    While ``i <= 63`` the id *is* the integer prefix
    itself (the convention :meth:`parent_of_part` relies on); for deeper
    levels -- labels may be wider than 63 bits -- the ids switch to
    order-preserving dense ranks, since the prefixes no longer fit an
    int64.
    """

    dim: int
    group_ids: tuple

    @property
    def n(self) -> int:
        return int(self.group_ids[0].shape[0])

    def partition(self, i: int) -> list[np.ndarray]:
        """Parts of ``P_i`` as arrays of vertex ids (sorted by prefix)."""
        if not (0 <= i <= self.dim):
            raise IndexError(f"level {i} out of range [0, {self.dim}]")
        gid = self.group_ids[i]
        order = np.argsort(gid, kind="stable")
        sorted_ids = gid[order]
        boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
        return [part for part in np.split(order, boundaries)]

    def n_parts(self, i: int) -> int:
        return int(np.unique(self.group_ids[i]).shape[0])

    def parent_of_part(self, i: int, prefix: int) -> int:
        """Prefix of the parent part at level ``i - 1``.

        Only meaningful while group ids are literal prefixes
        (``i - 1 <= 63``); beyond that depth ids are dense ranks and the
        parent relation lives in the contraction machinery instead.
        """
        if i < 1:
            raise IndexError("level 0 is the root")
        if i > _PREFIX_ID_BITS:
            raise IndexError(
                f"level {i} group ids are dense ranks, not prefixes; "
                f"parent_of_part only applies up to level {_PREFIX_ID_BITS}"
            )
        return prefix >> 1


def hierarchy_from_permutation(
    labels: np.ndarray, dim: int, perm: np.ndarray | None = None, seed: SeedLike = None
) -> LabelHierarchy:
    """Build the hierarchy for ``perm`` (paper Eq. 4).

    Parameters
    ----------
    labels:
        packed labels (bit ``j`` = label entry for class ``j``): a 1-D
        array of non-negative integers or ``(n, W)`` ``uint64``.
    dim:
        label width in bits.
    perm:
        permutation of ``range(dim)``; position ``i`` of the permuted label
        is bit ``perm[i]`` of the packed label.  ``perm[0]`` is the paper's
        *first* (coarsest / most significant) entry.  ``None`` draws a
        uniformly random permutation from ``seed``.
    """
    labels = as_label_array(labels)
    if perm is None:
        perm = make_rng(seed).permutation(dim)
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (dim,) or not np.array_equal(np.sort(perm), np.arange(dim)):
        raise ValueError(f"perm must be a permutation of range({dim})")
    group_ids = [np.zeros(labels.shape[0], dtype=np.int64)]
    for i in range(dim):
        bit = get_label_bit(labels, int(perm[i]))
        if i < _PREFIX_ID_BITS:
            # The id is the prefix value itself (fits int64 while the
            # prefix has at most 63 bits).
            group_ids.append((group_ids[-1] << 1) | bit)
        else:
            # Prefixes no longer fit an int64; keep order-preserving
            # dense ranks instead (equal rank <=> equal prefix, and rank
            # order == prefix order because the parent ids are already
            # sorted the same way).  Densify the last value-based level
            # once before extending it.
            prev = group_ids[-1]
            if i == _PREFIX_ID_BITS:
                _, prev = np.unique(prev, return_inverse=True)
            key = prev * 2 + bit
            _, inverse = np.unique(key, return_inverse=True)
            group_ids.append(inverse.astype(np.int64))
    return LabelHierarchy(dim=dim, group_ids=tuple(group_ids))


def identity_permutation(dim: int) -> np.ndarray:
    """The paper's ``id`` hierarchy: entry 1 = packed bit ``dim - 1``.

    With our LSB-per-class packing, reading entries left to right means
    scanning bits from most significant downward.
    """
    return np.arange(dim - 1, -1, -1, dtype=np.int64)


def opposite_permutation(dim: int) -> np.ndarray:
    """The paper's reversed hierarchy ``pi(j) = dim + 1 - j`` (Figure 2)."""
    return np.arange(dim, dtype=np.int64)
