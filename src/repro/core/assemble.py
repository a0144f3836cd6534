"""Rebuilding a fine labeling from a swapped hierarchy (Algorithm 2).

After the per-level swap passes, the hierarchy's level labels no longer
form consistent prefixes of the level-1 labels; ``assemble`` constructs a
new level-1 labeling that follows the hierarchy's *preferred digits* --
digit ``j`` of a vertex wants to equal the least significant digit of its
level-``j+1`` ancestor's (post-swap) label -- while staying a bijection
onto the original label set ``L``.

The paper's pseudocode enforces feasibility with a per-vertex existence
check against a mutating label array and inverts the preferred digit on
failure.  We implement a *counting* variant with the same preference rule
but a global guarantee:

    process digits from least to most significant; maintain the invariant
    that the number of vertices holding any partial suffix equals the
    number of labels in ``L`` with that suffix; within each suffix group,
    grant the preferred digit to as many vertices as the group's label
    capacity allows (in vertex order) and invert the overflow.

Granting exactly ``capacity`` digits per group keeps the invariant, so
after the last digit the new labeling is a permutation of ``L`` --
verified by an explicit multiset check.  When no coarse swap happened,
every preference is satisfiable and ``assemble`` returns the (post
level-1-swap) input labeling unchanged; a property test pins this down.

The paper inherits the most significant digit from the input labeling
(Algorithm 2, lines 17-18); we use it as the *preference* for the final
digit, forced only by the bijectivity constraint.

The suffix groups need no sort: going from ``j`` to ``j + 1`` digits
splits every group by bit ``j``, so a group id refines to ``2 * gid +
bit``, made dense again through a presence table.  The labels of ``L``
and the vertices share one numbering, and per-group capacities are a
``bincount``.  :func:`assemble_reference` keeps the sort-based version
(``np.unique`` and ``searchsorted`` over the ``j``-bit suffixes at
every digit) as the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.contraction import Level
from repro.utils.bitops import (
    get_label_bit,
    label_lsb,
    label_sort_keys,
    low_bits,
    set_label_bit,
)
from repro.utils.segments import group_ranks


def assemble(levels: list[Level], dim: int) -> np.ndarray:
    """New level-1 labels from a (post-swap) hierarchy.

    ``levels[0]`` is the finest level (its labels are the multiset ``L``
    the result must be a bijection onto); ``levels[j]`` is level ``j+1``
    whose labels' LSBs provide the preferred digit ``j``.  The output has
    the input's word count.
    """
    L = levels[0].labels
    n = L.shape[0]
    new = np.zeros_like(L)
    if n == 0:
        return new
    digit = label_lsb(L)  # digit 0: own post-swap LSB
    set_label_bit(new, 0, digit)
    # Suffix groups over digits 0 .. j-1 share one numbering between the
    # labels of L and the vertices' new labels; key = 2 * group + digit.
    key_L = digit
    key_new = digit
    n_groups = 1
    anc = np.arange(n, dtype=np.int64)
    for j in range(1, dim):
        # Refine by digit j - 1.  _grant_digit's invariant guarantees
        # every vertex key also occurs among the label keys.
        present = np.zeros(2 * n_groups, dtype=np.int64)
        present[key_L] = 1
        dense = np.cumsum(present) - 1
        gid_L = dense[key_L]
        gid_new = dense[key_new]
        n_groups = int(dense[-1]) + 1
        bit_L = get_label_bit(L, j)
        if j < len(levels):
            parent = levels[j - 1].parent
            if parent is None:
                raise RuntimeError(f"level {j} has no parent pointers")
            anc = parent[anc]
            pref = levels[j].lsb()[anc]
        else:
            # No coarser level prescribes this digit (the MSB, and any
            # digit beyond the built hierarchy): prefer the vertex's own
            # original digit, as in Algorithm 2 lines 17-18.
            pref = bit_L
        key_L = 2 * gid_L + bit_L
        key_new = _grant_digit(2 * gid_new + pref, key_L, 2 * n_groups)
        set_label_bit(new, j, key_new & 1)
    return new


def _grant_digit(want: np.ndarray, key_L: np.ndarray, n_keys: int) -> np.ndarray:
    """Vertex keys ``2 * group + digit`` after granting digit ``j``.

    ``want`` holds each vertex's group and preferred digit, ``key_L``
    each label's group and actual digit.  The number of labels with key
    ``2 * g + b`` is group ``g``'s capacity for digit ``b``: the first
    that many vertices of the group preferring ``b``, in vertex order,
    get it, and the rest get the other digit.  Afterwards the vertex keys
    must count exactly like the label keys -- the invariant that keeps
    the result a permutation of ``L``.
    """
    capacity = np.bincount(key_L, minlength=n_keys)
    if np.array_equal(np.bincount(want, minlength=n_keys), capacity):
        return want
    granted = want ^ (group_ranks(want) >= capacity[want])
    if not np.array_equal(np.bincount(granted, minlength=n_keys), capacity):
        raise RuntimeError(
            "assemble() produced labels that are not a permutation of L; "
            "this is a bug in the counting scheme"
        )
    return granted


def assemble_reference(levels: list[Level], dim: int) -> np.ndarray:
    """The sort-based assembly :func:`assemble` replaced (test oracle).

    Same contract and the same grants; the suffix groups of every digit
    come from sorting the suffixes afresh.
    """
    L = levels[0].labels
    n = L.shape[0]
    new = np.zeros_like(L)
    set_label_bit(new, 0, label_lsb(L))  # digit 0: own post-swap LSB
    anc = np.arange(n, dtype=np.int64)
    for j in range(1, dim):
        if j < len(levels):
            parent = levels[j - 1].parent
            if parent is None:
                raise RuntimeError(f"level {j} has no parent pointers")
            anc = parent[anc]
            pref = levels[j].lsb()[anc]
        else:
            # No coarser level prescribes this digit (the MSB, and any
            # digit beyond the built hierarchy): prefer the vertex's own
            # original digit, as in Algorithm 2 lines 17-18.
            pref = get_label_bit(L, j)
        _assign_digit(new, pref, L, j)
    _check_bijection(new, L)
    return new


def _assign_digit(new: np.ndarray, pref: np.ndarray, L: np.ndarray, j: int) -> None:
    """Grant preferred digit ``j`` subject to per-suffix label capacities.

    Sets bit ``j`` of ``new`` in place; bits ``0 .. j-1`` are the suffix
    the capacities are counted over.
    """
    uniq, inv_L = np.unique(label_sort_keys(low_bits(L, j)), return_inverse=True)
    gid = np.searchsorted(uniq, label_sort_keys(low_bits(new, j)))
    capacity1 = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(capacity1, inv_L, get_label_bit(L, j))
    group_size = np.bincount(inv_L, minlength=uniq.shape[0])
    capacity0 = group_size - capacity1

    # Invariant: every vertex suffix exists among the labels.
    digit = pref.astype(np.uint64)

    ones = np.nonzero(pref == 1)[0]
    if ones.size:
        ranks = group_ranks(gid[ones])
        overflow = ones[ranks >= capacity1[gid[ones]]]
        digit[overflow] = 0
    zeros = np.nonzero(pref == 0)[0]
    if zeros.size:
        ranks = group_ranks(gid[zeros])
        overflow = zeros[ranks >= capacity0[gid[zeros]]]
        digit[overflow] = 1
    set_label_bit(new, j, digit)


def _check_bijection(new: np.ndarray, L: np.ndarray) -> None:
    if not np.array_equal(
        np.sort(label_sort_keys(new)), np.sort(label_sort_keys(L))
    ):
        raise RuntimeError(
            "assemble() produced labels that are not a permutation of L; "
            "this is a bug in the counting scheme"
        )
