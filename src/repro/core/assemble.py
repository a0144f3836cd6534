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

**Where the preferences come from.**  A vertex's preferred digits form
one preferred label ``P``, built before the grant starts.  A block
hierarchy (:mod:`repro.core.blocks`) holds ``P`` in its flips: ``P`` is
its sorted labels ``X`` with bit ``l - 1`` flipped across the region of
every level-``l`` pair that swapped an odd number of times, one XOR
difference per region end and one prefix XOR along ``X``
(:meth:`~repro.core.blocks.BlockHierarchy.preferences`).  Walk levels
(float weights, KL swaps) give ``P`` through their parents and LSBs, one
level at a time (:func:`walk_preferences`).  Either way the grant needs
``L`` only as a multiset.

The suffix groups need no sort: going from ``j`` to ``j + 1`` digits
splits every group by bit ``j``, so a group id refines to ``2 * gid +
bit``, made dense again through a presence table: the previous digit's
capacities, a ``bincount`` of the label keys.  The labels of ``L`` and
the vertices share one numbering.  Their digits are read from bit planes
unpacked once (:func:`~repro.utils.bitops.label_planes`); only keys
wanted beyond their capacity are ranked, and the granted digits
overwrite the preferred ones in the planes, packed once at the end.
:func:`assemble_reference` keeps the sort-based version (``np.unique``
and ``searchsorted`` over the ``j``-bit suffixes at every digit, fed
from the walk's levels) as the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import LevelView
from repro.core.contraction import Level
from repro.utils.bitops import (
    get_label_bit,
    label_lsb,
    label_planes,
    label_sort_keys,
    low_bits,
    planes_to_labels,
    set_label_bit,
    wide_mask,
)
from repro.utils.segments import group_ranks


def assemble(levels: list[Level | LevelView], dim: int) -> np.ndarray:
    """New level-1 labels from a (post-swap) hierarchy.

    ``levels[0]`` is the finest level (its labels are the multiset ``L``
    the result must be a bijection onto); ``levels[j]`` is level ``j+1``
    whose labels' LSBs provide the preferred digit ``j``.  A block
    hierarchy's views hand over the preferred labels at once
    (:meth:`~repro.core.blocks.BlockHierarchy.preferences`); walk levels
    give them through :func:`walk_preferences`.  The output has the
    input's word count.
    """
    first = levels[0]
    if isinstance(first, LevelView):
        hierarchy = first.hierarchy
        return grant_preferences(hierarchy.labels, hierarchy.preferences(), dim)
    return grant_preferences(first.labels, walk_preferences(levels, dim), dim)


def walk_preferences(levels: list[Level], dim: int) -> np.ndarray:
    """Every vertex's preferred label from walk levels' parents and labels.

    Digit ``j`` is the LSB of the level-``j+1`` ancestor for every level
    the walk built, and the vertex's own digit above them (the MSB and
    any digit beyond the built hierarchy, as in Algorithm 2 lines 17-18).
    """
    L = levels[0].labels
    chain = levels[: max(min(len(levels), dim), 1)]
    prefs = L & ~wide_mask(len(chain), L.shape[1])
    anc = np.arange(L.shape[0], dtype=np.int64)
    for j, level in enumerate(chain):
        if j:
            parent = chain[j - 1].parent
            if parent is None:
                raise RuntimeError(f"level {j} has no parent pointers")
            anc = parent[anc]
        set_label_bit(prefs, j, label_lsb(level.labels)[anc])
    return prefs


def grant_preferences(labels: np.ndarray, prefs: np.ndarray, dim: int) -> np.ndarray:
    """The counting grant: ``prefs`` made a bijection onto the multiset ``labels``.

    Digit 0 is each vertex's own preference (the post-swap LSB).  Digit
    ``j`` refines the suffix groups by digit ``j - 1`` and grants it
    (:func:`_grant_digit`).  The labels and the preferences are unpacked
    once into one set of bit planes, labels first; a granted digit
    overwrites the vertex's preferred one, and the vertices' planes are
    packed once at the end.
    """
    n, words = labels.shape
    if n == 0:
        return np.zeros_like(labels)
    planes = label_planes(np.concatenate([labels, prefs]), max(dim, 1))
    # Labels and vertices share one numbering of the suffix groups over
    # digits 0 .. j-1, key = 2 * group + digit: keys[:n] are the labels',
    # keys[n:] the vertices'.  A digit's capacities count the label
    # keys, so its nonzero cells are the keys present, which the next
    # digit numbers densely from group 1.
    keys = planes[0].astype(np.int64)
    capacity = np.bincount(keys[:n], minlength=2)
    for j in range(1, dim):
        dense = np.cumsum(capacity > 0)
        dense += dense
        keys = dense[keys]
        keys += planes[j]
        capacity = np.bincount(keys[:n], minlength=int(dense[-1]) + 2)
        want = keys[n:]
        if _grant_digit(want, capacity):
            planes[j, n:] = want & 1
    return planes_to_labels(planes[:, n:], words)


def _grant_digit(want: np.ndarray, capacity: np.ndarray) -> bool:
    """Grant digit ``j`` in place; whether any preference was refused.

    ``want`` holds each vertex's key ``2 * group + digit`` with its
    preferred digit; ``capacity[2 * g + b]`` counts the labels of group
    ``g`` with digit ``b``.  The first that many vertices of the group
    preferring ``b``, in vertex order, get it, and the rest get the other
    digit, so only the keys wanted beyond their capacity are ranked.
    Afterwards the vertex keys must count exactly like the label keys --
    the invariant that keeps the result a permutation of ``L``.
    """
    n_keys = capacity.shape[0]
    wanted = np.bincount(want, minlength=n_keys)
    if np.array_equal(wanted, capacity):
        return False
    over = np.flatnonzero((wanted > capacity)[want])
    keys = want[over]
    want[over[group_ranks(keys) >= capacity[keys]]] ^= 1
    if not np.array_equal(np.bincount(want, minlength=n_keys), capacity):
        raise RuntimeError(
            "assemble() produced labels that are not a permutation of L; "
            "this is a bug in the counting scheme"
        )
    return True


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
            pref = label_lsb(levels[j].labels)[anc]
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
