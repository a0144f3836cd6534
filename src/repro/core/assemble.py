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
verified by one check at the end.  When no coarse swap happened, every
preference is satisfiable and ``assemble`` returns the (post level-1-swap)
input labeling unchanged; a property test pins this down.

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
level at a time (:func:`walk_preferences`).  Either way the grant reads
``L`` only as a set of unique labels.

**The grant walks a trie.**  A digit decides something only in a suffix
group whose labels take both of its values; everywhere else it is
forced.  Those groups are the branching nodes of the labels' binary
trie read least significant bit first (a PATRICIA trie).  Sorting the
bit-reversed labels (:func:`~repro.utils.bitops.reverse_label_bits`)
orders ``L`` that way, and the block hierarchy's own helpers give the
trie's shape: the boundary between sorted positions ``j`` and ``j + 1``
is a node at the lowest bit where the two labels differ
(:func:`~repro.core.blocks.highest_differing_bits` on the reversed
labels); its labels are the positions between its enclosing boundaries
(:func:`~repro.core.blocks.enclosing_boundaries`), split by its bit at
``j``; its children are the boundaries that hang below it in that
Cartesian tree, or single positions, the leaves.  The grant moves every
vertex one node down per round, so the rounds number the trie's depth,
not ``dim``, and a vertex that reaches a leaf takes its label.
:func:`assemble_reference` keeps the sort-based version (``np.unique``
and ``searchsorted`` over the ``j``-bit suffixes at every digit, fed
from the walk's levels) as the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import LevelView, enclosing_boundaries, highest_differing_bits
from repro.core.contraction import Level
from repro.utils.bitops import (
    WORD_BITS,
    get_label_bit,
    label_lsb,
    label_sort_keys,
    low_bits,
    reverse_label_bits,
    set_label_bit,
    wide_mask,
)
from repro.utils.segments import group_ranks

_ONE = np.uint64(1)


def assemble(levels: list[Level | LevelView], dim: int) -> np.ndarray:
    """New level-1 labels from a (post-swap) hierarchy.

    ``levels[0]`` is the finest level (its unique labels are the set ``L``
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
    """The counting grant: ``prefs`` made a bijection onto ``labels``.

    ``labels`` hold no bit at or above ``dim`` and must be unique; a
    duplicate raises ``ValueError``.  Each round of the trie walk
    (module docstring) grants, at the node where a vertex stands, the
    vertex's preferred digit at the node's bit: as many of the vertices
    preferring a side as the side has labels get it, the first in vertex
    order, and the rest go to the other side.  Afterwards every leaf
    must hold exactly one vertex -- the invariant that keeps the result
    a permutation of ``L``.
    """
    n = labels.shape[0]
    if n <= 1:
        return labels.copy()
    order, child, capacity, bit, root = _label_trie(labels, dim)
    # Word w of vertex v's preferred label sits at w * n + v.
    by_word = prefs.T.ravel()
    word = bit // WORD_BITS * n
    shift = (bit % WORD_BITS).astype(np.uint64)
    # The vertices still walking, in vertex order, and the key ``2 * j``
    # of the node ``j`` each stands at; a wanted side's key adds its digit.
    vertex = np.arange(n, dtype=np.int64)
    at = np.full(n, root, dtype=np.int64)
    leaf = np.empty(n, dtype=np.int64)
    while vertex.size:
        want = at + ((by_word[word[at] + vertex] >> shift[at]) & _ONE).view(np.int64)
        wanted = np.bincount(want, minlength=capacity.shape[0])
        over = np.flatnonzero((wanted > capacity)[want])
        if over.size:
            keys = want[over]
            want[over[group_ranks(keys) >= capacity[keys]]] ^= 1
        at = child[want]
        done = at < 0
        if done.any():
            leaf[vertex[done]] = ~at[done]
            walking = ~done
            vertex, at = vertex[walking], at[walking]
    if not np.array_equal(np.bincount(leaf, minlength=n), np.ones(n, dtype=np.int64)):
        raise RuntimeError(
            "assemble() produced labels that are not a permutation of L; "
            "this is a bug in the counting scheme"
        )
    return np.take(labels, order[leaf], axis=0)


def _label_trie(labels: np.ndarray, dim: int) -> tuple:
    """``(order, child, capacity, bit, root)``: the trie of :func:`grant_preferences`.

    ``order`` sorts the labels least significant bit first.  Node ``j``
    is the boundary between sorted positions ``j`` and ``j + 1``, and
    key ``2 * j + b`` its side ``b``: ``capacity`` counts the side's
    labels, ``child`` holds the key ``2 * i`` of the node ``i`` below it
    or ``~p`` for the leaf at position ``p``, and ``bit`` is the node's
    bit.  ``root`` is the top node's key.
    """
    n, words = labels.shape
    flipped = reverse_label_bits(labels)
    order = np.lexsort(flipped.T)
    h = highest_differing_bits(flipped[order])
    if h.min() < WORD_BITS * words - dim:
        raise ValueError(f"the grant needs labels unique within {dim} bits")
    left, right = enclosing_boundaries(h)
    m = n - 1
    j = np.arange(m, dtype=np.int64)
    capacity = np.empty(2 * m, dtype=np.int64)
    capacity[0::2] = j - left
    capacity[1::2] = right - j
    # A node hangs below the nearer of its enclosing boundaries, the one
    # with the smaller h: on the right side of the left one, or on the
    # left side of the right one.  The root's slot is the spare last cell.
    top = np.iinfo(np.int64).max
    padded = np.concatenate([[top], h, [top]])
    slot = np.where(padded[left + 1] < padded[right + 1], 2 * left + 1, 2 * right)
    child = np.empty(2 * m + 1, dtype=np.int64)
    child[0::2] = ~np.arange(m + 1, dtype=np.int64)
    child[1::2] = ~(j + 1)
    child[slot] = 2 * j
    bit = np.repeat(WORD_BITS * words - 1 - h, 2)
    return order, child, capacity, bit, 2 * int(np.argmax(h))


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
