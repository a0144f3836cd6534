"""A hierarchy's greedy swap passes, solved a block of levels at a time.

A sibling swap exchanges two labels that differ only in their least
significant digit, so it never changes a prefix ``labels >> 1``.  A
hierarchy's levels, their sibling pairs and their parents are therefore
fixed by the permuted labels it starts from, sorted once into ``X``, and
no level's swap pass depends on another's.  With ``h[j]`` the highest bit
where ``X[j]`` and ``X[j + 1]`` differ (:func:`highest_differing_bits`):

- level ``l``'s vertices are the runs of ``X`` between the boundaries
  ``j`` with ``h[j] >= l - 1``, numbered in position order (the walk's
  numbering);
- its sibling pairs are the boundaries with ``h[j] == l - 1``, in
  position order, which is the greedy sweep's order;
- a pair's region, its two runs, reaches to the nearest boundary with a
  larger ``h`` on each side (:func:`enclosing_boundaries`); it is the
  pair's parent on level ``l + 1``.

**A gain without the level's graph.**  The walk's gain of a pair is
``sign * (S[u] + S[v] + 2 * pair_w)`` (:mod:`repro.core.kernels`).  Over
the edges ``(x, y)`` of any coarser-or-equal graph with ``x`` in the
region and ``y`` outside it, ``w * (1 - 2 * (bit_x ^ bit_y))`` with the
bits at ``l - 1`` sums to the same: the edges inside the region are the
pair edge, which the ``2 * pair_w`` cancels, and edges inside ``u`` or
``v`` are gone on level ``l``.  An edge whose ``y`` lies in an earlier
pair's region on the same level is an interaction entry of the greedy
fixpoint.  On exact weights (:func:`~repro.graphs.graph.exact_weights`)
every gain is an exact integer however it is summed, so the gains, the
swap decisions and the totals equal the walk's bit for bit.

**Blocks.**  The passes of several levels run as one: their pairs'
regions are gathered from one base graph, whose vertices are the runs of
the block's first level, and one batched ``greedy_fixpoint`` takes every
pair in (level, position) order, so each interaction stays inside its
level.  ``sweeps > 1`` runs batched sweeps; a level stops after a sweep
without a swap, as on the walk.  A block ends where the rows it gathers
would pass :data:`BLOCK_ENTRIES` times its base graph's entries; then
the base graph is contracted by all of the block's merges, parallel
edges summed.

**Levels as views.**  The enhancer still calls ``swap_pass`` and
``contract_level`` once per level (:class:`LevelView`): the first
``swap_pass`` of a block solves it, and each call returns its own
level's ``(n_swaps, total_delta)``.  A view holds no arrays; its size
is one more than the boundaries with ``h >= l - 1``.

**Preferences from the flips.**  Assembly wants digit ``l - 1`` of each
vertex to be the post-swap LSB of its level-``l`` ancestor: bit
``l - 1`` of ``X`` at the vertex's position, flipped if the ancestor's
pair swapped an odd number of times.  That pair's region is the
ancestor's run together with its sibling's, so each flipped pair flips
bit ``l - 1`` of a contiguous stretch of ``X``, and every vertex's
preferred label is ``X`` XOR the prefix XOR of one difference per region
end (:meth:`BlockHierarchy.preferences`) -- no parent or LSB array per
level.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import current_backend
from repro.utils.bitops import WORD_BITS, argsort_labels
from repro.utils.segments import concat_ranges, run_sums, sorted_runs

#: A block takes levels while the CSR rows its pairs gather stay within
#: ``BLOCK_ENTRIES`` times the entries of its base graph (at least one
#: level).  Fewer levels per block pay more numpy calls; more pay for
#: regions that later merges would have shrunk.
BLOCK_ENTRIES = 2

_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def highest_differing_bits(x: np.ndarray) -> np.ndarray:
    """``h[j]``: the highest bit where rows ``j`` and ``j + 1`` of ``x`` differ.

    ``x`` is an ``(n, W)`` label array; equal rows give ``-1``.  One pass
    over the words, low to high, so a higher differing word overrides;
    a word's bit length comes from ``frexp`` of its two 32-bit halves,
    which convert to floats exactly.
    """
    h = np.full(max(x.shape[0] - 1, 0), -1, dtype=np.int64)
    for w in range(x.shape[1]):
        diff = x[1:, w] ^ x[:-1, w]
        hi = np.frexp((diff >> _32).astype(np.float64))[1]
        lo = np.frexp((diff & _LOW32).astype(np.float64))[1]
        length = np.where(hi > 0, hi + 32, lo)
        h = np.where(length > 0, WORD_BITS * w + length - 1, h)
    return h


def _previous_greater(h: np.ndarray) -> np.ndarray:
    """For each ``j``, the largest ``i < j`` with ``h[i] > h[j]``, else ``-1``.

    Pointer jumping: every link starts at its left neighbour and jumps
    along its target's link while the target is not larger.  Everything
    a link passes is at most ``h[j]``, so it stops at the answer, and
    each round looks only at the links that jumped in the last.
    """
    key = np.concatenate([[np.iinfo(np.int64).max], h])
    link = np.arange(-1, h.shape[0], dtype=np.int64)
    link[0] = 0
    jump = np.arange(1, h.shape[0] + 1, dtype=np.int64)
    while jump.size:
        jump = jump[key[link[jump]] <= key[jump]]
        link[jump] = link[link[jump]]
    return link[1:] - 1


def enclosing_boundaries(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)``: each boundary's nearest boundaries with a larger ``h``.

    ``-1`` and ``len(h)`` stand for the ends of ``X``.  Two boundaries
    with equal ``h`` always have a larger one between them, so a pair's
    region is ``left + 1 .. right`` in ``X`` positions.
    """
    m = h.shape[0]
    return _previous_greater(h), m - 1 - _previous_greater(h[::-1])[::-1]


def _merged_csr(n: int, src: np.ndarray, dst: np.ndarray, wts: np.ndarray) -> tuple:
    """CSR of the entries ``src -> dst``, equal entries summed, rows by neighbour."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    if not src.size:
        return indptr, dst, wts
    order, starts = sorted_runs(src * n + dst)
    first = order[starts]
    np.cumsum(np.bincount(src[first], minlength=n), out=indptr[1:])
    return indptr, dst[first], run_sums(wts[order], starts)


class BlockHierarchy:
    """One hierarchy's shape, base graph and swap results (module docstring).

    ``csr`` is the finest graph's ``(indptr, indices, weights)`` over the
    caller's vertex ids, with exact weights and no self-loops; ``labels``
    are the permuted, unique labels (never modified).  Level ``l``
    swaps with ``signs[l - 1]`` and ``sweeps`` sweeps, for ``l`` from 1
    to ``top``.
    """

    def __init__(
        self,
        csr: tuple,
        labels: np.ndarray,
        signs: np.ndarray,
        sweeps: int,
        top: int,
    ) -> None:
        n = labels.shape[0]
        self.n = n
        self.labels = labels
        self.signs = signs
        self.sweeps = max(1, sweeps)
        self.top = top
        self.order = argsort_labels(labels)
        self.x = np.take(labels, self.order, axis=0)
        self.h = highest_differing_bits(self.x)
        if np.any(self.h < 0):
            raise ValueError("a block hierarchy needs unique labels")
        # Every boundary is one sibling pair, on level h + 1; the ones up
        # to ``top`` swap, in (level, position) order.
        by_level = np.argsort(self.h, kind="stable")
        self.sorted_h = self.h[by_level]
        self.pair_at = by_level[: int(np.searchsorted(self.sorted_h, top))]
        self.pair_level = self.h[self.pair_at] + 1
        self.level_ptr = np.searchsorted(self.pair_level, np.arange(top + 2))
        left, right = enclosing_boundaries(self.h)
        self.lo = left[self.pair_at] + 1
        self.hi = right[self.pair_at] + 1
        self.flips = np.zeros(self.pair_at.shape[0], dtype=bool)
        self.n_swaps = np.zeros(top + 1, dtype=np.int64)
        self.total = np.zeros(top + 1, dtype=np.float64)
        self.solved = 0
        # The base graph: vertices are the runs starting at ``starts``.
        indptr, indices, weights = csr
        rank = np.empty(n, dtype=np.int64)
        rank[self.order] = np.arange(n, dtype=np.int64)
        src = np.repeat(rank, np.diff(indptr))
        self.starts = np.arange(n, dtype=np.int64)
        self.csr = _merged_csr(n, src, rank[indices], weights)

    def finest(self) -> LevelView:
        return LevelView(self, 1)

    def swap_pass(self, level: int, sign: int, sweeps: int) -> tuple[int, float]:
        """Level ``level``'s ``(n_swaps, total_delta)``, solving its block first."""
        if not 1 <= level <= self.top:
            raise ValueError(f"level {level} does not swap (levels 1..{self.top} do)")
        if sign != self.signs[level - 1] or max(1, sweeps) != self.sweeps:
            raise ValueError("a block hierarchy swaps with the signs and sweeps it was built with")
        if level > self.solved:
            self._solve_block(level)
        return int(self.n_swaps[level]), float(self.total[level])

    def _contract_base(self, level: int) -> None:
        """Merge the base graph's runs into level ``level``'s runs."""
        starts = self.starts
        keep = self.h[starts[1:] - 1] >= level - 1
        if keep.all():
            return
        coarse = np.concatenate([[0], np.cumsum(keep)])
        indptr, indices, weights = self.csr
        src = np.repeat(coarse, np.diff(indptr))
        dst = coarse[indices]
        outer = src != dst
        self.csr = _merged_csr(int(coarse[-1]) + 1, src[outer], dst[outer], weights[outer])
        self.starts = starts[np.concatenate([[True], keep])]

    def _solve_block(self, level: int) -> None:
        """Solve the passes of ``level`` and the levels after it in its block."""
        self._contract_base(level)
        indptr, indices, weights = self.csr
        starts = self.starts
        p0 = int(self.level_ptr[level])
        # Rows gathered per pair, for every pair left; the block is the
        # longest run of levels within the budget.
        a = np.searchsorted(starts, self.lo[p0:])
        b = np.searchsorted(starts, self.hi[p0:])
        sizes = indptr[b] - indptr[a]
        gathered = np.concatenate([[0], np.cumsum(sizes)])
        through = gathered[self.level_ptr[level + 1 :] - p0]
        budget = BLOCK_ENTRIES * int(indptr[-1])
        last = level + max(int(np.searchsorted(through, budget, side="right")) - 1, 0)
        self.solved = last
        k = int(self.level_ptr[last + 1]) - p0
        if not k:
            return
        a, b, counts = a[:k], b[:k], sizes[:k]
        mid = np.searchsorted(starts, self.pair_at[p0 : p0 + k] + 1)
        lev = self.pair_level[p0 : p0 + k]
        # One entry per base edge leaving a region: x in the region (right
        # run: bit 1), y outside it.
        at = concat_ranges(indptr[a], counts)
        own = np.repeat(np.arange(k, dtype=np.int64), counts)
        y = indices[at]
        out = (y < a[own]) | (y >= b[own])
        at, own, y = at[out], own[out], y[out]
        bit = lev[own] - 1
        words = self.x.shape[1]
        word = self.x.ravel()[starts[y] * words + bit // WORD_BITS]
        bit_y = (word >> (bit % WORD_BITS).astype(np.uint64)) & np.uint64(1)
        bit_x = at >= indptr[mid][own]
        # sign * w * (1 - 2 * (bit_x ^ bit_y)) at the start of the first sweep
        start_c = self.signs[bit] * weights[at] * (1 - 2 * (bit_x ^ bit_y.astype(bool)))
        # y's pair on the same level, if y lies in a region there, from a
        # table with one cell per level of the block and base vertex.
        n_levels = last - level + 1
        n0 = starts.shape[0]
        pair_of = np.full(n_levels * n0, -1, dtype=np.int64)
        span = b - a
        pair_of[concat_ranges((lev - level) * n0 + a, span)] = np.repeat(
            np.arange(k, dtype=np.int64), span
        )
        q = pair_of[(bit - (level - 1)) * n0 + y]
        paired = q >= 0
        inter = np.flatnonzero(paired & (q < own))
        own_i, dst_i = own[inter], q[inter]
        live = np.ones(k, dtype=bool)
        flips = np.zeros(k, dtype=bool)
        backend = current_backend()
        contrib = start_c
        for sweep in range(self.sweeps):
            if sweep:
                # A level stops after a sweep without a swap, and a swap
                # flips the bits of its whole region.
                live = (counts > 0)[lev - level]
                inter = inter[live[own_i]]
                own_i, dst_i = own[inter], q[inter]
                contrib = start_c * (1 - 2 * (flips[own] ^ (paired & flips[q])))
            deltas0 = np.bincount(own, weights=contrib, minlength=k)
            deltas0[~live] = 0.0
            swap, deltas = backend.greedy_fixpoint(deltas0, own_i, dst_i, contrib[inter])
            swapped_level = lev[swap] - level
            counts = np.bincount(swapped_level, minlength=n_levels)
            self.n_swaps[level : last + 1] += counts
            self.total[level : last + 1] += np.bincount(
                swapped_level, weights=deltas[swap], minlength=n_levels
            )
            flips ^= swap
            if not counts.any():
                break
        self.flips[p0 : p0 + k] = flips

    def preferences(self) -> np.ndarray:
        """Every vertex's preferred label ``P`` (module docstring), by caller id.

        A pair of level ``l`` that swapped an odd number of times flips
        bit ``l - 1`` across its region: an XOR difference at the
        region's two ends, then one prefix XOR along ``X``.
        """
        n, words = self.x.shape
        flipped = np.flatnonzero(self.flips)
        bit = self.pair_level[flipped] - 1
        at = bit // WORD_BITS
        value = np.left_shift(np.uint64(1), (bit % WORD_BITS).astype(np.uint64))
        diff = np.zeros((n + 1) * words, dtype=np.uint64)
        np.bitwise_xor.at(diff, self.lo[flipped] * words + at, value)
        np.bitwise_xor.at(diff, self.hi[flipped] * words + at, value)
        flip = np.bitwise_xor.accumulate(diff.reshape(n + 1, words)[:n], axis=0)
        prefs = np.empty_like(self.x)
        prefs[self.order] = self.x ^ flip
        return prefs

    def level_size(self, level: int) -> int:
        """Vertex count of level ``level``: one more than its boundaries."""
        return self.n - int(np.searchsorted(self.sorted_h, level - 1))


class LevelView:
    """Level ``index`` of a :class:`BlockHierarchy`, as the walk sees a level.

    A view holds no arrays: its size comes from the hierarchy's shape,
    its swap pass from the hierarchy's block solve, and assembly reads
    the hierarchy's :meth:`~BlockHierarchy.preferences` directly.
    """

    def __init__(self, hierarchy: BlockHierarchy, index: int) -> None:
        self.hierarchy = hierarchy
        self.index = index

    @property
    def n(self) -> int:
        return self.hierarchy.level_size(self.index)

    def swap_pass(self, sign: int, sweeps: int) -> tuple[int, float]:
        return self.hierarchy.swap_pass(self.index, sign, sweeps)

    def contract(self) -> LevelView:
        """The next-coarser view."""
        return LevelView(self.hierarchy, self.index + 1)
