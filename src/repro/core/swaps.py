"""Greedy sibling-label swap pass (Algorithm 1, lines 10-12).

On every hierarchy level, the candidate moves are exchanges of *sibling*
labels: two vertices whose labels agree on everything except the least
significant digit.  Such a swap changes only the LSB contribution of the
two vertices' incident edges, so its effect on the level's ``Coco+``
estimate is computable in ``O(deg(u) + deg(v))``:

    delta = sign * [ sum_{t~u, t!=v} w(u,t) * (1 - 2*(b_u xor b_t))
                   + sum_{t~v, t!=u} w(v,t) * (1 - 2*(b_v xor b_t)) ]

where ``b_x`` is the LSB of ``x``'s current label and ``sign`` is +1 when
the level's LSB is an lp bit (it contributes to Coco) and -1 when it is an
le bit (it contributes to -Div).  The pass greedily applies every swap
with negative delta, in ascending label-prefix order, optionally repeating
until stable.

The production path is the vectorized batch kernel in
:mod:`repro.core.kernels` (one gather of the pair vertices' CSR rows +
segment reduction for *all* pairs, conflict-free commit rounds
equivalent to the sequential sweep).
The original scalar sweep is kept as :func:`swap_pass_reference` -- it is
the ground truth for the equivalence tests and the "before" side of the
kernel benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import LevelView
from repro.core.contraction import Level, sibling_mask
from repro.core.kernels import (
    batch_pair_deltas,
    batch_swap_pass,
    level_csr,
    pair_delta,
    pair_interactions,
    pair_row_gains,
    pair_rows,
    sibling_pair_weights,
    sibling_pairs,
)
from repro.utils.bitops import label_lsb, swap_label_rows
from repro.utils.segments import build_csr, counting_argsort

__all__ = [
    "sibling_pairs",
    "swap_pass",
    "swap_pass_reference",
    "kl_swap_pass",
    "kl_swap_pass_reference",
]


def swap_pass(
    level: Level | LevelView,
    sign: int,
    sweeps: int = 1,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float]:
    """Run greedy sibling swaps on ``level`` (labels mutate in place).

    Returns ``(n_swaps, total_delta)`` where ``total_delta`` is the summed
    (negative) change of the level's ``Coco+`` estimate.  Delegates to the
    vectorized :func:`repro.core.kernels.batch_swap_pass`, which produces
    the same final labeling as the scalar sweep.  On a block hierarchy's
    view the pass is part of its block's solve
    (:meth:`~repro.core.blocks.LevelView.swap_pass`), which returns the
    same pair.
    """
    if isinstance(level, LevelView):
        return level.swap_pass(sign, sweeps)
    return batch_swap_pass(level, sign, sweeps=sweeps, csr=csr)


def swap_pass_reference(level: Level, sign: int, sweeps: int = 1) -> tuple[int, float]:
    """The original scalar greedy sweep (per-pair Python loop).

    Kept verbatim as the semantic reference: the batch kernel must match
    its final labeling byte-for-byte on integer-weight levels.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    labels = level.labels
    if labels.shape[0] < 2 or level.us.size == 0:
        return 0, 0.0
    indptr, indices, weights = build_csr(level.n, level.us, level.vs, level.ws)
    n_swaps = 0
    total_delta = 0.0
    for _ in range(max(1, sweeps)):
        swapped_this_sweep = 0
        pairs = sibling_pairs(labels)
        for u, v in pairs:
            u, v = int(u), int(v)
            delta = pair_delta(labels, indptr, indices, weights, u, v, sign)
            if delta < 0.0:
                swap_label_rows(labels, u, v)
                n_swaps += 1
                swapped_this_sweep += 1
                total_delta += delta
        if swapped_this_sweep == 0:
            break
    return n_swaps, total_delta


def kl_swap_pass(
    level: Level,
    sign: int,
    sweeps: int = 1,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float]:
    """Kernighan-Lin-style swap pass (the paper's future-work variant).

    Where :func:`swap_pass` applies only immediately-improving swaps, this
    pass executes a full *sequence* of sibling swaps in best-gain-first
    order -- including negative-gain moves that may unlock later gains --
    and then rolls back to the best prefix of the sequence, exactly like
    classic KL/FM.  Each sibling pair moves at most once per sweep.

    Same contract as :func:`swap_pass`: labels mutate in place, the label
    multiset is preserved, returns ``(n_swaps_kept, total_delta)`` with
    ``total_delta <= 0``.

    Gain maintenance is fully vectorized on the batch kernels: the
    initial table comes from :func:`~repro.core.kernels.pair_row_gains`
    and every execution updates the affected gains through the
    precomputed :func:`~repro.core.kernels.pair_interactions` edge list,
    both read off one gather of the pair rows per sweep (the pairs'
    orientation follows the labels, and the gain updates add in its
    order).
    Within one sequence a vertex LSB flips at most once, so the gain pair
    ``q`` sees is exactly ``d_q^0 - 2 * sum over executed pairs j of the
    start-of-sweep contributions between q and j`` -- no per-pair
    adjacency slicing remains (the closed form the batch greedy fixpoint
    already relies on).  Final labelings are byte-identical to
    :func:`kl_swap_pass_reference` whenever edge weights are exactly
    representable (integer-valued, as on all contracted levels of
    unit-weight graphs).
    """
    import heapq

    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    labels = level.labels
    if labels.shape[0] < 2:
        return 0, 0.0
    if csr is None:
        csr = level_csr(level)
    if csr[1].size == 0:
        return 0, 0.0
    kept_swaps = 0
    kept_delta = 0.0
    for _ in range(max(1, sweeps)):
        pairs = sibling_pairs(labels, level.order, sibling_mask(level))
        k = pairs.shape[0]
        if k == 0:
            break
        done = np.zeros(k, dtype=bool)
        rows = pair_rows(level, pairs, csr)
        current = pair_row_gains(labels, rows, sign)
        # Interaction list grouped by the *swapping* pair: when pair j
        # executes, entry (own=q, dst=j) contributes -2 * c0 to q's gain,
        # with c0 the signed start-of-sweep LSB contribution of its edge.
        own, dst, src, nbr, wt = pair_interactions(rows)
        b = label_lsb(labels)
        c0 = sign * (wt * (1.0 - 2.0 * (b[src] ^ b[nbr])))
        by_dst = counting_argsort(dst, k)
        own_by_dst = own[by_dst]
        c0_by_dst = c0[by_dst]
        dst_indptr = np.searchsorted(dst[by_dst], np.arange(k + 1))
        heap: list[tuple[float, int, float]] = [
            (float(current[pid]), pid, float(current[pid])) for pid in range(k)
        ]
        heapq.heapify(heap)
        executed: list[int] = []
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        while heap:
            d, pid, d_rec = heapq.heappop(heap)
            if done[pid] or current[pid] != d_rec:
                continue
            u, v = int(pairs[pid][0]), int(pairs[pid][1])
            done[pid] = True
            swap_label_rows(labels, u, v)
            executed.append(pid)
            cum += d
            if cum < best_cum - 1e-12:
                best_cum = cum
                best_len = len(executed)
            # Batch gain update for every pair touching the executed one.
            lo, hi = int(dst_indptr[pid]), int(dst_indptr[pid + 1])
            if lo == hi:
                continue
            owners = own_by_dst[lo:hi]
            np.subtract.at(current, owners, 2.0 * c0_by_dst[lo:hi])
            for qid in np.unique(owners):
                if not done[qid]:
                    d_new = float(current[qid])
                    heapq.heappush(heap, (d_new, int(qid), d_new))
        # roll back past the best prefix
        for pid in executed[best_len:]:
            u, v = int(pairs[pid][0]), int(pairs[pid][1])
            swap_label_rows(labels, u, v)
        kept_swaps += best_len
        kept_delta += best_cum
        if best_len == 0:
            break
    return kept_swaps, kept_delta


def kl_swap_pass_reference(
    level: Level,
    sign: int,
    sweeps: int = 1,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float]:
    """The original KL pass with scalar heap-gain recomputation.

    Kept verbatim as the semantic ground truth for the vectorized
    :func:`kl_swap_pass`: the equivalence test drives both over the same
    hierarchy levels and asserts byte-identical final labelings.
    """
    import heapq

    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    labels = level.labels
    if labels.shape[0] < 2 or level.us.size == 0:
        return 0, 0.0
    if csr is None:
        csr = level_csr(level)
    indptr, indices, weights = csr
    kept_swaps = 0
    kept_delta = 0.0
    for _ in range(max(1, sweeps)):
        pairs = sibling_pairs(labels)
        if pairs.shape[0] == 0:
            break
        # pair id per vertex for gain invalidation
        pair_of = {}
        for pid, (u, v) in enumerate(pairs):
            pair_of[int(u)] = pid
            pair_of[int(v)] = pid
        done = np.zeros(pairs.shape[0], dtype=bool)
        pair_w = sibling_pair_weights(level, pairs)
        current = batch_pair_deltas(labels, pairs, csr, sign, pair_w)
        heap: list[tuple[float, int, float]] = [
            (float(current[pid]), pid, float(current[pid]))
            for pid in range(pairs.shape[0])
        ]
        heapq.heapify(heap)
        executed: list[int] = []
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        while heap:
            d, pid, d_rec = heapq.heappop(heap)
            if done[pid] or current[pid] != d_rec:
                continue
            u, v = int(pairs[pid][0]), int(pairs[pid][1])
            d_now = pair_delta(labels, indptr, indices, weights, u, v, sign)
            if d_now != d_rec:
                current[pid] = d_now
                heapq.heappush(heap, (d_now, pid, d_now))
                continue
            done[pid] = True
            swap_label_rows(labels, u, v)
            executed.append(pid)
            cum += d_now
            if cum < best_cum - 1e-12:
                best_cum = cum
                best_len = len(executed)
            # invalidate gains of pairs adjacent to u or v
            for a in (u, v):
                for t in indices[indptr[a] : indptr[a + 1]]:
                    qid = pair_of.get(int(t))
                    if qid is not None and not done[qid]:
                        x, y = int(pairs[qid][0]), int(pairs[qid][1])
                        d_new = pair_delta(
                            labels, indptr, indices, weights, x, y, sign
                        )
                        if d_new != current[qid]:
                            current[qid] = d_new
                            heapq.heappush(heap, (d_new, qid, d_new))
        # roll back past the best prefix
        for pid in executed[best_len:]:
            u, v = int(pairs[pid][0]), int(pairs[pid][1])
            swap_label_rows(labels, u, v)
        kept_swaps += best_len
        kept_delta += best_cum
        if best_len == 0:
            break
    return kept_swaps, kept_delta
