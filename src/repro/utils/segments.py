"""Reusable CSR segment reductions.

The hot kernels of the library (batch swap deltas, contraction edge
merging, per-vertex gain accumulation) all reduce an array of per-edge
values into per-vertex (or per-run) aggregates described by a CSR-style
``indptr``.  ``np.add.reduceat`` is the right primitive but has two sharp
edges -- empty segments repeat the element at the segment start instead of
yielding the identity, and a start index equal to ``len(values)`` raises --
so every caller used to hand-roll the same guards.  This module centralizes
the safe versions.

All helpers take ``indptr`` of length ``n_segments + 1`` with
``indptr[0] == 0`` and ``indptr[-1] == len(values)``, exactly the CSR
convention of :class:`repro.graphs.graph.Graph`.

Grouping by integer keys below a known bound (vertex ids, pair ids)
goes through :func:`counting_argsort`, a linear-time stable sort.
"""

from __future__ import annotations

import numpy as np

#: Bits per :func:`counting_argsort` digit.  numpy's stable sort of a
#: ``uint16`` array is a radix sort, so each digit pass is linear.
_DIGIT_BITS = 16
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


def counting_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` below ``bound``.

    Returns the permutation ``np.argsort(keys, kind="stable")`` returns,
    from least-significant-digit passes over 16-bit digits: one pass
    below ``2**16``, two below ``2**32``, three below ``2**48``.
    numpy's stable sort of wider integers is a timsort, so on keys in no
    particular order this is several times faster.
    """
    keys = np.asarray(keys)
    perm = np.argsort((keys & _DIGIT_MASK).astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while (bound - 1) >> shift > 0:
        digit = ((keys[perm] >> shift) & _DIGIT_MASK).astype(np.uint16)
        perm = perm[np.argsort(digit, kind="stable")]
        shift += _DIGIT_BITS
    return perm


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal keys begins (``sorted_keys`` non-empty)."""
    is_start = np.empty(sorted_keys.shape[0], dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_start[1:])
    return np.nonzero(is_start)[0]


def sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the stable order of non-empty ``keys`` and where
    each run of equal keys begins in it.

    numpy's stable sort of wide integers is a timsort, linear on sorted
    runs: the contraction's edge keys arrive nearly sorted (a contracted
    level's edges are sorted and its parents non-decreasing), where it
    beats :func:`counting_argsort` several times over.
    """
    order = np.argsort(keys, kind="stable")
    return order, _run_starts(keys[order])


def run_sums(sorted_values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each run ``sorted_values[starts[i]:starts[i + 1]]``.

    Bit for bit what ``np.add.reduceat(sorted_values, starts)`` returns
    (which adds a run's tail pairwise onto its head), but a length-1 run
    -- most runs when merging parallel edges -- is copied instead of
    reduced.
    """
    sums = sorted_values[starts]
    ends = np.append(starts[1:], sorted_values.shape[0])
    longer = np.nonzero(ends - starts > 1)[0]
    if longer.size:
        # reduceat over (start, end) pairs: the even outputs are the runs.
        bounds = np.empty(2 * longer.size, dtype=np.int64)
        bounds[0::2] = starts[longer]
        bounds[1::2] = ends[longer]
        if bounds[-1] == sorted_values.shape[0]:
            bounds = bounds[:-1]
        sums[longer] = np.add.reduceat(sorted_values, bounds)[::2]
    return sums


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``.

    With ``starts = indptr[rows]`` and ``counts = indptr[rows + 1] -
    starts`` these are the positions of a gather of CSR rows, in row
    order.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.shape[0] else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total, dtype=np.int64)


def _check_indptr(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.shape[0] < 1:
        raise ValueError("indptr must be a 1-D array of length >= 1")
    if indptr[0] != 0 or indptr[-1] != values.shape[0]:
        raise ValueError(
            f"indptr must span values exactly: indptr[0]={int(indptr[0])}, "
            f"indptr[-1]={int(indptr[-1])}, len(values)={values.shape[0]}"
        )
    return indptr


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sums: ``out[i] = values[indptr[i]:indptr[i+1]].sum()``.

    Empty segments sum to 0 (unlike raw ``np.add.reduceat``).
    """
    values = np.asarray(values)
    indptr = _check_indptr(values, indptr)
    n = indptr.shape[0] - 1
    out = np.zeros(n, dtype=np.result_type(values.dtype))
    if values.shape[0] == 0 or n == 0:
        return out
    counts = np.diff(indptr)
    nonempty = counts > 0
    # With empty segments dropped, consecutive non-empty starts delimit
    # exactly the non-empty ranges, so reduceat is safe and exact.
    out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def group_reduce_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` grouped by ``keys``: ``(unique_keys, sums)``.

    The sort/unique/reduceat idiom that contraction (parallel-edge
    merging) and several kernels previously hand-rolled; ``unique_keys``
    comes back sorted ascending and ``sums[i]`` is the total of the
    values whose key equals ``unique_keys[i]``, added in position order.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ValueError(
            f"keys and values must align: {keys.shape} vs {values.shape}"
        )
    if keys.size == 0:
        return keys.copy(), values.copy()
    order, starts = sorted_runs(keys)
    return keys[order[starts]], run_sums(values[order], starts)


def group_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each element within its key group, in position order.

    ``out[i]`` counts the earlier positions ``j < i`` with ``keys[j] ==
    keys[i]``.  Used by the label assembler to grant per-suffix digit
    capacities in vertex order; extracted here because it is the same
    stable-sort run-decomposition that underlies the other helpers.
    ``keys`` are non-negative integers.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    if keys.min() < 0:
        raise ValueError("group_ranks keys must be non-negative")
    order = counting_argsort(keys, int(keys.max()) + 1)
    starts = _run_starts(keys[order])
    run_lengths = np.diff(np.append(starts, keys.shape[0]))
    ranks = np.empty(keys.shape[0], dtype=np.int64)
    ranks[order] = np.arange(keys.shape[0]) - np.repeat(starts, run_lengths)
    return ranks


def build_csr(
    n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, indices, weights)`` from undirected edges.

    Each edge ``{u, v, w}`` appears in both directions, matching the layout
    of :class:`repro.graphs.graph.Graph`: row ``u`` lists its entries in
    edge order, the edges where ``u`` is the first endpoint before those
    where it is the second.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    ws = np.asarray(ws, dtype=np.float64)
    src = np.concatenate([us, vs])
    dst = np.concatenate([vs, us])
    wt = np.concatenate([ws, ws])
    order = counting_argsort(src, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], wt[order]
