"""njit kernel factory behind the ``numba`` / ``numba-parallel`` backends.

Importing this module requires numba; :mod:`repro.core.backend` only
imports it lazily, from inside ``NumbaBackend``, after an availability
check -- the base image does not ship numba and every public entry point
must keep working without it.

:func:`build_kernels` compiles one kernel set per parallelism flag.  The
serial and parallel tiers share a single source: every data-parallel
loop is written with ``numba.prange``, which lowers to a plain ``range``
under ``parallel=False`` and to a thread-parallel loop under
``parallel=True``.  All kernels are written so the parallel iterations
touch disjoint output slots and keep any floating-point accumulation
*inside* one iteration in a fixed order -- that is what preserves the
byte-identity contract of the backend seam (see the equivalence suite in
``tests/core/test_backend_equivalence.py``).

Kernels
-------
``vertex_lsb_sums``
    The inner reduction of the batch swap pass over the sibling-pair
    rows it gathers; one independent accumulation per row (prange over
    rows).
``greedy_fixpoint``
    The sequential-sweep fixpoint solve of ``batch_swap_pass``,
    restructured from numpy's masked ``bincount`` into a CSR-style
    per-pair segment sum (prange over pairs).  The caller groups the
    interaction entries by owning pair with a *stable* sort, so each
    pair's correction adds its edges in exactly the order the reference
    ``np.bincount`` does.
``all_pairs_bitset``
    The bit-packed multi-source BFS, sharded by source words: sources
    ``64*w .. 64*w + 63`` form one shard whose reached/frontier state is
    a single ``uint64`` per vertex, and shards run thread-parallel
    (prange over shards) writing disjoint column blocks of the distance
    matrix.
``pairwise_hamming`` / ``popcount_rows``
    SWAR (SIMD-within-a-register) popcount paths over the label words;
    the pairwise kernel never materializes the ``(n, n, W)`` XOR tensor the
    numpy path has to block over.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_U0 = np.uint64(0)
_U1 = np.uint64(1)


@njit(cache=True, inline="always")
def _popcount64(x):
    # Classic SWAR popcount; exact for the full uint64 range.
    x = x - ((x >> _U1) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return (x * _H01) >> np.uint64(56)


def build_kernels(parallel: bool) -> dict:
    """Compile the kernel set for one parallelism flag."""

    @njit(cache=True, parallel=parallel)
    def vertex_lsb_sums(lsb, rows, indptr, indices, weights):
        n = rows.shape[0]
        out = np.zeros(n, dtype=np.float64)
        for i in prange(n):
            lu = lsb[rows[i]]
            acc = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                x = lu ^ lsb[indices[k]]
                acc += weights[k] * (1.0 - 2.0 * x)
            out[i] = acc
        return out

    @njit(cache=True, parallel=parallel)
    def greedy_fixpoint(deltas0, own_indptr, dst_g, c0_g):
        k = deltas0.shape[0]
        swap = deltas0 < 0.0
        deltas = deltas0.copy()
        new_swap = np.empty(k, dtype=np.bool_)
        for _ in range(k + 1):
            for i in prange(k):
                corr = 0.0
                for e in range(own_indptr[i], own_indptr[i + 1]):
                    if swap[dst_g[e]]:
                        corr += c0_g[e]
                d = deltas0[i] - 2.0 * corr
                deltas[i] = d
                new_swap[i] = d < 0.0
            changed = False
            for i in range(k):
                if new_swap[i] != swap[i]:
                    changed = True
                    break
            if not changed:
                break
            swap = new_swap.copy()
        return swap, deltas

    @njit(cache=True, parallel=parallel)
    def all_pairs_bitset(indptr, indices, n, dist):
        words = (n + 63) // 64
        for w in prange(words):
            s0 = w * 64
            cnt = min(64, n - s0)
            reached = np.zeros(n, dtype=np.uint64)
            frontier = np.zeros(n, dtype=np.uint64)
            for j in range(cnt):
                bit = _U1 << np.uint64(j)
                reached[s0 + j] = bit
                frontier[s0 + j] = bit
                dist[s0 + j, s0 + j] = 0
            level = 0
            active = True
            while active:
                level += 1
                active = False
                nxt = np.zeros(n, dtype=np.uint64)
                for v in range(n):
                    acc = _U0
                    for e in range(indptr[v], indptr[v + 1]):
                        acc |= frontier[indices[e]]
                    new = acc & ~reached[v]
                    if new != _U0:
                        reached[v] |= new
                        nxt[v] = new
                        active = True
                        for j in range(cnt):
                            if (new >> np.uint64(j)) & _U1:
                                dist[v, s0 + j] = level
                frontier = nxt

    @njit(cache=True, parallel=parallel)
    def pairwise_hamming(labels, out):
        n, width = labels.shape
        for i in prange(n):
            for j in range(n):
                acc = _U0
                for w in range(width):
                    acc += _popcount64(labels[i, w] ^ labels[j, w])
                out[i, j] = np.int64(acc)

    @njit(cache=True, parallel=parallel)
    def popcount_rows(rows):
        n, width = rows.shape
        out = np.empty(n, dtype=np.int64)
        for i in prange(n):
            acc = _U0
            for w in range(width):
                acc += _popcount64(rows[i, w])
            out[i] = np.int64(acc)
        return out

    return {
        "vertex_lsb_sums": vertex_lsb_sums,
        "greedy_fixpoint": greedy_fixpoint,
        "all_pairs_bitset": all_pairs_bitset,
        "pairwise_hamming": pairwise_hamming,
        "popcount_rows": popcount_rows,
    }
