"""Vectorized batch-swap kernels for TIMER's hot loops (paper §6.3).

The running-time analysis promises ``O(|E|)`` per-level swap sweeps, but
the scalar implementation pays a Python-loop constant per sibling pair:
every gain evaluation slices fresh numpy views for both endpoints.  The
kernels here evaluate the gains of *all* sibling pairs in one vectorized
pass and apply improving swaps in conflict-free rounds whose outcome is
**provably identical** to the scalar greedy sweep in ascending
label-prefix order.

How the batch gain works
------------------------
A sibling swap exchanges the labels of a pair ``(u, v)`` that differ only
in bit 0, so only the LSB contribution of their incident edges moves.  Per
directed CSR entry ``a -> t`` the contribution is

    c(a, t) = w(a, t) * (1 - 2 * ((l_a ^ l_t) & 1))

and the pair's gain is ``sign * (S[u] + S[v] - c(u, v) - c(v, u))`` where
``S`` is the per-vertex segment sum of ``c`` over the CSR layout
(``np.add.reduceat``).  Because siblings always differ in bit 0,
``c(u, v) = -w(u, v)``, so the correction is ``+ 2 * w(u, v)``.

Greedy-equivalent conflict resolution
-------------------------------------
The scalar sweep applies swaps sequentially, so a pair's gain can depend
on earlier swaps.  The dependence has a closed form: within one sweep a
vertex LSB flips at most once (its pair swaps at most once), so the gain
pair ``i`` sees at its turn is

    d_i = d_i^0 - 2 * sum_{j < i, pair j swapped} C[i, j]

where ``d^0`` are the start-of-sweep batch gains and ``C[i, j]`` sums the
initial contributions ``c`` of the edges between the endpoints of pairs
``i`` and ``j``.  The sweep outcome is therefore the unique fixpoint of
``s_i = [d_i^0 - 2 * sum_{j<i} C[i,j] * s_j < 0]``, which the kernel
solves by synchronous iteration from the seed ``s = d^0 < 0``.  If an
iterate agrees with the true outcome on all pairs before position ``p``,
the next iterate is also correct at ``p`` (corrections only flow from
earlier pairs), so the correct prefix grows every iteration and the
iteration terminates in at most ``k`` steps -- in practice a handful,
because corrections only propagate along edges whose earlier endpoint
actually swaps.  The result is byte-identical to the scalar reference
whenever edge weights are exactly representable (e.g. integer-valued,
which all contracted levels of unit-weight graphs are).

Backend seam
------------
The innermost kernels -- the per-vertex LSB reduction and the fixpoint
solve -- dispatch through the :mod:`repro.core.backend` protocol
(``kernel_backend`` registrations in the unified registry: ``numpy`` /
``numba`` / ``numba-parallel``); select and inspect backends there.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import current_backend
from repro.core.contraction import Level
from repro.utils.bitops import argsort_labels, label_lsb
from repro.utils.segments import build_csr

__all__ = [
    "level_csr",
    "vertex_lsb_sums",
    "sibling_pairs",
    "sibling_pair_weights",
    "pair_interactions",
    "batch_pair_deltas",
    "pair_delta",
    "batch_swap_pass",
]


# ----------------------------------------------------------------------
# Structure helpers
# ----------------------------------------------------------------------
def level_csr(level: Level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached symmetric CSR adjacency of a hierarchy level.

    Built on first use and stored on ``level.csr``; a level's edge arrays
    are immutable (swap passes only permute labels), so one build per
    level suffices no matter how many sweeps or strategies run on it.
    """
    if level.csr is None:
        level.csr = build_csr(level.n, level.us, level.vs, level.ws)
    return level.csr


def sibling_pairs(labels: np.ndarray) -> np.ndarray:
    """``(k, 2)`` array of vertex pairs whose labels differ only in bit 0.

    Pairs are returned in ascending prefix order; labels are assumed
    unique (true on every hierarchy level).  Wide labels sort through
    their big-endian byte keys (:func:`~repro.utils.bitops.label_sort_keys`),
    which order exactly like the packed integers do on the narrow path.
    """
    if labels.ndim == 1:
        order = argsort_labels(labels)
        lab_sorted = labels[order]
        adjacent = (lab_sorted[1:] >> 1) == (lab_sorted[:-1] >> 1)
    else:
        order = argsort_labels(labels)
        lab_sorted = labels[order]
        # Siblings differ only in bit 0 of word 0: compare word 0 >> 1
        # and every higher word verbatim.
        adjacent = (lab_sorted[1:, 0] >> np.uint64(1)) == (
            lab_sorted[:-1, 0] >> np.uint64(1)
        )
        if labels.shape[1] > 1:
            adjacent &= (lab_sorted[1:, 1:] == lab_sorted[:-1, 1:]).all(axis=1)
    first = np.nonzero(adjacent)[0]
    return np.stack([order[first], order[first + 1]], axis=1)


def sibling_pair_weights(level: Level, pairs: np.ndarray) -> np.ndarray:
    """Weight of the (optional) edge inside each sibling pair.

    A swap leaves the pair's internal edge invariant, so its contribution
    must be subtracted from the per-vertex sums; pairs without an internal
    edge get 0.  Works off the level's undirected edge arrays: an edge is
    internal to a pair iff its endpoints are exactly the pair's two
    members (representation-agnostic -- no label comparison needed).
    """
    k = pairs.shape[0]
    out = np.zeros(k, dtype=np.float64)
    if k == 0 or level.us.size == 0:
        return out
    pair_of = np.full(level.n, -1, dtype=np.int64)
    local = np.arange(k, dtype=np.int64)
    pair_of[pairs[:, 0]] = local
    pair_of[pairs[:, 1]] = local
    eu = pair_of[level.us]
    internal = np.nonzero((eu >= 0) & (eu == pair_of[level.vs]))[0]
    if internal.size == 0:
        return out
    # Levels merge parallel edges, but accumulate defensively anyway.
    np.add.at(out, eu[internal], level.ws[internal])
    return out


def pair_interactions(
    pairs: np.ndarray,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    ordered: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR entries whose endpoints lie in two *different* sibling pairs.

    Returns ``(own, dst, src, nbr, wt)`` arrays, one element per directed
    CSR edge ``src -> nbr`` with ``src`` in pair ``own`` and ``nbr`` in
    pair ``dst != own``.  These are exactly the edges whose LSB
    contribution to pair ``own``'s gain flips when pair ``dst`` swaps --
    the interaction structure both the batch greedy fixpoint and the
    vectorized KL gain maintenance are built on.  The layout depends only
    on the pair set (labels swap *within* pairs), so one build serves a
    whole sweep.

    With ``ordered=True`` only entries with ``dst < own`` are kept
    (exactly half the set -- each undirected edge appears once instead of
    twice), applied as part of the single filter pass; this is the subset
    the greedy fixpoint needs, where corrections only flow from
    earlier-ordered pairs.
    """
    indptr, indices, weights = csr
    k = pairs.shape[0]
    pu = pairs[:, 0]
    pv = pairs[:, 1]
    pair_of = np.full(n, -1, dtype=np.int64)
    local = np.arange(k, dtype=np.int64)
    pair_of[pu] = local
    pair_of[pv] = local
    verts = np.concatenate([pu, pv])
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    total = int(counts.sum())
    excl = np.zeros(2 * k, dtype=np.int64)
    np.cumsum(counts[:-1], out=excl[1:])
    ks = np.repeat(starts - excl, counts) + np.arange(total, dtype=np.int64)
    own_full = np.repeat(np.concatenate([local, local]), counts)
    nbrs = indices[ks]
    dst_full = pair_of[nbrs]
    if ordered:
        keep = (dst_full >= 0) & (dst_full < own_full)
    else:
        keep = (dst_full >= 0) & (dst_full != own_full)
    return (
        own_full[keep],
        dst_full[keep],
        np.repeat(verts, counts)[keep],
        nbrs[keep],
        weights[ks[keep]],
    )


# ----------------------------------------------------------------------
# Gain kernels
# ----------------------------------------------------------------------
def vertex_lsb_sums(
    labels: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Per-vertex sum of LSB edge contributions ``w * (1 - 2*((l_u^l_t)&1))``.

    One gather + one segment reduction over the whole CSR -- this is the
    O(|E|) inner kernel of the batch swap pass.  Only the LSB of each
    label matters, so both width regimes reduce to the same int64 bit
    array before any arithmetic (and before the backend dispatch).
    """
    b = label_lsb(labels)
    return current_backend().vertex_lsb_sums(b, indptr, indices, weights)


def batch_pair_deltas(
    labels: np.ndarray,
    pairs: np.ndarray,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    sign: int,
    pair_w: np.ndarray,
) -> np.ndarray:
    """Swap gains of all ``pairs`` in one vectorized pass.

    Equals ``[_swap_delta(labels, *csr, u, v, sign) for u, v in pairs]``
    up to floating-point associativity (exactly, for integer-valued
    weights).  ``pair_w`` comes from :func:`sibling_pair_weights`.
    """
    indptr, indices, weights = csr
    sums = vertex_lsb_sums(labels, indptr, indices, weights)
    # The internal pair edge contributes -w on both sides (siblings always
    # differ in bit 0); excluding it adds +w per endpoint.
    return sign * (sums[pairs[:, 0]] + sums[pairs[:, 1]] + 2.0 * pair_w)


def pair_delta(
    labels: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    u: int,
    v: int,
    sign: int,
) -> float:
    """Scalar reference gain of swapping the sibling labels of ``u, v``.

    Kept as the ground truth the batch kernel is tested against, and as
    the single-pair recompute primitive of the KL pass.
    """
    b = label_lsb(labels)
    delta = 0.0
    for a, other in ((u, v), (v, u)):
        lo, hi = indptr[a], indptr[a + 1]
        nbrs = indices[lo:hi]
        wts = weights[lo:hi]
        keep = nbrs != other
        if not keep.all():
            nbrs = nbrs[keep]
            wts = wts[keep]
        if nbrs.size == 0:
            continue
        xor_bits = b[nbrs] ^ b[a]
        delta += float((wts * (1.0 - 2.0 * xor_bits)).sum())
    return sign * delta


# ----------------------------------------------------------------------
# Batch swap pass
# ----------------------------------------------------------------------
def batch_swap_pass(
    level: Level,
    sign: int,
    sweeps: int = 1,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float]:
    """Greedy sibling-swap pass, vectorized (labels mutate in place).

    Drop-in replacement for the scalar sweep: same ``(n_swaps,
    total_delta)`` contract, same final labeling (see module docstring for
    the equivalence argument).  ``csr`` may be passed when the caller
    already holds the level's adjacency; otherwise it is built once and
    cached on the level.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    labels = level.labels
    if labels.shape[0] < 2 or level.us.size == 0:
        return 0, 0.0
    if csr is None:
        csr = level_csr(level)
    indptr, indices, weights = csr
    n = labels.shape[0]
    n_swaps = 0
    total_delta = 0.0
    # A swap exchanges labels *within* a pair, so the pair set, its prefix
    # order, the per-vertex pair index and the whole pair-interaction
    # layout are invariant across sweeps -- build them once.  Only the
    # labels-dependent values (gains and contribution signs) change.
    pairs = sibling_pairs(labels)
    k = pairs.shape[0]
    if k == 0:
        return 0, 0.0
    pu = pairs[:, 0]
    pv = pairs[:, 1]
    pair_w = sibling_pair_weights(level, pairs)
    # Pair-interaction list restricted to entries (a, t) with ``a`` in
    # pair ``own`` and ``t`` in an *earlier-ordered* pair ``dst`` --
    # exactly the edges whose contribution flips when pair ``dst`` swaps
    # before pair ``own`` is evaluated.
    own, dst, src_keep, nbrs_keep, w_keep = pair_interactions(
        pairs, csr, n, ordered=True
    )
    backend = current_backend()
    for _ in range(max(1, sweeps)):
        # Start-of-sweep gains for every pair in one vectorized pass.
        deltas0 = batch_pair_deltas(labels, pairs, csr, sign, pair_w)
        b = label_lsb(labels)
        c0 = sign * (w_keep * (1.0 - 2.0 * (b[src_keep] ^ b[nbrs_keep])))
        # Solve the sequential-sweep fixpoint by synchronous iteration:
        # the correct prefix of the decision vector grows every step, so
        # at most k iterations -- in practice a handful.  The solve is a
        # backend kernel (compiled + thread-parallel on the numba tiers).
        swap, deltas = backend.greedy_fixpoint(deltas0, own, dst, c0)
        cu, cv = pu[swap], pv[swap]
        if cu.size:
            tmp = labels[cu].copy()
            labels[cu] = labels[cv]
            labels[cv] = tmp
            n_swaps += int(cu.size)
            total_delta += float(deltas[swap].sum())
        else:
            break
    return n_swaps, total_delta
