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

A pass reads only the rows of the ``2k`` pair vertices, so it gathers
them once (:func:`pair_rows`) and takes the sums ``S``, the internal
pair weights and the pair interactions from the gather.  A gathered row
holds the same entries in the same order as the CSR row, so every sum
is bitwise the full-CSR one; :func:`vertex_lsb_sums`,
:func:`sibling_pair_weights` and :func:`batch_pair_deltas` keep the
full-CSR forms as oracles.

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
The innermost kernels -- the per-row LSB reduction and the fixpoint
solve -- dispatch through the :mod:`repro.core.backend` protocol
(``kernel_backend`` registrations in the unified registry: ``numpy`` /
``numba`` / ``numba-parallel``); select and inspect backends there.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.backend import current_backend
from repro.core.contraction import Level, sibling_mask
from repro.utils.bitops import adjacent_siblings, argsort_labels, label_lsb
from repro.utils.segments import build_csr, concat_ranges

_ONE = np.uint64(1)

__all__ = [
    "level_csr",
    "vertex_lsb_sums",
    "sibling_pairs",
    "sibling_pair_weights",
    "PairRows",
    "pair_rows",
    "pair_interactions",
    "pair_row_gains",
    "batch_pair_deltas",
    "pair_delta",
    "batch_swap_pass",
]


# ----------------------------------------------------------------------
# Structure helpers
# ----------------------------------------------------------------------
def level_csr(level: Level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached symmetric CSR adjacency of a hierarchy level.

    A contracted level arrives with its CSR, built by
    :func:`~repro.core.contraction.contract_level`; any other level
    builds it here on first use and stores it on ``level.csr``.  A
    level's adjacency is immutable (swap passes only permute labels), so
    one build per level suffices no matter how many sweeps or strategies
    run on it.
    """
    if level.csr is None:
        level.csr = build_csr(level.n, *level.edge_arrays())
    return level.csr


def sibling_pairs(
    labels: np.ndarray,
    order: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """``(k, 2)`` array of vertex pairs whose labels differ only in bit 0.

    Pairs are returned in ascending prefix order, each as (the vertex
    whose label ends in 0, the one whose label ends in 1); labels are
    assumed unique (true on every hierarchy level).  ``order`` is any
    vertex order along which the prefixes ``labels >> 1`` do not
    decrease -- a level's ``Level.order``, which sibling swaps keep
    valid; without it the labels are sorted
    (:func:`~repro.utils.bitops.argsort_labels`).  ``mask`` is
    ``adjacent_siblings`` along ``order`` when the caller holds it
    (:func:`~repro.core.contraction.sibling_mask`).
    """
    if order is None:
        order = argsort_labels(labels)
    if mask is None:
        mask = adjacent_siblings(np.take(labels, order, axis=0))
    first = np.nonzero(mask)[0]
    a = order[first]
    b = order[first + 1]
    b_holds_zero = (labels[a, 0] & _ONE).astype(bool)
    return np.stack(
        [np.where(b_holds_zero, b, a), np.where(b_holds_zero, a, b)], axis=1
    )


def sibling_pair_weights(level: Level, pairs: np.ndarray) -> np.ndarray:
    """Weight of the (optional) edges inside each sibling pair, in edge order.

    A swap leaves the pair's internal edge invariant, so its contribution
    must be subtracted from the per-vertex sums; pairs without an internal
    edge get 0.  Scans the level's undirected edge arrays: an edge is
    internal to a pair iff its endpoints are exactly the pair's two
    members (no label comparison needed).  The oracle of
    :func:`pair_rows`' weights, and their fallback when a level built
    from raw edge arrays holds several edges inside one pair.
    """
    k = pairs.shape[0]
    out = np.zeros(k, dtype=np.float64)
    us, vs, ws = level.edge_arrays()
    if k == 0 or us.size == 0:
        return out
    pair_of = np.full(level.n, -1, dtype=np.int64)
    local = np.arange(k, dtype=np.int64)
    pair_of[pairs[:, 0]] = local
    pair_of[pairs[:, 1]] = local
    eu = pair_of[us]
    internal = np.nonzero((eu >= 0) & (eu == pair_of[vs]))[0]
    if internal.size == 0:
        return out
    np.add.at(out, eu[internal], ws[internal])
    return out


class PairRows(NamedTuple):
    """The CSR rows of a level's sibling-pair vertices, gathered once.

    Row ``i`` of the gather is vertex ``verts[i]``: the first vertex of
    pair ``i`` for ``i < k``, the second vertex of pair ``i - k`` after
    that.  Its entries ``indptr[i]:indptr[i + 1]`` are that vertex's CSR
    row in CSR order.  Per entry, ``src`` is the row's vertex and
    ``own`` its pair, ``nbrs`` and ``wts`` are the neighbour and the
    weight, and ``dst`` is the neighbour's pair (-1 outside every pair).
    ``pair_w`` is the weight inside each pair, and ``pairs`` and ``csr``
    are what was gathered.
    """

    pairs: np.ndarray
    csr: tuple
    verts: np.ndarray
    indptr: np.ndarray
    src: np.ndarray
    own: np.ndarray
    nbrs: np.ndarray
    wts: np.ndarray
    dst: np.ndarray
    pair_w: np.ndarray


def pair_rows(
    level: Level, pairs: np.ndarray, csr: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> PairRows:
    """Gather the CSR rows of ``pairs``' vertices (see :class:`PairRows`).

    A swap pass reads nothing else of the level.  The internal pair
    weights come from the first vertices' rows: an entry whose neighbour
    lies in its own pair is the pair's internal edge.  The enhancer's
    levels hold at most one per pair (contraction merges parallel edges,
    and a ``Graph`` has none); a level built from raw edge arrays may
    hold several, and then :func:`sibling_pair_weights` adds them in
    edge order, which the rows do not record.
    """
    indptr, indices, weights = csr
    k = pairs.shape[0]
    local = np.arange(k, dtype=np.int64)
    pair_of = np.full(level.n, -1, dtype=np.int64)
    pair_of[pairs[:, 0]] = local
    pair_of[pairs[:, 1]] = local
    verts = np.concatenate([pairs[:, 0], pairs[:, 1]])
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    row_ptr = np.zeros(2 * k + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    at = concat_ranges(starts, counts)
    nbrs = indices[at]
    own = np.repeat(np.concatenate([local, local]), counts)
    dst = pair_of[nbrs]
    wts = weights[at]
    head = int(row_ptr[k])
    internal = np.flatnonzero(dst[:head] == own[:head])
    holder = own[internal]  # non-decreasing: rows come in pair order
    if np.any(holder[1:] == holder[:-1]):
        pair_w = sibling_pair_weights(level, pairs)
    else:
        pair_w = np.zeros(k, dtype=np.float64)
        pair_w[holder] += wts[internal]  # 0.0 + w, as np.add.at adds it
    src = np.repeat(verts, counts)
    return PairRows(pairs, csr, verts, row_ptr, src, own, nbrs, wts, dst, pair_w)


def pair_interactions(
    rows: PairRows, ordered: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gathered entries whose endpoints lie in two *different* sibling pairs.

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
    if ordered:
        keep = (rows.dst >= 0) & (rows.dst < rows.own)
    else:
        keep = (rows.dst >= 0) & (rows.dst != rows.own)
    return (
        rows.own[keep],
        rows.dst[keep],
        rows.src[keep],
        rows.nbrs[keep],
        rows.wts[keep],
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

    One gather + one segment reduction over the whole CSR: the oracle of
    :func:`pair_row_gains`' row sums.  Only the LSB of each label
    matters, so the labels reduce to an int64 bit array before any
    arithmetic (and before the backend dispatch).
    """
    b = label_lsb(labels)
    rows = np.arange(b.shape[0], dtype=np.int64)
    return current_backend().vertex_lsb_sums(b, rows, indptr, indices, weights)


def pair_row_gains(labels: np.ndarray, rows: PairRows, sign: int) -> np.ndarray:
    """Swap gains of the gathered pairs, from their ``2k`` rows alone.

    :func:`batch_pair_deltas` over the whole CSR, bit for bit: each row
    adds the same entries in the same order.
    """
    k = rows.pair_w.shape[0]
    sums = current_backend().vertex_lsb_sums(
        label_lsb(labels), rows.verts, rows.indptr, rows.nbrs, rows.wts
    )
    return sign * (sums[:k] + sums[k:] + 2.0 * rows.pair_w)


def batch_pair_deltas(
    labels: np.ndarray,
    pairs: np.ndarray,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    sign: int,
    pair_w: np.ndarray,
) -> np.ndarray:
    """Swap gains of all ``pairs`` in one vectorized pass.

    Equals ``[pair_delta(labels, *csr, u, v, sign) for u, v in pairs]``
    up to floating-point associativity (exactly, for integer-valued
    weights).  ``pair_w`` comes from :func:`sibling_pair_weights`.  Sums
    over every CSR row: the oracle of :func:`pair_row_gains`.
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
    if labels.shape[0] < 2:
        return 0, 0.0
    if csr is None:
        csr = level_csr(level)
    if csr[1].size == 0:
        return 0, 0.0
    n_swaps = 0
    total_delta = 0.0
    # A swap exchanges labels *within* a pair, so the pair set, its prefix
    # order, the gathered pair rows and the whole pair-interaction layout
    # are invariant across sweeps -- build them once.  Only the
    # labels-dependent values (gains and contribution signs) change.
    pairs = sibling_pairs(labels, level.order, sibling_mask(level))
    k = pairs.shape[0]
    if k == 0:
        return 0, 0.0
    pu = pairs[:, 0]
    pv = pairs[:, 1]
    rows = pair_rows(level, pairs, csr)
    # Pair-interaction list restricted to entries (a, t) with ``a`` in
    # pair ``own`` and ``t`` in an *earlier-ordered* pair ``dst`` --
    # exactly the edges whose contribution flips when pair ``dst`` swaps
    # before pair ``own`` is evaluated.
    own, dst, src_keep, nbrs_keep, w_keep = pair_interactions(rows, ordered=True)
    backend = current_backend()
    for _ in range(max(1, sweeps)):
        # Start-of-sweep gains for every pair in one vectorized pass.
        deltas0 = pair_row_gains(labels, rows, sign)
        b = label_lsb(labels)
        c0 = sign * (w_keep * (1.0 - 2.0 * (b[src_keep] ^ b[nbrs_keep])))
        # Solve the sequential-sweep fixpoint by synchronous iteration:
        # the correct prefix of the decision vector grows every step, so
        # at most k iterations -- in practice a handful.  The solve is a
        # backend kernel (compiled + thread-parallel on the numba tiers).
        swap, deltas = backend.greedy_fixpoint(deltas0, own, dst, c0)
        cu, cv = pu[swap], pv[swap]
        if cu.size:
            tmp = labels[cu]
            labels[cu] = labels[cv]
            labels[cv] = tmp
            n_swaps += int(cu.size)
            total_delta += float(deltas[swap].sum())
        else:
            break
    return n_swaps, total_delta
