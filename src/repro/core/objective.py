"""The extended objective ``Coco+ = Coco - Div`` (paper section 5).

With packed labels, both terms are Hamming sums over disjoint bit masks:

- ``Coco(l_a) = sum_e w(e) * popcount(xor & lp_mask)`` -- Eq. (9).  (The
  paper sums over ``E_a without E_a^p``, but edges in ``E_a^p`` contribute
  zero anyway, so the restriction is vacuous and the vectorized form is
  exact.)
- ``Div(l_a) = sum_e w(e) * popcount(xor & le_mask)`` -- Eq. (12),
  the diversity of label extensions (same vacuous-restriction argument).

The masks are ``(W,)`` ``uint64`` word vectors broadcast over the
``(m, W)`` XOR rows, with a per-row popcount reduction -- one vectorized
pass over the edges.

For permuted labels inside a hierarchy, each bit position carries a sign
(+1 for lp bits, -1 for le bits); :func:`coco_plus_signed` evaluates the
objective for an arbitrary sign vector, which is what the per-level swap
gains are based on.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.bitops import int_to_label_row, popcount_labels, wide_mask


def _masks(dim_p: int, dim_e: int, labels: np.ndarray):
    """(lp_mask, le_mask) word vectors matching ``labels``' word count."""
    words = labels.shape[1]
    le_mask = wide_mask(dim_e, words)
    return wide_mask(dim_p + dim_e, words) ^ le_mask, le_mask


def coco_of_labels(ga: Graph, labels: np.ndarray, dim_p: int, dim_e: int) -> float:
    """Eq. (9): hop-bytes of the mapping encoded in the label prefixes."""
    lp_mask, _ = _masks(dim_p, dim_e, labels)
    us, vs, ws = ga.edge_arrays()
    xor = (labels[us] ^ labels[vs]) & lp_mask
    return float((ws * popcount_labels(xor)).sum())


def div_of_labels(ga: Graph, labels: np.ndarray, dim_p: int, dim_e: int) -> float:
    """Eq. (12): weighted Hamming diversity of the label extensions."""
    _, le_mask = _masks(dim_p, dim_e, labels)
    us, vs, ws = ga.edge_arrays()
    xor = (labels[us] ^ labels[vs]) & le_mask
    return float((ws * popcount_labels(xor)).sum())


def coco_plus(ga: Graph, labels: np.ndarray, dim_p: int, dim_e: int) -> float:
    """Eq. (14): ``Coco+ = Coco - Div``."""
    lp_mask, le_mask = _masks(dim_p, dim_e, labels)
    us, vs, ws = ga.edge_arrays()
    xor = labels[us] ^ labels[vs]
    return float(
        (
            ws
            * (
                popcount_labels(xor & lp_mask).astype(np.float64)
                - popcount_labels(xor & le_mask)
            )
        ).sum()
    )


def coco_plus_signed(
    ga: Graph, labels: np.ndarray, signs: np.ndarray
) -> float:
    """``Coco+`` for permuted labels with per-bit signs.

    ``signs[j]`` is +1 when bit ``j`` of the (permuted) labels is an lp
    bit and -1 when it is an le bit.  Equivalent to :func:`coco_plus` on
    unpermuted labels; kept separate for tests that pin down the
    permutation bookkeeping.
    """
    pos = neg = 0
    for j, s in enumerate(np.asarray(signs, dtype=np.int64).tolist()):
        if s > 0:
            pos |= 1 << j
        else:
            neg |= 1 << j
    words = labels.shape[1]
    pos_mask = int_to_label_row(pos, words)
    neg_mask = int_to_label_row(neg, words)
    us, vs, ws = ga.edge_arrays()
    xor = labels[us] ^ labels[vs]
    return float(
        (
            ws
            * (
                popcount_labels(xor & pos_mask).astype(np.float64)
                - popcount_labels(xor & neg_mask)
            )
        ).sum()
    )
