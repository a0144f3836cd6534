"""Exhaustive verification of Hamming labelings.

Split out from recognition so property-based tests (and users bringing
their own labelings, e.g. hand-crafted topology descriptions) can validate
against Definition 2.2 directly.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.algorithms import all_pairs_distances
from repro.graphs.graph import Graph
from repro.utils.bitops import as_label_array, pairwise_hamming


def labeling_distance_error(g: Graph, labels: np.ndarray) -> int:
    """Number of vertex pairs where Hamming != graph distance.

    0 means ``labels`` is a valid partial-cube labeling of ``g`` (provided
    the graph is connected; disconnected pairs have distance -1 and always
    count as errors).  Accepts a 1-D array of non-negative integers or
    ``(n, W)`` ``uint64`` labels.
    """
    labels = as_label_array(labels)
    if labels.shape[0] != g.n:
        raise ValueError(
            f"labels must have shape ({g.n},) or ({g.n}, W), got {labels.shape}"
        )
    dist = all_pairs_distances(g)
    ham = pairwise_hamming(labels)
    return int((ham != dist).sum()) // 2 + int(np.diag(ham != dist).sum())


def verify_labeling(g: Graph, labels: np.ndarray) -> bool:
    """True iff Hamming distance between labels equals graph distance."""
    return labeling_distance_error(g, labels) == 0
