"""Application-vertex labels ``l_a = l_p . l_e`` (paper section 4).

Packing convention (consistent across the whole package): a label's
*high* ``dim_p`` bits are the processor label of the vertex's PE and its
*low* ``dim_e`` bits are the extension ``l_e`` that makes labels unique
inside each block.  The paper's "last digit" -- the one hierarchies cut
first -- is bit 0.

Labels are ``(n, W)`` ``uint64`` arrays with ``W =
words_for_bits(dim_p + dim_e)``, the one representation of
:mod:`repro.utils.bitops`.

``dim_e`` follows Definition 4.1: ``max_vp ceil(log2 |mu^-1(vp)|)``, and
the per-block extension values ``0 .. size-1`` are assigned in random
order ("shuffled") to give the diversification objective a random start.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.graphs.graph import Graph
from repro.partialcube.djokovic import PartialCubeLabeling
from repro.utils.bitops import (
    bit_length_for,
    label_sort_keys,
    shift_left_labels,
    shift_right_labels,
    wide_mask,
    widen_labels,
    words_for_bits,
)
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import as_int_array, check_assignment


@dataclass(frozen=True)
class ApplicationLabeling:
    """A bijective labeling of ``V_a`` encoding a mapping onto ``V_p``.

    Attributes
    ----------
    labels:
        packed ``l_a`` per application vertex, ``(n, W)`` ``uint64``.
    dim_p / dim_e:
        widths of the processor part and the extension part.
    pe_labels:
        processor label per PE id (``pe_labels[p]`` = ``l_p`` of PE ``p``);
        needed to translate label prefixes back into PE ids.
    """

    labels: np.ndarray
    dim_p: int
    dim_e: int
    pe_labels: np.ndarray

    @property
    def dim(self) -> int:
        """Total label width ``dim_Ga`` (Definition 4.1)."""
        return self.dim_p + self.dim_e

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def lp_part(self) -> np.ndarray:
        """Processor-label prefix of every vertex (the ``mu`` encoding)."""
        return shift_right_labels(self.labels, self.dim_e)

    def le_part(self) -> np.ndarray:
        """Extension suffix of every vertex."""
        return self.labels & wide_mask(self.dim_e, self.labels.shape[1])

    def mu(self) -> np.ndarray:
        """Decode the mapping ``mu : V_a -> V_p`` from the labels."""
        # lp prefixes use dim_p bits; bring them to pe_labels' word
        # count so the sort keys are directly comparable.
        lp = widen_labels(self.lp_part(), self.pe_labels.shape[1])
        pe_keys = label_sort_keys(self.pe_labels)
        order = np.argsort(pe_keys, kind="stable")
        sorted_keys = pe_keys[order]
        lp_keys = label_sort_keys(lp)
        pos = np.searchsorted(sorted_keys, lp_keys)
        if (pos >= sorted_keys.shape[0]).any() or not np.array_equal(
            sorted_keys[pos], lp_keys
        ):
            raise MappingError("label prefix does not correspond to any PE")
        return order[pos]

    def with_labels(self, labels: np.ndarray) -> "ApplicationLabeling":
        return dataclasses.replace(self, labels=labels)

    def check_bijective(self) -> None:
        """Labels must be pairwise distinct (paper requirement 3)."""
        if np.unique(label_sort_keys(self.labels)).shape[0] != self.n:
            raise MappingError("application labels are not unique")


def dim_extension(mu: np.ndarray, n_pe: int) -> int:
    """``max_vp ceil(log2 |mu^-1(vp)|)`` -- the extension width (Def. 4.1)."""
    sizes = np.bincount(np.asarray(mu, dtype=np.int64), minlength=n_pe)
    return bit_length_for(int(sizes.max())) if sizes.size else 0


def build_application_labeling(
    ga: Graph,
    pc: PartialCubeLabeling,
    mu: np.ndarray,
    seed: SeedLike = None,
) -> ApplicationLabeling:
    """Construct ``l_a`` from a mapping (paper section 4).

    Steps: transport ``l_p`` through ``mu``; number the vertices of each
    block ``0 .. size-1`` in random order; concatenate.
    """
    mu = as_int_array("mu", mu, ga.n)
    check_assignment("mu", mu, pc.n)
    dim_p = pc.dim
    dim_e = dim_extension(mu, pc.n)
    rng = make_rng(seed)
    le = np.empty(ga.n, dtype=np.int64)
    for pe in range(pc.n):
        members = np.nonzero(mu == pe)[0]
        if members.size:
            le[members] = rng.permutation(members.size)
    base = widen_labels(pc.labels, words_for_bits(dim_p + dim_e))
    labels = shift_left_labels(base[mu], dim_e)
    # dim_e < 64 always (block sizes are array sizes), so the extension
    # lives entirely in word 0.
    labels[:, 0] |= le.view(np.uint64)
    out = ApplicationLabeling(
        labels=labels, dim_p=dim_p, dim_e=dim_e, pe_labels=pc.labels
    )
    out.check_bijective()
    return out
