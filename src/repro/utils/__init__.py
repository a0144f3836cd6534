"""Shared low-level utilities: RNG handling, bit operations, validation."""

from repro.utils.rng import derive_rng, derive_seed, derive_seed_sequence, make_rng, spawn_rngs
from repro.utils.bitops import (
    popcount,
    hamming,
    bit_length_for,
    permute_bits,
    unpermute_bits,
    words_for_bits,
    popcount_labels,
    hamming_labels,
    pairwise_hamming,
    label_sort_keys,
    pack_bit_matrix,
    unpack_bit_matrix,
)
from repro.utils.stopwatch import Stopwatch

__all__ = [
    "make_rng",
    "spawn_rngs",
    "derive_rng",
    "derive_seed",
    "derive_seed_sequence",
    "popcount",
    "hamming",
    "bit_length_for",
    "permute_bits",
    "unpermute_bits",
    "words_for_bits",
    "popcount_labels",
    "hamming_labels",
    "pairwise_hamming",
    "label_sort_keys",
    "pack_bit_matrix",
    "unpack_bit_matrix",
    "Stopwatch",
]
