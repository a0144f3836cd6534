"""Bit-level helpers for label arithmetic.

Vertex labels in TIMER are bitvectors of length ``dim_Ga``.  The library
stores every label array one way: a 2-D ``(n, W)`` ``uint64`` array with
``W = words_for_bits(dim) = max(1, ceil(dim / 64))`` words per vertex,
word ``w`` holding bits ``64*w .. 64*w + 63`` (little-endian word order).
The paper's topologies (dim <= 63) take one word; trees beyond 64
vertices, fat-trees beyond 64 PEs and any ``dim_p + dim_e > 64``
application labeling take more.  This module is the only one that knows
the word layout and the sort-key format.

Bit ``0`` (the least significant bit of word 0) is the paper's *last*
label entry -- the digit that the hierarchy construction cuts off first
-- and the lp-part (processor labels) occupies the *high* bits.

Ordering and grouping go through :func:`label_sort_keys`, a 1-D key per
label whose order equals the numeric order of the bitvectors: the word
itself when ``W == 1`` (``uint64`` order is bitvector order), and a
big-endian, most-significant-word-first ``void`` byte string when
``W >= 2`` (``memcmp`` order is bitvector order).  Keys are compared
only between arrays of the same word count.

Labels supplied from outside the library enter through
:func:`as_label_array`, which turns a 1-D array of non-negative integers
into ``(n, 1)`` labels.  All helpers here are pure and vectorized so the
hot paths of the objective function and the swap passes stay in numpy.
"""

from __future__ import annotations

import numpy as np

#: Bits per label word.
WORD_BITS = 64

# Prebuilt word scalars: making an ``np.uint64`` per call costs about
# as much as one operation on a one-word label array.
_ONE = np.uint64(1)
_SHIFTS = tuple(np.uint64(k) for k in range(WORD_BITS + 1))
_LOW_MASKS = tuple(np.uint64((1 << k) - 1) for k in range(WORD_BITS + 1))
_INT64 = np.dtype(np.int64)
# Bit positions within a byte and their place values, for bit planes.
_BYTE_SHIFTS = np.arange(8, dtype=np.uint8)
_BYTE_VALUES = np.left_shift(np.uint8(1), _BYTE_SHIFTS)

#: Popcounts of all byte values; powers the byte-LUT reference fallback.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
#: Every byte value with its eight bits in reverse order.
_REVERSED_BYTES = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8)


def _bitwise_count_fallback(x) -> np.ndarray:
    """Per-element popcount via a byte lookup table (reference fallback).

    Views each 64-bit word as 8 bytes and sums table lookups.  Kept as
    the ground truth the SWAR path is tested against; only non-negative
    values are meaningful for the int64 case -- labels never go
    negative.
    """
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype != np.uint64:
        arr = arr.astype(np.int64, copy=False)
    arr = np.ascontiguousarray(arr)
    by = arr.view(np.uint8).reshape(arr.shape + (8,))
    out = _POPCOUNT_TABLE[by].sum(axis=-1, dtype=np.int64)
    if np.ndim(x) == 0:
        return out.reshape(())
    return out


_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _bitwise_count_swar(x) -> np.ndarray:
    """Per-element popcount via SWAR arithmetic (numpy < 2.0 fast path).

    The classic SIMD-within-a-register construction: six full-width
    vector operations per word, no gathers, so numpy's elementwise loops
    vectorize it -- measured ~3x over the byte-LUT fallback.  Exact for
    the whole uint64 range (the final multiply wraps mod 2**64 by
    design).
    """
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype == np.uint64:
        v = arr.copy()
    elif arr.dtype == np.int64:
        # Labels are non-negative, so the uint64 view is value-exact.
        v = np.ascontiguousarray(arr).view(np.uint64).copy()
    else:
        v = arr.astype(np.uint64)
    v -= (v >> np.uint64(1)) & _SWAR_M1
    v = (v & _SWAR_M2) + ((v >> np.uint64(2)) & _SWAR_M2)
    v = (v + (v >> np.uint64(4))) & _SWAR_M4
    out = ((v * _SWAR_H01) >> np.uint64(56)).astype(np.int64)
    if np.ndim(x) == 0:
        return out.reshape(())
    return out


#: ``bitwise_count(x)``: per-element popcount -- native on numpy >= 2.0,
#: the SWAR construction otherwise.
bitwise_count = getattr(np, "bitwise_count", _bitwise_count_swar)


def popcount(x: np.ndarray) -> np.ndarray:
    """Number of set bits of each element of ``x`` (any integer dtype)."""
    return bitwise_count(x)


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Hamming distance between packed integers."""
    return bitwise_count(np.bitwise_xor(a, b))


def bit_length_for(n: int) -> int:
    """Number of bits needed to represent values ``0 .. n-1``.

    This is the paper's ``ceil(log2 n)`` with the conventions
    ``bit_length_for(0) == bit_length_for(1) == 0``.
    """
    if n <= 1:
        return 0
    return int(n - 1).bit_length()


# ----------------------------------------------------------------------
# Construction and coercion
# ----------------------------------------------------------------------
def words_for_bits(dim: int) -> int:
    """Number of 64-bit words a ``dim``-bit label occupies (at least 1)."""
    if dim < 0:
        raise ValueError(f"label width {dim} must be >= 0")
    return max(1, -(-dim // WORD_BITS))


def zeros_labels(n: int, dim: int) -> np.ndarray:
    """All-zero ``(n, words_for_bits(dim))`` label array."""
    return np.zeros((n, words_for_bits(dim)), dtype=np.uint64)


def as_label_array(labels) -> np.ndarray:
    """Coerce caller-supplied labels to the ``(n, W)`` ``uint64`` form.

    A 1-D array of non-negative integers becomes ``(n, 1)`` labels, one
    packed word per vertex; a ``(n, W)`` ``uint64`` array passes through
    unchanged.  Anything else raises ``ValueError``.
    """
    labels = np.asarray(labels)
    if labels.ndim == 2 and labels.dtype == np.uint64:
        return labels
    if labels.ndim == 1 and labels.dtype.kind in "iu":
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        return labels.astype(np.uint64).reshape(-1, 1)
    raise ValueError(
        "labels must be a 1-D array of non-negative integers or an (n, W) "
        f"uint64 array, got shape {labels.shape} dtype {labels.dtype}"
    )


def widen_labels(labels, words: int) -> np.ndarray:
    """Pad (with zero high words) or truncate labels to ``words`` words.

    Truncation asserts that the dropped high words are all zero.
    """
    labels = as_label_array(labels)
    cur = labels.shape[1]
    if cur == words:
        return labels
    if cur < words:
        out = np.zeros((labels.shape[0], words), dtype=np.uint64)
        out[:, :cur] = labels
        return out
    if np.any(labels[:, words:]):
        raise ValueError(f"cannot truncate to {words} words: high bits set")
    return np.ascontiguousarray(labels[:, :words])


# ----------------------------------------------------------------------
# Label arithmetic
# ----------------------------------------------------------------------
def popcount_labels(x: np.ndarray) -> np.ndarray:
    """Per-label popcount: one int per label row.

    The *last* axis is the word axis, so pairwise ``(n, n, W)`` XOR
    tensors reduce correctly.  Dispatches through the active kernel
    backend (the numba tiers run a compiled SWAR reduction over the word
    axis).
    """
    from repro.core.backend import current_backend

    return current_backend().popcount_labels(x)


def hamming_labels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-label Hamming distance."""
    return popcount_labels(np.bitwise_xor(a, b))


def pairwise_hamming(labels, block: int = 256) -> np.ndarray:
    """``(n, n)`` Hamming distance matrix of a label array.

    Accepts caller-supplied labels (see :func:`as_label_array`) and
    dispatches through the active kernel backend: the numpy reference is
    row-blocked so it never materializes the full ``(n, n, W)`` XOR
    tensor at once; the numba tiers run a compiled SWAR loop with no
    intermediate tensors at all.
    """
    from repro.core.backend import current_backend

    return current_backend().pairwise_hamming(as_label_array(labels), block=block)


def wide_mask(width: int, words: int) -> np.ndarray:
    """``(words,)`` uint64 vector with the ``width`` low bits set.

    Broadcasts against ``(n, words)`` labels.
    """
    if width < 0 or width > words * WORD_BITS:
        raise ValueError(f"mask width {width} out of range [0, {words * WORD_BITS}]")
    return int_to_label_row((1 << width) - 1, words)


def low_bits(labels: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of every label, on ``words_for_bits(width)`` words.

    The words above ``width`` are all zero after masking, so dropping
    them keeps the numeric order (and the sort keys stay one word while
    ``width <= 64``).
    """
    words = words_for_bits(width)
    out = labels[:, :words].copy()
    out[:, -1] &= _LOW_MASKS[width - WORD_BITS * (words - 1)]
    return out


def get_label_bit(labels: np.ndarray, j: int) -> np.ndarray:
    """Bit ``j`` of every label as an int64 0/1 array."""
    w, b = divmod(j, WORD_BITS)
    return ((labels[:, w] >> _SHIFTS[b]) & _ONE).view(_INT64)


def set_label_bit(labels: np.ndarray, j: int, bits: np.ndarray) -> None:
    """OR 0/1 ``bits`` into bit ``j`` of every label, in place."""
    w, b = divmod(j, WORD_BITS)
    labels[:, w] |= np.asarray(bits, dtype=np.uint64) << _SHIFTS[b]


def label_lsb(labels: np.ndarray) -> np.ndarray:
    """The least significant bit of every label (int64 0/1 array).

    This is the only label content the swap kernels ever test.
    """
    return (labels[:, 0] & _ONE).view(_INT64)


def shift_right_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels >> k``, carrying bits across words; keeps the word count."""
    n, W = labels.shape
    word_shift, bit_shift = divmod(k, WORD_BITS)
    src = labels[:, word_shift:]
    out = src >> _SHIFTS[bit_shift]
    if bit_shift and src.shape[1] > 1:
        out[:, :-1] |= src[:, 1:] << _SHIFTS[WORD_BITS - bit_shift]
    if out.shape[1] < W:  # zero the vacated high words
        out = np.concatenate(
            [out, np.zeros((n, W - out.shape[1]), dtype=np.uint64)], axis=1
        )
    return out


def shift_left_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels << k``, carrying bits across words; keeps the word count.

    Bits shifted beyond the top word are dropped (callers size the array
    via :func:`words_for_bits` first).
    """
    n, W = labels.shape
    word_shift, bit_shift = divmod(k, WORD_BITS)
    out = np.zeros_like(labels)
    if word_shift < W:
        src = labels[:, : W - word_shift]
        out[:, word_shift:] = src << _SHIFTS[bit_shift]
        if bit_shift and src.shape[1] > 1:
            out[:, word_shift + 1 :] |= src[:, :-1] >> _SHIFTS[WORD_BITS - bit_shift]
    return out


# ----------------------------------------------------------------------
# Ordering, grouping, row swaps
# ----------------------------------------------------------------------
def label_sort_keys(labels: np.ndarray) -> np.ndarray:
    """A 1-D array whose ``<``/``==`` order equals numeric label order.

    One-word labels are their own keys: ``uint64`` order is bitvector
    order.  Wider labels become ``void`` byte strings -- words reversed
    to most-significant-first and byteswapped to big-endian -- so memcmp
    order (what numpy's void dtype sorts, uniques and searchsorts by)
    coincides with bitvector order.  Compare keys only between arrays
    with the same word count.
    """
    W = labels.shape[1]
    if W == 1:
        return labels[:, 0]
    be = np.ascontiguousarray(labels[:, ::-1]).astype(">u8")
    return np.ascontiguousarray(be).view(np.dtype((np.void, 8 * W))).ravel()


def argsort_labels(labels) -> np.ndarray:
    """Stable argsort of a label array in numeric bitvector order.

    Accepts caller-supplied labels (see :func:`as_label_array`) and
    orders by :func:`label_sort_keys`; dispatches through the active
    kernel backend.
    """
    from repro.core.backend import current_backend

    return current_backend().argsort_labels(as_label_array(labels))


def reverse_label_bits(labels: np.ndarray) -> np.ndarray:
    """Every label with its ``64 * W`` bits in reverse order.

    Bit ``j`` moves to bit ``64 * W - 1 - j``: each byte through a
    256-entry table, then the bytes in reverse order.  Numeric order of
    the reversed labels is the originals' order least significant bit
    first.
    """
    octets = np.ascontiguousarray(labels, dtype="<u8").view(np.uint8)
    return np.take(_REVERSED_BYTES, octets[:, ::-1]).view("<u8").astype(np.uint64, copy=False)


def adjacent_siblings(rows: np.ndarray) -> np.ndarray:
    """``out[i]``: rows ``i`` and ``i + 1`` agree on every bit but bit 0.

    With the rows in non-decreasing prefix (``labels >> 1``) order these
    are exactly the sibling pairs, and ``~out`` marks where each new
    prefix begins.
    """
    same = (rows[1:, 0] ^ rows[:-1, 0]) <= _ONE
    for w in range(1, rows.shape[1]):
        same &= rows[1:, w] == rows[:-1, w]
    return same


def swap_label_rows(labels: np.ndarray, u: int, v: int) -> None:
    """Exchange the labels of vertices ``u`` and ``v`` in place.

    Needs an explicit copy: tuple assignment of row views would alias
    and corrupt one side.
    """
    tmp = labels[u].copy()
    labels[u] = labels[v]
    labels[v] = tmp


def unique_labels(labels: np.ndarray):
    """Sorted-unique labels with inverse.

    Returns ``(uniq, inverse)`` where ``uniq`` holds the distinct labels
    in ascending numeric order and ``inverse`` maps every row to its
    position in ``uniq`` -- the label generalization of
    ``np.unique(labels, return_inverse=True)``.
    """
    keys = label_sort_keys(labels)
    # Rows with equal keys hold equal labels, so the order within a
    # group does not matter (no stable sort needed), and any row of a
    # group can stand for it.
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.empty(keys.shape[0], dtype=bool)
    starts[:1] = True
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    inverse = np.empty(keys.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return np.take(labels, order[starts], axis=0), inverse


# ----------------------------------------------------------------------
# Bit-matrix packing and integer round-trips
# ----------------------------------------------------------------------
def label_planes(labels: np.ndarray, dim: int) -> np.ndarray:
    """``(dim, n)`` uint8 0/1 bit planes: row ``j`` is bit ``j`` of every label.

    Rows are contiguous, so a loop over the digits reads one plane at a
    time.  Byte ``k`` of a label holds bits ``8k .. 8k + 7`` (words and
    their bytes little-endian), so planes ``8k .. 8k + 7`` are the
    labels' byte ``k`` shifted right by 0 to 7: one broadcast shift over
    the bytes, which are laid out one row per byte first.
    """
    octets = np.ascontiguousarray(labels, dtype="<u8").view(np.uint8)
    rows = -(-dim // 8)
    by_byte = np.ascontiguousarray(octets[:, :rows].T)
    planes = (by_byte[:, None, :] >> _BYTE_SHIFTS[:, None]) & np.uint8(1)
    return planes.reshape(8 * rows, labels.shape[0])[:dim]


def planes_to_labels(planes: np.ndarray, words: int) -> np.ndarray:
    """Labels on ``words`` words from ``(dim, n)`` planes (inverse of :func:`label_planes`).

    Byte ``k`` of every label is the sum of planes ``8k .. 8k + 7``
    weighted by their place values, one ``einsum`` over the planes
    padded to whole bytes (``uint8`` sums of distinct powers of two
    stay below 256).
    """
    dim, n = planes.shape
    rows = -(-dim // 8)
    padded = np.zeros((8 * rows, n), dtype=np.uint8)
    padded[:dim] = planes
    by_byte = np.einsum("rbn,b->rn", padded.reshape(rows, 8, n), _BYTE_VALUES)
    octets = np.zeros((n, 8 * words), dtype=np.uint8)
    octets[:, :rows] = by_byte.T
    return octets.view("<u8").astype(np.uint64, copy=False)


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(n, dim)`` 0/1 matrix into labels (column ``j`` = bit ``j``)."""
    bits = np.asarray(bits)
    return planes_to_labels(bits.T.astype(np.uint8), words_for_bits(bits.shape[1]))


def unpack_bit_matrix(labels: np.ndarray, dim: int) -> np.ndarray:
    """``(n, dim)`` int8 0/1 matrix; column ``j`` = bit ``j`` of each label."""
    return label_planes(labels, dim).T.astype(np.int8)


def label_to_int(labels: np.ndarray, v: int) -> int:
    """Vertex ``v``'s label as an arbitrary-precision Python int."""
    value = 0
    for w in range(labels.shape[1] - 1, -1, -1):
        value = (value << WORD_BITS) | int(labels[v, w])
    return value


def int_to_label_row(value: int, words: int) -> np.ndarray:
    """A Python int as one label row (``(words,)`` uint64)."""
    if value < 0 or value >> (words * WORD_BITS):
        raise ValueError(f"value does not fit in {words} words")
    mask = (1 << WORD_BITS) - 1
    return np.array(
        [(value >> (WORD_BITS * w)) & mask for w in range(words)], dtype=np.uint64
    )


# ----------------------------------------------------------------------
# Bit permutations
# ----------------------------------------------------------------------
def permute_bits(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Permute bit positions of every label.

    ``perm`` maps *new* bit position ``j`` to *old* bit position
    ``perm[j]``: output bit ``j`` equals input bit ``perm[j]``.  Bits above
    ``len(perm)`` must be zero (labels use exactly ``len(perm)`` bits);
    the output keeps the input's word count.

    One gather of contiguous bit planes between an unpack and a pack, so
    the cost does not grow with a Python loop over the ``dim`` positions.
    """
    perm = np.asarray(perm, dtype=np.int64)
    return planes_to_labels(label_planes(labels, perm.shape[0])[perm], labels.shape[1])


def unpermute_bits(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Inverse of :func:`permute_bits` for the same ``perm``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return permute_bits(labels, inv)


def bits_to_int(bits) -> int:
    """Pack an iterable of 0/1 digits, most significant first, into an int.

    Mirrors the paper's reading order: ``bits_to_int([1, 0]) == 2``.
    """
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"digit {b!r} is not a bit")
        value = (value << 1) | b
    return value


def int_to_bits(value: int, width: int) -> list[int]:
    """Unpack ``value`` into ``width`` digits, most significant first."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]
