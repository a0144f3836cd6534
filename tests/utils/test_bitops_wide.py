"""Property tests for the label helpers at every word count.

Ground truth is Python's arbitrary-precision ints: every helper is
checked against the equivalent big-int computation via
``label_to_int`` / ``int_to_label_row`` round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.bitops import (
    argsort_labels,
    as_label_array,
    get_label_bit,
    hamming_labels,
    int_to_label_row,
    label_lsb,
    label_sort_keys,
    label_to_int,
    pack_bit_matrix,
    pairwise_hamming,
    permute_bits,
    popcount_labels,
    reverse_label_bits,
    shift_left_labels,
    shift_right_labels,
    swap_label_rows,
    unique_labels,
    unpack_bit_matrix,
    unpermute_bits,
    wide_mask,
    widen_labels,
    words_for_bits,
    zeros_labels,
)

wide_values = st.lists(
    st.integers(min_value=0, max_value=(1 << 192) - 1), min_size=1, max_size=20
)

#: Up to four words: covers the one-word ``uint64`` sort key (including
#: bit 63, i.e. dim 64) and the multi-word ``void`` keys.
any_width_values = st.lists(
    st.integers(min_value=0, max_value=(1 << 256) - 1), min_size=1, max_size=20
)


def _as_wide(values, words=3):
    return np.stack([int_to_label_row(v, words) for v in values])


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


def _per_word_count(values):
    """``(W, values cut below 2**(64 W), labels)`` for W = 1 .. 4."""
    for words in (1, 2, 3, 4):
        cut = [v & ((1 << (64 * words)) - 1) for v in values]
        yield words, cut, _as_wide(cut, words)


class TestRepresentation:
    @pytest.mark.parametrize(
        "dim,words", [(0, 1), (1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_words_for_bits(self, dim, words):
        assert words_for_bits(dim) == words

    def test_zeros_labels_picks_representation(self):
        assert zeros_labels(5, 0).shape == (5, 1)
        assert zeros_labels(5, 30).shape == (5, 1)
        assert zeros_labels(5, 100).shape == (5, 2)
        assert zeros_labels(5, 100).dtype == np.uint64

    def test_widen_narrow_roundtrip(self):
        narrow = np.array([0, 1, 2**62, 5], dtype=np.int64)
        wide = widen_labels(narrow, 3)
        assert wide.shape == (4, 3)
        assert _ints(wide) == narrow.tolist()
        assert np.array_equal(widen_labels(wide, 1), as_label_array(narrow))

    def test_narrow_rejects_high_bits(self):
        wide = _as_wide([1 << 70])
        with pytest.raises(ValueError):
            widen_labels(wide, 1)

    def test_resize_words(self):
        wide = _as_wide([3, 1 << 100], words=2)
        assert widen_labels(wide, 4).shape == (2, 4)
        assert widen_labels(wide, 2) is wide
        with pytest.raises(ValueError):
            widen_labels(wide, 1)  # high bits set

    def test_as_label_array_boundary(self):
        one_word = as_label_array(np.array([3, 0, (1 << 63) + 1], dtype=np.uint64))
        assert one_word.shape == (3, 1) and one_word.dtype == np.uint64
        assert _ints(one_word) == [3, 0, (1 << 63) + 1]
        wide = _as_wide([1 << 100])
        assert as_label_array(wide) is wide
        for bad in (
            np.array([1, -1]),
            np.zeros((2, 2), dtype=np.int64),
            np.zeros((2, 2, 1), dtype=np.uint64),
            np.array([0.5, 1.0]),
        ):
            with pytest.raises(ValueError):
                as_label_array(bad)


class TestBigIntEquivalence:
    """Each example runs at every word count W = 1 .. 4."""

    @given(any_width_values)
    @settings(max_examples=60, deadline=None)
    def test_popcount(self, values):
        for _, cut, labels in _per_word_count(values):
            expect = [bin(v).count("1") for v in cut]
            assert popcount_labels(labels).tolist() == expect

    @given(any_width_values, st.integers(min_value=0, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_shifts(self, values, k):
        for words, cut, labels in _per_word_count(values):
            right = shift_right_labels(labels, k)
            left = shift_left_labels(labels, k)
            assert right.shape == left.shape == labels.shape
            mask = (1 << (64 * words)) - 1
            for i, v in enumerate(cut):
                assert label_to_int(right, i) == v >> k
                assert label_to_int(left, i) == (v << k) & mask

    @given(any_width_values, st.integers(min_value=0, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_masks(self, values, width):
        for words, cut, labels in _per_word_count(values):
            w = min(width, 64 * words)
            masked = labels & wide_mask(w, words)
            for i, v in enumerate(cut):
                assert label_to_int(masked, i) == v & ((1 << w) - 1)

    @given(any_width_values)
    @settings(max_examples=60, deadline=None)
    def test_sort_keys_order_numeric(self, values):
        for _, cut, labels in _per_word_count(values):
            expect = sorted(range(len(cut)), key=lambda i: (cut[i], i))
            keys = label_sort_keys(labels)
            assert np.argsort(keys, kind="stable").tolist() == expect
            assert argsort_labels(labels).tolist() == expect

    @given(any_width_values)
    @settings(max_examples=40, deadline=None)
    def test_unique_labels(self, values):
        for _, cut, labels in _per_word_count(values):
            uniq, inverse = unique_labels(labels)
            assert _ints(uniq) == sorted(set(cut))
            for i, v in enumerate(cut):
                assert label_to_int(uniq, int(inverse[i])) == v

    @given(st.integers(1, 5), st.lists(st.integers(0, (1 << 320) - 1), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_reverse_label_bits(self, words, raw):
        width = 64 * words
        cut = [v % (1 << width) for v in raw]
        labels = _as_wide(cut, words) if cut else zeros_labels(0, width)
        got = reverse_label_bits(labels)
        assert got.shape == labels.shape and got.dtype == np.uint64
        assert _ints(got) == [int(f"{v:0{width}b}"[::-1], 2) for v in cut]

    def test_hamming_and_pairwise(self):
        a = _as_wide([0, (1 << 100) | 3, (1 << 191)])
        ham = pairwise_hamming(a)
        assert ham[0, 1] == 3 and ham[0, 2] == 1 and ham[1, 2] == 4
        assert np.array_equal(ham, ham.T)
        assert hamming_labels(a[0:1], a[1:2]).tolist() == [3]

    def test_get_set_bit_lsb(self):
        a = _as_wide([1, 1 << 64, (1 << 64) | 1])
        assert get_label_bit(a, 0).tolist() == [1, 0, 1]
        assert get_label_bit(a, 64).tolist() == [0, 1, 1]
        assert label_lsb(a).tolist() == [1, 0, 1]


class TestPackUnpackPermute:
    @given(st.integers(min_value=64, max_value=150), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_roundtrip(self, dim, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(12, dim), dtype=np.int64)
        labels = pack_bit_matrix(bits)
        assert labels.shape == (12, words_for_bits(dim))
        assert np.array_equal(unpack_bit_matrix(labels, dim), bits.astype(np.int8))

    @given(st.integers(min_value=64, max_value=150), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_permute_roundtrip_and_agreement(self, dim, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(10, dim), dtype=np.int64)
        labels = pack_bit_matrix(bits)
        perm = rng.permutation(dim)
        permuted = permute_bits(labels, perm)
        # output bit j == input bit perm[j]
        assert np.array_equal(
            unpack_bit_matrix(permuted, dim), bits[:, perm].astype(np.int8)
        )
        assert np.array_equal(unpermute_bits(permuted, perm), labels)

    def test_permute_matches_narrow_when_embedded(self):
        # A one-word labeling padded to 2 words must permute identically.
        rng = np.random.default_rng(7)
        one_word = as_label_array(rng.integers(0, 1 << 40, size=16, dtype=np.int64))
        perm = rng.permutation(40)
        wide = widen_labels(one_word, 2)
        assert np.array_equal(
            widen_labels(permute_bits(wide, perm), 1), permute_bits(one_word, perm)
        )


class TestRowOps:
    def test_swap_label_rows_wide_no_aliasing(self):
        a = _as_wide([5, 9, 1 << 100])
        swap_label_rows(a, 0, 2)
        assert label_to_int(a, 0) == 1 << 100 and label_to_int(a, 2) == 5

    def test_swap_label_rows_narrow(self):
        a = as_label_array([1, 2, 3])
        swap_label_rows(a, 0, 1)
        assert _ints(a) == [2, 1, 3]

    def test_wide_mask_boundaries(self):
        assert label_to_int(wide_mask(64, 2)[None, :], 0) == (1 << 64) - 1
        assert label_to_int(wide_mask(128, 2)[None, :], 0) == (1 << 128) - 1
        assert label_to_int(wide_mask(0, 2)[None, :], 0) == 0
        assert label_to_int(wide_mask(64, 1)[None, :], 0) == (1 << 64) - 1


class TestArgsortLabels:
    """``argsort_labels`` must equal the void-key stable argsort."""

    def _void_argsort(self, labels):
        return np.argsort(label_sort_keys(labels), kind="stable")

    @given(wide_values)
    @settings(max_examples=50, deadline=None)
    def test_small_arrays_match_void_path(self, values):
        labels = _as_wide(values)
        got = argsort_labels(labels)
        assert np.array_equal(got, self._void_argsort(labels))

    def test_two_word_labels_with_repeats_match_void_keys(self):
        rng = np.random.default_rng(0)
        n = 756
        labels = rng.integers(0, 2**64, size=(n, 2), dtype=np.uint64)
        # duplicate rows exercise stability: equal keys keep input order
        labels[n // 2 :] = labels[: n - n // 2]
        assert np.array_equal(argsort_labels(labels), self._void_argsort(labels))

    def test_four_word_labels_match_void_keys(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2**64, size=(356, 4), dtype=np.uint64)
        assert np.array_equal(argsort_labels(labels), self._void_argsort(labels))

    def test_stability_on_all_equal_labels(self):
        labels = np.zeros((260, 2), dtype=np.uint64)
        assert np.array_equal(
            argsort_labels(labels), np.arange(labels.shape[0])
        )

    def test_narrow_path(self):
        labels = np.array([5, 1, 3, 1, 0], dtype=np.int64)
        assert np.array_equal(
            argsort_labels(labels), np.argsort(labels, kind="stable")
        )

    def test_order_is_numeric_bitvector_order(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2**64, size=(2000, 2), dtype=np.uint64)
        order = argsort_labels(labels)
        ints = [label_to_int(labels, v) for v in order]
        assert ints == sorted(ints)
