"""Unit and property tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bitops import (
    as_label_array,
    bit_length_for,
    bits_to_int,
    hamming,
    int_to_bits,
    label_to_int,
    permute_bits,
    popcount,
    popcount_labels,
    unpermute_bits,
    wide_mask,
)


class TestPopcountHamming:
    def test_popcount_basic(self):
        assert popcount(np.asarray([0, 1, 3, 255], dtype=np.int64)).tolist() == [0, 1, 2, 8]

    def test_hamming_symmetry(self):
        a = np.asarray([0b1010, 0b1111], dtype=np.int64)
        b = np.asarray([0b0101, 0b1111], dtype=np.int64)
        assert hamming(a, b).tolist() == [4, 0]
        assert hamming(b, a).tolist() == [4, 0]

    def test_hamming_broadcast(self):
        a = np.asarray([[0b01], [0b10]], dtype=np.int64)
        b = np.asarray([0b00, 0b11], dtype=np.int64)
        assert hamming(a, b).tolist() == [[1, 1], [1, 1]]


class TestBitLength:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)]
    )
    def test_values(self, n, expected):
        assert bit_length_for(n) == expected

    @given(st.integers(min_value=1, max_value=10**9))
    def test_covers_range(self, n):
        width = bit_length_for(n)
        assert (1 << width) >= n
        if n > 1:
            assert (1 << (width - 1)) < n


class TestMask:
    def test_zero_width(self):
        assert wide_mask(0, 1).tolist() == [0]

    def test_full(self):
        assert wide_mask(3, 1).tolist() == [0b111]
        assert wide_mask(64, 1).tolist() == [(1 << 64) - 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            wide_mask(-1, 1)
        with pytest.raises(ValueError):
            wide_mask(65, 1)


class TestPermuteBits:
    def test_identity(self):
        labels = as_label_array([0b101, 0b010, 0b111])
        perm = np.arange(3)
        assert np.array_equal(permute_bits(labels, perm), labels)

    def test_reverse(self):
        labels = as_label_array([0b001])
        perm = np.asarray([2, 1, 0])
        # new bit 0 = old bit 2 (=0), new bit 2 = old bit 0 (=1)
        assert label_to_int(permute_bits(labels, perm), 0) == 0b100

    def test_unpermute_inverts(self):
        rng = np.random.default_rng(0)
        labels = as_label_array(rng.integers(0, 2**20, size=50))
        perm = rng.permutation(20)
        assert np.array_equal(unpermute_bits(permute_bits(labels, perm), perm), labels)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0))
    def test_popcount_invariant(self, width, seed):
        rng = np.random.default_rng(seed % 2**32)
        labels = as_label_array(rng.integers(0, 1 << width, size=10))
        perm = rng.permutation(width)
        permuted = permute_bits(labels, perm)
        assert np.array_equal(popcount_labels(permuted), popcount_labels(labels))


class TestBitListConversions:
    def test_round_trip(self):
        assert bits_to_int(int_to_bits(13, 6)) == 13

    def test_msb_first(self):
        assert bits_to_int([1, 0]) == 2
        assert int_to_bits(2, 2) == [1, 0]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bits_to_int([2])

    def test_rejects_overflow(self):
        for value, width in [(4, 2), (1 << 64, 64), (1 << 63, 63)]:
            with pytest.raises(ValueError):
                int_to_bits(value, width)


class TestBitwiseCountShim:
    """The numpy < 2.0 compatibility shim must agree with the native op."""

    def test_fallback_matches_native_on_samples(self):
        from repro.utils.bitops import _bitwise_count_fallback, bitwise_count

        x = np.asarray([0, 1, 2, 3, 255, 1 << 40, (1 << 63) - 1], dtype=np.int64)
        assert np.array_equal(_bitwise_count_fallback(x), bitwise_count(x))

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1), max_size=50))
    def test_fallback_matches_python_bit_count(self, values):
        from repro.utils.bitops import _bitwise_count_fallback

        x = np.asarray(values, dtype=np.int64)
        got = _bitwise_count_fallback(x)
        assert got.tolist() == [v.bit_count() for v in values]

    def test_fallback_preserves_shape(self):
        from repro.utils.bitops import _bitwise_count_fallback

        x = np.arange(12, dtype=np.int64).reshape(3, 4)
        assert _bitwise_count_fallback(x).shape == (3, 4)

    def test_fallback_scalar(self):
        from repro.utils.bitops import _bitwise_count_fallback

        assert int(_bitwise_count_fallback(np.int64(7))) == 3

    def test_shim_is_native_on_numpy2(self):
        from repro.utils import bitops

        if hasattr(np, "bitwise_count"):
            assert bitops.bitwise_count is np.bitwise_count
