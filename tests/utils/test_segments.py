"""Tests for the CSR segment-reduction helpers."""

import numpy as np
import pytest

from repro.utils.segments import (
    build_csr,
    group_ranks,
    group_reduce_sum,
    run_sums,
    segment_sum,
)


class TestSegmentSum:
    def test_basic(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        indptr = np.asarray([0, 2, 2, 5])
        assert segment_sum(values, indptr).tolist() == [3.0, 0.0, 12.0]

    def test_all_empty(self):
        out = segment_sum(np.empty(0), np.asarray([0, 0, 0]))
        assert out.tolist() == [0.0, 0.0]

    def test_trailing_empty_segments(self):
        # Raw reduceat would raise on a start index == len(values).
        values = np.asarray([1.0, 2.0])
        indptr = np.asarray([0, 2, 2, 2])
        assert segment_sum(values, indptr).tolist() == [3.0, 0.0, 0.0]

    def test_matches_python_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_seg = int(rng.integers(1, 12))
            counts = rng.integers(0, 6, size=n_seg)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            values = rng.normal(size=int(indptr[-1]))
            expect = [values[a:b].sum() for a, b in zip(indptr[:-1], indptr[1:])]
            assert np.allclose(segment_sum(values, indptr), expect)

    def test_rejects_mismatched_indptr(self):
        with pytest.raises(ValueError):
            segment_sum(np.asarray([1.0, 2.0]), np.asarray([0, 1]))


class TestGroupReduceSum:
    def test_basic(self):
        keys = np.asarray([3, 1, 3, 1, 7])
        vals = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        uniq, sums = group_reduce_sum(keys, vals)
        assert uniq.tolist() == [1, 3, 7]
        assert sums.tolist() == [6.0, 4.0, 5.0]

    def test_empty(self):
        uniq, sums = group_reduce_sum(np.empty(0, np.int64), np.empty(0))
        assert uniq.size == 0 and sums.size == 0

    def test_single_group(self):
        uniq, sums = group_reduce_sum(np.asarray([5, 5, 5]), np.asarray([1.0, 1.0, 1.5]))
        assert uniq.tolist() == [5] and sums.tolist() == [3.5]

    def test_matches_python_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            keys = rng.integers(0, 8, size=int(rng.integers(0, 30)))
            vals = rng.normal(size=keys.shape[0])
            uniq, sums = group_reduce_sum(keys, vals)
            expect = {int(k): float(vals[keys == k].sum()) for k in np.unique(keys)}
            assert {int(k): float(s) for k, s in zip(uniq, sums)} == pytest.approx(expect)

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            group_reduce_sum(np.asarray([1, 2]), np.asarray([1.0]))

    def test_sums_are_bitwise_reduceat(self):
        # reduceat adds a run's tail pairwise onto its head; run_sums must
        # reproduce that exactly, for runs shorter and longer than numpy's
        # 8-element pairwise block.
        rng = np.random.default_rng(3)
        for _ in range(200):
            lengths = rng.choice([1, 1, 1, 2, 3, 4, 9, 17], size=int(rng.integers(1, 30)))
            starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
            values = np.round(rng.uniform(0.1, 5.0, int(lengths.sum())), 1)
            expect = np.add.reduceat(values, starts)
            assert run_sums(values, starts).tobytes() == expect.tobytes()
            keys = np.repeat(rng.permutation(lengths.size), lengths)
            order = np.argsort(keys, kind="stable")
            uniq, sums = group_reduce_sum(keys, values)
            starts_k = np.unique(keys[order], return_index=True)[1]
            assert sums.tobytes() == np.add.reduceat(values[order], starts_k).tobytes()


class TestGroupRanks:
    def test_interleaved(self):
        assert group_ranks(np.asarray([0, 1, 0, 1, 0])).tolist() == [0, 0, 1, 1, 2]

    def test_empty(self):
        assert group_ranks(np.asarray([], dtype=np.int64)).size == 0

    def test_single_key(self):
        assert group_ranks(np.asarray([9, 9, 9])).tolist() == [0, 1, 2]

    def test_matches_python_reference(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 5, size=40)
        ranks = group_ranks(keys)
        seen: dict[int, int] = {}
        for i, k in enumerate(keys):
            assert ranks[i] == seen.get(int(k), 0)
            seen[int(k)] = seen.get(int(k), 0) + 1


class TestBuildCsr:
    def test_round_trip_triangle(self):
        us = np.asarray([0, 1, 0])
        vs = np.asarray([1, 2, 2])
        ws = np.asarray([1.0, 2.0, 3.0])
        indptr, indices, weights = build_csr(3, us, vs, ws)
        assert indptr.tolist() == [0, 2, 4, 6]
        assert weights.sum() == 2 * ws.sum()
        # neighbor sets per vertex
        assert sorted(indices[0:2].tolist()) == [1, 2]
        assert sorted(indices[2:4].tolist()) == [0, 2]
        assert sorted(indices[4:6].tolist()) == [0, 1]

    def test_isolated_vertices(self):
        indptr, indices, weights = build_csr(4, np.asarray([1]), np.asarray([2]), np.asarray([5.0]))
        assert indptr.tolist() == [0, 0, 1, 2, 2]
        assert indices.tolist() == [2, 1]

    def test_empty(self):
        indptr, indices, weights = build_csr(
            3, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        )
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0
