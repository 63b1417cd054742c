"""The XOR-threshold counting DP and the doubling table fill vs brute
force (the derandomizer's core)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    count_table_reference,
    count_xor_below,
    count_xor_below_scalar,
    count_xor_in_intervals,
)
from repro.core.counting import count_xor_table
from repro.core.potential import SweepCountKernel
from repro.hashing.pairwise import PairwiseFamily


def brute_below(d: int, t1: int, t2: int, b: int) -> int:
    return sum(1 for z in range(1 << b) if z < t1 and (z ^ d) < t2)


def brute_intervals(d, lo1, hi1, lo2, hi2, b) -> int:
    return sum(
        1
        for z in range(1 << b)
        if lo1 <= z < hi1 and lo2 <= (z ^ d) < hi2
    )


class TestCountXorBelow:
    def test_exhaustive_b3(self):
        b = 3
        for d in range(8):
            for t1 in range(9):
                for t2 in range(9):
                    assert count_xor_below_scalar(d, t1, t2, b) == brute_below(
                        d, t1, t2, b
                    ), (d, t1, t2)

    @given(
        st.integers(min_value=1, max_value=10),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_cases(self, b, data):
        d = data.draw(st.integers(min_value=0, max_value=(1 << b) - 1))
        t1 = data.draw(st.integers(min_value=0, max_value=1 << b))
        t2 = data.draw(st.integers(min_value=0, max_value=1 << b))
        assert count_xor_below_scalar(d, t1, t2, b) == brute_below(d, t1, t2, b)

    def test_full_thresholds_count_everything(self):
        b = 6
        assert count_xor_below_scalar(13, 1 << b, 1 << b, b) == 1 << b

    def test_zero_threshold_counts_nothing(self):
        assert count_xor_below_scalar(5, 0, 8, 3) == 0
        assert count_xor_below_scalar(5, 8, 0, 3) == 0

    def test_vectorized_shape_and_values(self):
        b = 4
        d = np.arange(16, dtype=np.int64)
        t1 = np.full(16, 9, dtype=np.int64)
        t2 = np.full(16, 5, dtype=np.int64)
        out = count_xor_below(d, t1, t2, b)
        for i in range(16):
            assert out[i] == brute_below(i, 9, 5, b)

    def test_symmetry_in_complement(self):
        # #{z < t1, z^d < t2} + #{z < t1, z^d >= t2} = t1.
        b = 5
        for d in (0, 7, 31):
            for t1 in (0, 11, 32):
                for t2 in (0, 17, 32):
                    n = count_xor_below_scalar(d, t1, t2, b)
                    n_complement = count_xor_below_scalar(d, t1, 1 << b, b) - n
                    assert n + n_complement == t1


class TestCountIntervals:
    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, b, data):
        top = 1 << b
        d = data.draw(st.integers(min_value=0, max_value=top - 1))
        lo1 = data.draw(st.integers(min_value=0, max_value=top))
        hi1 = data.draw(st.integers(min_value=lo1, max_value=top))
        lo2 = data.draw(st.integers(min_value=0, max_value=top))
        hi2 = data.draw(st.integers(min_value=lo2, max_value=top))
        got = count_xor_in_intervals(
            np.array([d]), np.array([lo1]), np.array([hi1]),
            np.array([lo2]), np.array([hi2]), b,
        )[0]
        assert got == brute_intervals(d, lo1, hi1, lo2, hi2, b)

    def test_disjoint_buckets_partition_the_space(self):
        # Summing interval counts over a partition of [0,2^b)² slices gives t1.
        b = 4
        d = 6
        boundaries = [0, 3, 9, 16]
        total = 0
        for i in range(3):
            for j in range(3):
                total += count_xor_in_intervals(
                    np.array([d]),
                    np.array([boundaries[i]]), np.array([boundaries[i + 1]]),
                    np.array([boundaries[j]]), np.array([boundaries[j + 1]]),
                    b,
                )[0]
        assert total == 1 << b


def dp_table(t1, t2, b):
    """The digit DP over every d ∈ [0, 2^b) for each row ``(t1[i], t2[i])``."""
    d = np.arange(1 << b, dtype=np.int64)[None, :]
    return count_xor_below(d, t1[:, None], t2[:, None], b)


def boundary_thresholds(b):
    """0, 2^b and every level boundary 2^(L−1) of the doubling with its
    neighbours: a threshold whose lowest set bit is L − 1 reduces to
    exactly h = 2^(L−1) at width L, where ``≥ h`` and ``> h`` part."""
    top = 1 << b
    values = {0, top}
    for level in range(1, b + 1):
        h = 1 << (level - 1)
        values |= {h - 1, h, h + 1, top - h}
    return np.array(sorted(v for v in values if 0 <= v <= top), dtype=np.int64)


@st.composite
def threshold_rows(draw):
    """``(b, t1, t2)``: b in [0, 14] and 1..12 threshold rows in [0, 2^b],
    drawn to sit on 0, on 2^b, or on an odd multiple of a power of two
    (which lands exactly on that level's boundary) as often as anywhere."""
    b = draw(st.integers(min_value=0, max_value=14))
    top = 1 << b

    def threshold():
        kind = draw(st.sampled_from(["zero", "top", "boundary", "any"]))
        if kind == "zero":
            return 0
        if kind == "top" or (kind == "boundary" and b == 0):
            return top
        if kind == "boundary":
            shift = draw(st.integers(min_value=0, max_value=b - 1))
            odd = draw(st.integers(0, (top >> (shift + 1)) - 1))
            return (2 * odd + 1) << shift
        return draw(st.integers(min_value=0, max_value=top))

    rows = draw(st.integers(min_value=1, max_value=12))
    pairs = [(threshold(), threshold()) for _ in range(rows)]
    t1, t2 = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    return b, t1, t2


def reduced_thresholds(t1, t2, b, width):
    """The thresholds the doubling fill reduces rows ``(t1, t2)`` to at
    ``width``: t1 mod 2^width (2^width when t1 = 2^b), and t2 mod 2^width
    (2^width when that is 0 but t2 is not)."""
    full = 1 << width
    return (
        np.where(t1 == 1 << b, full, t1 % full),
        np.where(t2 == 0, 0, (t2 - 1) % full + 1),
    )


class TestCountXorTable:
    """The top-bit doubling fill equals the digit DP on every cell, at
    every level it keeps."""

    @given(threshold_rows())
    @settings(max_examples=150, deadline=None)
    def test_every_level_matches_dp_at_reduced_thresholds(self, drawn):
        b, t1, t2 = drawn
        levels = count_xor_table(t1, t2, b)
        assert len(levels) == b + 1
        for width, level in enumerate(levels):
            full = 1 << width
            assert level.dtype == np.int64
            assert level.shape == (len(t1), full)
            assert np.array_equal(
                level, dp_table(*reduced_thresholds(t1, t2, b, width), width)
            )
            # Rows whose thresholds both cut a block of 2^width strictly
            # inside read them mod 2^width: the σ descent's lookup.
            inside = (t1 % full > 0) & (t2 % full > 0)
            assert np.array_equal(
                level[inside], dp_table(t1[inside] % full, t2[inside] % full, width)
            )

    @given(threshold_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_dp(self, drawn):
        b, t1, t2 = drawn
        got = count_xor_table(t1, t2, b)[b]
        assert got.dtype == np.int64
        assert got.shape == (len(t1), 1 << b)
        assert np.array_equal(got, dp_table(t1, t2, b))

    @pytest.mark.parametrize("b", range(11))
    def test_every_pair_of_boundaries(self, b):
        values = boundary_thresholds(b)
        t1, t2 = (g.ravel() for g in np.meshgrid(values, values))
        assert np.array_equal(count_xor_table(t1, t2, b)[b], dp_table(t1, t2, b))

    @pytest.mark.parametrize("b", range(5))
    def test_brute_force_every_cell(self, b):
        top = 1 << b
        t1, t2 = (
            g.ravel()
            for g in np.meshgrid(np.arange(top + 1), np.arange(top + 1))
        )
        z = np.arange(top)
        d = np.arange(top)
        inside = (z[None, None, :] < t1[:, None, None]) & (
            (z[None, None, :] ^ d[None, :, None]) < t2[:, None, None]
        )
        assert np.array_equal(count_xor_table(t1, t2, b)[b], inside.sum(axis=2))

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        assert count_xor_table(empty, empty, 5)[5].shape == (0, 32)


class TestIntervalTable:
    """Interval rows combine four deduplicated prefix tables by
    inclusion–exclusion, as the DP's interval count does."""

    @staticmethod
    def kernel(thr_u, thr_v, b=5):
        thr_u = np.asarray(thr_u, dtype=np.int64)
        thr_v = np.asarray(thr_v, dtype=np.int64)
        psi_diff = np.ones(len(thr_u), dtype=np.int64)
        return SweepCountKernel(
            PairwiseFamily(4, b), thr_u.shape[1] - 1, psi_diff, thr_u, thr_v
        )

    @staticmethod
    def prefix_rows(kernel):
        _, (lo_u, hi_u, lo_v, hi_v) = kernel._threshold_rows()
        return np.stack(
            [
                np.concatenate([hi_u, lo_u, hi_u, lo_u]),
                np.concatenate([hi_v, hi_v, lo_v, lo_v]),
            ],
            axis=1,
        )

    @staticmethod
    def assert_table_matches_dp(kernel):
        table = kernel.table
        assert table.dtype == kernel.dtype
        assert np.array_equal(
            table.reshape(-1, 1 << kernel.b), count_table_reference(kernel)
        )
        # Each count column's four prefix rows of the top level give its
        # row of the table by inclusion–exclusion.
        top = kernel.levels[kernel.b].astype(np.int64)
        corners = top[kernel.column_rows]
        assert np.array_equal(
            corners[0] - corners[1] - corners[2] + corners[3],
            table[kernel.row_of_col],
        )

    def test_shared_bucket_bounds(self):
        # Both endpoints of every edge share one threshold row, so the
        # (hi, hi) prefix row of bucket w is the (lo, lo) row of bucket
        # w + 1.
        rows = [[0, 3, 9, 20, 32], [0, 0, 16, 16, 32]]
        kernel = self.kernel(rows, rows)
        prefix = self.prefix_rows(kernel)
        assert len(np.unique(prefix, axis=0)) < len(prefix)
        self.assert_table_matches_dp(kernel)

    def test_swapped_endpoint_rows(self):
        # u's and v's rows swapped between two edges, with empty buckets
        # beside wide ones: 0 and 2^b bounds recur across buckets, so
        # prefix rows such as (0, 5) come from several interval rows.
        a = [0, 5, 5, 32, 32]
        c = [0, 12, 17, 17, 32]
        kernel = self.kernel([a, c, a], [c, a, a])
        prefix = self.prefix_rows(kernel)
        assert len(np.unique(prefix, axis=0)) < len(prefix)
        self.assert_table_matches_dp(kernel)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_all_interval_rows_small_b(self, b):
        # Every pair of nonempty intervals at both endpoints, each as
        # bucket 1 of the 4-bucket row [0, lo, hi, 2^b, 2^b].
        top = 1 << b
        bounds = [(lo, hi) for lo in range(top) for hi in range(lo + 1, top + 1)]
        rows_u, rows_v = [], []
        for lo_u, hi_u in bounds:
            for lo_v, hi_v in bounds:
                rows_u.append([0, lo_u, hi_u, top, top])
                rows_v.append([0, lo_v, hi_v, top, top])
        self.assert_table_matches_dp(self.kernel(rows_u, rows_v, b))
