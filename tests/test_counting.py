"""The XOR-threshold counting DP vs brute force (the derandomizer's core)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import count_xor_below_scalar
from repro.core.counting import count_xor_below, count_xor_in_intervals


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
