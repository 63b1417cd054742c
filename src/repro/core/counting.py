"""Exact counting of XOR-correlated threshold events.

The derandomization engine repeatedly needs, for an edge {u, v} and a fixed
multiplicative seed s1, the probability (over the uniform additive seed
σ ∈ [2^b)) that both endpoints' hash values fall below their thresholds:

    y_u = g_u ⊕ σ,   y_v = y_u ⊕ d        (d = g_u ⊕ g_v fixed given s1)

with y_u uniform in [2^b).  All survival probabilities of Lemmas 2.2/2.3
therefore reduce to the combinatorial quantity

    N(d, t1, t2) = #{ z ∈ [0, 2^b) : z < t1  and  z ⊕ d < t2 } ,

computed here with an O(b) branch-free digit DP, fully vectorized over numpy
arrays of ``(d, t1, t2)`` triples.  Interval versions follow by
inclusion-exclusion.  Brute-force cross-checks live in the test suite.

The seed sweep does not run the DP per (seed, column) cell: a phase has few
distinct threshold rows ``(t1, t2)`` (or interval quadruples) but 2^m seeds,
so :class:`~repro.core.potential.SweepCountKernel` runs these functions once
per distinct row over every ``d ∈ [0, 2^b)`` to fill a count table, and
answers each cell with one table gather.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_xor_below", "count_xor_in_intervals"]


def count_xor_below(
    d: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
    b: int,
) -> np.ndarray:
    """Vectorized ``N(d, t1, t2)`` for thresholds in ``[0, 2^b]``.

    Decomposes ``{z < t1}`` into dyadic blocks: for every bit position i
    where t1 has a 1, the block fixes z's bits above i to t1's, forces bit i
    of z to 0 and leaves i low bits free.  Within a block, the high bits of
    ``y = z ⊕ d`` are determined, so comparison against t2 either accepts the
    whole block (2^i points), rejects it, or reduces to the low bits of t2
    (where ``z_low ↦ z_low ⊕ d_low`` is a bijection).  Position ``i = b``
    uniformly handles the inclusive threshold ``t1 = 2^b``.
    """
    d = np.asarray(d, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    d, t1, t2 = np.broadcast_arrays(d, t1, t2)
    total = np.zeros(d.shape, dtype=np.int64)
    for i in range(b, -1, -1):
        bit_set = ((t1 >> i) & 1).astype(bool)
        # Value of y's bits b..i inside this block, shifted down by i.
        yy = (((t1 >> (i + 1)) ^ (d >> (i + 1))) << 1) | ((d >> i) & 1)
        tt = t2 >> i
        low_mask = (np.int64(1) << i) - 1
        block = np.where(
            yy < tt,
            np.int64(1) << i,
            np.where(yy == tt, t2 & low_mask, np.int64(0)),
        )
        total += np.where(bit_set, block, np.int64(0))
    return total


def count_xor_in_intervals(
    d: np.ndarray,
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    b: int,
) -> np.ndarray:
    """``#{z : z ∈ [lo1, hi1) and z⊕d ∈ [lo2, hi2)}`` by inclusion-exclusion."""
    return (
        count_xor_below(d, hi1, hi2, b)
        - count_xor_below(d, lo1, hi2, b)
        - count_xor_below(d, hi1, lo2, b)
        + count_xor_below(d, lo1, lo2, b)
    )

