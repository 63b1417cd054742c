"""Exact counting of XOR-correlated threshold events.

The derandomization engine repeatedly needs, for an edge {u, v} and a fixed
multiplicative seed s1, the probability (over the uniform additive seed
σ ∈ [2^b)) that both endpoints' hash values fall below their thresholds:

    y_u = g_u ⊕ σ,   y_v = y_u ⊕ d        (d = g_u ⊕ g_v fixed given s1)

with y_u uniform in [2^b).  All survival probabilities of Lemmas 2.2/2.3
therefore reduce to the combinatorial quantity

    N(d, t1, t2) = #{ z ∈ [0, 2^b) : z < t1  and  z ⊕ d < t2 } .

Two vectorized routes compute it, and interval versions follow from either
by inclusion-exclusion:

* :func:`count_xor_below` is an O(b) branch-free digit DP on arrays of
  ``(d, t1, t2)`` triples.  It serves per-cell counts (the σ descent of
  :func:`~repro.core.potential.exact_by_sigma_grouped`, one cell per alive
  edge and level) and is the test suite's oracle for the table below.
* :func:`count_xor_table` fills ``N(·, t1, t2)`` over every d ∈ [0, 2^b)
  for a batch of threshold rows, doubling the table from width 0 by the
  top bit in O(2^b) per row.  The seed sweep needs exactly this: a phase
  has few distinct threshold rows (or interval quadruples) but 2^m seeds,
  so :class:`~repro.core.potential.SweepCountKernel` fills one table per
  distinct row and answers each (seed, column) cell with one gather.

Brute-force cross-checks of both live in the test suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_xor_below", "count_xor_table"]


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


def count_xor_table(t1: np.ndarray, t2: np.ndarray, b: int) -> np.ndarray:
    """The (rows × 2^b) int64 table ``N(d, t1[i], t2[i])``, d ∈ [0, 2^b).

    Thresholds lie in ``[0, 2^b]``.  Split z and d on their top bit at
    width L, h = 2^(L−1): each threshold has one trivial half (full or
    empty) and one partial half of at most h values.  Threshold t1 is
    partial in its upper half when ``t1 ≥ h`` and t2 when ``t2 > h`` (at
    t = h either side is exact: the lower half is full, the upper empty),
    and removing that half's offset gives reduced thresholds t1', t2' in
    ``[0, h]``.  Then for d in the half ``(t1 ≥ h) ⊕ (t2 > h)`` the
    partial halves meet, so

        N_L(d, t1, t2) = N_{L−1}(d mod h, t1', t2') + off,

    with ``off = h`` when both thresholds are high (their lower halves
    meet in full) and 0 otherwise.  In the other half of d each partial
    half meets the other threshold's trivial half, which gives a per-row
    constant: 0, t1, t2 or ``t1 + t2 − 2h``.  So the thresholds are
    reduced once from width b down to 0, where ``N_0 = min(t1, t2)``, and
    the table doubles back up with two row-wise writes per level.
    """
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    levels = []
    for width in range(b, 0, -1):
        h = 1 << (width - 1)
        high1 = t1 >= h
        high2 = t2 > h
        t1 = np.where(high1, t1 - h, t1)
        t2 = np.where(high2, t2 - h, t2)
        levels.append(
            (
                (high1 ^ high2).astype(np.int64),
                np.where(high1 & high2, h, 0),
                np.where(high2, t1, 0) + np.where(high1, t2, 0),
            )
        )
    rows = np.arange(len(t1))
    table = np.minimum(t1, t2)[:, None]
    for half, off, const in reversed(levels):
        h = table.shape[1]
        doubled = np.empty((len(rows), 2, h), dtype=np.int64)
        doubled[rows, half] = table + off[:, None]
        doubled[rows, 1 - half] = const[:, None]
        table = doubled.reshape(len(rows), 2 * h)
    return table
