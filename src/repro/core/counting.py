"""Exact counting of XOR-correlated threshold events.

The derandomization engine repeatedly needs, for an edge {u, v} and a fixed
multiplicative seed s1, the probability (over the uniform additive seed
σ ∈ [2^b)) that both endpoints' hash values fall below their thresholds:

    y_u = g_u ⊕ σ,   y_v = y_u ⊕ d        (d = g_u ⊕ g_v fixed given s1)

with y_u uniform in [2^b).  All survival probabilities of Lemmas 2.2/2.3
therefore reduce to the combinatorial quantity

    N(d, t1, t2) = #{ z ∈ [0, 2^b) : z < t1  and  z ⊕ d < t2 } .

:func:`count_xor_table` fills ``N(·, t1, t2)`` over every d ∈ [0, 2^b) for
a batch of threshold rows, doubling the table from width 0 by the top bit
in O(2^b) per row, and keeps every width it doubles through.  It is the
one counting route of the derandomizer, and it serves both halves of
Lemma 2.6: :class:`~repro.core.potential.SweepCountKernel` fills it once
per distinct threshold row of a phase (interval rows follow by
inclusion-exclusion) and answers the s1 sweep's (seed, column) cells from
the full-width level, and the σ descent of
:func:`~repro.core.potential.exact_by_sigma_grouped` reads its width-L
blocks from level L of the same table.

The test suite keeps an O(b) per-cell digit DP as the oracle for every
level, next to brute-force cross-checks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_xor_table"]


def count_xor_table(t1: np.ndarray, t2: np.ndarray, b: int) -> list:
    """Every level of the doubling fill of ``N(d, t1[i], t2[i])``: a list
    whose entry L ∈ [0, b] is the (rows × 2^L) int64 table of width L, so
    entry b is the full table over d ∈ [0, 2^b).

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

    Level L therefore holds ``N_L(d, t1_L, t2_L)`` over d ∈ [0, 2^L), for
    z ∈ [0, 2^L), at the thresholds reduced to width L: ``t1_L = t1 mod
    2^L`` (2^L when t1 = 2^b) and ``t2_L = t2 mod 2^L`` (2^L when that is 0
    but t2 is not).  Whenever neither threshold is a multiple of 2^L, that
    is exactly ``N_L(d, t1 mod 2^L, t2 mod 2^L)``: the count of a dyadic
    block of 2^L values that both thresholds cut strictly inside.
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
    tables = [np.minimum(t1, t2)[:, None]]
    for half, off, const in reversed(levels):
        table = tables[-1]
        h = table.shape[1]
        doubled = np.empty((len(rows), 2, h), dtype=np.int64)
        doubled[rows, half] = table + off[:, None]
        doubled[rows, 1 - half] = const[:, None]
        tables.append(doubled.reshape(len(rows), 2 * h))
    return tables
