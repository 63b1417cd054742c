"""Biased coins and bucket selectors from a shared short seed (Lemma 2.5).

Lemma 2.5: given a K-coloring ψ of the graph, an accuracy parameter b and a
probability p_v per node, one can generate coins ``C_v`` from a seed of
length ``2·max(log K, b)`` such that

* ``Pr[C_v = 1]`` equals p_v rounded *up* to a multiple of 2^-b (exactly
  p_v when p_v ∈ {0, 1});
* the coins of adjacent nodes (distinct ψ-colors) are independent.

This module implements both the single coin and the generalized *bucket
selector* used by the r-bit prefix extension (Theorem 1.3 / Lemma 4.2):
node v picks bucket w ∈ [2^r] with probability ≈ k_w / |L(v)| via the
cumulative integer thresholds

    T_w(v) = ceil( (k_0 + ... + k_{w-1}) · 2^b / |L(v)| ),

selecting the bucket whose threshold interval contains
``y_v = h(ψ(v)) ∈ [2^b)``.  Because the thresholds are exact integer
ceilings, empty buckets get empty intervals (never selected) and the total
always covers [2^b) (some non-empty bucket is always selected) — this is
the "candidate list never becomes empty" guarantee of Lemmas 2.2/2.3.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bucket_thresholds", "select_buckets", "coin_thresholds"]


def bucket_thresholds(bucket_counts: np.ndarray, b: int) -> np.ndarray:
    """Cumulative integer thresholds for bucket selection.

    Parameters
    ----------
    bucket_counts:
        Integer array of shape ``(n, W)``: ``bucket_counts[v, w]`` is the
        number of candidate colors of node v in bucket w (the paper's
        ``k_w(v)``).  Row sums are the list sizes ``|L(v)|`` and must be
        positive.
    b:
        Accuracy bits; thresholds live in ``[0, 2^b]``.

    Returns
    -------
    ``(n, W+1)`` int64 array T with ``T[:, 0] = 0`` and ``T[:, W] = 2^b``;
    node v selects bucket w iff ``T[v, w] <= y_v < T[v, w+1]``.
    """
    counts = np.asarray(bucket_counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError("bucket_counts must be 2-dimensional (nodes x buckets)")
    if (counts < 0).any():
        raise ValueError("bucket counts must be non-negative")
    totals = counts.sum(axis=1)
    if (totals <= 0).any():
        raise ValueError("every node must have at least one candidate color")
    scale = np.int64(1) << b
    cumulative = np.concatenate(
        [np.zeros((counts.shape[0], 1), dtype=np.int64), np.cumsum(counts, axis=1)],
        axis=1,
    )
    # ceil(cum * 2^b / total), exactly, in integers.
    thresholds = -(-cumulative * scale // totals[:, None])
    return thresholds


def select_buckets(thresholds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bucket index per node given hash values ``y`` in [2^b).

    ``thresholds`` is the output of :func:`bucket_thresholds`.  For every
    node the selected bucket has a non-empty threshold interval, hence at
    least one candidate color.
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    # Rowwise rank of y among the thresholds: bucket w has T[w] <= y <
    # T[w+1].  T[:, 0] = 0 always satisfies the inequality, so counting the
    # remaining columns gives the bucket index directly (broadcast, no
    # per-node searchsorted loop); T[:, W] = 2^b > y never counts, so the
    # bucket is below W.
    return (thresholds[:, 1:] <= y[:, None]).sum(axis=1, dtype=np.int64)


def coin_thresholds(k1: np.ndarray, list_sizes: np.ndarray, b: int) -> np.ndarray:
    """Single-coin threshold t_v = ceil(p_v · 2^b) with p_v = k1/|L| (Lemma 2.5).

    ``C_v = 1`` iff ``y_v < t_v``.  Then ``Pr[C_v = 1] = t_v / 2^b`` lies in
    ``[p_v, p_v + 2^-b]`` and is exact for p_v ∈ {0, 1}.
    """
    k1 = np.asarray(k1, dtype=np.int64)
    sizes = np.asarray(list_sizes, dtype=np.int64)
    if (sizes <= 0).any():
        raise ValueError("list sizes must be positive")
    if ((k1 < 0) | (k1 > sizes)).any():
        raise ValueError("k1 must satisfy 0 <= k1 <= |L|")
    scale = np.int64(1) << b
    return -(-k1 * scale // sizes)
