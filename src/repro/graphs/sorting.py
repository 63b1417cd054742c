"""Sort-based dedup of 1-D integer arrays.

:func:`unique` returns what ``np.unique`` returns for a 1-D integer array
(the sorted distinct values and, on request, the first-occurrence index,
the inverse and the counts, in the same dtypes), from one unstable sort.
numpy ≥ 2.3 answers a plain ``np.unique`` with a hash table that it then
sorts, and ``return_index`` with a stable (merge/radix) argsort; on
distinct int64 keys both are several times slower than ``np.sort`` or the
default argsort.  Every dedup in ``src/`` goes through this function.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unique"]


def unique(
    a,
    return_index: bool = False,
    return_inverse: bool = False,
    return_counts: bool = False,
):
    """``np.unique(a, return_index, return_inverse, return_counts)`` for a
    1-D integer (or boolean) array ``a``, by sorting.

    The values come from ``np.sort``.  When the index or the inverse is
    asked for, one unstable ``argsort`` gives the sorted order instead; a
    run of equal values may then be permuted, so each value's first
    occurrence is the minimum of its run's original positions
    (``np.minimum.reduceat`` over the run starts).
    """
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"unique takes a 1-D array, got shape {a.shape}")
    if a.dtype.kind not in "biu":
        raise TypeError(f"unique takes an integer array, got {a.dtype}")
    if return_index or return_inverse:
        order = a.argsort()
        sorted_a = a[order]
    else:
        sorted_a = np.sort(a)
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_a[1:], sorted_a[:-1], out=new[1:])
    values = sorted_a[new]
    if not (return_index or return_inverse or return_counts):
        return values
    out = [values]
    starts = np.flatnonzero(new)
    if return_index:
        out.append(np.minimum.reduceat(order, starts) if len(a) else order)
    if return_inverse:
        inverse = np.empty(len(a), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        out.append(inverse)
    if return_counts:
        counts = np.empty_like(starts)  # run lengths; cheaper than np.diff
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1:] = len(a) - starts[-1:]
        out.append(counts)
    return tuple(out)
