"""Method of conditional expectations over the shared seed (Lemma 2.6).

The randomized one-bit prefix extension (Algorithm 1) driven by the biased
coins of Lemma 2.5 uses a shared random seed of d = m + b bits (s1 followed
by σ, most significant bit first).  Derandomization fixes the seed bit by
bit: for each bit, the conditional expectation of the potential given the
already-fixed prefix and either value of the next bit is computed, and the
smaller branch is kept — Eq. (7) of the paper.

Because :class:`~repro.core.potential.PhaseEstimator` produces the full
conditional-value arrays (``val1[s1]`` = E[potential | s1], ``val2[σ]`` =
exact potential given (s1, σ)), the conditional expectation after fixing any
bit prefix is simply the mean of the corresponding contiguous block, and the
greedy bit choice is exact — no sampling, no approximation beyond the coin
rounding that Lemma 2.3 already accounts for.

In the CONGEST model each bit costs one aggregation + one broadcast over a
BFS tree (O(D) rounds); in the CONGESTED CLIQUE / MPC models whole λ-bit
*segments* are fixed in O(1) rounds (Theorems 1.3–1.5).  Both cost models
consume the same :class:`SeedChoice`; only the round accounting differs.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    exact_by_sigma_grouped,
)

__all__ = [
    "SeedChoice",
    "current_sweep_cache",
    "fix_bits_greedily",
    "derandomize_phase",
    "derandomize_phase_group",
    "sweep_cache_scope",
]


#: Ambient sweep-result cache (None → every sweep recomputes).  A cache is
#: any object with the :class:`repro.core.sweep_cache.SweepResultCache`
#: surface — ``load(kernel, order)``, ``store(kernel, counts)``, and
#: ``admits(nbytes)`` — keyed by the kernel fingerprint and holding pure
#: int64 count matrices.  Only the integer half of a sweep is ever cached;
#: the ``weight_rows`` step re-runs on every hit, which is what makes warm
#: results byte-identical to cold ones (the list sizes it weights by are
#: not a function of the fingerprint).
_sweep_cache_var: contextvars.ContextVar = contextvars.ContextVar(
    "repro_sweep_cache", default=None
)


def current_sweep_cache():
    """The ambient sweep-result cache, or ``None`` when memoization is off."""
    return _sweep_cache_var.get()


@contextmanager
def sweep_cache_scope(cache):
    """Install ``cache`` as the ambient sweep-result cache.

    Grouped sweeps started inside the scope (any engine depth — the
    decomposition and clique engines reach :func:`derandomize_phase_group`
    through several layers) consult it before running the integer kernel
    and store their count matrices on a miss.  ``None`` disables
    memoization, which nested scopes (e.g. shard worker entry points) use
    to shield a region from an outer cache.
    """
    token = _sweep_cache_var.set(cache)
    try:
        yield cache
    finally:
        _sweep_cache_var.reset(token)


@dataclass
class SeedChoice:
    """Outcome of derandomizing one prefix-extension phase."""

    s1: int
    sigma: int
    s1_bits: int
    sigma_bits: int
    initial_expectation: float
    final_value: float
    #: Conditional expectation after fixing each seed bit (Eq. (7) trace);
    #: length = s1_bits + sigma_bits, non-increasing.
    conditional_trace: list = field(default_factory=list)

    @property
    def seed_bits(self) -> int:
        return self.s1_bits + self.sigma_bits


def fix_bits_greedily(values: np.ndarray) -> tuple[int, list[float]]:
    """Fix the bits of an index into ``values`` by greedy block means.

    ``values[i]`` is the conditional expectation given the seed equals i
    exactly; ``len(values)`` must be a power of two.  Returns the chosen
    index and the trace of conditional expectations after each bit (the
    mean over the surviving block), which is non-increasing by the law of
    total expectation.
    """
    lo, trace = fix_bits_greedily_many(np.asarray(values)[None, :])
    return int(lo[0]), trace[0]


def fix_bits_greedily_many(rows: np.ndarray) -> tuple[np.ndarray, list[list[float]]]:
    """:func:`fix_bits_greedily` over every row of a matrix at once.

    One prefix-sum matrix and one vectorized comparison per bit serve all
    rows; the per-row arithmetic (block means from prefix differences) is
    exactly the scalar version's, so choices and traces are identical.
    """
    rows = np.asarray(rows, dtype=np.float64)
    num, size = rows.shape
    if size & (size - 1):
        raise ValueError(f"conditional-value array length {size} is not a power of 2")
    # Prefix sums let every block mean be computed in O(1).
    prefix = np.zeros((num, size + 1), dtype=np.float64)
    np.cumsum(rows, axis=1, dtype=np.float64, out=prefix[:, 1:])

    rng = np.arange(num)
    lo = np.zeros(num, dtype=np.int64)
    # Collect each bit's chosen means as one column; a single tolist() at
    # the end replaces the former per-row Python append loop per bit.
    columns: list[np.ndarray] = []
    while size > 1:
        half = size // 2
        mean0 = (prefix[rng, lo + half] - prefix[rng, lo]) / half
        mean1 = (prefix[rng, lo + size] - prefix[rng, lo + half]) / half
        take1 = mean1 < mean0
        lo = np.where(take1, lo + half, lo)
        columns.append(np.where(take1, mean1, mean0))
        size = half
    if columns:
        traces = np.stack(columns, axis=1).tolist()
    else:
        traces = [[] for _ in range(num)]
    return lo, traces


def derandomize_phase(
    estimator: PhaseEstimator,
    chunk_size: int = 512,
    strict: bool = True,
    compress: bool = True,
) -> SeedChoice:
    """Choose a good seed for one phase (Lemma 2.6).

    Computes ``val1[s1]`` for all 2^m multiplicative seeds (in chunks, to
    bound memory), greedily fixes the m bits of s1, then computes the exact
    ``val2[σ]`` array and fixes the b bits of σ.  When ``strict``, internal
    consistency (mean of val2 equals val1 at the chosen s1; Eq. (7)
    monotonicity; final ≤ initial expectation) is asserted.

    Single-estimator view of :func:`derandomize_phase_group`.
    """
    return derandomize_phase_group([estimator], chunk_size, strict, compress)[0]


def derandomize_phase_group(
    estimators,
    chunk_size: int = 512,
    strict: bool = True,
    compress: bool = True,
    sweep_cache=None,
) -> list:
    """Derandomize one phase of many instances against one seed sweep.

    Every estimator must share the family parameters ``(a, b)`` and bucket
    count — the shared-seed fusion contract of the batched solver.  The
    ``val1[s1]`` conditional-expectation arrays of all estimators are
    produced by a single chunked enumeration of the 2^m multiplicative
    seeds — the dominant per-phase cost.  One
    :class:`~repro.core.potential.SeedSweepWorkspace` is built for the
    whole enumeration, so the concatenated edge arrays, the unique-column
    decomposition, and the per-chunk work buffers are constructed once
    instead of 2^m / chunk_size times; each chunk writes its columns
    straight into the ``val1`` matrix.  Each instance then fixes its own
    seed bits independently (segmented argmin over its own conditional
    expectations), so the returned :class:`SeedChoice` per estimator is
    identical to a standalone :func:`derandomize_phase` call.
    ``compress=False`` forces the uncompressed reference kernels (results
    are bit-identical; used by tests and the benchmark guard).
    ``sweep_cache`` (default: the ambient one from
    :func:`sweep_cache_scope`) memoizes the integer count matrix by kernel
    fingerprint: a hit skips the 2^m integer enumeration entirely — only
    ``weight_rows`` runs — and a miss counts the full matrix serially,
    weights it, and stores it for the next sweep with the same
    fingerprint.  Warm results are byte-identical because the weighting
    turns each seed row into exact integer sums before its fixed float
    step (see :meth:`SeedSweepWorkspace.weight_rows`) and always re-runs
    over the same integers.
    """
    estimators = list(estimators)
    if not estimators:
        return []
    m = estimators[0].family.m
    order = 1 << m
    if sweep_cache is None:
        sweep_cache = _sweep_cache_var.get()

    sweep = SeedSweepWorkspace(estimators, compress=compress)
    val1 = np.empty((len(estimators), order), dtype=np.float64)
    counts = None
    if sweep_cache is not None and sweep.live:
        kernel = sweep.kernel
        counts = sweep_cache.load(kernel, order)
        if counts is None and sweep_cache.admits(kernel.count_nbytes(order)):
            # Miss: materialize the full integer matrix (the cacheable
            # artifact).
            counts = np.empty((order, kernel.count_width), dtype=np.int64)
            for start in range(0, order, chunk_size):
                stop = min(order, start + chunk_size)
                kernel.count_rows(
                    np.arange(start, stop, dtype=np.int64),
                    out=counts[start:stop],
                )
            sweep_cache.store(kernel, counts)
    if counts is not None:
        # Hit (or freshly stored): the weighting over the cached integers —
        # byte-identical to the cache-off path.
        for start in range(0, order, chunk_size):
            stop = min(order, start + chunk_size)
            sweep.weight_rows(counts[start:stop], out=val1[:, start:stop])
    else:
        for start in range(0, order, chunk_size):
            stop = min(order, start + chunk_size)
            sweep.expected_rows(
                np.arange(start, stop, dtype=np.int64), out=val1[:, start:stop]
            )

    # Fix every instance's s1 bits first (one vectorized greedy descent over
    # all rows), then evaluate the exact σ arrays for the whole group in one
    # fused sweep and fix the σ bits the same way.
    s1s, traces1 = fix_bits_greedily_many(val1)
    val2s = exact_by_sigma_grouped(estimators, s1s, compress=compress)
    sigmas, traces2 = fix_bits_greedily_many(np.stack(val2s))

    choices = []
    for j, estimator in enumerate(estimators):
        row = val1[j]
        initial = float(row.mean())
        s1, trace1 = int(s1s[j]), traces1[j]

        val2 = val2s[j]
        if strict and estimator.num_edges:
            agreement = abs(float(val2.mean()) - float(row[s1]))
            tolerance = 1e-9 * max(1.0, abs(float(row[s1])))
            if agreement > tolerance:
                raise AssertionError(
                    f"estimator inconsistency: mean(val2)={val2.mean()} vs "
                    f"val1[s1]={row[s1]}"
                )
        sigma, trace2 = int(sigmas[j]), traces2[j]
        final = float(val2[sigma])

        trace = trace1 + trace2
        if strict:
            previous = initial
            for value in trace:
                if value > previous + 1e-9 * max(1.0, abs(previous)):
                    raise AssertionError(
                        "Eq. (7) violated: conditional expectation increased"
                    )
                previous = value
            if final > initial + 1e-9 * max(1.0, abs(initial)):
                raise AssertionError("final potential exceeds its expectation")

        choices.append(
            SeedChoice(
                s1=int(s1),
                sigma=int(sigma),
                s1_bits=m,
                sigma_bits=estimator.b,
                initial_expectation=initial,
                final_value=final,
                conditional_trace=trace,
            )
        )
    return choices
