"""Method of conditional expectations over the shared seed (Lemma 2.6).

The randomized one-bit prefix extension (Algorithm 1) driven by the biased
coins of Lemma 2.5 uses a shared random seed of d = m + b bits (s1 followed
by σ, most significant bit first).  Derandomization fixes the seed bit by
bit: for each bit, the conditional expectation of the potential given the
already-fixed prefix and either value of the next bit is computed, and the
smaller branch is kept — Eq. (7) of the paper.

The multiplicative seed s1 is fixed from the full array ``val1[s1]`` =
E[potential | s1] (one fused sweep over all 2^m seeds): the conditional
expectation after fixing any bit prefix of s1 is the mean of a contiguous
block of ``val1``.  σ is then fixed level by level, never from a per-σ
array: :func:`~repro.core.potential.exact_by_sigma_grouped` evaluates each
level's two candidate blocks of σ from exact integer counts and keeps the
smaller.  Both choices are exact — no sampling, no approximation beyond
the coin rounding that Lemma 2.3 already accounts for.

In the CONGEST model each bit costs one aggregation + one broadcast over a
BFS tree (O(D) rounds); in the CONGESTED CLIQUE / MPC models whole λ-bit
*segments* are fixed in O(1) rounds (Theorems 1.3–1.5).  Both cost models
consume the same :class:`SeedChoice`; only the round accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    exact_by_sigma_grouped,
)

__all__ = [
    "SeedChoice",
    "fix_bits_greedily",
    "derandomize_phase",
    "derandomize_phase_group",
]


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
    bound memory), greedily fixes the m bits of s1, then fixes the b bits
    of σ by the exact per-level descent.  When ``strict``, internal
    consistency (the descent's value over the whole σ range equals
    ``val1`` at the chosen s1 exactly; Eq. (7) monotonicity; final ≤
    initial expectation) is asserted.

    Single-estimator view of :func:`derandomize_phase_group`.
    """
    return derandomize_phase_group([estimator], chunk_size, strict, compress)[0]


def derandomize_phase_group(
    estimators,
    chunk_size: int = 512,
    strict: bool = True,
    compress: bool = True,
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
    expectations, then one σ descent batched over the group), so the
    returned :class:`SeedChoice` per estimator is identical to a standalone
    :func:`derandomize_phase` call.  ``compress=False`` forces the
    uncompressed reference columns of the s1 sweep (results are
    bit-identical; used by tests and the benchmark guard).
    """
    estimators = list(estimators)
    if not estimators:
        return []
    m = estimators[0].family.m
    order = 1 << m

    sweep = SeedSweepWorkspace(estimators, compress=compress)
    val1 = np.empty((len(estimators), order), dtype=np.float64)
    for start in range(0, order, chunk_size):
        stop = min(order, start + chunk_size)
        sweep.expected_rows(
            np.arange(start, stop, dtype=np.int64), out=val1[:, start:stop]
        )

    # Fix every instance's s1 bits first (one vectorized greedy descent over
    # all rows), then descend σ for the whole group at once.
    s1s, traces1 = fix_bits_greedily_many(val1)
    descents = exact_by_sigma_grouped(estimators, s1s)

    choices = []
    for j, estimator in enumerate(estimators):
        row = val1[j]
        initial = float(row.mean())
        s1, trace1 = int(s1s[j]), traces1[j]
        sigma, trace2, final, root = descents[j]
        if strict and root != row[s1]:
            raise AssertionError(
                f"estimator inconsistency: σ-descent root {root!r} vs "
                f"val1[s1]={float(row[s1])!r}"
            )

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
