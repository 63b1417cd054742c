"""Method of conditional expectations over the shared seed (Lemma 2.6).

The randomized one-bit prefix extension (Algorithm 1) driven by the biased
coins of Lemma 2.5 uses a shared random seed of d = m + b bits (s1 followed
by σ, most significant bit first).  Derandomization fixes the seed bit by
bit: for each bit, the conditional expectation of the potential given the
already-fixed prefix and either value of the next bit is computed, and the
smaller branch is kept — Eq. (7) of the paper.

The multiplicative seed s1 is fixed from the full array ``val1[s1]`` =
E[potential | s1] (one fused sweep over all 2^m seeds, counted in
discrete-log order — s1 = 0, then g^0, g^1, … for the generator g of
GF(2^m)^* — and written back to each seed's own index): the conditional
expectation after fixing any bit prefix of s1 is the mean of a contiguous
block of ``val1``.  σ is then fixed level by level, never from a per-σ
array: :func:`~repro.core.potential.exact_by_sigma_grouped` evaluates each
level's two candidate blocks of σ from exact integer counts and keeps the
smaller.  Both halves read their counts from one table per phase, the
sweep's: the σ descent gathers each level's counts from the levels the
sweep's doubling fill kept.  Both choices are exact — no sampling, no
approximation beyond the coin rounding that Lemma 2.3 already accounts
for.

A fusion group's outcome is columns, one row per member
(:class:`SeedColumns`: s1, σ, initial and final expectation, the Eq. (7)
trace matrix); :mod:`repro.core.prefix` keeps them as per-phase columns
over its live instances and builds one :class:`SeedChoice` per instance
and phase only when it assembles its results.

In the CONGEST model each bit costs one aggregation + one broadcast over a
BFS tree (O(D) rounds); in the CONGESTED CLIQUE / MPC models whole λ-bit
*segments* are fixed in O(1) rounds (Theorems 1.3–1.5).  Both cost models
read the same per-phase records; only the round accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.potential import SeedSweepWorkspace, exact_by_sigma_grouped

__all__ = [
    "SeedChoice",
    "SeedColumns",
    "fix_bits_greedily_many",
    "derandomize_phase_group",
]

#: Seeds per block of the 2^m enumeration, consecutive in discrete-log
#: order: bounds the (seeds × columns) count block, and pads the count
#: kernel's per-row sequences by one block.  Any value gives the same bits
#: (each row is exact).
CHUNK_SIZE = 512


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


class SeedColumns(NamedTuple):
    """Lemma 2.6 outcome of one fusion group, one row per member.

    The columns of a :class:`SeedChoice`; the bit widths are the group's
    (m, b), so the trace has m + b columns.
    """

    s1: np.ndarray  #: int64
    sigma: np.ndarray  #: int64
    initial: np.ndarray  #: float64, E[ΣΦ] before any seed bit is fixed
    final: np.ndarray  #: float64, ΣΦ at the chosen seed
    trace: np.ndarray  #: float64 (members × (m + b)), the Eq. (7) trace


def fix_bits_greedily_many(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix the bits of an index into each row by greedy block means.

    ``rows[j, i]`` is row j's conditional expectation given the seed equals
    i exactly; the row length must be a power of two.  Per row, each bit
    keeps the half of the surviving block with the smaller mean (an exact
    tie keeps 0).  Returns the chosen indices and the (rows × bits) float64
    trace matrix: row j's conditional expectation after each bit (the mean
    over the surviving block), non-increasing by the law of total
    expectation.  One prefix-sum matrix and one vectorized comparison per
    bit serve all rows.
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
    traces = np.empty((num, size.bit_length() - 1), dtype=np.float64)
    for column in traces.T:
        half = size // 2
        mean0 = (prefix[rng, lo + half] - prefix[rng, lo]) / half
        mean1 = (prefix[rng, lo + size] - prefix[rng, lo + half]) / half
        take1 = mean1 < mean0
        lo = np.where(take1, lo + half, lo)
        column[:] = np.where(take1, mean1, mean0)
        size = half
    return lo, traces


def derandomize_phase_group(group, strict: bool = True) -> SeedColumns:
    """Choose a good seed for one phase of a fusion group (Lemma 2.6).

    ``group`` is a :class:`~repro.core.potential.PhaseEstimator`: its
    members share the group's seed space ``(m, b, num_buckets)`` — the
    shared-seed fusion contract of the batched solver; the ψ-domain bits a
    may differ, since s1 ranges over GF(2^m) with m = max(a, b).  The
    ``val1[s1]`` conditional-expectation rows of all members are produced
    by a single enumeration of the 2^m multiplicative seeds in discrete-log
    order, in blocks of :data:`CHUNK_SIZE` — the dominant per-phase cost
    (:meth:`~repro.core.potential.SeedSweepWorkspace.val1`).  One
    :class:`~repro.core.potential.SeedSweepWorkspace` is built for the
    whole enumeration, so the per-edge arrays, the unique-column
    decomposition and the phase's (member, list size) grouping are
    constructed once; each block writes its columns to its seeds' indices
    of the ``val1`` matrix.  Each member then fixes its own seed bits
    independently (greedy block means over its own conditional
    expectations, then one σ descent batched over the group on the
    sweep's workspace: its count tables and its grouping), so each
    member's row of the returned :class:`SeedColumns` is identical to a
    group of one.  When ``strict``, internal consistency (the descent's
    value over the whole σ range equals ``val1`` at the chosen s1 exactly —
    the same table counts contracted two ways, by the sweep's matrix
    product and by the descent's ``np.bincount``; Eq. (7) monotonicity;
    final ≤ initial expectation) is asserted over the whole group at once,
    and a failure names the first offending member.
    """
    sweep = SeedSweepWorkspace(group)
    val1 = sweep.val1(CHUNK_SIZE)

    # Fix every member's s1 bits first (one vectorized greedy descent over
    # all rows), then descend σ for the whole group at once, on the sweep's
    # count tables and (member, list size) grouping.
    s1s, traces1 = fix_bits_greedily_many(val1)
    sigmas, traces2, finals, roots = exact_by_sigma_grouped(group, s1s, sweep)
    initials = val1.mean(axis=1)
    trace = np.hstack([traces1, traces2])

    if strict:
        picked = val1[np.arange(len(s1s)), s1s]
        bad = np.flatnonzero(roots != picked)
        if len(bad):
            j = int(bad[0])
            raise AssertionError(
                f"estimator inconsistency (member {j}): σ-descent root "
                f"{float(roots[j])!r} vs val1[s1]={float(picked[j])!r}"
            )
        # Eq. (7): each conditional expectation, starting from the initial
        # one, is at most its predecessor (up to float noise).
        stacked = np.hstack([initials[:, None], trace])
        previous = stacked[:, :-1]
        rises = stacked[:, 1:] > previous + 1e-9 * np.maximum(1.0, np.abs(previous))
        bad = np.flatnonzero(rises.any(axis=1))
        if len(bad):
            raise AssertionError(
                f"Eq. (7) violated (member {int(bad[0])}): conditional "
                "expectation increased"
            )
        bad = np.flatnonzero(
            finals > initials + 1e-9 * np.maximum(1.0, np.abs(initials))
        )
        if len(bad):
            raise AssertionError(
                f"final potential exceeds its expectation (member {int(bad[0])})"
            )

    return SeedColumns(s1s, sigmas, initials, finals, trace)
