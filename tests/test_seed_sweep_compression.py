"""Unique-column sweep compression and the σ descent, bit for bit.

The table/compression kernels (GF(2^m) log tables, unique-column seed
sweeps, the reusable sweep workspace) are pure speedups.  The E[·|s1]
weighting forms exact integer sums per (estimator, list size) that do not
depend on how columns were deduplicated or how the seed range was chunked,
so expectations, seed choices and conditional traces are asserted
*exactly* equal to the per-edge sweep oracle
(:func:`~reference.expected_rows_reference`, no dedup) and across chunkings,
not approx.
The integer weighting itself is checked against the original full-width
float weighting (:func:`float_weight_reference`) within ``REFERENCE_RTOL``,
and the table-driven count kernel bit for bit against the per-cell counting
DP it replaced (:func:`dp_count_reference`).  The integer count / weight
split is checked to be chunk-boundary stable (``TestKernelSplit``).  The
bit-by-bit σ descent is checked against the full 2^b sweep it replaced
(:func:`sigma_sweep_reference`): bit for bit against the oracle's exact
integer sums under the same value formula, and against its float values
up to exact ties (``TestSigmaDescent``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.potential as potential

from equivalence import assert_seed_choices_equal
from reference import (
    count_rows_reference,
    count_xor_below,
    count_xor_in_intervals,
    expected_rows_reference,
    fix_bits_greedily_reference,
    group_members,
    kernel_fingerprint,
    stack_group,
    unique_rows_reference,
)
import repro.core.derandomize as derandomize
from repro.core.derandomize import (
    SeedChoice,
    derandomize_phase_group,
    fix_bits_greedily_many,
)
from repro.core.potential import (
    SeedSweepWorkspace,
    SweepCountKernel,
    exact_by_sigma_grouped,
)
import repro.hashing.gf2 as gf2
from repro.hashing.coins import bucket_thresholds
from repro.hashing.gf2 import GF2m
from repro.hashing.pairwise import PairwiseFamily


#: Positions per block of the log-order sweep in these tests.
CHUNK = derandomize.CHUNK_SIZE


def random_group(
    num, buckets=2, seed=0, n=30, a=4, b=5, duplicate_heavy=True, edgeless=()
):
    """Random fusion group (a segmented PhaseEstimator built through the
    union-array gather); proper ψ by construction.

    ``duplicate_heavy`` draws ψ and the bucket counts from tiny palettes so
    many edges share a ``(ψ_u⊕ψ_v, thresholds)`` key — the regime the
    compression targets; otherwise keys are mostly distinct.
    """
    rng = np.random.default_rng(seed)
    family = PairwiseFamily(a, b)
    colors = 5 if duplicate_heavy else (1 << a)
    hi = 3 if duplicate_heavy else 30
    members = []
    for i in range(num):
        psi = rng.integers(0, colors, size=n).astype(np.int64)
        if i in edgeless:
            eu = ev = np.empty(0, dtype=np.int64)
        else:
            u = rng.integers(0, n, size=n * 4)
            v = rng.integers(0, n, size=n * 4)
            keep = psi[u] != psi[v]
            eu, ev = u[keep], v[keep]
        counts = rng.integers(0, hi, size=(n, buckets)).astype(np.int64)
        counts[:, 0] += 1
        members.append((psi, counts, eu, ev))
    return stack_group(family, members)


#: Relative tolerance of the integer weighting against the float reference,
#: fixed before measuring (the observed deviation is below 1e-15).
REFERENCE_RTOL = 1e-12


def float_weight_reference(workspace, counts):
    """The full-width float weighting the integer sums replaced.

    Scatters the integer counts out to every edge column, multiplies by
    the per-edge weights ``1/k_w(u) + 1/k_w(v)`` and sums each member's
    edge segment, walking the group's ``edge_offsets`` — the original
    ``val1`` evaluation, kept as an independent reference for
    :meth:`SeedSweepWorkspace.weight_rows`.
    """
    group = workspace.group
    rows = counts.shape[0]
    out = np.zeros((group.num_members, rows))
    if not group.num_edges:
        return out
    inv = inverse_counts(group)
    weights = inv[group.edges_u] + inv[group.edges_v]
    column = workspace.inverse
    if workspace.num_buckets == 2:
        n_both0 = counts[:, column]
        n_both1 = (
            workspace.scale - workspace.thr_u[:, 1] - workspace.thr_v[:, 1]
            + n_both0
        )
        total = n_both0 * weights[:, 0] + n_both1 * weights[:, 1]
    else:
        kernel = workspace.kernel
        total = np.zeros((rows, len(weights)))
        for w, block in enumerate(kernel.bucket_columns):
            if block is None:
                continue
            alive, start = block
            position = start + np.cumsum(alive) - 1
            alive_edge = alive[column]
            total[:, alive_edge] += (
                counts[:, position[column[alive_edge]]] * weights[alive_edge, w]
            )
    for j in range(group.num_members):
        lo, hi = group.edge_offsets[j:j + 2]
        if lo < hi:
            out[j] = total[:, lo:hi].sum(axis=1) / float(workspace.scale)
    return out


def dp_count_reference(kernel, s1_values):
    """The per-cell counting DP the count table replaced.

    Runs the digit DP (:func:`~reference.count_xor_below`) on every
    (seed, count column) cell: ``N(d, t_u, t_v)`` per edge column for
    2-bucket phases,
    and per bucket the interval count of the columns alive in it (the
    bucket's interval nonempty at both endpoints), laid out block by block
    in bucket order — an independent reference for
    :meth:`SweepCountKernel.count_rows`.
    """
    s1_values = np.asarray(s1_values, dtype=np.int64)
    thr_u, thr_v, b = kernel.thr_u, kernel.thr_v, kernel.b
    d = kernel.family.g_values_many(s1_values, kernel.psi_diff)
    if kernel.num_buckets == 2:
        return count_xor_below(d, thr_u[None, :, 1], thr_v[None, :, 1], b)
    blocks = []
    for w in range(kernel.num_buckets):
        alive = (thr_u[:, w + 1] > thr_u[:, w]) & (
            thr_v[:, w + 1] > thr_v[:, w]
        )
        blocks.append(
            count_xor_in_intervals(
                d[:, alive],
                thr_u[None, alive, w],
                thr_u[None, alive, w + 1],
                thr_v[None, alive, w],
                thr_v[None, alive, w + 1],
                b,
            )
        )
    return np.concatenate(blocks, axis=1)


def inverse_counts(est):
    """1/k_w per node and bucket, with empty buckets mapped to 0."""
    inv = np.zeros(est.counts.shape, dtype=np.float64)
    np.divide(1.0, est.counts, out=inv, where=est.counts > 0)
    return inv


def sigma_buckets_reference(est, s1):
    """The (nodes × 2^b) bucket of every node under every σ given s1."""
    est.family.field._check(int(s1))
    g = est.family.g_values(int(s1), est.psi)
    y = g[:, None] ^ np.arange(int(est.scale), dtype=np.int64)[None, :]
    buckets = np.zeros(y.shape, dtype=np.int64)
    # At most num_buckets - 1 interior thresholds can lie at or below y.
    for w in range(1, est.num_buckets):
        buckets += est.thresholds[:, w, None] <= y
    return buckets


def sigma_sweep_reference(est, s1):
    """Exact Σ_e X_e for every σ once s1 is fixed: the full 2^b float
    sweep the σ descent replaced (bucket matrix, per-edge contributions,
    one sum per σ)."""
    if est.num_edges == 0:
        return np.zeros(int(est.scale), dtype=np.float64)
    buckets = sigma_buckets_reference(est, s1)
    inv = inverse_counts(est)
    inv_sel = inv[np.arange(len(est.psi))[:, None], buckets]
    eu, ev = est.edges_u, est.edges_v
    same = buckets[eu] == buckets[ev]
    return np.where(same, inv_sel[eu] + inv_sel[ev], 0.0).sum(axis=0)


def sigma_sums_reference(est, s1):
    """``(ks, S)``: the list sizes k > 0 and the exact int64 sums
    ``S[σ, k]`` — per σ, the number of (edge, endpoint) pairs whose
    endpoints share a bucket in which that endpoint has k candidates."""
    ks = [int(k) for k in np.unique(est.counts[est.counts > 0])]
    sums = np.zeros((int(est.scale), len(ks)), dtype=np.int64)
    if est.num_edges == 0:
        return ks, sums
    buckets = sigma_buckets_reference(est, s1)
    eu, ev = est.edges_u, est.edges_v
    same = buckets[eu] == buckets[ev]
    for x in (eu, ev):
        k_x = est.counts[x[:, None], buckets[x]]
        for i, k in enumerate(ks):
            sums[:, i] += (same & (k_x == k)).sum(axis=0)
    return ks, sums


def sums_value(ks, sums, size):
    """``(Σ_k S_k / k, k ascending) / size`` in plain Python floats."""
    total = 0.0
    for k, s in zip(ks, sums):
        total += int(s) / float(k)
    return total / float(size)


def sums_fraction(ks, sums, size):
    """The exact rational value of :func:`sums_value`."""
    return sum(Fraction(int(s), k) for k, s in zip(ks, sums)) / size


def sigma_descent_reference(est, s1):
    """``(sigma, trace, final, root)`` by the greedy over the oracle's
    per-σ integer sums: int64 prefix sums give every block's ``S``, and
    each block's value uses the descent's formula."""
    ks, sums = sigma_sums_reference(est, s1)
    prefix = np.zeros((len(sums) + 1, len(ks)), dtype=np.int64)
    np.cumsum(sums, axis=0, out=prefix[1:])
    size = len(sums)
    root = sums_value(ks, prefix[size] - prefix[0], size)
    lo, trace = 0, []
    while size > 1:
        half = size // 2
        v0 = sums_value(ks, prefix[lo + half] - prefix[lo], half)
        v1 = sums_value(ks, prefix[lo + size] - prefix[lo + half], half)
        if v1 < v0:
            lo += half
            trace.append(v1)
        else:
            trace.append(v0)
        size = half
    return lo, trace, sums_value(ks, sums[lo], 1), root


def derandomize_phase_reference(group) -> list:
    """One :class:`SeedChoice` per member from the oracles alone: s1 by the
    per-row greedy over the per-edge sweep, σ by the greedy over the σ
    oracle's per-σ integer sums."""
    m = group.family.m
    val1 = expected_rows_reference(group, np.arange(1 << m, dtype=np.int64))
    choices = []
    for est, row in zip(group_members(group), val1):
        s1, trace1 = fix_bits_greedily_reference(row)
        sigma, trace2, final, _root = sigma_descent_reference(est, s1)
        choices.append(
            SeedChoice(
                s1=s1,
                sigma=sigma,
                s1_bits=m,
                sigma_bits=est.b,
                initial_expectation=float(row.mean()),
                final_value=final,
                conditional_trace=trace1 + trace2,
            )
        )
    return choices


#: A fixed 4-bucket kernel, the fingerprint of its inputs and its
#: count-matrix sum over all 64 seeds as produced by the per-cell DP
#: kernel.  The fingerprint (:func:`~reference.kernel_fingerprint`) hashes
#: the kernel's column arrays, so it pins their layout.
PINNED_COUNTS = (
    np.array([[2, 0, 1, 3], [1, 1, 1, 1], [0, 4, 0, 1], [3, 3, 0, 0],
              [1, 0, 0, 6]]),
    np.array([[1, 2, 0, 0], [0, 0, 5, 1], [2, 2, 2, 2], [1, 0, 0, 0],
              [0, 1, 1, 1]]),
)
PINNED_FINGERPRINT = (
    "b89fe98304c0cbffd5fdc0f630a4a08bce6e2159632e42efb2e47631c1391343"
)
PINNED_COUNT_SUM = 5714


def pinned_kernel():
    psi_diff = np.array([1, 5, 6, 9, 12], dtype=np.int64)
    counts_u, counts_v = PINNED_COUNTS
    return SweepCountKernel(
        PairwiseFamily(4, 6),
        4,
        psi_diff,
        bucket_thresholds(counts_u, 6),
        bucket_thresholds(counts_v, 6),
    )


@st.composite
def count_kernels(draw):
    """A random kernel and a block of at most 48 positions of its
    discrete-log order: b in [1, 14] on either side of the domain bits a,
    r in {1, 2, 3}, bucket counts with empty buckets (so thresholds hit 0
    and 2^b), nonzero ψ-differences (a zero one is an improper coloring),
    and blocks that start at the s1 = 0 row or anywhere else."""
    b = draw(st.integers(min_value=1, max_value=14))
    a = draw(st.integers(min_value=1, max_value=14))
    num_buckets = draw(st.sampled_from([2, 4, 8]))
    cols = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = []
    for _ in range(2):
        counts = rng.integers(0, 3, size=(cols, num_buckets))
        counts[counts.sum(axis=1) == 0, 0] = 1
        ends.append(bucket_thresholds(counts, b))
    psi_diff = rng.integers(1, 1 << a, size=cols).astype(np.int64)
    kernel = SweepCountKernel(PairwiseFamily(a, b), num_buckets, psi_diff, *ends)
    order = 1 << kernel.family.m
    lo = int(rng.integers(0, order)) if draw(st.booleans()) else 0
    return kernel, lo, min(order, lo + 48)


class TestCountTable:
    @given(
        count_kernels(),
        st.lists(st.integers(min_value=1, max_value=48), max_size=4),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dp_reference(self, drawn, cuts, use_tables):
        """The log-order windows over any cut of a block of positions give
        the per-cell DP's counts of the seeds at those positions, and the
        natural-order gather's, with the oracles' GF multiplies on the
        table or the peasant kernel."""
        kernel, first, last = drawn
        seeds = kernel.s1_order[first:last]
        bounds = sorted(
            {first, last, *(first + c for c in cuts if first + c < last)}
        )
        got = np.concatenate(
            [kernel.count_rows(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        )
        field = kernel.family.field
        field.use_tables = use_tables
        try:
            want = dp_count_reference(kernel, seeds)
            natural = count_rows_reference(kernel, seeds)
        finally:
            field.use_tables = True
        assert got.dtype == kernel.dtype == np.min_scalar_type(1 << kernel.b)
        assert np.array_equal(got, want)
        assert np.array_equal(got, natural)

    def test_s1_order_is_zero_then_generator_powers(self):
        field = PairwiseFamily(5, 4).field
        kernel = SweepCountKernel(
            PairwiseFamily(5, 4), 2, np.array([3], dtype=np.int64),
            np.array([[0, 5, 16]]), np.array([[0, 9, 16]]),
        )
        g = field.generator
        want = [0] + [field.pow(g, i) for i in range(field.order - 1)]
        assert kernel.s1_order.tolist() == want
        assert sorted(want) == list(range(field.order))

    def test_rejects_a_zero_psi_difference(self):
        thresholds = np.array([[0, 5, 16], [0, 9, 16]])
        with pytest.raises(ValueError, match="nonzero"):
            SweepCountKernel(
                PairwiseFamily(3, 4), 2, np.array([4, 0], dtype=np.int64),
                thresholds, thresholds,
            )

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (3, 3), (0, 65)])
    def test_rejects_positions_outside_the_order(self, lo, hi):
        with pytest.raises(ValueError, match="positions"):
            pinned_kernel().count_rows(lo, hi)

    def test_windows_stay_within_the_table_far_above_b(self):
        """At m = 20 and b = 9 the per-row sequences U of an 8-bucket
        kernel would hold 2^20 counts per threshold row; the kernel keeps
        the count table and one top-bit sequence instead, and its counts
        (wrap-around block included) still equal the per-cell DP's."""
        rng = np.random.default_rng(11)
        b, cols = 9, 200
        ends = []
        for _ in range(2):
            counts = rng.integers(0, 4, size=(cols, 8))
            counts[:, 0] += 1
            ends.append(bucket_thresholds(counts, b))
        psi_diff = rng.integers(1, 1 << 20, size=cols).astype(np.int64)
        kernel = SweepCountKernel(PairwiseFamily(20, b), 8, psi_diff, *ends)
        order = len(kernel.s1_order)
        for lo, hi in ((0, CHUNK), (order - CHUNK, order)):
            got = kernel.count_rows(lo, hi)
            assert np.array_equal(
                got, dp_count_reference(kernel, kernel.s1_order[lo:hi])
            )
        sequences, table = kernel._windows, kernel.table
        rows = len(table)
        assert rows > 100 and sequences.ndim == 1
        assert sequences.nbytes <= 2 * (order + CHUNK)
        assert table.nbytes <= 8 * rows << b

    def test_pinned_fingerprint_and_counts(self):
        kernel = pinned_kernel()
        assert kernel_fingerprint(kernel) == PINNED_FINGERPRINT
        counts = kernel.count_rows(0, 64)
        assert int(counts.sum(dtype=np.int64)) == PINNED_COUNT_SUM
        want = dp_count_reference(kernel, kernel.s1_order)
        assert np.array_equal(counts, want)
        assert kernel_fingerprint(kernel) == PINNED_FINGERPRINT


INT64_EXTREMES = np.array(
    [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], dtype=np.int64
)


@st.composite
def int64_matrices(draw):
    """int64 matrices of 0..40 rows with many repeated rows, whose columns
    are constant, small, negative, or span more values than there are rows
    (out to int64's extremes)."""
    rows = draw(st.integers(min_value=0, max_value=40))
    kinds = draw(
        st.lists(
            st.sampled_from(["const", "small", "negative", "wide", "extreme"]),
            min_size=1,
            max_size=8,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        if kind == "const":
            col = np.full(rows, rng.integers(-5, 5))
        elif kind == "small":
            col = rng.integers(0, 3, size=rows)
        elif kind == "negative":
            col = rng.integers(-6, 0, size=rows)
        elif kind == "wide":
            col = rng.integers(-(1 << 40), 1 << 40, size=rows)
        else:
            col = rng.choice(INT64_EXTREMES, size=rows)
        cols.append(col.astype(np.int64))
    matrix = np.stack(cols, axis=1)
    if rows:
        matrix = matrix[rng.integers(0, rows, size=rows)]
    return matrix


class TestPackedUniqueRows:
    """The packed lexicographic key dedups exactly like the row-wise
    ``np.unique(axis=0)`` it replaced: same unique rows, same order, same
    inverse, so the workspace's columns and kernel inputs do not move."""

    @staticmethod
    def assert_matches_oracle(rows):
        index, inverse = potential._unique_rows(list(rows.T))
        _, want_index, want_inverse = unique_rows_reference(rows)
        assert index.dtype == inverse.dtype == np.int64
        assert np.array_equal(index, want_index)
        assert np.array_equal(inverse, want_inverse)

    @staticmethod
    def assert_workspace_matches_oracle(group):
        workspace = SeedSweepWorkspace(group)
        width = workspace.thr_u.shape[1]
        key = np.concatenate(
            [workspace.psi_diff[:, None], workspace.thr_u, workspace.thr_v], axis=1
        )
        uniq, _, inverse = unique_rows_reference(key)
        assert np.array_equal(workspace.inverse, inverse)
        want = (uniq[:, 0], uniq[:, 1:1 + width], uniq[:, 1 + width:])
        got = (workspace.uniq_psi_diff, workspace.uniq_thr_u, workspace.uniq_thr_v)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        oracle = SweepCountKernel(
            workspace.family,
            workspace.num_buckets,
            *(np.ascontiguousarray(part) for part in want),
        )
        assert kernel_fingerprint(workspace.kernel) == kernel_fingerprint(oracle)
        # The count table dedups threshold rows the same way.
        _, columns = workspace.kernel._threshold_rows()
        _, _, row_of_col = unique_rows_reference(np.stack(columns, axis=1))
        assert np.array_equal(workspace.kernel.row_of_col, row_of_col)

    @given(int64_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_wise_unique(self, rows):
        self.assert_matches_oracle(rows)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_rows(self, rows):
        self.assert_matches_oracle(np.full((rows, 3), -7, dtype=np.int64))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_rows_force_a_rank_redensify(self, seed):
        """An r = 6 key has 1 + 2·(2^6 + 1) = 131 columns.  Every column
        spans at least its number of distinct values, and their product
        reaches 2^62, so the running rank must be densified on the way."""
        group = random_group(2, buckets=64, seed=seed, b=6, duplicate_heavy=False)
        workspace = SeedSweepWorkspace(group)
        columns = [workspace.psi_diff, *workspace.thr_u.T, *workspace.thr_v.T]
        assert len(columns) == 131
        assert math.prod(len(np.unique(col)) for col in columns) >= 1 << 62
        self.assert_matches_oracle(np.stack(columns, axis=1))
        self.assert_workspace_matches_oracle(group)

    @given(
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=3, max_value=7),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_workspace_matches_row_wise_construction(
        self, buckets, num, n, b, duplicate_heavy, seed
    ):
        """Random fused groups, r = 1 and r > 1; with few nodes and b up
        to 7 the threshold columns can span more values than there are
        edges."""
        group = random_group(
            num,
            buckets=buckets,
            seed=seed,
            n=n,
            b=b,
            duplicate_heavy=duplicate_heavy,
            edgeless=(0,) if num > 2 else (),
        )
        if not group.num_edges:
            return
        self.assert_workspace_matches_oracle(group)


class TestKernelSplit:
    """``count_rows`` is elementwise per (seed row, count column), so any
    partition of the positions assembles the same integer matrix, and
    ``weight_rows`` over it reproduces ``val1`` bit for bit."""

    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_count_then_weight_matches_expected_rows(self, buckets, seed):
        group = random_group(3, buckets=buckets, seed=seed)
        sweep = SeedSweepWorkspace(group)
        order = 1 << group.family.m
        counts = sweep.kernel.count_rows(0, order)
        via_split = sweep.weight_rows(counts)
        direct = SeedSweepWorkspace(group).val1(CHUNK)
        assert np.array_equal(via_split, direct[:, sweep.kernel.s1_order])
        want = expected_rows_reference(group, np.arange(order, dtype=np.int64))
        assert np.array_equal(direct, want)

    @pytest.mark.parametrize("chunks", [2, 3, 5, 7])
    def test_counts_chunk_boundary_stable(self, chunks):
        group = random_group(3, buckets=4, seed=2)
        sweep = SeedSweepWorkspace(group)
        kernel = sweep.kernel
        order = 1 << group.family.m
        whole = kernel.count_rows(0, order)
        edges = (order * np.arange(chunks + 1, dtype=np.int64)) // chunks
        assembled = np.concatenate(
            [kernel.count_rows(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        )
        assert np.array_equal(assembled, whole)

    def test_fingerprint_distinguishes_workspaces(self):
        a = kernel_fingerprint(SeedSweepWorkspace(random_group(2, seed=4)).kernel)
        b = kernel_fingerprint(SeedSweepWorkspace(random_group(2, seed=5)).kernel)
        assert a != b
        again = SeedSweepWorkspace(random_group(2, seed=4)).kernel
        assert a == kernel_fingerprint(again)

    def test_weight_rows_rejects_bad_counts(self):
        group = random_group(2, seed=6)
        sweep = SeedSweepWorkspace(group)
        width = sweep.kernel.count_width
        for bad in (
            np.zeros((4, width + 1), dtype=np.int64),
            np.zeros((4, width - 1), dtype=np.uint16),
            np.zeros((4, width), dtype=np.float64),
        ):
            with pytest.raises(ValueError, match="counts must be integers"):
                sweep.weight_rows(bad)


class TestIntegerWeighting:
    @pytest.mark.parametrize("sweep", ["workspace", "per_edge_oracle"])
    @pytest.mark.parametrize("edgeless", [(), (0, 2)])
    @pytest.mark.parametrize("buckets", [2, 4, 8])
    @pytest.mark.parametrize("duplicate_heavy", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_float_reference(
        self, sweep, edgeless, buckets, duplicate_heavy, seed
    ):
        group = random_group(
            4,
            buckets=buckets,
            seed=seed,
            duplicate_heavy=duplicate_heavy,
            edgeless=edgeless,
        )
        # Empty buckets (k_w = 0) must be in play for the check to bite.
        assert (group.counts == 0).any()
        workspace = SeedSweepWorkspace(group)
        s1s = workspace.kernel.s1_order
        counts = workspace.kernel.count_rows(0, len(s1s))
        if sweep == "workspace":
            got = workspace.weight_rows(counts)
        else:
            got = expected_rows_reference(group, s1s)
        want = float_weight_reference(workspace, counts)
        np.testing.assert_allclose(got, want, rtol=REFERENCE_RTOL, atol=0.0)
        for j in edgeless:
            assert not got[j].any()

    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("chunk", [1, 5, 16, 64])
    def test_bitwise_across_chunks_and_compression(self, buckets, chunk):
        group = random_group(3, buckets=buckets, seed=11, edgeless=(1,))
        order = 1 << group.family.m
        whole = expected_rows_reference(group, np.arange(order, dtype=np.int64))
        workspace = SeedSweepWorkspace(group)
        counts = workspace.kernel.count_rows(0, order)
        chunked = np.empty_like(whole)
        for start in range(0, order, chunk):
            stop = min(order, start + chunk)
            chunked[:, start:stop] = workspace.weight_rows(counts[start:stop])
        assert np.array_equal(chunked, whole[:, workspace.kernel.s1_order])
        assert np.array_equal(workspace.val1(chunk), whole)

    @pytest.mark.parametrize("buckets", [2, 4])
    def test_exactness_guard(self, monkeypatch, buckets):
        group = random_group(2, buckets=buckets, seed=12)
        bound = SeedSweepWorkspace(group).sum_bound
        # The bound is 2^b times the largest (estimator, k) incidence
        # count: every (edge endpoint, bucket) pair with that k > 0.
        incidences = 0
        for est in group_members(group):
            ends = np.concatenate([est.counts[est.edges_u], est.counts[est.edges_v]])
            if buckets > 2:
                # The interval DP only counts buckets whose threshold
                # interval is nonempty at both endpoints.
                width = np.diff(est.thresholds, axis=1) > 0
                alive = width[est.edges_u] & width[est.edges_v]
                ends = np.where(np.concatenate([alive, alive]), ends, 0)
            _, multiplicity = np.unique(ends[ends > 0], return_counts=True)
            incidences = max(incidences, int(multiplicity.max()))
        assert bound == int(group.scale) * incidences
        monkeypatch.setattr(potential, "_EXACT_INT_LIMIT", bound + 1)
        SeedSweepWorkspace(group)
        monkeypatch.setattr(potential, "_EXACT_INT_LIMIT", bound)
        with pytest.raises(ValueError, match="2\\^53"):
            SeedSweepWorkspace(group)


class TestExpectedSweepCompression:
    @pytest.mark.parametrize("buckets", [2, 4, 8])
    @pytest.mark.parametrize("duplicate_heavy", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compressed_matches_uncompressed_bitwise(
        self, buckets, duplicate_heavy, seed
    ):
        group = random_group(
            3, buckets=buckets, seed=seed, duplicate_heavy=duplicate_heavy
        )
        s1s = np.arange(1 << group.family.m, dtype=np.int64)
        compressed = SeedSweepWorkspace(group).val1(CHUNK)
        assert np.array_equal(compressed, expected_rows_reference(group, s1s))

    def test_matches_group_of_one(self):
        group = random_group(2, seed=3)
        fused = SeedSweepWorkspace(group).val1(CHUNK)
        for est, row in zip(group_members(group), fused):
            alone = SeedSweepWorkspace(est).val1(CHUNK)[0]
            assert np.array_equal(alone, row)

    @pytest.mark.parametrize("edgeless", [(0,), (1,), (0, 1, 2)])
    def test_edgeless_members(self, edgeless):
        group = random_group(3, seed=4, edgeless=edgeless)
        s1s = np.arange(1 << group.family.m, dtype=np.int64)
        compressed = SeedSweepWorkspace(group).val1(CHUNK)
        reference = expected_rows_reference(group, s1s)
        for j, (got, want) in enumerate(zip(compressed, reference)):
            assert np.array_equal(got, want)
            if j in edgeless:
                assert got.sum() == 0.0

    def test_workspace_reuse_across_chunks(self):
        # One workspace driven chunk-by-chunk must reproduce the one-shot
        # evaluation exactly — no state leaks across chunks.
        # The first blocks are the smallest, so the count windows are
        # rebuilt longer on the way.
        group = random_group(3, buckets=4, seed=5)
        workspace = SeedSweepWorkspace(group)
        ragged = workspace.val1(7)  # deliberately ragged blocks
        again = workspace.val1(CHUNK)
        whole = SeedSweepWorkspace(group).val1(CHUNK)
        assert np.array_equal(ragged, whole)
        assert np.array_equal(again, whole)

    def test_empty_group(self):
        empty = stack_group(PairwiseFamily(4, 5), [])
        rows = SeedSweepWorkspace(empty).val1(CHUNK)
        assert rows.shape == (0, 32)


@st.composite
def sweep_groups(draw):
    """A random fused group for the log-order sweep: r in {1, 2, 3}, b in
    [1, 8] and domain bits a on either side of it (m = b or m > b), one to
    five members with edgeless ones mixed in (sometimes every member), and
    bucket counts with empty buckets."""
    b = draw(st.integers(min_value=1, max_value=8))
    a = draw(st.integers(min_value=1, max_value=9))
    num_buckets = draw(st.sampled_from([2, 4, 8]))
    num = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(num):
        n = int(rng.integers(1, 12))
        psi = rng.integers(0, 1 << a, size=n).astype(np.int64)
        counts = rng.integers(0, 3, size=(n, num_buckets)).astype(np.int64)
        counts[counts.sum(axis=1) == 0, 0] = 1
        edgeless = rng.random() < 0.25
        u = rng.integers(0, n, size=0 if edgeless else int(rng.integers(1, 3 * n + 1)))
        v = rng.integers(0, n, size=len(u))
        keep = psi[u] != psi[v]
        members.append((psi, counts, u[keep], v[keep]))
    return a, b, members


def natural_order_forbidden(*_args, **_kwargs):
    raise AssertionError("the sweep fell back to a natural-order multiply")


class TestLogOrderSweep:
    """``val1`` from the discrete-log windows equals the natural-order
    per-edge oracle bit for bit, whatever the field kernel, the block size
    or the member blocking, and no GF multiply of a natural-order path
    runs on the way."""

    @given(
        sweep_groups(),
        st.sampled_from(["tables", "peasant", "above_table_cap"]),
        st.sampled_from([None, 1, "half"]),
        st.sampled_from([1, 7, CHUNK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_val1_matches_natural_order_oracle(self, drawn, field_kind, budget, block):
        a, b, members = drawn
        family = PairwiseFamily(a, b)
        m = family.m
        with pytest.MonkeyPatch.context() as patch:
            if field_kind == "peasant":
                family.field = GF2m(m, use_tables=False)
            elif field_kind == "above_table_cap":
                patch.setattr(gf2, "_LOG_TABLE_MAX_M", m - 1)
                family.field = GF2m(m)
                assert not family.field.use_tables
            group = stack_group(family, members)
            want = expected_rows_reference(group, np.arange(1 << m, dtype=np.int64))
            if budget is not None:
                entries = sum(mat.size for *_, mat in SeedSweepWorkspace(group).blocks)
                limit = 1 if budget == 1 else max(1, entries // 2)
                patch.setattr(potential, "_TABLE_BLOCK_ENTRIES", limit)
            patch.setattr(PairwiseFamily, "g_values_many", natural_order_forbidden)
            patch.setattr(GF2m, "mul_outer", natural_order_forbidden)
            sweep = SeedSweepWorkspace(group)
            got = sweep.val1(block)
        if field_kind == "above_table_cap":
            # The power sequence was built for this sweep, not kept.
            assert family.field._exp is None
        live = np.diff(sweep.weighting.group_offsets) > 0
        if budget == 1 and live.sum() >= 2:
            assert len(sweep.blocks) >= 2
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_member_blocks_split_a_group_with_identical_bytes(self, monkeypatch):
        group = random_group(5, buckets=4, seed=21, edgeless=(2,))
        whole = SeedSweepWorkspace(group)
        assert len(whole.blocks) == 1 and whole.blocks[0][2] is None
        val1 = whole.val1(CHUNK)
        choices = derandomize_phase_group(group)
        budget = whole.blocks[0][3].size // 3
        monkeypatch.setattr(potential, "_TABLE_BLOCK_ENTRIES", budget)
        split = SeedSweepWorkspace(group)
        assert len(split.blocks) >= 2
        offsets = split.weighting.group_offsets
        for g0, g1, cols, matrix in split.blocks:
            assert cols is not None and matrix.shape == (g1 - g0, len(cols))
            members = np.searchsorted(offsets, [g0, g1])
            assert matrix.size <= budget or members[1] - members[0] == 1
        # The blocks tile the groups in member order.
        spans = [(g0, g1) for g0, g1, *_ in split.blocks]
        assert spans[0][0] == 0 and spans[-1][1] == offsets[-1]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert split.val1(CHUNK).tobytes() == val1.tobytes()
        for i, (got, want) in enumerate(zip(derandomize_phase_group(group), choices)):
            assert_seed_choices_equal(got, want, f"seed[{i}]")

    def test_table_gather_path_keeps_val1_bytes(self, monkeypatch):
        """Past the window bound (forced here by a tiny block budget, with
        m = 12 ≫ b = 3) the counts are gathered from the table at the
        windows of the top-bit sequence, with the same bytes."""
        group = random_group(3, buckets=4, seed=23, a=12, b=3, edgeless=(1,))
        windowed = SeedSweepWorkspace(group)
        val1 = windowed.val1(CHUNK)
        assert windowed.kernel._windows.ndim == 2
        want = expected_rows_reference(group, np.arange(1 << 12, dtype=np.int64))
        assert val1.tobytes() == want.tobytes()
        monkeypatch.setattr(potential, "_TABLE_BLOCK_ENTRIES", 1)
        gathered = SeedSweepWorkspace(group)
        for block in (1, 7, CHUNK):
            assert gathered.val1(block).tobytes() == val1.tobytes()
        assert gathered.kernel._windows.ndim == 1

    def test_one_member_block_may_exceed_the_budget(self, monkeypatch):
        group = random_group(3, buckets=2, seed=22)
        val1 = SeedSweepWorkspace(group).val1(CHUNK)
        monkeypatch.setattr(potential, "_TABLE_BLOCK_ENTRIES", 1)
        split = SeedSweepWorkspace(group)
        assert [g1 - g0 for g0, g1, *_ in split.blocks] == list(
            np.diff(split.weighting.group_offsets)
        )
        assert all(matrix.size > 1 for *_, matrix in split.blocks)
        assert split.val1(CHUNK).tobytes() == val1.tobytes()


@st.composite
def sigma_groups(draw):
    """A random fused group with one s1 per member: r in {1, 2, 3}, b in
    [1, 12], bucket counts with empty buckets, and edgeless members mixed
    in (sometimes every member).  With ``tie_heavy`` every nonempty bucket
    holds 3 candidates, so many σ blocks have the same exact value while
    1/3 is inexact in floats."""
    b = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.integers(min_value=1, max_value=6))
    num_buckets = draw(st.sampled_from([2, 4, 8]))
    num = draw(st.integers(min_value=1, max_value=4))
    tie_heavy = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = PairwiseFamily(a, b)
    group = []
    for _ in range(num):
        n = int(rng.integers(1, 10))
        psi = rng.integers(0, 1 << a, size=n).astype(np.int64)
        counts = rng.integers(0, 3, size=(n, num_buckets)).astype(np.int64)
        if tie_heavy:
            counts = 3 * (counts > 0)
        counts[counts.sum(axis=1) == 0, 0] = 1
        u = rng.integers(0, n, size=int(rng.integers(0, 3 * n + 1)))
        v = rng.integers(0, n, size=len(u))
        keep = psi[u] != psi[v]
        group.append((psi, counts, u[keep], v[keep]))
    s1s = rng.integers(0, family.field.order, size=num)
    return stack_group(family, group), s1s


def first_split(sigma_a, sigma_b, b):
    """The number of leading σ bits two choices share (< b)."""
    return b - int(sigma_a ^ sigma_b).bit_length()


class TestSigmaDescent:
    @given(sigma_groups())
    @settings(max_examples=120, deadline=None)
    def test_matches_integer_oracle_bitwise(self, drawn):
        group, s1s = drawn
        sigmas, traces, finals, roots = exact_by_sigma_grouped(group, s1s)
        assert traces.shape == (group.num_members, group.b)
        assert traces.dtype == finals.dtype == roots.dtype == np.float64
        got = zip(sigmas, traces, finals, roots)
        for est, s1, (sigma, trace, final, root) in zip(group_members(group), s1s, got):
            want_sigma, want_trace, want_final, want_root = (
                sigma_descent_reference(est, s1)
            )
            assert sigma == want_sigma
            assert trace.tobytes() == np.array(want_trace).tobytes()
            assert np.float64(final).tobytes() == np.float64(want_final).tobytes()
            assert np.float64(root).tobytes() == np.float64(want_root).tobytes()

    @given(sigma_groups())
    @settings(max_examples=150, deadline=None)
    def test_float_sweep_differs_only_on_exact_ties(self, drawn):
        group, s1s = drawn
        sigmas, _traces, finals, roots = exact_by_sigma_grouped(group, s1s)
        got = zip(sigmas.tolist(), finals, roots)
        for est, s1, (sigma, final, root) in zip(group_members(group), s1s, got):
            values = sigma_sweep_reference(est, s1)
            old, _ = fix_bits_greedily_reference(values)
            assert final == pytest.approx(values[sigma], rel=1e-12, abs=0.0)
            assert root == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
            if old == sigma:
                continue
            # At the first bit the two choices split, both children of
            # the shared prefix must have the same exact value.
            ks, sums = sigma_sums_reference(est, s1)
            width = est.b - first_split(old, sigma, est.b) - 1
            lo = (sigma >> (width + 1)) << (width + 1)
            half = 1 << width
            zero = sums[lo:lo + half].sum(axis=0)
            one = sums[lo + half:lo + 2 * half].sum(axis=0)
            assert sums_fraction(ks, zero, half) == sums_fraction(ks, one, half)

    @pytest.mark.parametrize("buckets", [2, 4])
    def test_root_equals_val1_at_every_s1(self, buckets):
        group = random_group(3, buckets=buckets, seed=13, edgeless=(1,))
        order = 1 << group.family.m
        val1 = SeedSweepWorkspace(group).val1(CHUNK)
        for s1 in range(order):
            *_, roots = exact_by_sigma_grouped(group, [s1] * group.num_members)
            for j, root in enumerate(roots):
                assert root == val1[j, s1]

    def test_rejects_out_of_range_s1(self):
        group = random_group(2, seed=6)
        order = group.family.field.order
        with pytest.raises(ValueError):
            exact_by_sigma_grouped(group, [0, order])
        with pytest.raises(ValueError):
            exact_by_sigma_grouped(group, [-1, 0])
        with pytest.raises(ValueError):
            exact_by_sigma_grouped(group, [0])

    def test_edgeless_members_choose_zero(self):
        group = random_group(3, seed=14, edgeless=(0, 1, 2))
        sigmas, traces, finals, roots = exact_by_sigma_grouped(group, [1, 2, 3])
        assert sigmas.tolist() == [0] * 3
        assert traces.tolist() == [[0.0] * group.b] * 3
        assert finals.tolist() == roots.tolist() == [0.0] * 3

    def test_empty_group(self):
        empty = stack_group(PairwiseFamily(4, 5), [])
        sigmas, traces, finals, roots = exact_by_sigma_grouped(empty, [])
        assert len(sigmas) == len(finals) == len(roots) == 0
        assert traces.shape == (0, 5)

    def test_one_grouping_per_phase(self, monkeypatch):
        """The σ descent reads the s1 sweep's workspace: a phase builds one
        workspace, one (member, list size) grouping and one count-table
        fill; the descent fills nothing of its own, and on the sweep's
        workspace it gives the same bytes as on one it builds itself."""
        groups = [
            random_group(3, buckets=buckets, seed=16, edgeless=(1,))
            for buckets in (2, 4)
        ]
        alone = [exact_by_sigma_grouped(group, [5, 0, 9]) for group in groups]
        calls = {"workspace": 0, "weighting": 0, "fill": 0, "table": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr, name in (
            (SeedSweepWorkspace, "__init__", "workspace"),
            (potential._Weighting, "__init__", "weighting"),
            (SweepCountKernel, "_count_table", "fill"),
            (potential, "count_xor_table", "table"),
        ):
            monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
        for group, want_all in zip(groups, alone):
            calls.update(dict.fromkeys(calls, 0))
            derandomize_phase_group(group)
            assert calls == {"workspace": 1, "weighting": 1, "fill": 1, "table": 1}
            sweep = SeedSweepWorkspace(group)
            calls.update(dict.fromkeys(calls, 0))
            shared = exact_by_sigma_grouped(group, [5, 0, 9], sweep)
            assert calls == dict.fromkeys(calls, 0)
            for got, want in zip(shared, want_all):
                assert got.tobytes() == want.tobytes()

    def test_strict_check_rejects_a_root_off_val1(self, monkeypatch):
        group = random_group(2, seed=15)
        descend = derandomize.exact_by_sigma_grouped

        def nudged(group, s1_values, *weighting):
            sigmas, traces, finals, roots = descend(group, s1_values, *weighting)
            roots = roots.copy()
            roots[1] = np.nextafter(roots[1], np.inf)
            return sigmas, traces, finals, roots

        monkeypatch.setattr(derandomize, "exact_by_sigma_grouped", nudged)
        with pytest.raises(AssertionError, match=r"inconsistency \(member 1\)"):
            derandomize_phase_group(group)
        derandomize_phase_group(group, strict=False)

    @pytest.mark.parametrize(
        "part, message",
        [(1, r"Eq\. \(7\) violated \(member 1\)"),
         (2, r"exceeds its expectation \(member 1\)")],
        ids=["trace", "final"],
    )
    def test_strict_checks_name_the_offending_member(
        self, monkeypatch, part, message
    ):
        """A σ trace that rises, or a final value above the initial
        expectation, fails the group's strict check at that member."""
        group = random_group(3, seed=15)
        descend = derandomize.exact_by_sigma_grouped

        def raised(group, s1_values, *weighting):
            out = [x.copy() for x in descend(group, s1_values, *weighting)]
            out[part][1] = 1e9
            return tuple(out)

        monkeypatch.setattr(derandomize, "exact_by_sigma_grouped", raised)
        with pytest.raises(AssertionError, match=message):
            derandomize_phase_group(group)
        derandomize_phase_group(group, strict=False)


class TestDerandomizeEquivalence:
    @pytest.mark.parametrize("buckets", [2, 4])
    def test_phase_group_choices_identical(self, buckets):
        group = random_group(3, buckets=buckets, seed=7, edgeless=(1,))
        compressed = derandomize_phase_group(group)
        reference = derandomize_phase_reference(group)
        assert len(compressed) == len(reference) == group.num_members
        for i, (got, want) in enumerate(zip(compressed, reference)):
            assert_seed_choices_equal(got, want, f"seed[{i}]")
            assert all(type(t) is float for t in got.conditional_trace)

    def test_tables_off_reference_identical(self):
        # Peasant GF multiplies + the per-edge sweep and per-row greedy.
        group = random_group(2, seed=8)
        field = group.family.field
        compressed = derandomize_phase_group(group)
        field.use_tables = False
        try:
            reference = derandomize_phase_reference(group)
        finally:
            field.use_tables = True
        for i, (got, want) in enumerate(zip(compressed, reference)):
            assert_seed_choices_equal(got, want, f"seed[{i}]")


class TestTraceVectorization:
    def test_traces_are_python_floats(self):
        rng = np.random.default_rng(9)
        lo, traces = fix_bits_greedily_many(rng.random((4, 16)))
        assert len(traces) == 4
        for trace in traces:
            assert len(trace) == 4
            assert all(type(t) is float for t in trace)

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(10)
        rows = rng.random((6, 32))
        lo, traces = fix_bits_greedily_many(rows)
        for j in range(6):
            idx, trace = fix_bits_greedily_reference(rows[j])
            assert idx == int(lo[j])
            assert trace == traces[j]

    def test_single_entry_rows_have_empty_traces(self):
        lo, traces = fix_bits_greedily_many(np.array([[2.0], [1.0]]))
        assert list(lo) == [0, 0]
        assert traces == [[], []]
