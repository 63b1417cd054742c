"""Unique-column sweep compression and the σ descent, bit for bit.

The table/compression kernels (GF(2^m) log tables, unique-column seed
sweeps, the reusable sweep workspace) are pure speedups.  The E[·|s1]
weighting forms exact integer sums per (estimator, list size) that do not
depend on how columns were deduplicated or how the seed range was chunked,
so expectations, seed choices and conditional traces are asserted
*exactly* equal across those knobs, not approx.
The integer weighting itself is checked against the original full-width
float weighting (:func:`float_weight_reference`) within ``REFERENCE_RTOL``,
and the table-driven count kernel bit for bit against the per-cell counting
DP it replaced (:func:`dp_count_reference`).  The integer count / weight
split is checked to be chunk-boundary stable and picklable
(``TestKernelSplit``).  The bit-by-bit σ descent is checked against the
full 2^b sweep it replaced (:func:`sigma_sweep_reference`): bit for bit
against the oracle's exact integer sums under the same value formula, and
against its float values up to exact ties (``TestSigmaDescent``).
"""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.potential as potential

from equivalence import assert_seed_choices_equal
from reference import unique_rows_reference
from repro.core.counting import count_xor_below, count_xor_in_intervals
import repro.core.derandomize as derandomize
from repro.core.derandomize import (
    derandomize_phase_group,
    fix_bits_greedily,
    fix_bits_greedily_many,
)
from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    SweepCountKernel,
    exact_by_sigma_grouped,
    expected_by_s1_grouped,
)
from repro.hashing.coins import bucket_thresholds
from repro.hashing.pairwise import PairwiseFamily


def random_group(
    num, buckets=2, seed=0, n=30, a=4, b=5, duplicate_heavy=True, edgeless=()
):
    """Random shared-seed estimator group; proper ψ by construction.

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
        members.append(PhaseEstimator(family, psi, counts, eu, ev))
    return members


#: Relative tolerance of the integer weighting against the float reference,
#: fixed before measuring (the observed deviation is below 1e-15).
REFERENCE_RTOL = 1e-12


def float_weight_reference(workspace, counts):
    """The full-width float weighting the integer sums replaced.

    Scatters the integer counts out to every edge column, multiplies by
    the per-edge weights ``1/k_w(u) + 1/k_w(v)`` and sums each
    estimator's edge segment — the original ``val1`` evaluation, kept as
    an independent reference for :meth:`SeedSweepWorkspace.weight_rows`.
    """
    live = workspace.live
    rows = counts.shape[0]
    out = np.zeros((len(workspace.estimators), rows))
    if not live:
        return out
    inverse = [inverse_counts(est) for est in live]
    weights = np.concatenate(
        [inv[est.edges_u] + inv[est.edges_v] for inv, est in zip(inverse, live)]
    )
    column = (
        workspace.inverse
        if workspace.inverse is not None
        else np.arange(len(weights))
    )
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
    bounds = np.cumsum([0] + [est.num_edges for est in live])
    live_rows = [i for i, est in enumerate(workspace.estimators) if est.num_edges]
    for j, i in enumerate(live_rows):
        segment = total[:, bounds[j]:bounds[j + 1]]
        out[i] = segment.sum(axis=1) / float(workspace.scale)
    return out


def dp_count_reference(kernel, s1_values):
    """The per-cell counting DP the count table replaced.

    Runs the digit DP of :mod:`repro.core.counting` on every (seed, count
    column) cell: ``N(d, t_u, t_v)`` per edge column for 2-bucket phases,
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


#: A fixed 4-bucket kernel, its fingerprint and its count-matrix sum over
#: all 64 seeds as produced by the per-cell DP kernel.  The fingerprint
#: hashes the kernel's column arrays, so it pins their layout.
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
        4,
        6,
        4,
        psi_diff,
        bucket_thresholds(counts_u, 6),
        bucket_thresholds(counts_v, 6),
    )


@st.composite
def count_kernels(draw):
    """A random kernel: b in [1, 14] on either side of the domain bits a,
    r in {1, 2, 3}, bucket counts with empty buckets (so thresholds hit 0
    and 2^b), and seeds that always include the s1 = 0 row."""
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
    psi_diff = rng.integers(0, 1 << a, size=cols).astype(np.int64)
    kernel = SweepCountKernel(a, b, num_buckets, psi_diff, *ends)
    order = 1 << kernel.family.m
    seeds = rng.choice(order, size=min(order, 48), replace=False)
    seeds = np.concatenate([[0], seeds[seeds != 0]]).astype(np.int64)
    return kernel, seeds


class TestCountTable:
    @given(
        count_kernels(),
        st.lists(st.integers(min_value=1, max_value=48), max_size=4),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dp_reference(self, drawn, cuts, use_tables, pickled):
        kernel, seeds = drawn
        want = dp_count_reference(kernel, seeds)
        bounds = sorted({0, len(seeds), *(c for c in cuts if c < len(seeds))})
        field = kernel.family.field
        field.use_tables = use_tables
        try:
            parts = []
            for lo, hi in zip(bounds, bounds[1:]):
                parts.append(kernel.count_rows(seeds[lo:hi]).copy())
                if pickled:
                    kernel = pickle.loads(pickle.dumps(kernel))
        finally:
            field.use_tables = True
        got = np.concatenate(parts)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_table_is_never_pickled(self):
        kernel = pinned_kernel()
        before = len(pickle.dumps(kernel))
        kernel.count_rows(np.arange(64, dtype=np.int64))
        assert len(pickle.dumps(kernel)) == before

    def test_pinned_fingerprint_and_counts(self):
        kernel = pinned_kernel()
        assert kernel.fingerprint == PINNED_FINGERPRINT
        counts = kernel.count_rows(np.arange(64, dtype=np.int64))
        assert int(counts.sum()) == PINNED_COUNT_SUM
        want = dp_count_reference(kernel, np.arange(64))
        assert np.array_equal(counts, want)
        assert kernel.fingerprint == PINNED_FINGERPRINT


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
    inverse, so the workspace's columns and fingerprints do not move."""

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
            workspace.family.a,
            workspace.b,
            workspace.num_buckets,
            *(np.ascontiguousarray(part) for part in want),
        )
        assert workspace.kernel.fingerprint == oracle.fingerprint
        # The count table dedups threshold rows the same way.
        _, offsets, _ = workspace.kernel._count_table()
        _, columns = workspace.kernel._threshold_rows()
        _, _, row_of_col = unique_rows_reference(np.stack(columns, axis=1))
        assert np.array_equal(offsets >> workspace.b, row_of_col)

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
        if not any(est.num_edges for est in group):
            return
        self.assert_workspace_matches_oracle(group)


class TestKernelSplit:
    """``count_rows`` is elementwise per (seed row, count column), so any
    partition of the seed range assembles the same integer matrix, and
    ``weight_rows`` over it reproduces ``expected_rows`` bit for bit."""

    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_count_then_weight_matches_expected_rows(self, buckets, compress, seed):
        group = random_group(3, buckets=buckets, seed=seed)
        sweep = SeedSweepWorkspace(group, compress=compress)
        order = 1 << group[0].family.m
        s1s = np.arange(order, dtype=np.int64)
        counts = sweep.kernel.count_rows(s1s)
        via_split = sweep.weight_rows(counts)
        direct = SeedSweepWorkspace(group, compress=compress).expected_rows(s1s)
        assert np.array_equal(via_split, direct)

    @pytest.mark.parametrize("chunks", [2, 3, 5, 7])
    def test_counts_chunk_boundary_stable(self, chunks):
        group = random_group(3, buckets=4, seed=2)
        sweep = SeedSweepWorkspace(group)
        kernel = sweep.kernel
        order = 1 << group[0].family.m
        whole = kernel.count_rows(np.arange(order, dtype=np.int64)).copy()
        assembled = np.empty_like(whole)
        edges = (order * np.arange(chunks + 1, dtype=np.int64)) // chunks
        for lo, hi in zip(edges[:-1], edges[1:]):
            kernel.count_rows(
                np.arange(lo, hi, dtype=np.int64), out=assembled[lo:hi]
            )
        assert np.array_equal(assembled, whole)

    def test_kernel_pickles_without_field_tables(self):
        group = random_group(1, seed=3)
        kernel = SeedSweepWorkspace(group).kernel
        _ = kernel.family  # force the lazy family
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._family is None  # tables rebuilt lazily in the worker
        s1s = np.arange(16, dtype=np.int64)
        assert np.array_equal(clone.count_rows(s1s), kernel.count_rows(s1s))
        assert clone.fingerprint == kernel.fingerprint

    def test_fingerprint_distinguishes_workspaces(self):
        a = SeedSweepWorkspace(random_group(2, seed=4)).kernel
        b = SeedSweepWorkspace(random_group(2, seed=5)).kernel
        assert a.fingerprint != b.fingerprint
        again = SeedSweepWorkspace(random_group(2, seed=4)).kernel
        assert a.fingerprint == again.fingerprint

    def test_weight_rows_rejects_bad_counts(self):
        group = random_group(2, seed=6)
        sweep = SeedSweepWorkspace(group)
        with pytest.raises(ValueError):
            sweep.weight_rows(
                np.zeros((4, sweep.kernel.count_width + 1), dtype=np.int64)
            )
        with pytest.raises(ValueError):
            sweep.weight_rows(
                np.zeros((4, sweep.kernel.count_width), dtype=np.float64)
            )


class TestIntegerWeighting:
    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("edgeless", [(), (0, 2)])
    @pytest.mark.parametrize("buckets", [2, 4, 8])
    @pytest.mark.parametrize("duplicate_heavy", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_float_reference(
        self, compress, edgeless, buckets, duplicate_heavy, seed
    ):
        group = random_group(
            4,
            buckets=buckets,
            seed=seed,
            duplicate_heavy=duplicate_heavy,
            edgeless=edgeless,
        )
        # Empty buckets (k_w = 0) must be in play for the check to bite.
        assert any((est.counts == 0).any() for est in group)
        workspace = SeedSweepWorkspace(group, compress=compress)
        counts = workspace.count_rows(
            np.arange(1 << group[0].family.m, dtype=np.int64)
        )
        got = workspace.weight_rows(counts)
        want = float_weight_reference(workspace, counts)
        np.testing.assert_allclose(got, want, rtol=REFERENCE_RTOL, atol=0.0)
        for j in edgeless:
            assert not got[j].any()

    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("chunk", [1, 5, 16, 64])
    def test_bitwise_across_chunks_and_compression(self, buckets, chunk):
        group = random_group(3, buckets=buckets, seed=11, edgeless=(1,))
        order = 1 << group[0].family.m
        whole = SeedSweepWorkspace(group, compress=False).expected_rows(
            np.arange(order, dtype=np.int64)
        )
        workspace = SeedSweepWorkspace(group, compress=True)
        counts = workspace.count_rows(np.arange(order, dtype=np.int64)).copy()
        chunked = np.empty_like(whole)
        for start in range(0, order, chunk):
            stop = min(order, start + chunk)
            workspace.weight_rows(counts[start:stop], out=chunked[:, start:stop])
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("buckets", [2, 4])
    def test_exactness_guard(self, monkeypatch, buckets):
        group = random_group(2, buckets=buckets, seed=12)
        bound = SeedSweepWorkspace(group).sum_bound
        # The bound is 2^b times the largest (estimator, k) incidence
        # count: every (edge endpoint, bucket) pair with that k > 0.
        incidences = 0
        for est in group:
            ends = np.concatenate([est.counts[est.edges_u], est.counts[est.edges_v]])
            if buckets > 2:
                # The interval DP only counts buckets whose threshold
                # interval is nonempty at both endpoints.
                width = np.diff(est.thresholds, axis=1) > 0
                alive = width[est.edges_u] & width[est.edges_v]
                ends = np.where(np.concatenate([alive, alive]), ends, 0)
            _, multiplicity = np.unique(ends[ends > 0], return_counts=True)
            incidences = max(incidences, int(multiplicity.max()))
        assert bound == int(group[0].scale) * incidences
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
        s1s = np.arange(1 << group[0].family.m, dtype=np.int64)
        compressed = expected_by_s1_grouped(group, s1s, compress=True)
        reference = expected_by_s1_grouped(group, s1s, compress=False)
        for got, want in zip(compressed, reference):
            assert np.array_equal(got, want)

    def test_matches_per_estimator_method(self):
        group = random_group(2, seed=3)
        s1s = np.arange(16, dtype=np.int64)
        fused = expected_by_s1_grouped(group, s1s)
        for est, row in zip(group, fused):
            assert np.array_equal(est.expected_by_s1(s1s), row)

    @pytest.mark.parametrize("edgeless", [(0,), (1,), (0, 1, 2)])
    def test_edgeless_members(self, edgeless):
        group = random_group(3, seed=4, edgeless=edgeless)
        s1s = np.arange(8, dtype=np.int64)
        compressed = expected_by_s1_grouped(group, s1s, compress=True)
        reference = expected_by_s1_grouped(group, s1s, compress=False)
        for j, (got, want) in enumerate(zip(compressed, reference)):
            assert np.array_equal(got, want)
            if j in edgeless:
                assert got.sum() == 0.0

    def test_workspace_reuse_across_chunks(self):
        # One workspace driven chunk-by-chunk must reproduce the one-shot
        # evaluation exactly — buffer reuse can't leak state across chunks.
        group = random_group(3, buckets=4, seed=5)
        order = 1 << group[0].family.m
        workspace = SeedSweepWorkspace(group)
        chunked = np.empty((3, order), dtype=np.float64)
        for start in range(0, order, 7):  # deliberately ragged chunks
            stop = min(order, start + 7)
            workspace.expected_rows(
                np.arange(start, stop, dtype=np.int64),
                out=chunked[:, start:stop],
            )
        whole = SeedSweepWorkspace(group).expected_rows(
            np.arange(order, dtype=np.int64)
        )
        assert np.array_equal(chunked, whole)

    def test_empty_group(self):
        assert expected_by_s1_grouped([], np.arange(4)) == []

    def test_expected_rows_rejects_bad_out_buffer(self):
        group = random_group(2, seed=6)
        workspace = SeedSweepWorkspace(group)
        candidates = np.arange(4, dtype=np.int64)
        with pytest.raises(ValueError):
            workspace.expected_rows(
                candidates, out=np.empty((2, 4), dtype=np.int64)
            )
        with pytest.raises(ValueError):
            workspace.expected_rows(candidates, out=np.empty((3, 4)))


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
        group.append(PhaseEstimator(family, psi, counts, u[keep], v[keep]))
    s1s = rng.integers(0, family.field.order, size=num)
    return group, s1s


def first_split(sigma_a, sigma_b, b):
    """The number of leading σ bits two choices share (< b)."""
    return b - int(sigma_a ^ sigma_b).bit_length()


class TestSigmaDescent:
    @given(sigma_groups())
    @settings(max_examples=120, deadline=None)
    def test_matches_integer_oracle_bitwise(self, drawn):
        group, s1s = drawn
        got = exact_by_sigma_grouped(group, s1s)
        assert len(got) == len(group)
        for est, s1, (sigma, trace, final, root) in zip(group, s1s, got):
            want_sigma, want_trace, want_final, want_root = (
                sigma_descent_reference(est, s1)
            )
            assert sigma == want_sigma
            assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
            assert np.float64(final).tobytes() == np.float64(want_final).tobytes()
            assert np.float64(root).tobytes() == np.float64(want_root).tobytes()
            assert len(trace) == est.b
            assert all(type(t) is float for t in trace)

    @given(sigma_groups())
    @settings(max_examples=150, deadline=None)
    def test_float_sweep_differs_only_on_exact_ties(self, drawn):
        group, s1s = drawn
        got = exact_by_sigma_grouped(group, s1s)
        for est, s1, (sigma, _trace, final, root) in zip(group, s1s, got):
            values = sigma_sweep_reference(est, s1)
            old, _ = fix_bits_greedily(values)
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
        order = 1 << group[0].family.m
        val1 = SeedSweepWorkspace(group).expected_rows(
            np.arange(order, dtype=np.int64)
        )
        for s1 in range(order):
            got = exact_by_sigma_grouped(group, [s1] * len(group))
            for j, (_sigma, _trace, _final, root) in enumerate(got):
                assert root == val1[j, s1]

    def test_rejects_out_of_range_s1(self):
        group = random_group(2, seed=6)
        order = group[0].family.field.order
        with pytest.raises(ValueError):
            exact_by_sigma_grouped(group, [0, order])
        with pytest.raises(ValueError):
            exact_by_sigma_grouped(group, [-1, 0])
        with pytest.raises(ValueError):
            exact_by_sigma_grouped(group, [0])

    def test_edgeless_members_choose_zero(self):
        group = random_group(3, seed=14, edgeless=(0, 1, 2))
        b = group[0].b
        for got in exact_by_sigma_grouped(group, [1, 2, 3]):
            assert got == (0, [0.0] * b, 0.0, 0.0)

    def test_empty_group(self):
        assert exact_by_sigma_grouped([], []) == []

    def test_strict_check_rejects_a_root_off_val1(self, monkeypatch):
        group = random_group(2, seed=15)
        descend = derandomize.exact_by_sigma_grouped

        def nudged(estimators, s1_values):
            out = descend(estimators, s1_values)
            sigma, trace, final, root = out[0]
            out[0] = (sigma, trace, final, np.nextafter(root, np.inf))
            return out

        monkeypatch.setattr(derandomize, "exact_by_sigma_grouped", nudged)
        with pytest.raises(AssertionError, match="inconsistency"):
            derandomize_phase_group(group)
        derandomize_phase_group(group, strict=False)


class TestDerandomizeEquivalence:
    @pytest.mark.parametrize("buckets", [2, 4])
    def test_phase_group_choices_identical(self, buckets):
        group = random_group(3, buckets=buckets, seed=7, edgeless=(1,))
        compressed = derandomize_phase_group(group, compress=True)
        reference = derandomize_phase_group(group, compress=False)
        for i, (got, want) in enumerate(zip(compressed, reference)):
            assert_seed_choices_equal(got, want, f"seed[{i}]")

    def test_tables_off_reference_identical(self):
        # The full pre-PR path: peasant GF multiplies + uncompressed sweep.
        group = random_group(2, seed=8)
        field = group[0].family.field
        compressed = derandomize_phase_group(group)
        field.use_tables = False
        try:
            reference = derandomize_phase_group(group, compress=False)
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
            idx, trace = fix_bits_greedily(rows[j])
            assert idx == int(lo[j])
            assert trace == traces[j]

    def test_single_entry_rows_have_empty_traces(self):
        lo, traces = fix_bits_greedily_many(np.array([[2.0], [1.0]]))
        assert list(lo) == [0, 0]
        assert traces == [[], []]
