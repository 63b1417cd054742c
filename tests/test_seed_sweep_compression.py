"""Unique-column sweep compression: bit-for-bit against the reference path.

The table/compression kernels (GF(2^m) log tables, unique-column seed
sweeps, the reusable sweep workspace) are pure speedups.  The E[·|s1]
weighting forms exact integer sums per (estimator, list size) that do not
depend on how columns were deduplicated or how the seed range was chunked,
and the σ sweep sees the same float operands in the same order either
way, so all results — expectations, σ arrays, seed choices, conditional
traces — are asserted *exactly* equal across those knobs, not approx.
The integer weighting itself is checked against the original full-width
float weighting (:func:`float_weight_reference`) within ``REFERENCE_RTOL``,
and the table-driven count kernel bit for bit against the per-cell counting
DP it replaced (:func:`dp_count_reference`).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.potential as potential

from equivalence import assert_seed_choices_equal
from repro.core.counting import count_xor_below, count_xor_in_intervals
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
    weights = np.concatenate(
        [est._inv_counts[est.edges_u] + est._inv_counts[est.edges_v] for est in live]
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


#: A fixed 4-bucket kernel, its fingerprint and its count-matrix sum over
#: all 64 seeds as produced by the per-cell DP kernel.  On-disk sweep-cache
#: entries are named by this fingerprint, so it must never drift.
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


class TestSigmaSweepCompression:
    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_grouped_sigma_bitwise(self, buckets, seed):
        group = random_group(3, buckets=buckets, seed=seed)
        s1s = [3, 7, 11]
        compressed = exact_by_sigma_grouped(group, s1s, compress=True)
        reference = exact_by_sigma_grouped(group, s1s, compress=False)
        for got, want in zip(compressed, reference):
            assert np.array_equal(got, want)

    def test_sigma_matrix_rejects_out_of_range_s1(self):
        (est,) = random_group(1, seed=6)
        with pytest.raises(ValueError):
            est.buckets_for_sigma_matrix(1 << est.family.m)
        with pytest.raises(ValueError):
            est.exact_by_sigma(-1)

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

    def test_single_estimator_sigma_bitwise(self):
        (est,) = random_group(1, seed=6)
        for s1 in (0, 5, 13):
            assert np.array_equal(
                est.exact_by_sigma(s1, compress=True),
                est.exact_by_sigma(s1, compress=False),
            )
            assert np.array_equal(
                est.buckets_for_sigma_matrix(s1, compress=True),
                est.buckets_for_sigma_matrix(s1, compress=False),
            )


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
