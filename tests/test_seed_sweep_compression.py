"""Unique-column sweep compression: bit-for-bit against the reference path.

The table/compression kernels (GF(2^m) log tables, unique-column seed
sweeps, the reusable sweep workspace) are pure speedups.  The E[·|s1]
weighting forms exact integer sums per (estimator, list size) that do not
depend on how columns were deduplicated or how the seed range was chunked,
and the σ sweep sees the same float operands in the same order either
way, so all results — expectations, σ arrays, seed choices, conditional
traces — are asserted *exactly* equal across those knobs, not approx.
The integer weighting itself is checked against the original full-width
float weighting (:func:`float_weight_reference`) within ``REFERENCE_RTOL``.
"""

import numpy as np
import pytest

import repro.core.potential as potential

from equivalence import assert_seed_choices_equal
from repro.core.derandomize import (
    derandomize_phase_group,
    fix_bits_greedily,
    fix_bits_greedily_many,
)
from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    exact_by_sigma_grouped,
    expected_by_s1_grouped,
)
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
        for w, (plan, block) in enumerate(zip(kernel._plans, kernel._blocks)):
            if plan is None:
                continue
            alive = plan[0]
            position = block[0] + np.cumsum(alive) - 1
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
