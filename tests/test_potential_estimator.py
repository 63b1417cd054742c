"""The PhaseEstimator against brute-force enumeration over the seed space.

These tests pin the mathematical heart of the reproduction: for small
parameters, E[Σ_e X_e | s1] and the exact per-σ values must match a direct
enumeration of the randomized process of Algorithm 1.
"""

import numpy as np
import pytest

from equivalence import assert_seed_columns_equal, member_columns
from repro.core.derandomize import CHUNK_SIZE, derandomize_phase_group
from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    accuracy_bits,
    buckets_for_seed_grouped,
    exact_by_sigma_grouped,
    potential_sums,
)
from reference import buckets_for_seed_reference, stack_group
from test_seed_sweep_compression import random_group, sigma_sweep_reference
from repro.hashing.coins import bucket_thresholds
from repro.hashing.pairwise import PairwiseFamily


def brute_force_potential(family, psi, counts, edges, s1, sigma):
    """Directly simulate the bucket choice and compute Σ_e X_e."""
    b = family.b
    thresholds = bucket_thresholds(counts, b)
    g = family.g_values(s1, psi)
    y = g ^ sigma
    buckets = np.array(
        [
            np.searchsorted(thresholds[v], y[v], side="right") - 1
            for v in range(len(psi))
        ]
    )
    total = 0.0
    for u, v in edges:
        if buckets[u] == buckets[v]:
            total += 1.0 / counts[u, buckets[u]] + 1.0 / counts[v, buckets[v]]
    return total


def make_estimator(a=3, b=4, buckets=2, seed=0):
    rng = np.random.default_rng(seed)
    n = 6
    psi = np.arange(n, dtype=np.int64)  # distinct colors -> any edges allowed
    counts = rng.integers(0, 4, size=(n, buckets)).astype(np.int64)
    counts[:, 0] += 1  # no empty lists
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    family = PairwiseFamily(a, b)
    return PhaseEstimator(family, psi, counts, eu, ev), edges, psi, counts, family


def fuse(estimators):
    """The fusion group of single-instance estimators sharing a seed space,
    with the solver's family for it, ``PairwiseFamily(m, b)``."""
    first = estimators[0]
    return stack_group(
        PairwiseFamily(first.family.m, first.b),
        [(e.psi, e.counts, e.edges_u, e.edges_v) for e in estimators],
    )


class TestEstimatorExactness:
    @pytest.mark.parametrize("buckets", [2, 4])
    def test_sigma_oracle_matches_brute_force(self, buckets):
        est, edges, psi, counts, family = make_estimator(buckets=buckets)
        for s1 in (0, 1, 7, 11):
            vals = sigma_sweep_reference(est, s1)
            for sigma in range(0, 16, 3):
                brute = brute_force_potential(family, psi, counts, edges, s1, sigma)
                assert vals[sigma] == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("buckets", [2, 4])
    def test_sigma_descent_matches_brute_force(self, buckets):
        est, edges, psi, counts, family = make_estimator(buckets=buckets)
        for s1 in (0, 1, 7, 11):
            (sigma,), (trace,), (final,), (root,) = exact_by_sigma_grouped(est, [s1])
            brute = [
                brute_force_potential(family, psi, counts, edges, s1, x)
                for x in range(16)
            ]
            assert final == pytest.approx(brute[sigma], abs=1e-12)
            assert root == pytest.approx(np.mean(brute), abs=1e-12)
            assert trace[-1] == final

    @pytest.mark.parametrize("buckets", [2, 4])
    def test_expected_by_s1_is_mean_over_sigma(self, buckets):
        est, *_ = make_estimator(buckets=buckets)
        (expected,) = SeedSweepWorkspace(est).val1(CHUNK_SIZE)
        for s1 in (0, 3, 9, 15):
            exact = sigma_sweep_reference(est, int(s1))
            assert expected[s1] == pytest.approx(exact.mean(), rel=1e-12)

    @pytest.mark.parametrize("buckets", [2, 4])
    def test_grouped_expectation_matches_individual(self, buckets):
        # Shared-seed fusion: one grouped sweep must reproduce each
        # estimator's sweep alone exactly (bit-identical floats).
        ests = [make_estimator(buckets=buckets, seed=s)[0] for s in (0, 1, 2)]
        grouped = SeedSweepWorkspace(fuse(ests)).val1(CHUNK_SIZE)
        for est, fused in zip(ests, grouped):
            alone = SeedSweepWorkspace(est).val1(CHUNK_SIZE)[0]
            assert np.array_equal(alone, fused)

    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("b, domains", [(4, (3, 4, 3)), (5, (3, 5, 4))])
    def test_mixed_psi_domains_fuse_at_equal_m(self, buckets, b, domains):
        """Estimators whose ψ-domain bits a differ but whose m = max(a, b)
        agree share one seed space: each member's sweep rows, σ descent
        and seed choice in the fused group equal its group of one."""
        ests = [
            make_estimator(a=a, b=b, buckets=buckets, seed=s)[0]
            for s, a in enumerate(domains)
        ]
        assert len({est.family.a for est in ests}) > 1
        assert len({est.family.m for est in ests}) == 1
        group = fuse(ests)
        rows = SeedSweepWorkspace(group).val1(CHUNK_SIZE)
        picks = [3, 0, 11]
        descents = exact_by_sigma_grouped(group, picks)
        choices = derandomize_phase_group(group)
        for j, est in enumerate(ests):
            assert np.array_equal(
                rows[j], SeedSweepWorkspace(est).val1(CHUNK_SIZE)[0]
            )
            alone = exact_by_sigma_grouped(est, [picks[j]])
            for got, want in zip(descents, alone):
                assert np.asarray(got[j]).tobytes() == np.asarray(want[0]).tobytes()
            assert_seed_columns_equal(
                derandomize_phase_group(est), member_columns(choices, j),
                f"seed[{j}]",
            )

    def test_grouped_expectation_handles_edgeless_members(self):
        family = PairwiseFamily(3, 4)
        psi = np.arange(4, dtype=np.int64)
        counts = np.ones((4, 2), dtype=np.int64)
        empty = PhaseEstimator(
            family, psi, counts, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        full = make_estimator()[0]
        grouped = SeedSweepWorkspace(fuse([empty, full, empty])).val1(CHUNK_SIZE)
        assert grouped[0].sum() == 0.0 and grouped[2].sum() == 0.0
        alone = SeedSweepWorkspace(full).val1(CHUNK_SIZE)[0]
        assert np.array_equal(grouped[1], alone)

    def test_no_edges_gives_zero(self):
        family = PairwiseFamily(3, 4)
        psi = np.arange(4, dtype=np.int64)
        counts = np.ones((4, 2), dtype=np.int64)
        est = PhaseEstimator(
            family, psi, counts, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert SeedSweepWorkspace(est).val1(CHUNK_SIZE).sum() == 0.0
        sigmas, traces, finals, roots = exact_by_sigma_grouped(est, [0])
        assert sigmas.tolist() == [0] and traces.tolist() == [[0.0] * 4]
        assert finals.tolist() == roots.tolist() == [0.0]

    def test_rejects_improper_input_coloring(self):
        family = PairwiseFamily(3, 4)
        psi = np.array([1, 1], dtype=np.int64)
        counts = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            PhaseEstimator(
                family, psi, counts, np.array([0]), np.array([1])
            )


class TestBucketsForSeed:
    @pytest.mark.parametrize("buckets", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_grouped_matches_per_estimator_oracle(self, buckets, seed):
        group = random_group(3, buckets=buckets, seed=seed, edgeless=(1,))
        order = group.family.field.order
        rng = np.random.default_rng(seed)
        s1s = rng.integers(0, order, size=group.num_members)
        sigmas = rng.integers(0, group.scale, size=group.num_members)
        got = buckets_for_seed_grouped(group, s1s, sigmas)
        want = buckets_for_seed_reference(group, s1s, sigmas)
        assert got.shape == (len(group.psi),)
        assert np.array_equal(got, want)
        assert (group.counts[np.arange(len(want)), want] > 0).all()


def union_batch(buckets, seed):
    """Union arrays of six instances laid out as a batch: instance 1 has
    nodes but no edge, instance 3 has no node, the others have edges.
    Returns ``(parts, node_inst, edge_inst, psi, counts, edges_u,
    edges_v)`` with ``parts[i] = (psi, counts, edges_u, edges_v)`` of
    instance i in its own node ids."""
    rng = np.random.default_rng(seed)
    parts = []
    for n, with_edges in ((7, True), (4, False), (5, True), (0, False),
                          (6, True), (8, True)):
        psi = rng.integers(0, 16, size=n).astype(np.int64)
        counts = rng.integers(0, 3, size=(n, buckets)).astype(np.int64)
        counts[:, 0] += 1
        u = rng.integers(0, max(n, 1), size=3 * n if with_edges else 0)
        v = rng.integers(0, max(n, 1), size=len(u))
        keep = psi[u] != psi[v]
        parts.append((psi, counts, u[keep], v[keep]))
    sizes = [len(p[0]) for p in parts]
    starts = np.cumsum([0] + sizes)
    ids = np.arange(len(parts))
    return (
        parts,
        np.repeat(ids, sizes),
        np.repeat(ids, [len(p[2]) for p in parts]),
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] + s for p, s in zip(parts, starts)]),
        np.concatenate([p[3] + s for p, s in zip(parts, starts)]),
    )


class TestBuildGroup:
    """``build_group`` gathers non-contiguous members straight from the
    union arrays; every member's segment, seed choice and buckets equal
    those of a group of one built from that instance alone."""

    @pytest.mark.parametrize("buckets", [2, 4])
    @pytest.mark.parametrize("members", [(0, 2, 5), (0, 1, 3, 5), (3,)])
    def test_segments_equal_groups_of_one(self, buckets, members):
        parts, node_inst, edge_inst, psi, counts, eu, ev = union_batch(buckets, 1)
        family = PairwiseFamily(4, 5)
        selected = np.isin(np.arange(len(parts)), members)
        group = PhaseEstimator.build_group(
            family, selected, node_inst, edge_inst, psi, counts, eu, ev
        )
        assert group.num_members == len(members)
        assert group.node_offsets.tolist() == np.cumsum(
            [0] + [len(parts[i][0]) for i in members]
        ).tolist()
        assert group.edge_offsets.tolist() == np.cumsum(
            [0] + [len(parts[i][2]) for i in members]
        ).tolist()
        alone = [PhaseEstimator(family, *parts[i]) for i in members]
        for j, est in enumerate(alone):
            lo, hi = group.node_offsets[j:j + 2]
            elo, ehi = group.edge_offsets[j:j + 2]
            for name in ("psi", "counts", "thresholds"):
                assert np.array_equal(getattr(group, name)[lo:hi], getattr(est, name))
            assert np.array_equal(group.edges_u[elo:ehi] - lo, est.edges_u)
            assert np.array_equal(group.edges_v[elo:ehi] - lo, est.edges_v)
            assert np.array_equal(group.psi_diff[elo:ehi], est.psi_diff)

        choices = derandomize_phase_group(group)
        rng = np.random.default_rng(len(members))
        s1s = rng.integers(0, family.field.order, size=len(members))
        sigmas = rng.integers(0, group.scale, size=len(members))
        buckets_of = buckets_for_seed_grouped(group, s1s, sigmas)
        for j, est in enumerate(alone):
            assert_seed_columns_equal(
                derandomize_phase_group(est), member_columns(choices, j),
                f"seed[{j}]",
            )
            lo, hi = group.node_offsets[j:j + 2]
            assert np.array_equal(
                buckets_of[lo:hi],
                buckets_for_seed_grouped(est, s1s[j:j + 1], sigmas[j:j + 1]),
            )


class TestPotentialHelpers:
    def test_potential_sums(self):
        degrees = np.array([2, 3, 0, 1, 4])
        sizes = np.array([4, 6, 2, 3, 3])
        node_instance = np.array([0, 0, 1, 2, 2])
        got = potential_sums(degrees, sizes, node_instance, 4)
        assert got.tolist() == pytest.approx([1.0, 0.0, 5 / 3, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_potential_sums_add_k_ascending(self, seed):
        """Per instance Σ_k D_k / k, one term at a time with k ascending,
        whatever order the nodes come in."""
        rng = np.random.default_rng(seed)
        n, num = 300, 5
        degrees = rng.integers(0, 9, size=n)
        sizes = rng.integers(1, 14, size=n)
        node_instance = rng.integers(0, num, size=n)
        want = []
        for i in range(num):
            mine = node_instance == i
            total = 0.0
            for k in range(1, 14):
                d_k = int(degrees[mine & (sizes == k)].sum())
                if d_k:
                    total += d_k / k
            want.append(total)
        order = rng.permutation(n)
        got = potential_sums(degrees[order], sizes[order], node_instance[order], num)
        assert got.tolist() == want

    def test_potential_requires_positive_sizes(self):
        with pytest.raises(ValueError):
            potential_sums(np.array([1]), np.array([0]), np.array([0]), 1)

    def test_accuracy_bits_r1_matches_paper(self):
        # b = ceil(log2(10 · Δ · ⌈log C⌉)) for the CONGEST path.
        assert accuracy_bits(4, 5) == int(10 * 4 * 5 - 1).bit_length()
        assert accuracy_bits(1, 1) == 4  # 10 -> 4 bits

    def test_accuracy_bits_monotone_in_r_and_strengthen(self):
        base = accuracy_bits(8, 6, r=2)
        assert accuracy_bits(8, 6, r=4) >= base
        assert accuracy_bits(8, 6, r=2, strengthen=9) > base

    def test_phase_slack_bound_holds_for_chosen_b(self):
        """ε from accuracy_bits keeps the per-phase slack under n·r/⌈log C⌉."""
        for delta in (1, 3, 8, 17):
            for bits in (1, 4, 9):
                for r in (1, 2, 4):
                    b = accuracy_bits(delta, bits, r=r)
                    eps = 2.0 ** (-b)
                    n = 1000.0
                    edges = delta * n / 2
                    slack = (
                        eps * (1 << r) * n
                        + 2 * eps * edges * (1.0 + eps * (1 << r))
                    )
                    assert slack <= n * r / bits + 1e-9, (delta, bits, r)
