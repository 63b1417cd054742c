"""BatchedListColoringInstance and batched-vs-sequential equivalence.

The batched solver contract: solving k vertex-disjoint instances through
one ``solve_list_coloring_batch`` call produces, per instance, *exactly*
what the sequential per-instance loop produces — colors, round-ledger
breakdowns, potential traces and seed choices — while the per-phase seed
enumerations are fused across instances sharing a seed space.  These tests
pin that contract on heterogeneous batches and the edge cases (empty
batch, empty member instance, a single instance).
"""

import numpy as np
import pytest

from equivalence import (
    assert_coloring_results_equal,
    assert_outcomes_equal,
    assert_prefix_results_equal,
    assert_seed_columns_equal,
    member_columns,
)
from repro.core.derandomize import derandomize_phase_group
from repro.core.instances import (
    BatchedListColoringInstance,
    ColorListStore,
    ListColoringInstance,
    make_delta_plus_one_instance,
    make_random_lists_instance,
)
from repro.core.list_coloring import (
    solve_list_coloring_batch,
    solve_list_coloring_congest,
)
from repro.core.partial_coloring import (
    partial_coloring_pass,
    partial_coloring_pass_batch,
)
from repro.core.prefix import extend_prefixes, extend_prefixes_batch
from repro.core.validation import verify_proper_list_coloring
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from reference import stack_group


def heterogeneous_instances():
    """Instances with differing Δ, color spaces and ψ domains — they land
    in different seed spaces (m, b, 2^r), plus two that share one — and
    two that run edgeless phases: isolated nodes only, and a matching
    whose lists split on the top color bit, so every edge dies in phase 1."""
    split = ListColoringInstance(
        Graph(6, [(0, 1), (2, 3), (4, 5)]),
        8,
        ColorListStore.from_lists([[0, 2, 3], [4, 7]] * 3, 6),
    )
    return [
        make_delta_plus_one_instance(gen.cycle_graph(12)),
        make_delta_plus_one_instance(gen.cycle_graph(10)),  # shares (ψ, b) shape
        make_delta_plus_one_instance(gen.random_regular_graph(16, 4, seed=3)),
        make_random_lists_instance(
            gen.random_regular_graph(12, 3, seed=5),
            32,
            np.random.default_rng(11),
            slack=2,
        ),
        make_delta_plus_one_instance(gen.star_graph(7)),
        make_random_lists_instance(
            Graph(5, []), 16, np.random.default_rng(2), slack=3
        ),
        split,
    ]


class TestBatchRoundTrips:
    def test_from_instances_split_round_trip(self):
        instances = heterogeneous_instances()
        batch = BatchedListColoringInstance.from_instances(instances)
        assert batch.num_instances == len(instances)
        assert batch.n == sum(inst.n for inst in instances)
        for original, view in zip(instances, batch.split()):
            assert view.color_space == original.color_space
            assert np.array_equal(view.graph.edges_u, original.graph.edges_u)
            assert np.array_equal(view.graph.edges_v, original.graph.edges_v)
            assert np.array_equal(view.lists.values, original.lists.values)
            assert np.array_equal(view.lists.offsets, original.lists.offsets)

    def test_split_without_cached_graphs(self):
        instances = heterogeneous_instances()[:2]
        batch = BatchedListColoringInstance.from_instances(instances)
        rebuilt = BatchedListColoringInstance(
            batch.graph, batch.instance_offsets, batch.color_spaces, batch.lists
        )
        assert rebuilt.instance_graphs is None
        for original, view in zip(instances, rebuilt.split()):
            assert np.array_equal(view.graph.edges_u, original.graph.edges_u)
            assert np.array_equal(view.lists.values, original.lists.values)

    def test_empty_batch(self):
        batch = BatchedListColoringInstance.from_instances([])
        assert batch.num_instances == 0 and batch.n == 0
        assert batch.split() == []
        assert extend_prefixes_batch(batch, np.empty(0, dtype=np.int64), []) == []
        assert partial_coloring_pass_batch(batch, np.empty(0, dtype=np.int64), []) == []
        assert solve_list_coloring_batch(batch).results == []

    def test_single_instance_batch(self):
        instance = make_delta_plus_one_instance(gen.cycle_graph(9))
        batch = BatchedListColoringInstance.from_instances([instance])
        sequential = solve_list_coloring_congest(instance)
        batched = solve_list_coloring_batch(batch).results[0]
        assert_coloring_results_equal(sequential, batched)

    def test_batch_with_empty_member(self):
        empty = ListColoringInstance(
            Graph(0, []), 4, ColorListStore.from_lists([], 0)
        )
        full = make_delta_plus_one_instance(gen.cycle_graph(6))
        batch = BatchedListColoringInstance.from_instances([empty, full, empty])
        result = solve_list_coloring_batch(batch)
        assert result.results[0].colors.size == 0
        assert result.results[0].rounds.total == 0
        assert result.results[2].colors.size == 0
        reference = solve_list_coloring_congest(full)
        assert_coloring_results_equal(reference, result.results[1], "full")

    def test_rejects_cross_instance_edges(self):
        with pytest.raises(ValueError, match="crosses instance blocks"):
            BatchedListColoringInstance(
                Graph(4, [(1, 2)]),
                np.array([0, 2, 4]),
                np.array([2, 2]),
                ColorListStore.from_lists([[0, 1]] * 4, 4),
            )

    def test_rejects_wrong_partition(self):
        store = ColorListStore.from_lists([[0, 1]] * 4, 4)
        with pytest.raises(ValueError, match="cover"):
            BatchedListColoringInstance(
                Graph(4, []), np.array([0, 2]), np.array([2]), store
            )
        with pytest.raises(ValueError, match="color spaces"):
            BatchedListColoringInstance(
                Graph(4, []), np.array([0, 2, 4]), np.array([2]), store
            )


class TestBatchedEquivalence:
    """Batched paths pinned byte-identical to the per-instance loop."""

    def test_extend_prefixes_batch_matches_sequential(self):
        instances = heterogeneous_instances()
        psis = [np.arange(inst.n, dtype=np.int64) for inst in instances]
        nums = [max(2, inst.n) for inst in instances]
        sequential = [
            extend_prefixes(inst, psi, num)
            for inst, psi, num in zip(instances, psis, nums)
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        batched = extend_prefixes_batch(batch, np.concatenate(psis), nums)
        for i, (seq, bat) in enumerate(zip(sequential, batched)):
            assert_prefix_results_equal(seq, bat, f"instance[{i}]")

    @pytest.mark.parametrize("avoid_mis", [False, True])
    def test_partial_pass_batch_matches_sequential(self, avoid_mis):
        instances = heterogeneous_instances()
        psis = [np.arange(inst.n, dtype=np.int64) for inst in instances]
        nums = [max(2, inst.n) for inst in instances]
        sequential = [
            partial_coloring_pass(inst, psi, num, avoid_mis=avoid_mis)
            for inst, psi, num in zip(instances, psis, nums)
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        batched = partial_coloring_pass_batch(
            batch, np.concatenate(psis), nums, avoid_mis=avoid_mis
        )
        for i, (seq, bat) in enumerate(zip(sequential, batched)):
            assert_outcomes_equal(seq, bat, f"instance[{i}]")

    def test_solve_batch_matches_sequential(self):
        instances = heterogeneous_instances()
        sequential = [solve_list_coloring_congest(inst) for inst in instances]
        batch = BatchedListColoringInstance.from_instances(instances)
        batched = solve_list_coloring_batch(batch)
        for i, (inst, seq, bat) in enumerate(
            zip(instances, sequential, batched.results)
        ):
            assert_coloring_results_equal(seq, bat, f"instance[{i}]")
            verify_proper_list_coloring(inst, bat.colors)
        assert np.array_equal(
            batched.colors, np.concatenate([s.colors for s in sequential])
        )

    def test_solve_batch_with_comm_depths_and_input_colorings(self):
        instances = heterogeneous_instances()[:3]
        psis = [np.arange(inst.n, dtype=np.int64) for inst in instances]
        sequential = [
            solve_list_coloring_congest(
                inst, comm_depth=4, input_coloring=psi, num_input_colors=inst.n
            )
            for inst, psi in zip(instances, psis)
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        batched = solve_list_coloring_batch(
            batch,
            comm_depths=[4] * 3,
            input_colorings=psis,
            nums_input_colors=[inst.n for inst in instances],
        )
        for i, (seq, bat) in enumerate(zip(sequential, batched.results)):
            assert_coloring_results_equal(seq, bat, f"instance[{i}]")

    def test_randomized_batch_is_proper(self):
        instances = heterogeneous_instances()
        batch = BatchedListColoringInstance.from_instances(instances)
        result = solve_list_coloring_batch(
            batch, rng=np.random.default_rng(5), strict=False
        )
        for inst, res in zip(instances, result.results):
            verify_proper_list_coloring(inst, res.colors)


class TestGroupedDerandomization:
    def test_group_matches_individual_choices(self):
        from repro.core.potential import PhaseEstimator
        from repro.hashing.pairwise import PairwiseFamily

        rng = np.random.default_rng(0)
        members = []
        for seed in range(4):
            n = 8
            counts = rng.integers(1, 4, size=(n, 2)).astype(np.int64)
            eu = np.arange(n - 1, dtype=np.int64)
            ev = eu + 1
            members.append((np.arange(n, dtype=np.int64) + seed, counts, eu, ev))
        family = PairwiseFamily(4, 5)
        grouped = derandomize_phase_group(stack_group(family, members))
        assert len(grouped.s1) == len(members)
        for i, member in enumerate(members):
            alone = derandomize_phase_group(PhaseEstimator(family, *member))
            assert_seed_columns_equal(
                alone, member_columns(grouped, i), f"seed[{i}]"
            )

    def test_one_derandomization_per_seed_space_and_phase(self, monkeypatch):
        """Instances whose ψ-domain bits a differ but whose m = max(a, b)
        agree are fused: each phase runs ``derandomize_phase_group`` once
        per distinct (m, b, 2^r) among the instances with alive edges, and
        edgeless instances never enter it."""
        from repro.core import prefix

        cycle = make_delta_plus_one_instance(gen.cycle_graph(12))
        instances = [cycle] * 4 + heterogeneous_instances()[2:]
        psis = [np.arange(12, dtype=np.int64) % K for K in (2, 3, 4, 6)] + [
            np.arange(inst.n, dtype=np.int64) for inst in instances[4:]
        ]
        nums = [2, 3, 4, 6] + [max(2, inst.n) for inst in instances[4:]]
        sequential = [
            extend_prefixes(inst, psi, num)
            for inst, psi, num in zip(instances, psis, nums)
        ]

        calls = []
        derandomize = prefix.derandomize_phase_group

        def counting(group, strict=True):
            calls.append((group.family.m, group.b, group.num_buckets))
            return derandomize(group, strict=strict)

        monkeypatch.setattr(prefix, "derandomize_phase_group", counting)
        batch = BatchedListColoringInstance.from_instances(instances)
        batched = extend_prefixes_batch(batch, np.concatenate(psis), nums)

        expected, by_domain = [], 0
        for t in range(max(len(res.phases) for res in batched)):
            keys, domain_keys = set(), set()
            for inst, num, res in zip(instances, nums, batched):
                if t >= len(res.phases):
                    continue
                before = res.phases[t - 1].alive_edges if t else inst.graph.m
                if before:
                    rec = res.phases[t]
                    keys.add((rec.seed_bits - rec.b, rec.b, 1 << rec.r))
                    a = max(1, int(max(2, num) - 1).bit_length())
                    domain_keys.add((a, rec.b, 1 << rec.r))
            expected += sorted(keys)
            by_domain += len(domain_keys)
        assert sorted(calls) == sorted(expected)
        # The batch does exercise the fusion: keyed by (a, b, 2^r) it
        # would take more calls.
        assert len(calls) < by_domain
        for i, (seq, bat) in enumerate(zip(sequential, batched)):
            assert_prefix_results_equal(seq, bat, f"instance[{i}]")
