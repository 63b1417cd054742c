"""The prefix-extension process (Algorithm 1 / Lemmas 2.1–2.3 invariants)."""

import numpy as np
import pytest

import repro.core.prefix as prefix
from repro.core.instances import (
    BatchedListColoringInstance,
    ListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.prefix import extend_prefixes
from repro.graphs import generators as gen


def run_on(graph, seed=0, **kwargs):
    instance = make_delta_plus_one_instance(graph)
    psi = np.arange(graph.n, dtype=np.int64)
    return instance, extend_prefixes(instance, psi, graph.n, **kwargs)


class TestDerandomizedExtension:
    @pytest.mark.parametrize(
        "graph",
        [gen.cycle_graph(10), gen.complete_graph(6), gen.random_regular_graph(16, 3, 1)],
        ids=["cycle", "clique", "regular"],
    )
    def test_candidates_come_from_lists(self, graph):
        instance, result = run_on(graph)
        for v in range(graph.n):
            assert result.candidates[v] in instance.lists[v]

    def test_final_potential_at_most_2n(self):
        _instance, result = run_on(gen.random_regular_graph(20, 4, 2))
        assert result.potential_trace[-1] <= 2 * 20 + 1e-9

    def test_potential_trace_respects_per_phase_budget(self):
        """ΣΦ_ℓ ≤ ΣΦ_{ℓ-1} + n/⌈log C⌉ at every phase (Lemma 2.6)."""
        graph = gen.random_regular_graph(16, 4, 3)
        instance, result = run_on(graph)
        budget = graph.n / instance.color_bits
        for before, after in zip(result.potential_trace, result.potential_trace[1:]):
            assert after <= before + budget + 1e-9

    def test_strict_check_rejects_a_final_value_one_ulp_off(self, monkeypatch):
        """The realized ΣΦ and the σ descent's final value are both
        Σ_k D_k / k, k ascending, over the same integers: one ulp apart
        is a broken estimator."""
        derandomize = prefix.derandomize_phase_group

        def nudged(group, strict=True):
            chosen = derandomize(group, strict=strict)
            return chosen._replace(final=np.nextafter(chosen.final, np.inf))

        monkeypatch.setattr(prefix, "derandomize_phase_group", nudged)
        graph = gen.random_regular_graph(16, 3, 4)
        with pytest.raises(AssertionError, match="realized potential"):
            run_on(graph)
        run_on(graph, strict=False)

    def test_accuracy_override_keeps_the_exact_check(self, monkeypatch):
        """``accuracy_override`` turns off only the potential budget
        checks: the estimator's final value must still equal the realized
        potential exactly."""
        derandomize = prefix.derandomize_phase_group

        def nudged(group, strict=True):
            chosen = derandomize(group, strict=strict)
            return chosen._replace(final=np.nextafter(chosen.final, np.inf))

        graph = gen.random_regular_graph(16, 3, 4)
        run_on(graph, accuracy_override=2)
        monkeypatch.setattr(prefix, "derandomize_phase_group", nudged)
        with pytest.raises(AssertionError, match="realized potential"):
            run_on(graph, accuracy_override=2)

    @pytest.mark.parametrize(
        "column, message",
        [("final", "estimator value .* does not match realized potential"),
         ("initial", "E\\[Φ\\] = .* exceeds Φ_prev \\+ budget")],
        ids=["final-one-ulp", "budget"],
    )
    def test_strict_checks_name_the_one_perturbed_instance(
        self, monkeypatch, column, message
    ):
        """Perturbing only instance 2 at phase 1 fails that phase's array
        check there: its final value one ulp off the realized potential,
        or its initial expectation past the Lemma 2.6 budget.  Instance 0
        is one node and finishes after phase 0, so at phase 1 instance 2
        is live row 1 and the one group's member 1: the message must name
        the instance, not the row."""
        graph = gen.random_regular_graph(16, 3, 4)
        instance = make_delta_plus_one_instance(graph)
        single = make_delta_plus_one_instance(gen.path_graph(1))
        batch = BatchedListColoringInstance.from_instances([single, instance, instance])
        psis = np.concatenate([[0], np.tile(np.arange(graph.n, dtype=np.int64), 2)])
        nums = [1, graph.n, graph.n]
        derandomize = prefix.derandomize_phase_group
        calls = []

        def perturbed(group, strict=True):
            chosen = derandomize(group, strict=strict)
            calls.append(group.num_members)
            if len(calls) == 2:
                values = getattr(chosen, column).copy()
                if column == "final":
                    values[-1] = np.nextafter(values[-1], np.inf)
                else:
                    values[-1] += graph.n
                chosen = chosen._replace(**{column: values})
            return chosen

        def run(**kwargs):
            calls.clear()
            return prefix.extend_prefixes_batch(batch, psis, nums, **kwargs)

        clean = run()
        assert len(clean[0].phases) == 1 and len(clean[2].phases) >= 2
        assert clean[2].phases[0].alive_edges
        monkeypatch.setattr(prefix, "derandomize_phase_group", perturbed)
        with pytest.raises(AssertionError, match=f"^instance 2, phase 1: {message}"):
            run()
        assert calls[:2] == [2, 2]
        run(strict=False)
        if column == "initial":
            # The budget is Lemma 2.6's for the default accuracy only.
            run(accuracy_override=int(clean[2].phases[0].b))

    def test_records_are_built_from_the_columns(self):
        """Every phase record and its seed are plain Python scalars, one
        record per phase, with the seed's widths summing to the record's."""
        graph = gen.random_regular_graph(16, 3, 4)
        for kwargs in ({}, {"r_schedule": lambda p, left: 2}):
            _instance, result = run_on(graph, **kwargs)
            assert result.total_seed_bits == sum(
                rec.seed_bits for rec in result.phases
            )
            assert result.potential_trace[1:] == [
                rec.potential_after for rec in result.phases
            ]
            for rec in result.phases:
                seed = rec.seed
                assert all(type(x) is int for x in (rec.r, rec.b, rec.seed_bits,
                                                    rec.alive_edges, seed.s1,
                                                    seed.sigma))
                assert all(type(x) is float for x in (
                    rec.initial_expectation, rec.final_value,
                    rec.potential_after, *seed.conditional_trace))
                assert seed.seed_bits == rec.seed_bits == len(seed.conditional_trace)
                assert (seed.s1_bits, seed.sigma_bits) == (rec.seed_bits - rec.b, rec.b)
                assert rec.initial_expectation == seed.initial_expectation
                assert rec.final_value == seed.final_value == rec.potential_after

    def test_conflict_degree_consistency(self):
        graph = gen.random_regular_graph(16, 3, 4)
        _instance, result = run_on(graph)
        # conflict_degrees must equal the degree in the final conflict graph
        deg = np.zeros(graph.n, dtype=np.int64)
        for u, v in zip(result.conflict_edges_u, result.conflict_edges_v):
            assert result.candidates[u] == result.candidates[v]
            deg[u] += 1
            deg[v] += 1
        np.testing.assert_array_equal(deg, result.conflict_degrees)

    def test_conflict_edges_are_exactly_same_candidate_pairs(self):
        graph = gen.cycle_graph(12)
        _instance, result = run_on(graph)
        conflict = {
            (int(u), int(v))
            for u, v in zip(result.conflict_edges_u, result.conflict_edges_v)
        }
        for u, v in graph.edge_list():
            expected = result.candidates[u] == result.candidates[v]
            assert ((u, v) in conflict) == expected

    def test_multibit_schedule(self):
        graph = gen.random_regular_graph(12, 3, 5)
        _instance, result = run_on(graph, r_schedule=lambda p, left: 2)
        assert all(rec.r in (1, 2) for rec in result.phases)
        assert sum(rec.r for rec in result.phases) == result.phases[0].b * 0 + \
            make_delta_plus_one_instance(graph).color_bits

    def test_single_shot_schedule_lemma_4_2(self):
        graph = gen.random_regular_graph(12, 3, 6)
        _instance, result = run_on(graph, r_schedule=lambda p, left: left)
        assert len(result.phases) == 1

    def test_strengthened_accuracy_keeps_potential_below_n(self):
        graph = gen.random_regular_graph(16, 4, 7)
        _instance, result = run_on(graph, strengthen=5)
        assert result.potential_trace[-1] < 16

    def test_seed_bits_independent_of_n(self):
        """Section 1.4: seed length depends on Δ and log log C only."""
        bits = []
        for n in (16, 32, 64):
            graph = gen.random_regular_graph(n, 4, 8)
            instance = make_delta_plus_one_instance(graph)
            psi = np.arange(n, dtype=np.int64)
            # Fix the input-coloring size K (the paper's O(Δ²)) across n.
            result = extend_prefixes(instance, psi % 97, 97)
            bits.append(result.phases[0].seed_bits)
        assert bits[0] == bits[1] == bits[2]


class TestRandomizedExtension:
    @pytest.mark.parametrize("r", [1, 2])
    def test_random_phases_have_no_seed_and_nan_expectations(self, r):
        """A random seed is drawn, not derandomized: every record's seed is
        None and its expectations are NaN, never the edgeless 0.0."""
        graphs = [gen.random_regular_graph(16, 3, 9), gen.path_graph(1)]
        instances = [make_delta_plus_one_instance(g) for g in graphs]
        batch = BatchedListColoringInstance.from_instances(instances)
        psis = np.concatenate([np.arange(g.n, dtype=np.int64) for g in graphs])
        results = prefix.extend_prefixes_batch(
            batch, psis, [g.n for g in graphs],
            r_schedule=lambda p, left: r, rng=np.random.default_rng(0),
        )
        for result in results:
            assert result.phases
            for rec in result.phases:
                assert rec.seed is None
                assert np.isnan(rec.initial_expectation)
                assert np.isnan(rec.final_value)
                assert type(rec.potential_after) is float


    def test_randomized_mode_runs_and_respects_lists(self):
        graph = gen.random_regular_graph(16, 3, 9)
        instance = make_delta_plus_one_instance(graph)
        psi = np.arange(graph.n, dtype=np.int64)
        rng = np.random.default_rng(0)
        result = extend_prefixes(instance, psi, graph.n, rng=rng)
        for v in range(graph.n):
            assert result.candidates[v] in instance.lists[v]

    def test_randomized_average_potential_near_bound(self):
        """Lemma 2.3 in expectation: averaging random runs stays near 2n."""
        graph = gen.random_regular_graph(12, 3, 10)
        instance = make_delta_plus_one_instance(graph)
        psi = np.arange(graph.n, dtype=np.int64)
        rng = np.random.default_rng(1)
        finals = [
            extend_prefixes(instance, psi, graph.n, rng=rng).potential_trace[-1]
            for _ in range(20)
        ]
        assert np.mean(finals) <= 2 * graph.n


class TestValidationErrors:
    def test_rejects_improper_psi(self):
        graph = gen.cycle_graph(6)
        instance = make_delta_plus_one_instance(graph)
        psi = np.zeros(graph.n, dtype=np.int64)
        with pytest.raises(ValueError):
            extend_prefixes(instance, psi, 1)
