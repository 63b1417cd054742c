"""The prefix-extension process (Algorithm 1 / Lemmas 2.1–2.3 invariants)."""

import dataclasses

import numpy as np
import pytest

import repro.core.prefix as prefix
from repro.core.instances import ListColoringInstance, make_delta_plus_one_instance
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

        def nudged(estimators, strict=True):
            choices = derandomize(estimators, strict=strict)
            return [
                dataclasses.replace(
                    choice, final_value=float(np.nextafter(choice.final_value, np.inf))
                )
                for choice in choices
            ]

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
            choices = derandomize(group, strict=strict)
            return [
                dataclasses.replace(
                    choice, final_value=float(np.nextafter(choice.final_value, np.inf))
                )
                for choice in choices
            ]

        graph = gen.random_regular_graph(16, 3, 4)
        run_on(graph, accuracy_override=2)
        monkeypatch.setattr(prefix, "derandomize_phase_group", nudged)
        with pytest.raises(AssertionError, match="realized potential"):
            run_on(graph, accuracy_override=2)

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
