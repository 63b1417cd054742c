"""Baselines: greedy, Johansson randomized coloring (Eq. 1), Luby MIS."""

import numpy as np
import pytest

from repro.baselines.greedy import greedy_delta_plus_one, greedy_list_coloring
from repro.baselines.luby_mis import coloring_via_mis, luby_mis
from repro.baselines.random_coloring import (
    expected_conflicts,
    randomized_list_coloring,
)
from repro.cliquemodel import coloring as clique_coloring
from repro.core.instances import (
    ColorListStore,
    ListColoringInstance,
    make_delta_plus_one_instance,
    make_random_lists_instance,
)
from repro.core.list_ops import greedy_extend
from repro.core.validation import (
    verify_maximal_independent_set,
    verify_proper_coloring,
    verify_proper_list_coloring,
)
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.mpc import coloring as mpc_coloring


class TestGreedy:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_list_coloring(self, seed):
        graph = gen.gnp_graph(30, 0.15, seed=seed)
        instance = make_random_lists_instance(
            graph, 64, np.random.default_rng(seed)
        )
        colors = greedy_list_coloring(instance)
        verify_proper_list_coloring(instance, colors)

    def test_delta_plus_one_uses_at_most_delta_plus_one(self):
        graph = gen.random_regular_graph(24, 5, seed=2)
        colors = greedy_delta_plus_one(graph)
        verify_proper_coloring(graph, colors)
        assert colors.max() <= graph.max_degree

    def test_order_matters_but_stays_proper(self):
        graph = gen.star_graph(8)
        forward = greedy_delta_plus_one(graph, np.arange(8))
        backward = greedy_delta_plus_one(graph, np.arange(8)[::-1])
        verify_proper_coloring(graph, forward)
        verify_proper_coloring(graph, backward)


class TestGreedyExtend:
    """The one first-free-color greedy: the baseline on a whole instance,
    the clique and MPC endgames on their residual nodes."""

    def test_skips_colors_of_precolored_neighbors(self):
        path = Graph(3, [(0, 1), (1, 2)])
        lists = ColorListStore.from_lists([[0], [0, 1, 2], [1, 2]], 3)
        colors = np.array([0, -1, -1], dtype=np.int64)
        greedy_extend(path, lists, colors, np.array([1, 2]))
        assert colors.tolist() == [0, 1, 2]

    def test_colors_in_the_given_order(self):
        graph = gen.star_graph(4)
        instance = make_delta_plus_one_instance(graph)
        colors = np.full(4, -1, dtype=np.int64)
        greedy_extend(graph, instance.lists, colors, np.array([3, 0, 2, 1]))
        assert colors.tolist() == [1, 0, 0, 0]
        np.testing.assert_array_equal(
            colors, greedy_list_coloring(instance, order=np.array([3, 0, 2, 1]))
        )

    def test_raises_when_no_color_is_free(self):
        edge = Graph(2, [(0, 1)])
        lists = ColorListStore.from_lists([[0], [0]], 2)
        colors = np.array([0, -1], dtype=np.int64)
        with pytest.raises(AssertionError, match="no free color for node 1"):
            greedy_extend(edge, lists, colors, np.array([1]))

    @staticmethod
    def residual_greedy(monkeypatch, module, solve, instance):
        """Solve with ``module``'s endgame recorded: the colors the endgame
        gave its residual nodes, and ``greedy_list_coloring`` of the
        residual instance (its induced subgraph and pruned lists)."""
        seen = []

        def recording(graph, lists, colors, order):
            sub_graph, original = graph.induced_subgraph(order)
            residual = ListColoringInstance(
                sub_graph, instance.color_space, lists.subset(original)
            )
            seen.append((original, greedy_list_coloring(residual)))
            greedy_extend(graph, lists, colors, order)

        monkeypatch.setattr(module, "greedy_extend", recording)
        result = solve(instance)
        verify_proper_list_coloring(instance, result.colors)
        assert len(seen) == 1 and result.endgame_nodes == len(seen[0][0]) > 0
        original, expected = seen[0]
        return result.colors[original], expected

    @pytest.mark.parametrize("seed", [3, 4])
    def test_clique_endgame_is_greedy_on_the_residual(self, monkeypatch, seed):
        instance = make_delta_plus_one_instance(gen.gnp_graph(80, 0.1, seed=seed))
        got, expected = self.residual_greedy(
            monkeypatch,
            clique_coloring,
            clique_coloring.solve_list_coloring_clique,
            instance,
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("rows", [20, 50])
    def test_mpc_endgame_is_greedy_on_the_residual(self, monkeypatch, rows):
        instance = make_delta_plus_one_instance(gen.grid_graph(rows, 20))
        got, expected = self.residual_greedy(
            monkeypatch,
            mpc_coloring,
            mpc_coloring.solve_list_coloring_mpc,
            instance,
        )
        np.testing.assert_array_equal(got, expected)


class TestRandomized:
    def test_expected_conflicts_below_n(self):
        """Eq. (1): Σ_v E[X_v] < n for every (degree+1)-list instance."""
        for seed in range(4):
            graph = gen.gnp_graph(24, 0.2, seed=seed)
            instance = make_random_lists_instance(
                graph, 48, np.random.default_rng(seed)
            )
            assert expected_conflicts(instance) < graph.n

    def test_expected_conflicts_exact_on_a_triangle(self):
        graph = gen.complete_graph(3)
        from repro.core.instances import ListColoringInstance

        instance = ListColoringInstance(
            graph, 3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
        )
        # Each ordered pair conflicts with prob 3/(3·3) = 1/3; 6 ordered pairs.
        assert expected_conflicts(instance) == pytest.approx(2.0)

    def test_randomized_coloring_terminates_properly(self):
        graph = gen.random_regular_graph(24, 4, seed=3)
        instance = make_delta_plus_one_instance(graph)
        colors, stats = randomized_list_coloring(
            instance, np.random.default_rng(0)
        )
        verify_proper_list_coloring(instance, colors)
        assert stats.rounds >= 1


class TestLuby:
    def test_mis_on_various_graphs(self):
        for graph in (gen.cycle_graph(15), gen.gnp_graph(25, 0.2, seed=1)):
            mis, rounds = luby_mis(graph, np.random.default_rng(0))
            verify_maximal_independent_set(graph, mis)
            assert rounds >= 1

    def test_coloring_via_mis_reduction(self):
        graph = gen.cycle_graph(8)
        colors, _rounds = coloring_via_mis(graph, np.random.default_rng(1))
        verify_proper_coloring(graph, colors)
        assert colors.max() <= graph.max_degree
