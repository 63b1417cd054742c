"""Cross-checks between the message-level simulator and the engine.

The strongest internal-consistency evidence in the repository: the per-node
conditional-value arrays the CONGEST node program aggregates over the BFS
tree must sum to exactly the edge-based potential the engine's
PhaseEstimator computes — two independent implementations of the Lemma 2.6
mathematics.
"""

import numpy as np
import pytest

from repro.congest.coloring_program import _node_seed_values
from repro.core.potential import PhaseEstimator, buckets_for_seed_grouped
from repro.graphs import generators as gen
from repro.hashing.coins import bucket_thresholds
from repro.hashing.pairwise import PairwiseFamily
from repro.substrates.linial import linial_coloring, linial_schedule
from test_seed_sweep_compression import sigma_sweep_reference


def build_case(seed=0, n=8, b=4):
    rng = np.random.default_rng(seed)
    graph = gen.gnp_graph(n, 0.4, seed=seed)
    psi = np.arange(n, dtype=np.int64)
    counts = rng.integers(1, 4, size=(n, 2)).astype(np.int64)
    family = PairwiseFamily(3, b)
    return graph, psi, counts, family


class TestNodeValuesMatchEstimator:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sum_of_node_values_equals_edge_potential(self, seed):
        graph, psi, counts, family = build_case(seed)
        estimator = PhaseEstimator(
            family, psi, counts, graph.edges_u, graph.edges_v
        )
        total = np.zeros((family.field.order, 1 << family.b))
        for u in range(graph.n):
            neighbors = [int(v) for v in graph.neighbors(u)]
            values, _buckets = _node_seed_values(
                family, family.b, int(psi[u]), counts[u],
                {v: int(psi[v]) for v in neighbors},
                {v: counts[v] for v in neighbors},
            )
            total += values
        # The engine's per-σ potential (the full-sweep oracle the σ
        # descent is tested against) must equal the column sums.
        for s1 in (0, 3, 5, 7):
            engine = sigma_sweep_reference(estimator, s1)
            np.testing.assert_allclose(total[s1], engine, rtol=1e-12)

    def test_node_buckets_match_estimator_buckets(self):
        graph, psi, counts, family = build_case(3)
        estimator = PhaseEstimator(
            family, psi, counts, graph.edges_u, graph.edges_v
        )
        for s1, sigma in [(0, 0), (2, 5), (7, 15)]:
            engine_buckets = buckets_for_seed_grouped(estimator, [s1], [sigma])
            for u in range(graph.n):
                _values, buckets = _node_seed_values(
                    family, family.b, int(psi[u]), counts[u], {}, {}
                )
                assert buckets[s1, sigma] == engine_buckets[u]


class TestLinialScheduleMatchesEngine:
    @pytest.mark.parametrize("n,delta", [(64, 3), (256, 4), (1000, 8)])
    def test_schedule_reaches_engine_fixpoint(self, n, delta):
        schedule = linial_schedule(n, delta)
        k = n
        for q, t, k_before in schedule:
            assert k_before == k
            assert q > delta * t  # the free-evaluation-point condition
            k = q * q
        # The engine run on an actual graph of that degree ends at the
        # same fixpoint color count.
        graph = gen.random_regular_graph(
            n if (n * delta) % 2 == 0 else n + 1, delta, seed=1
        )
        if graph.max_degree == delta:
            result = linial_coloring(graph)
            assert result.num_colors == (schedule[-1][0] ** 2 if schedule else n)


class TestSimulatorEngineSameColoring:
    def test_small_graph_round_trip(self):
        """Both layers color the same instance properly; their pass
        structure matches (same number of uncolored nodes after pass 1
        would require bit-identical float order, so we check the
        guarantees instead)."""
        from repro.congest.runner import run_congest_coloring
        from repro.core.instances import make_delta_plus_one_instance
        from repro.core.list_coloring import solve_list_coloring_congest
        from repro.core.validation import verify_proper_list_coloring

        graph = gen.cycle_graph(10)
        instance = make_delta_plus_one_instance(graph)
        sim = run_congest_coloring(instance)
        eng = solve_list_coloring_congest(instance)
        verify_proper_list_coloring(instance, sim.colors)
        verify_proper_list_coloring(instance, eng.colors)
