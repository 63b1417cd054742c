"""Grouped Linial and MIS equal their per-instance runs.

A batched solve runs Linial once per group of instances that share
``(n_i, Δ_i)`` and Lemma 2.1's MIS once per group of blocks that share
``(K_i, conflict Δ_i)``, each on the group's union graph.  These tests
compare that with one ``linial_coloring`` / ``mis_bounded_degree`` call
per instance on mixed batches: different sizes and degrees, singletons,
empty instances and edgeless graphs.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import _input_colorings, solve_list_coloring_batch
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.substrates.linial import linial_coloring
from repro.substrates.mis import mis_bounded_degree, mis_by_blocks

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_graph(rng: np.random.Generator, max_degree: int | None = None) -> Graph:
    """A random graph of 0..12 nodes; sizes and degrees repeat often, so
    groups of several instances form."""
    kind = int(rng.integers(5))
    n = int(rng.integers(0, 13))
    if kind == 0 or n < 2:
        return Graph(n, [])  # empty, singleton or edgeless
    if kind == 1 and n >= 3:
        return gen.cycle_graph(n)
    if kind == 2:
        return gen.path_graph(n)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.3
    ]
    graph = Graph(n, edges)
    if max_degree is not None:
        keep = np.ones(graph.m, dtype=bool)
        degree = np.zeros(n, dtype=np.int64)
        for e, (u, v) in enumerate(graph.edge_list()):
            if degree[u] >= max_degree or degree[v] >= max_degree:
                keep[e] = False
            else:
                degree[u] += 1
                degree[v] += 1
        graph = graph.filter_edges(keep)
    return graph


class TestGroupedLinial:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_matches_per_instance_linial(self, seed):
        rng = np.random.default_rng(seed)
        graphs = [small_graph(rng) for _ in range(int(rng.integers(1, 12)))]
        batch = BatchedListColoringInstance.from_instances(
            [make_delta_plus_one_instance(g) for g in graphs]
        )
        psi, num_colors, iterations = _input_colorings(batch, None, None)
        for i, graph in enumerate(graphs):
            if not graph.n:
                continue
            want = linial_coloring(graph)
            np.testing.assert_array_equal(psi[batch.instance_slice(i)], want.colors)
            assert num_colors[i] == want.num_colors
            assert iterations[i] == want.iterations

    def test_given_colorings_are_kept(self):
        graphs = [gen.cycle_graph(6), gen.path_graph(4)]
        batch = BatchedListColoringInstance.from_instances(
            [make_delta_plus_one_instance(g) for g in graphs]
        )
        given_0 = np.array([0, 1, 0, 1, 0, 2])
        psi, num_colors, iterations = _input_colorings(
            batch, [given_0, None], [5, None]
        )
        np.testing.assert_array_equal(psi[:6], given_0)
        assert (num_colors[0], iterations[0]) == (5, 0)
        want = linial_coloring(graphs[1])
        np.testing.assert_array_equal(psi[6:], want.colors)
        assert (num_colors[1], iterations[1]) == (want.num_colors, want.iterations)

    def test_solve_records_per_instance_linial(self):
        graphs = [
            gen.cycle_graph(9),
            gen.cycle_graph(9),
            Graph(1, []),
            gen.path_graph(9),
        ]
        batch = BatchedListColoringInstance.from_instances(
            [make_delta_plus_one_instance(g) for g in graphs]
        )
        result = solve_list_coloring_batch(batch)
        for graph, sub in zip(graphs, result.results):
            want = linial_coloring(graph)
            assert sub.input_coloring_size == want.num_colors
            assert sub.linial_iterations == want.iterations
            assert sub.rounds.categories["linial"] == max(1, want.iterations)


class TestGroupedMIS:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_matches_per_block_mis(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 12))
        blocks = [small_graph(rng, max_degree=3) for _ in range(count)]
        nums = [int(rng.choice([12, 40, 97])) for _ in blocks]
        psis = [rng.permutation(k)[: g.n] for g, k in zip(blocks, nums)]
        offsets = np.concatenate([[0], np.cumsum([g.n for g in blocks])])
        union = Graph.from_arrays(
            int(offsets[-1]),
            np.concatenate([g.edges_u + offsets[j] for j, g in enumerate(blocks)]),
            np.concatenate([g.edges_v + offsets[j] for j, g in enumerate(blocks)]),
        )
        members, rounds = mis_by_blocks(union, np.concatenate(psis), offsets, nums)
        for j, (graph, psi, k) in enumerate(zip(blocks, psis, nums)):
            want = mis_bounded_degree(graph, psi, k)
            np.testing.assert_array_equal(
                members[offsets[j]:offsets[j + 1]], want.members
            )
            assert rounds[j] == want.rounds
