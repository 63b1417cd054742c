"""Theorem 3.1 (carving) and Corollary 1.2 (polylog coloring)."""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equivalence import assert_ledgers_equal
from reference import (
    carve_class_reference,
    congestion_by_color_reference,
    congestion_reference,
    decompose_reference,
    solve_list_coloring_polylog_reference,
    steiner_tree,
    validate_reference,
    weak_diameter_reference,
)
from repro.core.instances import make_delta_plus_one_instance
from repro.core.validation import verify_proper_list_coloring
from repro.decomposition.decomposed_coloring import solve_list_coloring_polylog
from repro.decomposition.network_decomposition import Cluster, NetworkDecomposition
from repro.decomposition.rozhon_ghaffari import carve_class, decompose, steiner_trees
from repro.graphs import generators as gen
from repro.graphs.graph import Graph

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def permuted_grid(rows: int, cols: int, seed: int) -> Graph:
    """The rows x cols grid with its node ids shuffled."""
    base = gen.grid_graph(rows, cols)
    perm = np.random.default_rng(seed).permutation(base.n)
    return Graph(base.n, np.stack([perm[base.edges_u], perm[base.edges_v]], axis=1))


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["gnp", "tree", "cycle", "grid"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "gnp":
        n = draw(st.integers(min_value=1, max_value=60))
        return gen.gnp_graph(n, draw(st.sampled_from([0.02, 0.06, 0.15])), seed=seed)
    if kind == "tree":
        return gen.random_tree(draw(st.integers(min_value=1, max_value=60)), seed=seed)
    if kind == "cycle":
        return gen.cycle_graph(draw(st.integers(min_value=3, max_value=60)))
    rows = draw(st.integers(min_value=1, max_value=9))
    return permuted_grid(rows, draw(st.integers(min_value=2, max_value=9)), seed)


def edge_rows(tree) -> np.ndarray:
    """A reference tree's list of ``(lo, hi)`` pairs as the ``(t, 2)`` int64
    array that a tree built here is."""
    return np.asarray(tree, dtype=np.int64).reshape(-1, 2)


def random_clusters(graph: Graph, seed: int) -> tuple:
    """``(centers, members, offsets)`` of random clusters inside connected
    components: singletons, large clusters whose shortest paths leave the
    cluster, and centers that are not members; some nodes stay unclustered."""
    rng = np.random.default_rng(seed)
    centers, parts = [], []
    for component in graph.connected_components():
        k = int(rng.integers(1, len(component) + 1))
        label = rng.integers(-1, k, size=len(component))
        for j in range(k):
            nodes = component[label == j]
            if not nodes.size:
                continue
            center = nodes[0] if rng.random() < 0.7 else rng.choice(component)
            centers.append(int(center))
            parts.append(nodes)
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in parts], out=offsets[1:])
    members = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return np.array(centers, dtype=np.int64), members, offsets


GRAPHS = {
    "cycle40": lambda: gen.cycle_graph(40),
    "grid6x6": lambda: gen.grid_graph(6, 6),
    "reg48": lambda: gen.random_regular_graph(48, 3, seed=0),
    "tree50": lambda: gen.random_tree(50, seed=1),
    "gnp": lambda: gen.gnp_graph(40, 0.1, seed=2),
}


class TestCarving:
    @pytest.mark.parametrize("name", sorted(GRAPHS), ids=sorted(GRAPHS))
    def test_clusters_at_least_half_and_nonadjacent(self, name):
        graph = GRAPHS[name]()
        alive = np.ones(graph.n, dtype=bool)
        result = carve_class(graph, alive)
        clustered = (result.center >= 0).sum()
        assert clustered >= graph.n / 2
        # Alive clusters must be pairwise non-adjacent.
        for u, v in graph.edge_list():
            cu, cv = result.center[u], result.center[v]
            if cu >= 0 and cv >= 0:
                assert cu == cv, f"adjacent clusters {cu} != {cv}"

    def test_dead_plus_clustered_partition_alive(self):
        graph = gen.cycle_graph(30)
        alive = np.ones(30, dtype=bool)
        result = carve_class(graph, alive)
        for v in range(30):
            assert (result.center[v] >= 0) != bool(result.dead[v])

    def test_respects_alive_mask(self):
        graph = gen.cycle_graph(20)
        alive = np.zeros(20, dtype=bool)
        alive[:10] = True
        result = carve_class(graph, alive)
        assert (result.center[10:] == -1).all()
        assert not result.dead[10:].any()

    @given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_matches_full_expansion_reference(self, graph, seed):
        """Scanning only the (blue, matching red) pairs changes nothing:
        every carving of a random alive set equals the reference step that
        expands every alive blue node."""
        alive = np.random.default_rng(seed).random(graph.n) < 0.8
        while alive.any():
            new = carve_class(graph, alive)
            ref = carve_class_reference(graph, alive)
            np.testing.assert_array_equal(new.center, ref.center)
            np.testing.assert_array_equal(new.dead, ref.dead)
            assert (new.radius, new.steps, new.rounds, new.deaths) == (
                ref.radius, ref.steps, ref.rounds, ref.deaths
            )
            alive = new.dead

    def test_radius_bound(self):
        """Radius O(B² log n) — generous cap, but finite and tracked."""
        graph = gen.random_regular_graph(64, 3, seed=3)
        result = carve_class(graph, np.ones(64, dtype=bool))
        b = math.ceil(math.log2(64)) + 1
        for radius in result.radius.values():
            assert radius <= 2 * b * b * math.ceil(math.log2(64))


class TestDecompose:
    @pytest.mark.parametrize("name", sorted(GRAPHS), ids=sorted(GRAPHS))
    def test_validates_definition_3_1(self, name):
        graph = GRAPHS[name]()
        decomposition = decompose(graph)  # validate=True built in
        assert decomposition.num_colors <= math.ceil(math.log2(graph.n)) + 2

    def test_weak_diameter_polylog(self):
        graph = gen.cycle_graph(64)
        decomposition = decompose(graph)
        bound = math.ceil(math.log2(64)) ** 3
        assert decomposition.weak_diameter() <= bound

    def test_congestion_measured(self):
        graph = gen.grid_graph(6, 6)
        decomposition = decompose(graph)
        assert decomposition.congestion() >= 1


class TestTreeMeasures:
    """The double-sweep weak diameter and the one-sort congestion, whole and
    per color class, equal the per-cluster references."""

    @staticmethod
    def assert_matches_reference(decomposition):
        assert decomposition.weak_diameter() == weak_diameter_reference(
            decomposition
        )
        assert decomposition.congestion() == congestion_reference(decomposition)
        assert decomposition.congestion_by_color() == (
            congestion_by_color_reference(decomposition)
        )

    @given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_random_clusters(self, graph, seed):
        """Steiner trees of random clusters with random colors; the trees
        of one color may share edges, and centers need not be members."""
        centers, members, offsets = random_clusters(graph, seed)
        trees = steiner_trees(graph, centers, members, offsets)
        colors = np.random.default_rng(seed).integers(1, 4, size=len(centers))
        clusters = [
            Cluster(members[offsets[c]:offsets[c + 1]], int(colors[c]),
                    int(centers[c]), trees[c])
            for c in range(len(centers))
        ]
        self.assert_matches_reference(
            NetworkDecomposition(graph=graph, clusters=clusters, num_colors=3)
        )

    @given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_class_without_tree_edges(self, graph, seed):
        """A decomposition's classes plus one class of single-node
        clusters, which has no tree edge: its κ is 0."""
        decomposition = decompose(graph)
        color = decomposition.num_colors + 1
        nodes = np.random.default_rng(seed).permutation(graph.n)[:3]
        decomposition.clusters += [
            Cluster(np.array([v]), color, int(v), np.empty((0, 2), dtype=np.int64))
            for v in nodes.tolist()
        ]
        self.assert_matches_reference(decomposition)
        assert decomposition.congestion_by_color()[color] == 0

    @given(graphs())
    @SETTINGS
    def test_decompositions(self, graph):
        self.assert_matches_reference(decompose(graph))

    @pytest.mark.parametrize("n", [1, 2, 17, 60])
    def test_one_spanning_tree(self, n):
        """A random tree as one cluster: the diameter path need not pass
        near the center, so the first sweep must find the far end."""
        graph = gen.random_tree(n, seed=n)
        for center in range(0, n, max(1, n // 5)):
            decomposition = NetworkDecomposition(
                graph=graph,
                clusters=[
                    Cluster(np.arange(n), 1, center,
                            [tuple(e) for e in graph.edge_list()])
                ],
                num_colors=1,
            )
            decomposition.validate()
            self.assert_matches_reference(decomposition)

    def test_empty(self):
        decomposition = NetworkDecomposition(graph=Graph(0, []))
        assert decomposition.weak_diameter() == 0
        assert decomposition.congestion() == 0
        assert decomposition.congestion_by_color() == {}


class TestSteinerTrees:
    """The one-BFS Steiner trees equal the per-cluster reference."""

    @staticmethod
    def assert_matches_reference(graph, centers, members, offsets):
        trees = steiner_trees(graph, centers, members, offsets)
        assert len(trees) == len(centers)
        for c, center in enumerate(centers.tolist()):
            nodes = members[offsets[c]:offsets[c + 1]]
            np.testing.assert_array_equal(
                trees[c],
                edge_rows(steiner_tree(graph, center, nodes)),
                err_msg=f"center {center}, members {nodes}",
                strict=True,
            )

    @given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_random_clusters(self, graph, seed):
        """Random clusters inside connected components: singletons, large
        clusters whose shortest paths leave the cluster, and centers that
        are not members (a carving can move a label's own node away)."""
        centers, members, offsets = random_clusters(graph, seed)
        if not len(centers):
            return
        self.assert_matches_reference(graph, centers, members, offsets)

    @given(graphs())
    @SETTINGS
    def test_decomposition_trees(self, graph):
        """Every cluster tree of every carving, as decompose builds them."""
        new = decompose(graph)
        ref = decompose_reference(graph)
        assert len(new.clusters) == len(ref.clusters)
        for a, b in zip(new.clusters, ref.clusters):
            assert (a.center, a.color, a.radius) == (b.center, b.color, b.radius)
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(
                a.tree_edges, edge_rows(b.tree_edges), strict=True
            )

    def test_path_leaves_the_cluster(self):
        """Weak diameter: the only path from 0 to 2 runs through node 1,
        which belongs to another cluster."""
        graph = gen.path_graph(4)
        trees = steiner_trees(
            graph, np.array([0, 1]), np.array([0, 2, 1, 3]), np.array([0, 2, 4])
        )
        assert len(trees) == 2
        np.testing.assert_array_equal(trees[0], edge_rows([(0, 1), (1, 2)]), strict=True)
        np.testing.assert_array_equal(trees[1], edge_rows([(1, 2), (2, 3)]), strict=True)

    def test_singleton_gets_empty_tree(self):
        graph = gen.cycle_graph(5)
        trees = steiner_trees(graph, np.array([3]), np.array([3]), np.array([0, 1]))
        assert len(trees) == 1
        np.testing.assert_array_equal(trees[0], edge_rows([]), strict=True)

    def test_unreachable_member_raises(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(AssertionError, match="unreachable"):
            steiner_trees(graph, np.array([0]), np.array([0, 2]), np.array([0, 2]))


class TestValidatorCatchesBadDecompositions:
    def test_uncovered_node(self):
        graph = gen.path_graph(3)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[Cluster(np.array([0, 1]), 1, 0, [(0, 1)])],
            num_colors=1,
        )
        with pytest.raises(AssertionError):
            decomposition.validate()

    def test_adjacent_same_color(self):
        graph = gen.path_graph(2)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[
                Cluster(np.array([0]), 1, 0, []),
                Cluster(np.array([1]), 1, 1, []),
            ],
            num_colors=1,
        )
        with pytest.raises(AssertionError):
            decomposition.validate()

    def test_tree_edge_not_in_graph(self):
        graph = gen.path_graph(3)  # no edge (0, 2)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[
                Cluster(np.array([0, 1, 2]), 1, 0, [(0, 1), (0, 2)]),
            ],
            num_colors=1,
        )
        with pytest.raises(AssertionError):
            decomposition.validate()


    def test_node_in_two_clusters(self):
        graph = gen.path_graph(3)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[
                Cluster(np.array([0, 1]), 1, 0, [(0, 1)]),
                Cluster(np.array([1, 2]), 2, 1, [(1, 2)]),
            ],
            num_colors=2,
        )
        with pytest.raises(AssertionError, match="node 1 in two clusters"):
            decomposition.validate()

    def test_member_missing_from_tree(self):
        graph = gen.path_graph(3)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[Cluster(np.array([0, 1, 2]), 1, 0, [(0, 1)])],
            num_colors=1,
        )
        with pytest.raises(AssertionError, match="node 2 missing from its tree"):
            decomposition.validate()

    def test_tree_with_a_cycle(self):
        graph = gen.cycle_graph(3)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[Cluster(np.array([0, 1, 2]), 1, 0, [(0, 1), (1, 2), (0, 2)])],
            num_colors=1,
        )
        with pytest.raises(AssertionError, match="not a tree"):
            decomposition.validate()

    def test_disconnected_tree_with_n_minus_one_edges(self):
        """A triangle plus a separate edge: 5 nodes, 4 edges, so only the
        connectivity check can reject it."""
        graph = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        tree_edges = [(0, 1), (0, 2), (1, 2), (3, 4)]
        cluster = Cluster(np.arange(5), 1, 0, tree_edges)
        assert len(cluster.tree_edges) == len(cluster.tree_node_array()) - 1
        decomposition = NetworkDecomposition(
            graph=graph, clusters=[cluster], num_colors=1
        )
        with pytest.raises(AssertionError, match="not a tree"):
            decomposition.validate()

    @pytest.mark.parametrize("color", [0, 3])
    def test_color_out_of_range(self, color):
        graph = gen.path_graph(2)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[Cluster(np.array([0, 1]), color, 0, [(0, 1)])],
            num_colors=2,
        )
        with pytest.raises(AssertionError, match="outside 1..2"):
            decomposition.validate()

    @given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_agrees_with_per_cluster_reference(self, graph, seed):
        """A random corruption of a valid decomposition is rejected by the
        one-pass validator exactly when the per-cluster one rejects it."""
        decomposition = copy.deepcopy(decompose(graph))
        rng = np.random.default_rng(seed)
        clusters = decomposition.clusters
        a = clusters[int(rng.integers(len(clusters)))]
        b = clusters[int(rng.integers(len(clusters)))]
        mutation = int(rng.integers(7))
        if mutation == 0 and len(a.tree_edges):
            i = int(rng.integers(len(a.tree_edges)))
            a.tree_edges = np.delete(a.tree_edges, i, axis=0)
        elif mutation == 1 and graph.m:
            e = int(rng.integers(graph.m))
            edge = [int(graph.edges_u[e]), int(graph.edges_v[e])]
            a.tree_edges = np.vstack([a.tree_edges, [edge]])
        elif mutation == 2 and graph.n > 1:
            u, v = rng.choice(graph.n, size=2, replace=False)
            a.tree_edges = np.vstack([a.tree_edges, [[int(u), int(v)]]])
        elif mutation == 3:
            a.color = int(rng.integers(0, decomposition.num_colors + 2))
        elif mutation == 4 and a is not b and len(a.nodes) > 1:
            v = a.nodes[-1]
            a.nodes = a.nodes[:-1]
            b.nodes = np.sort(np.append(b.nodes, v))
        elif mutation == 5 and a is not b:
            b.nodes = np.unique(np.append(b.nodes, a.nodes[0]))
        elif mutation == 6:
            a.center = int(rng.integers(graph.n))
        try:
            validate_reference(decomposition)
        except AssertionError:
            with pytest.raises(AssertionError):
                decomposition.validate()
        else:
            decomposition.validate()


class TestCorollary12:
    @pytest.mark.parametrize("name", ["cycle40", "grid6x6", "reg48"])
    def test_proper_coloring(self, name):
        graph = GRAPHS[name]()
        instance = make_delta_plus_one_instance(graph)
        result = solve_list_coloring_polylog(instance)
        verify_proper_list_coloring(instance, result.colors)

    def test_rounds_do_not_scale_with_diameter(self):
        """F3: for cycles, Theorem 1.1 rounds grow with n (D = n/2) while
        Corollary 1.2 rounds grow polylogarithmically."""
        from repro.core.list_coloring import solve_list_coloring_congest

        small = make_delta_plus_one_instance(gen.cycle_graph(32))
        large = make_delta_plus_one_instance(gen.cycle_graph(128))
        congest_growth = (
            solve_list_coloring_congest(large).rounds.total
            / solve_list_coloring_congest(small).rounds.total
        )
        polylog_growth = (
            solve_list_coloring_polylog(large).rounds.total
            / solve_list_coloring_polylog(small).rounds.total
        )
        assert polylog_growth < congest_growth

    @pytest.mark.parametrize("seed", [0, 1])
    def test_class_batch_matches_per_cluster_loop(self, seed):
        """An id-permuted 30x30 grid (tens of clusters, most of them
        singletons): the one-batch-per-class solve equals the per-cluster
        loop in colors, ledger events, class statistics and every cluster
        tree."""
        instance = make_delta_plus_one_instance(permuted_grid(30, 30, seed))
        new = solve_list_coloring_polylog(instance)
        ref = solve_list_coloring_polylog_reference(instance)
        np.testing.assert_array_equal(new.colors, ref.colors)
        assert_ledgers_equal(new.rounds, ref.rounds)
        assert new.classes == ref.classes
        assert len(new.decomposition.clusters) == len(ref.decomposition.clusters)
        for a, b in zip(new.decomposition.clusters, ref.decomposition.clusters):
            np.testing.assert_array_equal(a.nodes, b.nodes)
            assert (a.center, a.color, a.radius) == (b.center, b.color, b.radius)
            np.testing.assert_array_equal(
                a.tree_edges, edge_rows(b.tree_edges), strict=True
            )
