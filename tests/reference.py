"""Plain reference implementations of batched and packed-key paths.

The decomposition engine builds every Steiner tree of a carving in one
frontier BFS, validates Definition 3.1 and measures the weak diameter in
one pass over all clusters, solves each color class as one batch built
from one relabeled induced subgraph, and carves from the (blue node,
matching red neighbor) pairs alone.  Most functions here are the plain
per-cluster versions those replace: one ``bfs_tree`` plus a parent walk
per cluster, one check loop per cluster, an all-pairs BFS per cluster
tree, one validated ``ListColoringInstance`` per cluster, and a carving
step that expands every alive blue node.

:func:`unique_rows_reference` is the row-wise ``np.unique(axis=0)`` that
the seed-sweep workspace's packed lexicographic key replaces.  The tests
pin the engine against all of them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.instances import BatchedListColoringInstance, ListColoringInstance
from repro.core.list_coloring import solve_list_coloring_batch
from repro.core.list_ops import prune_lists_against_colored
from repro.decomposition.decomposed_coloring import (
    ClassStats,
    DecomposedColoringResult,
    _class_congestion,
)
from repro.decomposition.network_decomposition import Cluster, NetworkDecomposition
from repro.decomposition.rozhon_ghaffari import CarveResult
from repro.engine.rounds import RoundLedger
from repro.graphs.graph import Graph

__all__ = [
    "carve_class_reference",
    "decompose_reference",
    "solve_list_coloring_polylog_reference",
    "congestion_reference",
    "steiner_tree",
    "unique_rows_reference",
    "validate_reference",
    "weak_diameter_reference",
]


def steiner_tree(graph: Graph, center: int, nodes: np.ndarray) -> list:
    """Shortest-path tree edges in G covering ``nodes`` from ``center``."""
    parent, _depth = graph.bfs_tree(int(center), targets=nodes)
    edges = set()
    for v in nodes:
        v = int(v)
        while v != center:
            p = int(parent[v])
            if p < 0:
                raise AssertionError(
                    f"cluster node {v} unreachable from center {center}"
                )
            edge = (min(v, p), max(v, p))
            if edge in edges:
                break  # rest of the path already in the tree
            edges.add(edge)
            v = p
    return sorted(edges)


def carve_class_reference(
    graph: Graph, alive: np.ndarray, label_bits: int | None = None
) -> CarveResult:
    """Carving with one ``gather_neighbors`` over every alive blue node per
    step."""
    n = graph.n
    alive = np.asarray(alive, dtype=bool).copy()
    n_alive = int(alive.sum())
    if label_bits is None:
        label_bits = max(1, math.ceil(math.log2(max(2, n))) + 1)
    B = label_bits

    center = np.where(alive, np.arange(n, dtype=np.int64), -1)
    count = alive.astype(np.int64)  # members per cluster label
    radius_arr = np.zeros(n, dtype=np.int64)  # valid where count > 0
    dead = np.zeros(n, dtype=bool)
    deaths = 0
    steps = 0
    rounds = 0
    max_steps_per_phase = 8 * B * max(1, math.ceil(math.log2(max(2, n)))) + 8
    sentinel = n  # larger than any label

    for k in range(B):
        finalized = np.zeros(n, dtype=bool)  # by cluster label
        prefix_mask = (1 << k) - 1
        for _step in range(max_steps_per_phase + 1):
            if _step == max_steps_per_phase:
                raise AssertionError(
                    f"carving phase {k} did not converge within "
                    f"{max_steps_per_phase} steps"
                )
            # Proposals: alive blue node -> smallest-label active red
            # cluster with matching processed prefix.
            blue = np.flatnonzero(alive & (((center >> k) & 1) == 1))
            srcs, nbrs = graph.gather_neighbors(blue)
            valid = alive[nbrs]
            cw = np.where(valid, center[nbrs], 0)
            red = valid & (((cw >> k) & 1) == 0)
            match = red & ((cw & prefix_mask) == (center[srcs] & prefix_mask))
            is_final = finalized[cw]
            best = np.full(n, sentinel, dtype=np.int64)
            np.minimum.at(
                best, srcs[match & ~is_final], cw[match & ~is_final]
            )
            if (match & is_final).any():
                saw_final = np.zeros(n, dtype=bool)
                saw_final[srcs[match & is_final]] = True
                stuck = blue[(best[blue] == sentinel) & saw_final[blue]]
                if stuck.size:
                    # By the Rule-Y invariant this cannot happen: a blue
                    # node's first adjacency to red always includes an
                    # active cluster.
                    raise AssertionError(
                        f"blue nodes {stuck[:5].tolist()} adjacent only to "
                        "finalized reds"
                    )
            proposers = blue[best[blue] < sentinel]
            if proposers.size == 0:
                break
            steps += 1
            live_radii = radius_arr[count > 0]
            current_max_radius = int(live_radii.max()) if live_radii.size else 0
            rounds += 2 * current_max_radius + 4

            # Group proposers by target.  Red clusters only ever *gain*
            # members within a step and each target appears once, so all
            # thresholds can be evaluated against the step-start counts —
            # equivalent to processing targets sequentially in sorted order.
            tgt = best[proposers]
            order = np.argsort(tgt, kind="stable")
            p_sorted = proposers[order]
            t_sorted = tgt[order]
            uniq_t, grp_counts = np.unique(t_sorted, return_counts=True)
            absorb_grp = grp_counts >= count[uniq_t] / (2.0 * B)
            absorb_elem = np.repeat(absorb_grp, grp_counts)

            moved = p_sorted[absorb_elem]
            if moved.size:
                np.subtract.at(count, center[moved], 1)
                new_centers = np.repeat(
                    uniq_t[absorb_grp], grp_counts[absorb_grp]
                )
                center[moved] = new_centers
                count[uniq_t[absorb_grp]] += grp_counts[absorb_grp]
                radius_arr[uniq_t[absorb_grp]] += 1

            killed = p_sorted[~absorb_elem]
            if killed.size:
                finalized[uniq_t[~absorb_grp]] = True
                np.subtract.at(count, center[killed], 1)
                center[killed] = -1
                alive[killed] = False
                dead[killed] = True
                deaths += int(killed.size)

    if n_alive and deaths > n_alive / 2.0:
        raise AssertionError(
            f"carving killed {deaths} > half of {n_alive} alive nodes"
        )
    live = np.flatnonzero(count > 0)
    return CarveResult(
        center=center,
        dead=dead,
        radius={int(c): int(radius_arr[c]) for c in live},
        steps=steps,
        rounds=rounds,
        deaths=deaths,
    )


def decompose_reference(
    graph: Graph, ledger: RoundLedger | None = None
) -> NetworkDecomposition:
    """Theorem 3.1 with :func:`carve_class_reference` and one
    :func:`steiner_tree` call per cluster."""
    n = graph.n
    decomposition = NetworkDecomposition(graph=graph, clusters=[], num_colors=0)
    if n == 0:
        return decomposition
    alive = np.ones(n, dtype=bool)
    color = 0
    max_colors = max(1, math.ceil(math.log2(max(2, n)))) + 2
    while alive.any():
        color += 1
        assert color <= max_colors
        carve = carve_class_reference(graph, alive)
        if ledger is not None:
            ledger.charge(f"carve_color_{color}", max(1, carve.rounds))
        for c in np.unique(carve.center[carve.center >= 0]).tolist():
            nodes = np.flatnonzero(carve.center == c)
            decomposition.clusters.append(
                Cluster(
                    nodes=nodes,
                    color=color,
                    center=c,
                    tree_edges=steiner_tree(graph, c, nodes),
                    radius=int(carve.radius.get(c, 0)),
                )
            )
        alive = carve.dead
    decomposition.num_colors = color
    return decomposition


def validate_reference(decomposition: NetworkDecomposition) -> None:
    """Definition 3.1, checked cluster by cluster."""
    graph = decomposition.graph
    n = graph.n
    owner = np.full(n, -1, dtype=np.int64)
    for idx, cluster in enumerate(decomposition.clusters):
        nodes = np.asarray(cluster.nodes, dtype=np.int64)
        if len(np.unique(nodes)) != len(nodes) or (owner[nodes] != -1).any():
            raise AssertionError("node in two clusters")
        owner[nodes] = idx
    if (owner == -1).any():
        raise AssertionError("node not covered by any cluster")
    g_edge_keys = graph.edges_u * n + graph.edges_v
    for cluster in decomposition.clusters:
        if not (1 <= cluster.color <= decomposition.num_colors):
            raise AssertionError("cluster color out of range")
        tree_nodes = cluster.tree_node_array()
        if not np.isin(cluster.nodes, tree_nodes).all():
            raise AssertionError("cluster node missing from its tree")
        edges = cluster.tree_edge_array()
        if len(edges):
            keys = edges.min(axis=1) * n + edges.max(axis=1)
            if not np.isin(keys, g_edge_keys).all():
                raise AssertionError("tree edge is not an edge of G")
            tree = Graph(len(tree_nodes), np.searchsorted(tree_nodes, edges))
            if tree.m != tree.n - 1 or len(tree.connected_components()) != 1:
                raise AssertionError("cluster tree is not a tree")
    colors = np.array([c.color for c in decomposition.clusters], dtype=np.int64)
    if graph.m and len(colors):
        cu, cv = owner[graph.edges_u], owner[graph.edges_v]
        if ((cu != cv) & (colors[cu] == colors[cv])).any():
            raise AssertionError("adjacent clusters share a color")


def weak_diameter_reference(decomposition: NetworkDecomposition) -> int:
    """Max tree diameter over all clusters, by all-pairs BFS per tree."""
    best = 0
    for cluster in decomposition.clusters:
        tree_nodes = cluster.tree_node_array()
        if len(tree_nodes) <= 1:
            continue
        edges = cluster.tree_edge_array()
        tree = Graph(len(tree_nodes), np.searchsorted(tree_nodes, edges))
        best = max(best, tree.diameter())
    return best


def congestion_reference(decomposition: NetworkDecomposition) -> int:
    """Max number of same-color trees sharing one edge, by a row-wise
    unique over (lo, hi, color) rows."""
    rows = []
    for cluster in decomposition.clusters:
        edges = cluster.tree_edge_array()
        if not len(edges):
            continue
        color = np.full(len(edges), cluster.color, dtype=np.int64)
        rows.append(np.stack([edges.min(axis=1), edges.max(axis=1), color], axis=1))
    if not rows:
        return 0
    _, counts = np.unique(np.concatenate(rows), axis=0, return_counts=True)
    return int(counts.max())


def unique_rows_reference(rows: np.ndarray) -> tuple:
    """``(unique rows, first-occurrence index, inverse)`` of a 2-D int64
    matrix by the row-wise ``np.unique(axis=0)``."""
    uniq, index, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    return uniq, index, inverse.reshape(-1)


def solve_list_coloring_polylog_reference(
    instance: ListColoringInstance, strict: bool = True
) -> DecomposedColoringResult:
    """Corollary 1.2 with one validated sub-instance per cluster."""
    graph = instance.graph
    n = graph.n
    ledger = RoundLedger()
    colors = np.full(n, -1, dtype=np.int64)
    decomposition = decompose_reference(graph, ledger=ledger)
    result = DecomposedColoringResult(
        colors=colors, rounds=ledger, decomposition=decomposition
    )
    if n == 0:
        return result
    lists = instance.copy_lists()
    by_color: dict = {}
    for cluster in decomposition.clusters:
        by_color.setdefault(cluster.color, []).append(cluster)
    for color in sorted(by_color):
        clusters = by_color[color]
        kappa = _class_congestion(clusters)
        class_nodes = np.concatenate([c.nodes for c in clusters])
        prune_lists_against_colored(graph, lists, colors, class_nodes)
        sub_instances = []
        originals = []
        for cluster in clusters:
            sub_graph, original = graph.induced_subgraph(cluster.nodes)
            sub_instances.append(
                ListColoringInstance(
                    sub_graph, instance.color_space, lists.subset(original)
                )
            )
            originals.append(original)
        class_batch = BatchedListColoringInstance.from_instances(sub_instances)
        batch_result = solve_list_coloring_batch(
            class_batch,
            strict=strict,
            verify=False,
            comm_depths=[max(1, cluster.radius) for cluster in clusters],
        )
        max_rounds = 0
        for original, sub_result in zip(originals, batch_result.results):
            colors[original] = sub_result.colors
            max_rounds = max(max_rounds, sub_result.rounds.total)
        ledger.charge(f"class_{color}", max(1, max_rounds * kappa))
        result.classes.append(
            ClassStats(
                color=color,
                clusters=len(clusters),
                largest_cluster=max(len(c.nodes) for c in clusters),
                max_cluster_rounds=max_rounds,
                congestion=kappa,
            )
        )
    return result
