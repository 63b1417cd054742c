"""Network decompositions with congestion (Definition 3.1).

An (α, β)-network decomposition with congestion κ partitions V into
clusters, each with an associated Steiner tree in G and a color in
{1, .., α}, such that

  (i)   the tree of a cluster contains all the cluster's nodes,
  (ii)  every tree has diameter ≤ β,
  (iii) clusters joined by an edge of G get different colors,
  (iv)  every edge of G lies in at most κ trees of the same color.

The :meth:`NetworkDecomposition.validate` method machine-checks
properties (i) and (iii), the bound (ii) on request, and that the clusters
partition V and every tree is a tree of G; every decomposition produced in
this library passes through it; :meth:`NetworkDecomposition.congestion`
measures (iv).  The checks are one pass over all clusters at once:
members, tree nodes and tree edges are stacked as ``cluster·n + node``
keys with membership through ``np.searchsorted``, and the trees'
connectivity is one multi-source BFS over their disjoint union.  The weak
diameter (ii) is measured on the same union by a double sweep: two
multi-source BFS passes, exact for trees.

Orders and dedups go through one ``np.sort`` (or the sort-based
:func:`~repro.graphs.sorting.unique`) of a packed int64 key, never a
lexsort or a stable sort; :func:`_check_key_bound` guards each packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.sorting import unique

__all__ = ["Cluster", "NetworkDecomposition"]


def _in_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in the sorted array ``table``."""
    if not table.size:
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return table[pos] == keys


def _check_key_bound(bound: int, what: str) -> None:
    """Raise unless keys packed below ``bound`` fit int64."""
    if bound > 1 << 63:
        raise OverflowError(f"{what} keys reach {bound}, beyond int64")


@dataclass
class Cluster:
    """One cluster: member nodes, a Steiner tree in G, and a color."""

    nodes: np.ndarray  #: sorted member ids
    color: int
    center: int
    #: The tree's edges of G as a ``(t, 2)`` int64 array; a decomposition
    #: built here holds them as sorted ``(lo, hi)`` rows.
    tree_edges: np.ndarray
    radius: int = 0  #: carving radius (tree depth bound)

    def tree_edge_array(self) -> np.ndarray:
        """Tree edges as a ``(t, 2)`` int64 array (a list of pairs is
        converted)."""
        return np.asarray(self.tree_edges, dtype=np.int64).reshape(-1, 2)

    def tree_node_array(self) -> np.ndarray:
        """Sorted unique ids of the tree's nodes (center included)."""
        arr = self.tree_edge_array().ravel()
        return unique(np.append(arr, np.int64(self.center)))


@dataclass
class NetworkDecomposition:
    """A validated (α, β)-decomposition with congestion κ of a graph."""

    graph: Graph
    clusters: list = field(default_factory=list)
    num_colors: int = 0

    # ------------------------------------------------------------------
    def _stacked_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cluster's members in one array, with their cluster index."""
        if not self.clusters:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        nodes = np.concatenate(
            [np.asarray(c.nodes, dtype=np.int64) for c in self.clusters]
        )
        sizes = [len(c.nodes) for c in self.clusters]
        owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        return nodes, owner

    def _stacked_tree_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every tree edge as ``(t, 2)`` plus the index of its cluster."""
        if not self.clusters:
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        trees = [c.tree_edge_array() for c in self.clusters]
        counts = [len(tree) for tree in trees]
        owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        return np.concatenate(trees), owner

    def cluster_of(self) -> np.ndarray:
        """Node -> cluster index; every node must be covered exactly once."""
        nodes, owner_of = self._stacked_nodes()
        hits = np.bincount(nodes, minlength=self.graph.n)
        if (hits > 1).any():
            raise AssertionError(
                f"node {int(np.argmax(hits > 1))} in two clusters"
            )
        if (hits == 0).any():
            missing = int(np.argmax(hits == 0))
            raise AssertionError(f"node {missing} not covered by any cluster")
        owner = np.empty(self.graph.n, dtype=np.int64)
        owner[nodes] = owner_of
        return owner

    def _tree_union(self) -> tuple:
        """Every cluster's tree nodes as sorted ``cluster·n + node`` keys.

        Returns ``(keys, roots, edges, edge_owner, lo, hi)``: the keys of
        the tree edges' endpoints plus each center, the position of every
        center in ``keys``, and the stacked tree edges with their cluster
        index and ``lo ≤ hi`` endpoint ids.
        """
        n = self.graph.n
        k = len(self.clusters)
        centers = np.fromiter(
            (c.center for c in self.clusters), dtype=np.int64, count=k
        )
        _check_key_bound(k * n, "cluster·node")
        center_keys = np.arange(k, dtype=np.int64) * n + centers
        edges, edge_owner = self._stacked_tree_edges()
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = unique(
            np.concatenate(
                [edge_owner * n + lo, edge_owner * n + hi, center_keys]
            )
        )
        roots = np.searchsorted(keys, center_keys)
        return keys, roots, edges, edge_owner, lo, hi

    def _forest(self, keys, edge_owner, lo, hi) -> tuple[Graph, np.ndarray]:
        """The disjoint union of the trees as one graph over ``keys``, and
        the cluster of each of its distinct edges."""
        n = max(self.graph.n, 1)
        size = len(keys)
        _check_key_bound(size * size, "forest edge")
        u = np.searchsorted(keys, edge_owner * n + lo)
        v = np.searchsorted(keys, edge_owner * n + hi)
        pairs = unique(u * size + v)
        u = pairs // size
        forest = Graph.from_arrays(size, u, pairs - u * size)
        return forest, keys[u] // n

    def weak_diameter(self) -> int:
        """Max tree diameter β over all clusters (property ii, measured).

        A double sweep on the disjoint union of the trees: one multi-source
        BFS from the centers finds each tree's farthest node, and a second
        one from those nodes gives each tree's eccentricity at it, which in
        a tree is its exact diameter.  Assumes every cluster's tree is a
        tree, as :meth:`validate` checks.
        """
        if not self.clusters:
            return 0
        keys, roots, _, edge_owner, lo, hi = self._tree_union()
        forest, _ = self._forest(keys, edge_owner, lo, hi)
        depth = forest.bfs_levels(roots)
        # Keys are sorted by cluster and each cluster holds its center's
        # key, so every tree is one run; its first node of greatest depth
        # starts the second sweep.
        n = max(self.graph.n, 1)
        clusters = np.arange(len(self.clusters), dtype=np.int64)
        tree = keys // n
        deepest = np.maximum.reduceat(depth, np.searchsorted(tree, clusters))
        far = np.flatnonzero(depth == deepest[tree])
        first = far[np.searchsorted(tree[far], clusters)]
        return int(forest.bfs_levels(first).max(initial=0))

    def congestion(self) -> int:
        """Max number of same-color trees sharing one edge (property iv)."""
        edges, edge_owner = self._stacked_tree_edges()
        if not len(edges):
            return 0
        colors = np.fromiter(
            (c.color for c in self.clusters),
            dtype=np.int64,
            count=len(self.clusters),
        )[edge_owner]
        colors -= colors.min()
        n = self.graph.n
        _check_key_bound((int(colors.max()) + 1) * n * n, "color·edge")
        pair = edges.min(axis=1) * n + edges.max(axis=1)
        _, counts = unique(colors * (n * n) + pair, return_counts=True)
        return int(counts.max())

    # ------------------------------------------------------------------
    def validate(self, max_diameter: int | None = None) -> None:
        """Check Definition 3.1 (raises AssertionError on violation).

        One pass over all clusters: members, tree nodes and tree edges are
        stacked as ``cluster·n + node`` keys, and the trees' connectivity
        is one multi-source BFS from every center over the disjoint union
        of the trees.
        """
        owner = self.cluster_of()
        graph = self.graph
        n = graph.n
        k = len(self.clusters)
        colors = np.fromiter(
            (c.color for c in self.clusters), dtype=np.int64, count=k
        )
        bad = (colors < 1) | (colors > self.num_colors)
        if bad.any():
            raise AssertionError(
                f"cluster color {int(colors[np.argmax(bad)])} outside "
                f"1..{self.num_colors}"
            )
        tree_keys, roots, edges, edge_owner, lo, hi = self._tree_union()

        # Tree edges are edges of G: sorted keys of G's canonical edge set.
        g_edge_keys = graph.edges_u * n + graph.edges_v
        present = _in_sorted(lo * n + hi, g_edge_keys)
        if not present.all():
            i = int(np.argmin(present))
            raise AssertionError(
                f"tree edge ({edges[i, 0]}, {edges[i, 1]}) is not an edge of G"
            )

        # (i) the tree spans the cluster: tree nodes are the edge endpoints
        # plus the center, keyed by cluster.
        nodes, node_owner = self._stacked_nodes()
        spanned = _in_sorted(node_owner * n + nodes, tree_keys)
        if not spanned.all():
            v = int(nodes[np.argmin(spanned)])
            raise AssertionError(f"cluster node {v} missing from its tree")

        # ... and is a tree: m = n − 1 distinct edges per cluster, and every
        # tree node is reached from its center in the union of the trees.
        forest, forest_owner = self._forest(tree_keys, edge_owner, lo, hi)
        tree_m = np.bincount(forest_owner, minlength=k)
        tree_n = np.bincount(tree_keys // max(n, 1), minlength=k)
        reached = forest.bfs_levels(roots) >= 0
        if (tree_m != tree_n - 1).any() or not reached.all():
            raise AssertionError("cluster tree is not a tree")

        # (iii) adjacent clusters have different colors.
        if graph.m and self.clusters:
            cu, cv = owner[graph.edges_u], owner[graph.edges_v]
            bad = (cu != cv) & (colors[cu] == colors[cv])
            if bad.any():
                i = int(np.argmax(bad))
                raise AssertionError(
                    f"adjacent clusters {int(cu[i])}, {int(cv[i])} share color "
                    f"{int(colors[cu[i]])}"
                )

        # (ii) diameter bound, when requested.
        if max_diameter is not None:
            measured = self.weak_diameter()
            if measured > max_diameter:
                raise AssertionError(
                    f"weak diameter {measured} exceeds bound {max_diameter}"
                )
