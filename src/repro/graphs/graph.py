"""Lightweight undirected graph representation used by all engines.

The paper's algorithms operate on an undirected communication graph
``G = (V, E)``.  This module provides a compact CSR-style adjacency
structure backed by numpy arrays, plus the handful of graph operations the
algorithms need (BFS, diameter, connected components, induced subgraphs).

The representation is *array-native end to end*: construction accepts numpy
edge arrays, canonicalization/dedup, the CSR build, BFS and the derived
subgraph operations are all vectorized — no per-edge or per-node Python
loops on the hot paths.  :meth:`Graph.from_arrays` is the trusted zero-copy
fast path for callers (generators, ``induced_subgraph``, ``filter_edges``)
that already hold canonical edge arrays.

``networkx`` interoperability is provided for generators and examples, but
the hot paths never touch networkx objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph"]

#: Largest n for which a node pair can be encoded as one int64 (n² < 2⁶³).
_ENCODE_LIMIT = 3_037_000_499


def _coerce_edge_array(edges) -> np.ndarray:
    """Materialize ``edges`` as an ``(m, 2)`` int64 array (no validation)."""
    if isinstance(edges, np.ndarray):
        arr = edges
    else:
        arr = np.array(list(edges), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2)-shaped pairs, got {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.int64)


class Graph:
    """An undirected simple graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        ``(m, 2)`` integer array or iterable of ``(u, v)`` pairs with
        ``u != v``.  Duplicate edges and both orientations of the same edge
        are collapsed; the stored edge arrays are canonical (``u < v``,
        lexicographically sorted, unique).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        self.n = int(n)

        arr = _coerce_edge_array(edges)
        if arr.shape[0]:
            u, v = arr[:, 0], arr[:, 1]
            bad = (u == v) | (u < 0) | (v < 0) | (u >= n) | (v >= n)
            if bad.any():
                i = int(np.argmax(bad))
                bu, bv = int(u[i]), int(v[i])
                if bu == bv:
                    raise ValueError(f"self-loop at node {bu} is not allowed")
                raise ValueError(f"edge ({bu}, {bv}) out of range for n={n}")
            # Canonical orientation, then lexicographic sort + dedup.  For
            # graphs whose pair keys fit int64 the (lo, hi) pairs are
            # encoded as lo·n + hi scalars so one np.unique does both the
            # sort and the dedup (much faster than np.lexsort).
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            if n <= _ENCODE_LIMIT:
                keys = np.unique(lo * n + hi)
                self.edges_u = keys // n
                self.edges_v = keys % n
            else:  # pragma: no cover - unreachable at simulable scales
                order = np.lexsort((hi, lo))
                lo, hi = lo[order], hi[order]
                keep = np.empty(len(lo), dtype=bool)
                keep[0] = True
                np.logical_or(
                    lo[1:] != lo[:-1], hi[1:] != hi[:-1], out=keep[1:]
                )
                self.edges_u = np.ascontiguousarray(lo[keep])
                self.edges_v = np.ascontiguousarray(hi[keep])
        else:
            self.edges_u = np.empty(0, dtype=np.int64)
            self.edges_v = np.empty(0, dtype=np.int64)

        self.m = len(self.edges_u)
        self._build_adjacency()

    @classmethod
    def from_arrays(cls, n: int, edges_u: np.ndarray, edges_v: np.ndarray) -> "Graph":
        """Trusted zero-copy constructor from *canonical* edge arrays.

        The caller guarantees ``edges_u[i] < edges_v[i]``, lexicographically
        sorted, unique, and in range — exactly the invariant of the stored
        ``edges_u``/``edges_v`` of an existing :class:`Graph`.  No
        validation, canonicalization, or copying (beyond dtype coercion) is
        performed, so this is the fast path for derived graphs.
        """
        g = cls.__new__(cls)
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        g.n = int(n)
        g.edges_u = np.ascontiguousarray(edges_u, dtype=np.int64)
        g.edges_v = np.ascontiguousarray(edges_v, dtype=np.int64)
        g.m = len(g.edges_u)
        g._build_adjacency()
        return g

    def _build_adjacency(self) -> None:
        """Vectorized CSR build (``adj_offsets``/``adj_targets``, degrees)."""
        if self.m:
            src = np.concatenate([self.edges_u, self.edges_v])
            dst = np.concatenate([self.edges_v, self.edges_u])
            self.degrees = np.bincount(src, minlength=self.n).astype(
                np.int64, copy=False
            )
            # Sort by (source, target): each neighborhood comes out
            # contiguous and sorted — no per-node sort loop.  Directed
            # pairs are unique, so sorting the encoded src·n + dst scalars
            # is equivalent to (and faster than) np.lexsort.
            if self.n <= _ENCODE_LIMIT:
                keys = src * self.n + dst
                keys.sort()
                targets = keys % self.n
            else:  # pragma: no cover - unreachable at simulable scales
                order = np.lexsort((dst, src))
                targets = np.ascontiguousarray(dst[order])
        else:
            self.degrees = np.zeros(self.n, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offsets[1:])
        targets.flags.writeable = False
        self.adj_offsets = offsets
        self.adj_targets = targets

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph)."""
        return int(self.degrees.max()) if self.n else 0

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted numpy array of neighbors of ``u`` (a read-only view)."""
        return self.adj_targets[self.adj_offsets[u]:self.adj_offsets[u + 1]]

    def gather_neighbors(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighborhoods of ``nodes``: ``(sources, targets)``.

        ``sources[i]`` is the node whose (sorted) adjacency list
        ``targets[i]`` belongs to; neighborhoods appear in the order of
        ``nodes``.  Fully vectorized — this is the frontier-expansion
        primitive BFS and the decomposition carving build on.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.adj_offsets[nodes]
        counts = self.adj_offsets[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cum_excl = np.cumsum(counts) - counts
        idx = np.repeat(starts - cum_excl, counts) + np.arange(total)
        return np.repeat(nodes, counts), self.adj_targets[idx]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        idx = np.searchsorted(nbrs, v)
        return bool(idx < len(nbrs) and nbrs[idx] == v)

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.edges_u.tolist(), self.edges_v.tolist()))

    def nodes(self) -> range:
        return range(self.n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m}, max_degree={self.max_degree})"

    # ------------------------------------------------------------------
    # Traversals and metrics
    # ------------------------------------------------------------------
    def _bfs(
        self,
        sources: Sequence[int],
        track_parents: bool,
        targets: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Frontier-synchronous BFS; vectorized level expansion.

        Matches classic FIFO-queue BFS exactly: within a level, a node's
        parent is the earliest-discovered frontier node adjacent to it
        (neighborhoods are sorted), so results are deterministic.

        When ``targets`` is given, the traversal stops as soon as every
        target has been reached; distances/parents of reached nodes are
        unaffected by the early exit.
        """
        dist = np.full(self.n, -1, dtype=np.int64)
        parent = np.full(self.n, -1, dtype=np.int64) if track_parents else None
        is_target = None
        remaining = -1
        if targets is not None:
            is_target = np.zeros(self.n, dtype=bool)
            is_target[np.asarray(targets, dtype=np.int64)] = True
            remaining = int(is_target.sum())
        frontier = np.asarray(sources, dtype=np.int64).ravel()
        if frontier.size:
            # First-occurrence dedup that preserves the given order.
            _, first = np.unique(frontier, return_index=True)
            frontier = frontier[np.sort(first)]
            dist[frontier] = 0
            if is_target is not None:
                remaining -= int(is_target[frontier].sum())
        level = 0
        while frontier.size:
            if is_target is not None and remaining <= 0:
                break
            srcs, nbrs = self.gather_neighbors(frontier)
            unseen = dist[nbrs] == -1
            nbrs, srcs = nbrs[unseen], srcs[unseen]
            if nbrs.size == 0:
                break
            _, first = np.unique(nbrs, return_index=True)
            order = np.sort(first)
            frontier = nbrs[order]
            level += 1
            dist[frontier] = level
            if track_parents:
                parent[frontier] = srcs[order]
            if is_target is not None:
                remaining -= int(is_target[frontier].sum())
        return dist, parent

    def bfs_levels(self, sources: Sequence[int]) -> np.ndarray:
        """BFS distance from the nearest source; -1 for unreachable nodes."""
        return self._bfs(sources, track_parents=False)[0]

    def bfs_tree(
        self, root: int, targets: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """BFS tree from ``root``: ``(parents, depths)``.

        ``parents[root] == root``; unreachable nodes get parent -1 and
        depth -1.  A node's parent is the earliest-discovered same-depth
        candidate (neighborhoods are visited in sorted order), so trees are
        deterministic.  With ``targets``, traversal stops once all targets
        are reached (parents/depths of reached nodes are identical to the
        full traversal; nodes beyond the stopping level stay at -1).
        """
        depth, parent = self._bfs([int(root)], track_parents=True, targets=targets)
        parent[root] = root
        return parent, depth

    def eccentricity(self, u: int) -> int:
        """Eccentricity of ``u`` within its connected component."""
        dist = self.bfs_levels([u])
        return int(dist.max(initial=0))

    def diameter(self) -> int:
        """Exact diameter, taken per connected component (max over them).

        Uses all-pairs BFS; intended for the moderate graph sizes this
        library simulates.
        """
        best = 0
        for u in range(self.n):
            dist = self.bfs_levels([u])
            best = max(best, int(dist.max(initial=0)))
        return best

    def diameter_upper_bound(self) -> int:
        """A ≤ 2×-approximate diameter via double BFS (fast)."""
        if self.n == 0:
            return 0
        bound = 0
        seen = np.zeros(self.n, dtype=bool)
        for start in range(self.n):
            if seen[start]:
                continue
            dist = self.bfs_levels([start])
            comp = dist >= 0
            seen |= comp
            far = int(np.argmax(np.where(comp, dist, -1)))
            bound = max(bound, int(self.bfs_levels([far]).max(initial=0)))
        return bound

    def connected_components(self) -> list[np.ndarray]:
        """List of components, each a sorted array of node ids."""
        label = np.full(self.n, -1, dtype=np.int64)
        comps: list[np.ndarray] = []
        for s in range(self.n):
            if label[s] != -1:
                continue
            dist = self.bfs_levels([s])
            members = np.flatnonzero(dist >= 0)
            members = members[label[members] == -1]
            label[members] = len(comps)
            comps.append(members)
        return comps

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, nodes: Sequence[int], keep_order: bool = False
    ) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
        original id of the subgraph node ``i``.  Vectorized: membership mask
        + ``np.searchsorted`` relabeling; the relabeled edges stay canonical
        so the subgraph is built through the :meth:`from_arrays` fast path.

        By default the subgraph's nodes are the sorted distinct ``nodes``.
        With ``keep_order`` the distinct ``nodes`` keep their given order
        (``original_ids`` is ``nodes`` itself) and the relabeled edges are
        re-sorted into canonical form.
        """
        if keep_order:
            original = np.asarray(nodes, dtype=np.int64).ravel()
            label = np.full(self.n, -1, dtype=np.int64)
            label[original] = np.arange(len(original), dtype=np.int64)
            a, b = label[self.edges_u], label[self.edges_v]
            mask = (a >= 0) & (b >= 0)
            a, b = a[mask], b[mask]
            base = max(len(original), 1)
            keys = np.sort(np.minimum(a, b) * base + np.maximum(a, b))
            sub = Graph.from_arrays(len(original), keys // base, keys % base)
            return sub, original
        if not isinstance(nodes, np.ndarray):
            nodes = np.array(sorted(int(x) for x in nodes), dtype=np.int64)
        original = np.unique(nodes.astype(np.int64, copy=False).ravel())
        keep = np.zeros(self.n, dtype=bool)
        keep[original] = True
        mask = keep[self.edges_u] & keep[self.edges_v]
        sub_u = np.searchsorted(original, self.edges_u[mask])
        sub_v = np.searchsorted(original, self.edges_v[mask])
        return Graph.from_arrays(len(original), sub_u, sub_v), original

    def block_max_degrees(self, offsets: np.ndarray) -> np.ndarray:
        """Maximum degree of every node block ``offsets[j]:offsets[j+1]``
        (0 for an empty block)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        deltas = np.zeros(len(offsets) - 1, dtype=np.int64)
        nonempty = np.flatnonzero(np.diff(offsets))
        if nonempty.size:
            deltas[nonempty] = np.maximum.reduceat(
                self.degrees, offsets[nonempty]
            )
        return deltas

    def block_subgraph(
        self, offsets: np.ndarray, blocks: Sequence[int]
    ) -> tuple["Graph", np.ndarray]:
        """Subgraph of a block-diagonal graph made of whole node blocks.

        Block j holds nodes ``offsets[j]:offsets[j+1]`` and no edge leaves
        its block.  Returns ``(subgraph, original_ids)`` for the ascending
        ``blocks``.  Relabeling keeps node and edge order, so the subgraph's
        edges stay canonical with no sort; when the blocks cover every
        node the graph itself is returned.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=np.int64)
        starts = offsets[blocks]
        counts = offsets[blocks + 1] - starts
        total = int(counts.sum())
        if total == self.n:
            return self, np.arange(self.n, dtype=np.int64)
        cum_excl = np.cumsum(counts) - counts
        original = np.repeat(starts - cum_excl, counts) + np.arange(total)
        label = np.full(self.n, -1, dtype=np.int64)
        label[original] = np.arange(total, dtype=np.int64)
        keep = label[self.edges_u] >= 0
        return (
            Graph.from_arrays(
                total, label[self.edges_u[keep]], label[self.edges_v[keep]]
            ),
            original,
        )

    def filter_edges(self, mask: np.ndarray) -> "Graph":
        """Graph on the same nodes keeping only edges where ``mask`` is True."""
        return Graph.from_arrays(self.n, self.edges_u[mask], self.edges_v[mask])

    # ------------------------------------------------------------------
    # networkx interop
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Convert a networkx graph (arbitrary hashable nodes) to :class:`Graph`.

        Nodes are relabeled to 0..n-1 in sorted order of their repr, so the
        conversion is deterministic.
        """
        nodes = sorted(nx_graph.nodes(), key=repr)
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
        return cls(len(nodes), edges)

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edge_list())
        return g

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n
