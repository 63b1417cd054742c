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
the seed-sweep workspace's packed lexicographic key replaces.

:func:`linial_collisions_reference` is Linial's step as it was before the
engine took each edge's collisions from the roots of its difference
polynomial: every node's polynomial evaluated at all q points, and every
(arc, point) pair compared.

The Lemma 2.6 kernel has plain twins too, over a fusion group
(:func:`stack_group` builds one from per-member tuples through the
solver's union-array gather; :func:`group_members` cuts one back into
groups of one): :func:`count_rows_reference` counts given seeds in their
own order, one GF multiply and one count-table gather per cell, as the
kernel did before it swept s1 in discrete-log windows;
:func:`expected_rows_reference` sweeps every edge column through it with
no dedup and sums per (member, list size) by ``np.add.at``, member by
member along the group's offsets; :func:`fix_bits_greedily_reference`
fixes one row's bits in a Python loop; :func:`buckets_for_seed_reference`
finds the group's buckets member by member and node by node;
:func:`count_xor_below` is the O(b) digit DP on arrays of ``(d, t1, t2)``
cells, which counted the σ descent's per-level cells before the descent
read them from the sweep's count tables, and is the oracle for every
level of those tables; :func:`count_xor_below_scalar` is it on one cell;
:func:`count_xor_in_intervals` is the DP's interval count by
inclusion-exclusion; :func:`count_table_reference` fills a count kernel's
table with the digit DP, one pass per bit over every (row, d) cell, as the
kernel did before the doubling fill; and :func:`kernel_fingerprint` hashes
a count kernel's inputs.  The tests pin the engine against all of them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.instances import BatchedListColoringInstance, ListColoringInstance
from repro.core.list_coloring import solve_list_coloring_batch
from repro.core.list_ops import prune_lists_against_colored
from repro.core.potential import PhaseEstimator, SweepCountKernel, _unique_rows
from repro.decomposition.decomposed_coloring import (
    ClassStats,
    DecomposedColoringResult,
)
from repro.decomposition.network_decomposition import Cluster, NetworkDecomposition
from repro.decomposition.rozhon_ghaffari import CarveResult
from repro.engine.rounds import RoundLedger
from repro.graphs.graph import Graph
from repro.substrates.linial import _choose_field

__all__ = [
    "buckets_for_seed_reference",
    "carve_class_reference",
    "count_rows_reference",
    "count_table_reference",
    "count_xor_below",
    "count_xor_below_scalar",
    "count_xor_in_intervals",
    "decompose_reference",
    "expected_rows_reference",
    "fix_bits_greedily_reference",
    "group_members",
    "kernel_fingerprint",
    "linial_collisions_reference",
    "solve_list_coloring_polylog_reference",
    "stack_group",
    "congestion_by_color_reference",
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


def congestion_by_color_reference(decomposition: NetworkDecomposition) -> dict:
    """κ per color class, by a row-wise unique over (color, lo, hi) rows;
    0 for a class with no tree edge."""
    kappa = {cluster.color: 0 for cluster in decomposition.clusters}
    rows = []
    for cluster in decomposition.clusters:
        edges = cluster.tree_edge_array()
        color = np.full(len(edges), cluster.color, dtype=np.int64)
        rows.append(np.stack([color, edges.min(axis=1), edges.max(axis=1)], axis=1))
    if rows:
        uniq, counts = np.unique(np.concatenate(rows), axis=0, return_counts=True)
        for color, count in zip(uniq[:, 0].tolist(), counts.tolist()):
            kappa[color] = max(kappa[color], count)
    return dict(sorted(kappa.items()))


def congestion_reference(decomposition: NetworkDecomposition) -> int:
    """Max number of same-color trees sharing one edge."""
    return max(congestion_by_color_reference(decomposition).values(), default=0)


def unique_rows_reference(rows: np.ndarray) -> tuple:
    """``(unique rows, first-occurrence index, inverse)`` of a 2-D int64
    matrix by the row-wise ``np.unique(axis=0)``."""
    uniq, index, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    return uniq, index, inverse.reshape(-1)


def linial_collisions_reference(
    graph: Graph, colors: np.ndarray, num_colors: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(collision, new_colors)`` of one Linial step by evaluate-and-compare.

    ``collision`` is the (n, q) matrix (node v collides at point a iff some
    neighbor's polynomial agrees with p_v(a)); ``new_colors`` is each node's
    first free point a paired with p_v(a).  Raises the engine's
    ``AssertionError`` when some node has no free point.
    """
    colors = np.asarray(colors, dtype=np.int64)
    q, t = _choose_field(num_colors, graph.max_degree)
    digits = np.empty((graph.n, t + 1), dtype=np.int64)
    rem = colors.copy()
    for i in range(t + 1):
        digits[:, i] = rem % q
        rem //= q
    points = np.arange(q, dtype=np.int64)
    values = np.zeros((graph.n, q), dtype=np.int64)
    for i in range(t, -1, -1):
        values = (values * points[None, :] + digits[:, i][:, None]) % q
    srcs = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    nbrs = graph.adj_targets
    counts = np.zeros(graph.n * q, dtype=np.int64)
    chunk = max(1, (1 << 22) // q)
    for start in range(0, len(srcs), chunk):
        s = srcs[start:start + chunk]
        agree_row, agree_col = np.nonzero(values[nbrs[start:start + chunk]] == values[s])
        counts += np.bincount(s[agree_row] * q + agree_col, minlength=graph.n * q)
    collision = counts.reshape(graph.n, q) > 0
    has_free = ~collision.all(axis=1)
    if not has_free.all():
        v = int(np.argmin(has_free))
        raise AssertionError(
            f"Linial step found no free evaluation point at node {v}"
        )
    a = np.argmax(~collision, axis=1)
    return collision, a * q + values[np.arange(graph.n), a]


def stack_group(family, members) -> PhaseEstimator:
    """A fusion group built as the solver builds one: the members'
    ``(psi, bucket_counts, edges_u, edges_v)`` tuples laid out as a batch's
    union arrays (member i's nodes after those of members < i, its edges
    shifted to union ids), then gathered by
    :meth:`PhaseEstimator.build_group`."""
    members = list(members)
    ids = np.arange(len(members), dtype=np.int64)
    sizes = [len(m[0]) for m in members]
    starts = np.cumsum([0] + sizes)

    def flat(parts, empty_shape):
        return np.concatenate(parts) if parts else np.zeros(empty_shape, np.int64)

    return PhaseEstimator.build_group(
        family,
        np.ones(len(members), dtype=bool),
        np.repeat(ids, sizes),
        np.repeat(ids, [len(m[2]) for m in members]),
        flat([m[0] for m in members], 0),
        flat([m[1] for m in members], (0, 2)),
        flat([np.asarray(m[2]) + s for m, s in zip(members, starts)], 0),
        flat([np.asarray(m[3]) + s for m, s in zip(members, starts)], 0),
    )


def group_members(group) -> list:
    """Each member of a fusion group as its own group of one, cut from the
    flat arrays at the group's offsets."""
    out = []
    for j in range(group.num_members):
        lo, hi = (int(x) for x in group.node_offsets[j:j + 2])
        elo, ehi = (int(x) for x in group.edge_offsets[j:j + 2])
        out.append(
            PhaseEstimator(
                group.family,
                group.psi[lo:hi],
                group.counts[lo:hi],
                group.edges_u[elo:ehi] - lo,
                group.edges_v[elo:ehi] - lo,
            )
        )
    return out


def count_rows_reference(kernel: SweepCountKernel, s1_values) -> np.ndarray:
    """A count kernel's int64 (seeds × count columns) counts of the given
    seeds, in their order, cell by cell: one GF multiply per (seed, edge
    column) and one gather ``T[row(c), top_b(s1 ⊙ δ_c)]`` per (seed, count
    column) from the kernel's count table — the natural-order path the
    discrete-log windows replaced."""
    s1_values = np.asarray(s1_values, dtype=np.int64)
    if kernel.count_width == 0:
        return np.zeros((len(s1_values), 0), dtype=np.int64)
    source, _ = kernel._threshold_rows()
    d = kernel.family.g_values_many(s1_values, kernel.psi_diff)
    if source is not None:
        d = d[:, source]
    return kernel.table[kernel.row_of_col, d].astype(np.int64)


def expected_rows_reference(group, s1_values) -> np.ndarray:
    """``E[Σ_e X_e | s1]`` as a (members × seeds) matrix, edge by edge.

    One :class:`SweepCountKernel` over the raw edge columns of the whole
    group (no column dedup) gives, through :func:`count_rows_reference`,
    per seed and edge, the number of σ
    putting both endpoints in bucket w (for r = 1, bucket 1 by
    inclusion-exclusion, ``2^b − t_u − t_v + n_both0``).  Walking the
    members by ``edge_offsets``, each (edge endpoint x, bucket w) of
    member j adds that count to the exact int64 sum of j's list size
    ``k_w(x)`` by ``np.add.at``; the value is ``(Σ_k S_k / k, k
    ascending) / 2^b`` in float64.
    """
    s1_values = np.asarray(s1_values, dtype=np.int64)
    rows = len(s1_values)
    out = np.zeros((group.num_members, rows), dtype=np.float64)
    if not group.num_edges:
        return out
    thr_u = group.thresholds[group.edges_u]
    thr_v = group.thresholds[group.edges_v]
    kernel = SweepCountKernel(
        group.family, group.num_buckets, group.psi_diff, thr_u, thr_v
    )
    counts = count_rows_reference(kernel, s1_values)
    scale = int(group.scale)
    k_u = group.counts[group.edges_u]
    k_v = group.counts[group.edges_v]
    span = int(max(k_u.max(), k_v.max())) + 1
    both = []
    column = 0
    for w in range(group.num_buckets):
        if group.num_buckets == 2:
            n0 = counts.T
            both.append(
                n0 if w == 0 else (scale - thr_u[:, 1] - thr_v[:, 1])[:, None] + n0
            )
        else:
            block = np.zeros((len(thr_u), rows), dtype=np.int64)
            alive = (thr_u[:, w + 1] > thr_u[:, w]) & (thr_v[:, w + 1] > thr_v[:, w])
            block[alive] = counts[:, column:column + int(alive.sum())].T
            column += int(alive.sum())
            both.append(block)
    for j in range(group.num_members):
        lo, hi = (int(x) for x in group.edge_offsets[j:j + 2])
        if lo == hi:
            continue
        sums = np.zeros((span, rows), dtype=np.int64)
        for w in range(group.num_buckets):
            for k_x in (k_u, k_v):
                np.add.at(sums, k_x[lo:hi, w], both[w][lo:hi])
        total = np.zeros(rows, dtype=np.float64)
        for k in range(1, span):
            total += sums[k] / k
        out[j] = total / scale
    return out


def fix_bits_greedily_reference(values) -> tuple:
    """``(index, trace)`` of greedy block means over one row, in Python.

    Float prefix sums, then per bit the two halves' means from prefix
    differences; the smaller mean wins and a tie keeps 0.
    """
    values = [float(v) for v in values]
    size = len(values)
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of 2")
    prefix = [0.0]
    for value in values:
        prefix.append(prefix[-1] + value)
    lo, trace = 0, []
    while size > 1:
        half = size // 2
        mean0 = (prefix[lo + half] - prefix[lo]) / half
        mean1 = (prefix[lo + size] - prefix[lo + half]) / half
        if mean1 < mean0:
            lo += half
            trace.append(mean1)
        else:
            trace.append(mean0)
        size = half
    return lo, trace


def buckets_for_seed_reference(group, s1_values, sigma_values) -> np.ndarray:
    """The bucket of every node of a fusion group, flat, under its
    member's seed ``(s1_values[j], sigma_values[j])``: walking the members
    by ``node_offsets``, one ``searchsorted`` of y = g ⊕ σ into each node's
    threshold row."""
    out = []
    for j in range(group.num_members):
        lo, hi = (int(x) for x in group.node_offsets[j:j + 2])
        y = group.family.g_values(int(s1_values[j]), group.psi[lo:hi])
        y ^= int(sigma_values[j])
        out += [
            np.searchsorted(group.thresholds[lo + u], y[u], side="right") - 1
            for u in range(hi - lo)
        ]
    return np.array(out, dtype=np.int64)


def count_xor_below(
    d: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
    b: int,
) -> np.ndarray:
    """Vectorized ``N(d, t1, t2)`` for thresholds in ``[0, 2^b]``, by the
    O(b) digit DP: the oracle for every level of
    :func:`~repro.core.counting.count_xor_table`.

    Decomposes ``{z < t1}`` into dyadic blocks: for every bit position i
    where t1 has a 1, the block fixes z's bits above i to t1's, forces bit i
    of z to 0 and leaves i low bits free.  Within a block, the high bits of
    ``y = z ⊕ d`` are determined, so comparison against t2 either accepts the
    whole block (2^i points), rejects it, or reduces to the low bits of t2
    (where ``z_low ↦ z_low ⊕ d_low`` is a bijection).  Position ``i = b``
    uniformly handles the inclusive threshold ``t1 = 2^b``.
    """
    d = np.asarray(d, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    d, t1, t2 = np.broadcast_arrays(d, t1, t2)
    total = np.zeros(d.shape, dtype=np.int64)
    for i in range(b, -1, -1):
        bit_set = ((t1 >> i) & 1).astype(bool)
        # Value of y's bits b..i inside this block, shifted down by i.
        yy = (((t1 >> (i + 1)) ^ (d >> (i + 1))) << 1) | ((d >> i) & 1)
        tt = t2 >> i
        low_mask = (np.int64(1) << i) - 1
        block = np.where(
            yy < tt,
            np.int64(1) << i,
            np.where(yy == tt, t2 & low_mask, np.int64(0)),
        )
        total += np.where(bit_set, block, np.int64(0))
    return total


def count_xor_below_scalar(d: int, t1: int, t2: int, b: int) -> int:
    """``N(d, t1, t2)`` of :func:`count_xor_below` on one cell."""
    cell = [np.array([x], dtype=np.int64) for x in (d, t1, t2)]
    return int(count_xor_below(*cell, b)[0])


def count_xor_in_intervals(
    d: np.ndarray,
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    b: int,
) -> np.ndarray:
    """``#{z : z ∈ [lo1, hi1) and z⊕d ∈ [lo2, hi2)}`` by inclusion-exclusion
    over four :func:`count_xor_below` calls."""
    return (
        count_xor_below(d, hi1, hi2, b)
        - count_xor_below(d, lo1, hi2, b)
        - count_xor_below(d, hi1, lo2, b)
        + count_xor_below(d, lo1, lo2, b)
    )


def count_table_reference(kernel: SweepCountKernel) -> np.ndarray:
    """A count kernel's (distinct threshold row × 2^b) table by the digit
    DP: :func:`count_xor_below` (r = 1) or :func:`count_xor_in_intervals`
    (r > 1) over every d ∈ [0, 2^b), rows in the kernel's
    ``_unique_rows`` order."""
    _, columns = kernel._threshold_rows()
    index, _ = _unique_rows(columns)
    bounds = [col[index, None] for col in columns]
    d = np.arange(1 << kernel.b, dtype=np.int64)[None, :]
    if kernel.bucket_columns is None:
        return count_xor_below(d, *bounds, kernel.b)
    return count_xor_in_intervals(d, *bounds, kernel.b)


def kernel_fingerprint(kernel: SweepCountKernel) -> str:
    """sha256 over a count kernel's defining inputs: ``(a, b, buckets)`` as
    int64, then each of ψ-differences and both threshold matrices as its
    shape's ``repr`` and its C-order bytes."""
    digest = hashlib.sha256()
    digest.update(
        np.array(
            [kernel.family.a, kernel.b, kernel.num_buckets], dtype=np.int64
        ).tobytes()
    )
    for arr in (kernel.psi_diff, kernel.thr_u, kernel.thr_v):
        digest.update(repr(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


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
    kappas = congestion_by_color_reference(decomposition)
    for color in sorted(by_color):
        clusters = by_color[color]
        kappa = max(1, kappas[color])
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
