"""Deterministic weak-diameter clustering in the style of Rozhoň–Ghaffari
(Theorem 3.1, [RG19]).

One *carving* builds non-adjacent clusters of small weak diameter covering
at least half of the still-unclustered nodes; O(log n) carvings — one per
decomposition color — cover everything.

A carving processes the B = ⌈log n⌉ + 1 bits of the cluster labels (labels
are the center ids, unique).  In the phase for bit k, clusters whose label
has bit k = 0 are *red*, bit k = 1 are *blue*.  Repeatedly, every alive
blue node adjacent to a red cluster whose label agrees with its own on all
previously processed bits proposes to the smallest-label *active* such
cluster; a red cluster with at least |R|/(2B) proposers absorbs them all
(they adopt its label — the prefix agreement means bits already processed
never change), otherwise it finalizes for the phase and its proposers die
(they stay unclustered for this carving).

Guarantees (all asserted here or in the validator):

* deaths per phase ≤ n_alive/(2B), hence ≥ half of the alive nodes end up
  clustered per carving;
* a red cluster absorbs at most log_{1+1/(2B)} n ≈ 2B·ln n times per phase
  and its radius grows by 1 per absorption → radius O(B·log n) per phase,
  O(B²·log n) = O(log³ n) overall — the weak-diameter bound;
* at the end of a carving, alive clusters are pairwise non-adjacent: for
  adjacent final clusters consider the *smallest* bit j where their labels
  differ; joins after phase j preserve bits < k of the mover, so both
  endpoints' bit-j values are frozen from phase j's end onward, and the
  phase-j closing invariant (no alive blue node adjacent to a red cluster
  with equal processed prefix) is violated — contradiction.

Round accounting: every proposal step costs O(1) rounds for the proposals
themselves plus a cluster-internal aggregation over the current radius to
count proposers; we charge ``2·radius + 4`` per step.

Each cluster's Steiner tree is the union of its members' shortest paths to
the center in G; :func:`steiner_trees` builds the trees of every cluster of
a carving in one frontier BFS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.decomposition.network_decomposition import (
    Cluster,
    NetworkDecomposition,
    _in_sorted,
)
from repro.engine.rounds import RoundLedger
from repro.graphs.graph import Graph

__all__ = ["carve_class", "decompose", "steiner_trees", "CarveResult"]


@dataclass
class CarveResult:
    """Result of one carving (one decomposition color)."""

    center: np.ndarray  #: node -> cluster center id, or -1 (dead / not alive)
    dead: np.ndarray  #: True for nodes that died this carving
    radius: dict  #: center -> carving radius
    steps: int
    rounds: int
    deaths: int


def carve_class(
    graph: Graph, alive: np.ndarray, label_bits: int | None = None
) -> CarveResult:
    """One RG19-style carving on the alive nodes (see module docstring).

    The proposal step is fully vectorized: it keeps the (blue node, red
    neighbor with matching prefix) pairs of the phase — the alive blue
    nodes' neighborhoods, expanded once per phase through
    :meth:`Graph.gather_neighbors`, plus the pairs each absorption creates
    — and each blue node's smallest-label active red neighbor cluster is a
    segment minimum over those pairs.  Cluster labels are node ids, so
    cluster state (member counts, radii, finalized flags) lives in flat
    arrays indexed by label.
    """
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
        # Within a phase a blue node only leaves the blue side (absorbed
        # nodes turn red, rejected ones die) and a red node never changes.
        # So the pairs (alive blue node, red neighbor with the same
        # processed prefix) that proposals read are the phase-start pairs
        # plus those each absorption creates; a step scans only these.
        blue_now = alive & (((center >> k) & 1) == 1)
        srcs, nbrs = graph.gather_neighbors(np.flatnonzero(blue_now))
        cw = center[nbrs]
        match = (
            alive[nbrs]
            & (((cw >> k) & 1) == 0)
            & ((cw & prefix_mask) == (center[srcs] & prefix_mask))
        )
        srcs, nbrs = srcs[match], nbrs[match]
        for _step in range(max_steps_per_phase + 1):
            if _step == max_steps_per_phase:
                raise AssertionError(
                    f"carving phase {k} did not converge within "
                    f"{max_steps_per_phase} steps"
                )
            # Proposals: alive blue node -> smallest-label active red
            # cluster with matching processed prefix.
            keep = blue_now[srcs]
            srcs, nbrs = srcs[keep], nbrs[keep]
            cw = center[nbrs]
            is_final = finalized[cw]
            best = np.full(n, sentinel, dtype=np.int64)
            np.minimum.at(best, srcs[~is_final], cw[~is_final])
            if is_final.any():
                saw_final = np.zeros(n, dtype=bool)
                saw_final[srcs[is_final]] = True
                stuck = np.flatnonzero((best == sentinel) & saw_final)
                if stuck.size:
                    # By the Rule-Y invariant this cannot happen: a blue
                    # node's first adjacency to red always includes an
                    # active cluster.
                    raise AssertionError(
                        f"blue nodes {stuck[:5].tolist()} adjacent only to "
                        "finalized reds"
                    )
            proposers = np.flatnonzero(best < sentinel)
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
            starts = np.flatnonzero(np.diff(t_sorted, prepend=-1))
            uniq_t = t_sorted[starts]
            grp_counts = np.diff(starts, append=len(t_sorted))
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
                blue_now[moved] = False
                # New pairs: blue neighbors of the absorbed (now red) nodes.
                red_new, blue_nbrs = graph.gather_neighbors(moved)
                new = blue_now[blue_nbrs] & (
                    (center[red_new] & prefix_mask)
                    == (center[blue_nbrs] & prefix_mask)
                )
                srcs = np.concatenate([srcs, blue_nbrs[new]])
                nbrs = np.concatenate([nbrs, red_new[new]])

            killed = p_sorted[~absorb_elem]
            if killed.size:
                finalized[uniq_t[~absorb_grp]] = True
                np.subtract.at(count, center[killed], 1)
                center[killed] = -1
                alive[killed] = False
                blue_now[killed] = False
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


def steiner_trees(
    graph: Graph, centers: np.ndarray, nodes: np.ndarray, offsets: np.ndarray
) -> list:
    """Shortest-path Steiner trees of many clusters, one BFS for all.

    Cluster ``c`` has center ``centers[c]`` and the sorted members
    ``nodes[offsets[c]:offsets[c + 1]]``.  Its tree is the union of the
    member→center paths of the BFS tree of G rooted at the center, as a
    sorted list of ``(lo, hi)`` edges — exactly what
    ``Graph.bfs_tree(center, targets=members)`` plus a parent walk gives.

    Every cluster's BFS runs in the same frontier loop, keyed by
    ``cluster·n + node`` (sorted key arrays, never a dense clusters × n
    table), with one ``gather_neighbors`` per level.  Frontiers stay
    cluster-major and, within a cluster, in discovery order, so a node's
    parent is the earliest-discovered frontier node next to it: the tie
    rule of ``Graph._bfs``.  In an undirected graph a neighbor of a level-L
    node lies at level L−1, L or L+1, so "unseen" is a lookup in the last
    two levels only.  A cluster leaves the frontier once all its members
    are reached; a cluster whose only member is its center gets an empty
    tree without a BFS.
    """
    n = graph.n
    centers = np.asarray(centers, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(centers)
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(k, dtype=np.int64), sizes)
    member_keys = np.sort(owner * n + nodes)
    center_keys = np.arange(k, dtype=np.int64) * n + centers
    remaining = sizes - _in_sorted(center_keys, member_keys)
    trees: list = [[] for _ in range(k)]
    active = np.flatnonzero(remaining > 0)
    if not active.size:
        return trees

    # BFS over (cluster, node) keys; each level keeps its sorted keys and
    # the parent node of each key (a center is its own parent).
    level_keys = [center_keys[active]]
    level_parents = [centers[active]]
    front_c, front_v = active, centers[active]
    prev_keys = np.empty(0, dtype=np.int64)
    while front_c.size:
        going = remaining[front_c] > 0
        front_c, front_v = front_c[going], front_v[going]
        if not front_c.size:
            break
        srcs, nbrs = graph.gather_neighbors(front_v)
        owners = np.repeat(front_c, graph.degrees[front_v])
        found, first = np.unique(owners * n + nbrs, return_index=True)
        unseen = ~(_in_sorted(found, level_keys[-1]) | _in_sorted(found, prev_keys))
        found, first = found[unseen], first[unseen]
        if not found.size:
            break
        order = np.sort(first)
        front_c, front_v = owners[order], nbrs[order]
        prev_keys = level_keys[-1]
        level_keys.append(found)
        level_parents.append(srcs[first])
        hit = found[_in_sorted(found, member_keys)] // n
        remaining -= np.bincount(hit, minlength=k)
    if (remaining > 0).any():
        c = int(np.argmax(remaining > 0))
        members = nodes[offsets[c]:offsets[c + 1]]
        reached = _in_sorted(c * n + members, np.sort(np.concatenate(level_keys)))
        raise AssertionError(
            f"cluster node {int(members[np.argmin(reached)])} unreachable "
            f"from center {int(centers[c])}"
        )

    # Tree nodes, by a vectorized parent walk: every member path advances
    # one step per iteration, and stops at its center or where it joins a
    # path already walked.
    keys = np.concatenate(level_keys)
    parents = np.concatenate(level_parents)
    order = np.argsort(keys)
    keys, parents = keys[order], parents[order]
    cluster = keys // n
    on_tree = np.zeros(len(keys), dtype=bool)
    cur = np.searchsorted(keys, member_keys[~_in_sorted(member_keys, center_keys)])
    while cur.size:
        on_tree[cur] = True
        step = cluster[cur] * n + parents[cur]
        step = step[~_in_sorted(step, center_keys)]
        cur = np.unique(np.searchsorted(keys, step))
        cur = cur[~on_tree[cur]]
    cluster, parent = cluster[on_tree], parents[on_tree]
    child = keys[on_tree] - cluster * n
    lo, hi = np.minimum(child, parent), np.maximum(child, parent)
    order = np.lexsort((hi, lo, cluster))
    lo, hi = lo[order].tolist(), hi[order].tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(cluster, minlength=k))))
    for c in np.flatnonzero(np.diff(bounds)).tolist():
        a, b = int(bounds[c]), int(bounds[c + 1])
        trees[c] = list(zip(lo[a:b], hi[a:b]))
    return trees


def decompose(
    graph: Graph, ledger: RoundLedger | None = None, validate: bool = True
) -> NetworkDecomposition:
    """Full (O(log n), O(log³ n))-network decomposition (Theorem 3.1)."""
    n = graph.n
    decomposition = NetworkDecomposition(graph=graph, clusters=[], num_colors=0)
    if n == 0:
        return decomposition
    alive = np.ones(n, dtype=bool)
    color = 0
    max_colors = max(1, math.ceil(math.log2(max(2, n)))) + 2
    while alive.any():
        color += 1
        if color > max_colors:
            raise AssertionError(
                f"needed more than {max_colors} = O(log n) colors"
            )
        carve = carve_class(graph, alive)
        if ledger is not None:
            ledger.charge(f"carve_color_{color}", max(1, carve.rounds))
        centers, members, offsets = _members_from_centers(carve.center)
        trees = steiner_trees(graph, centers, members, offsets)
        for i, c in enumerate(centers.tolist()):
            decomposition.clusters.append(
                Cluster(
                    nodes=members[offsets[i]:offsets[i + 1]],
                    color=color,
                    center=c,
                    tree_edges=trees[i],
                    radius=carve.radius.get(c, 0),
                )
            )
        alive = carve.dead
    decomposition.num_colors = color
    if validate:
        decomposition.validate()
    return decomposition


def _members_from_centers(center: np.ndarray) -> tuple:
    """Group clustered nodes by center: ``(centers, members, offsets)``.

    ``centers`` ascend; cluster i's members are the ascending
    ``members[offsets[i]:offsets[i + 1]]``.
    """
    nodes = np.flatnonzero(center >= 0)
    labels = center[nodes]
    order = np.argsort(labels, kind="stable")  # members stay ascending
    nodes_s, labels_s = nodes[order], labels[order]
    new = np.ones(len(labels_s), dtype=bool)
    new[1:] = labels_s[1:] != labels_s[:-1]
    starts = np.flatnonzero(new)
    return labels_s[starts], nodes_s, np.append(starts, len(nodes_s))
