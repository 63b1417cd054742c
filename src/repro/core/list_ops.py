"""Vectorized color-list maintenance shared by every engine.

After a pass permanently colors some nodes, every still-uncolored neighbor
must delete the taken colors from its list (the (degree+1) invariant
survives: each colored neighbor reduces the uncolored degree by one and
removes at most one list entry).  The CONGEST engine, the CONGESTED CLIQUE
engine, the decomposed polylog solver and the randomized baseline all
perform this update; this module provides one batched implementation built
on :meth:`Graph.gather_neighbors` and the CSR
:class:`~repro.core.instances.ColorListStore`.

The (node, color) deletion pairs are gathered with one neighborhood
expansion and applied with one encoded-key ``searchsorted`` over the flat
store (:meth:`ColorListStore.delete_pairs`) — no per-node Python loops.

:func:`greedy_extend` is the one sequential piece: the first-free-color
greedy that the baseline runs on a whole instance and the clique and MPC
endgames run on their residual nodes.
"""

from __future__ import annotations

import numpy as np

from repro.core.instances import ColorListStore
from repro.graphs.graph import Graph

__all__ = [
    "greedy_extend",
    "prune_lists_after_coloring",
    "prune_lists_against_colored",
]


def prune_lists_after_coloring(
    graph: Graph,
    lists: ColorListStore,
    colors: np.ndarray,
    newly_colored: np.ndarray,
) -> None:
    """Remove the colors of ``newly_colored`` nodes from the lists of their
    still-uncolored neighbors (in place)."""
    newly = np.asarray(newly_colored, dtype=np.int64)
    if newly.size == 0:
        return
    srcs, nbrs = graph.gather_neighbors(newly)
    uncolored = colors[nbrs] == -1
    lists.delete_pairs(nbrs[uncolored], colors[srcs][uncolored])


def prune_lists_against_colored(
    graph: Graph,
    lists: ColorListStore,
    colors: np.ndarray,
    nodes: np.ndarray,
) -> None:
    """Remove, from each ``lists[v]`` for v in ``nodes``, every color held
    by an already-colored neighbor of v (in place)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return
    srcs, nbrs = graph.gather_neighbors(nodes)
    colored = colors[nbrs] != -1
    lists.delete_pairs(srcs[colored], colors[nbrs][colored])


def greedy_extend(
    graph: Graph, lists: ColorListStore, colors: np.ndarray, order: np.ndarray
) -> None:
    """Color the nodes of ``order`` one after another (in place), each
    taking the first color of its list that no colored neighbor holds.

    Never fails while |L(v)| ≥ deg(v) + 1; a node with no free color
    raises ``AssertionError``.
    """
    for v in np.asarray(order, dtype=np.int64).tolist():
        nbr_colors = colors[graph.neighbors(v)]
        taken = set(nbr_colors[nbr_colors != -1].tolist())
        for c in lists[v].tolist():
            if c not in taken:
                colors[v] = c
                break
        else:
            raise AssertionError(f"greedy found no free color for node {v}")
