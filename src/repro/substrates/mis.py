"""Maximal independent set by iterating color classes (Lemma 2.1's ending).

Given a proper coloring with few colors, an MIS is computed greedily: color
classes are processed in order; every still-unblocked node of the current
class joins the MIS and blocks its neighbors.  One CONGEST round per color
class.  Lemma 2.1 runs this on the ≤-3-degree conflict graph of candidate
colors after first crunching the input K-coloring to O(Δ²) = O(1) colors
with Linial's algorithm, so the total is O(log* K) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.substrates.linial import linial_coloring

__all__ = [
    "mis_by_color_classes",
    "mis_bounded_degree",
    "mis_by_blocks",
    "MISResult",
]


@dataclass
class MISResult:
    members: np.ndarray  #: boolean membership mask
    rounds: int  #: CONGEST rounds charged (classes + Linial iterations)
    num_classes: int
    linial_iterations: int


def mis_by_color_classes(graph: Graph, colors: np.ndarray) -> tuple[np.ndarray, int]:
    """Greedy MIS over the classes of a proper coloring.

    Returns ``(membership_mask, number_of_classes)``; the class count is the
    CONGEST round cost.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if graph.m and (colors[graph.edges_u] == colors[graph.edges_v]).any():
        raise ValueError("MIS by color classes requires a proper coloring")
    in_mis = np.zeros(graph.n, dtype=bool)
    blocked = np.zeros(graph.n, dtype=bool)
    classes = np.unique(colors)
    for c in classes:
        # The coloring is proper, so one class is an independent set: every
        # unblocked member joins at once and the neighborhoods are blocked
        # with a single batched gather — no per-node loop.
        members = np.flatnonzero((colors == c) & ~blocked)
        if len(members) == 0:
            continue
        in_mis[members] = True
        blocked[members] = True
        _, nbrs = graph.gather_neighbors(members)
        blocked[nbrs] = True
    return in_mis, len(classes)


def mis_bounded_degree(graph: Graph, input_colors: np.ndarray, num_colors: int) -> MISResult:
    """MIS on a (small-degree) graph: Linial crunch, then class iteration.

    This is exactly the ending of Lemma 2.1: the K-coloring of G induces a
    K-coloring of the conflict subgraph, Linial reduces it to O(Δ²) colors
    in O(log* K) rounds, then the MIS is computed class by class.
    """
    reduction = linial_coloring(graph, input_colors, num_colors)
    members, classes = mis_by_color_classes(graph, reduction.colors)
    return MISResult(
        members=members,
        rounds=reduction.iterations + classes,
        num_classes=classes,
        linial_iterations=reduction.iterations,
    )


def mis_by_blocks(
    graph: Graph, input_colors: np.ndarray, offsets: np.ndarray, nums_colors
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mis_bounded_degree` on every block of a block-diagonal graph.

    Block j holds nodes ``offsets[j]:offsets[j+1]``, no edge leaves its
    block, and ``input_colors`` is a proper ``nums_colors[j]``-coloring of
    it.  Blocks that share ``(K_j, Δ_j)`` share Linial's schedule, so each
    such group is one Linial run on its union; then one class iteration
    covers every block.  Returns ``(members, rounds)`` with ``rounds[j]``
    block j's own cost: its Linial iterations plus the number of distinct
    reduced colors in block j.  Both equal a standalone call's on the
    block, since Linial and the class iteration only read neighbors and
    the classes run in ascending color order.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    k = len(offsets) - 1
    deltas = graph.block_max_degrees(offsets)
    groups: dict[tuple, list] = {}
    for j in range(k):
        groups.setdefault((int(nums_colors[j]), int(deltas[j])), []).append(j)
    reduced = np.zeros(graph.n, dtype=np.int64)
    iterations = np.zeros(k, dtype=np.int64)
    for (num_colors, _delta), blocks in groups.items():
        sub, nodes = graph.block_subgraph(offsets, blocks)
        reduction = linial_coloring(sub, input_colors[nodes], num_colors)
        reduced[nodes] = reduction.colors
        iterations[blocks] = reduction.iterations
    members, _classes = mis_by_color_classes(graph, reduced)
    block = np.repeat(np.arange(k, dtype=np.int64), np.diff(offsets))
    width = int(reduced.max(initial=0)) + 1
    keys = np.unique(block * width + reduced)
    return members, iterations + np.bincount(keys // width, minlength=k)
