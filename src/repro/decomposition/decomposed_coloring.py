"""Polylog-round (degree+1)-list coloring for general graphs
(Corollary 1.2).

Pipeline:

1. compute an (O(log n), O(log³ n))-network decomposition with congestion κ
   (:mod:`repro.decomposition.rozhon_ghaffari`);
2. iterate through the decomposition's color classes; for the clusters of
   one class (pairwise non-adjacent, so their colorings never conflict):

   * every cluster node deletes from its list the colors taken by already
     colored G-neighbors — leaving |L_C(v)| ≥ deg_C(v) + 1 (the paper's
     argument: each deleted color corresponds to a neighbor outside the
     cluster);
   * the Theorem 1.1 solver runs on each cluster, with all aggregation and
     broadcast routed over the cluster's Steiner tree (depth ≤ β in the
     original graph — this is where weak diameter suffices);
   * clusters of one class run in parallel; edges shared by up to κ trees
     pipeline their messages, so the class costs (max cluster rounds) · κ.

The total round charge is decomposition + Σ_class κ · max-cluster-rounds,
which is polylog(n) — independent of the graph diameter.  This is the
claim experiment T7/F3 checks against the D-dependent Theorem 1.1 cost.

Execution is one array program per class, with no per-cluster instance:
the class's nodes, cluster by cluster, induce exactly the block-diagonal
union of the clusters' induced subgraphs (Definition 3.1 (iii)), so one
relabeled ``induced_subgraph`` and one ``ColorListStore.subset`` build a
:class:`~repro.core.instances.BatchedListColoringInstance` that is
validated once, and one :func:`solve_list_coloring_batch` call solves
every cluster.  Each cluster's colors and ledger are what a standalone
solve of that cluster gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.instances import BatchedListColoringInstance, ListColoringInstance
from repro.core.list_coloring import solve_list_coloring_batch
from repro.core.list_ops import prune_lists_against_colored
from repro.core.validation import verify_proper_list_coloring
from repro.decomposition.network_decomposition import (
    NetworkDecomposition,
    _check_key_bound,
)
from repro.decomposition.rozhon_ghaffari import decompose
from repro.engine.rounds import RoundLedger

__all__ = ["DecomposedColoringResult", "solve_list_coloring_polylog"]


@dataclass
class ClassStats:
    color: int
    clusters: int
    largest_cluster: int
    max_cluster_rounds: int
    congestion: int


@dataclass
class DecomposedColoringResult:
    colors: np.ndarray
    rounds: RoundLedger
    decomposition: NetworkDecomposition
    classes: list = field(default_factory=list)

    @property
    def num_colors_used_by_decomposition(self) -> int:
        return self.decomposition.num_colors


def solve_list_coloring_polylog(
    instance: ListColoringInstance,
    strict: bool = True,
    verify: bool = True,
    decomposition: NetworkDecomposition | None = None,
) -> DecomposedColoringResult:
    """Solve the instance in polylog(n) rounds (Corollary 1.2)."""
    graph = instance.graph
    n = graph.n
    ledger = RoundLedger()
    colors = np.full(n, -1, dtype=np.int64)
    if decomposition is None:
        decomposition = decompose(graph, ledger=ledger, validate=strict)
    result = DecomposedColoringResult(
        colors=colors, rounds=ledger, decomposition=decomposition
    )
    if n == 0:
        return result

    lists = instance.copy_lists()
    by_color: dict = {}
    for cluster in decomposition.clusters:
        by_color.setdefault(cluster.color, []).append(cluster)

    kappas = decomposition.congestion_by_color()
    for color in sorted(by_color):
        clusters = by_color[color]
        kappa = max(1, kappas[color])

        # Prune every cluster's lists against already-colored G-neighbors.
        # Same-class clusters are pairwise non-adjacent (Definition 3.1
        # (iii)), so one batched deletion over all class nodes matches the
        # sequential per-cluster updates exactly.
        class_nodes = np.concatenate([c.nodes for c in clusters])
        prune_lists_against_colored(graph, lists, colors, class_nodes)

        # Solve the whole class as ONE batched instance: the clusters never
        # conflict, and batching lets their per-phase seed enumerations be
        # amortized (shared-seed phase fusion).  The class's nodes, cluster
        # by cluster, induce exactly the block-diagonal union of the
        # clusters' induced subgraphs (Definition 3.1 (iii)), so one
        # relabeled subgraph and one list slice build the batch, validated
        # once.  Aggregation over each cluster's Steiner tree: depth ≤ its
        # weak radius; use the carving radius bound (tree depth).
        sizes = np.array([len(c.nodes) for c in clusters], dtype=np.int64)
        offsets = np.zeros(len(clusters) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # Members ascend within each cluster, as a per-cluster induced
        # subgraph numbers them: one sort of cluster·n + node keys.
        _check_key_bound(len(clusters) * n, "cluster·node")
        owner = np.repeat(np.arange(len(clusters), dtype=np.int64), sizes)
        order = np.sort(owner * n + class_nodes) % n
        class_graph, _ = graph.induced_subgraph(order, keep_order=True)
        class_batch = BatchedListColoringInstance(
            class_graph,
            offsets,
            np.full(len(clusters), instance.color_space, dtype=np.int64),
            lists.subset(order),
        )
        batch_result = solve_list_coloring_batch(
            class_batch,
            strict=strict,
            verify=False,
            comm_depths=[max(1, cluster.radius) for cluster in clusters],
        )

        colors[order] = batch_result.colors
        max_rounds = max(batch_result.rounds_totals())
        ledger.charge(f"class_{color}", max(1, max_rounds * kappa))
        result.classes.append(
            ClassStats(
                color=color,
                clusters=len(clusters),
                largest_cluster=int(sizes.max()),
                max_cluster_rounds=max_rounds,
                congestion=kappa,
            )
        )

    if verify:
        verify_proper_list_coloring(instance, colors)
    return result
