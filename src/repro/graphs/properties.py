"""Graph properties used by workloads and experiment reporting.

Degeneracy matters because (degree+1)-list coloring generalizes
(degeneracy+1)-coloring workloads; the spectral-free expansion proxy and
degree statistics feed the experiment tables.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.sorting import unique

__all__ = [
    "degeneracy",
    "degeneracy_ordering",
    "average_degree",
    "degree_histogram",
    "is_regular",
    "edge_expansion_proxy",
]


def degeneracy_ordering(graph: Graph) -> tuple[np.ndarray, int]:
    """Smallest-last ordering; returns (ordering, degeneracy).

    Classic peeling: repeatedly remove a minimum-degree node (ties broken
    by smallest id).  The degeneracy d is the largest minimum degree seen;
    coloring greedily in reverse ordering uses at most d+1 colors.

    Implemented as a lazy-deletion heap over (degree, node), so peeling
    costs O((n + m) log n) instead of the quadratic rescan of all
    remaining candidates.
    """
    import heapq

    n = graph.n
    degree = graph.degrees.copy()
    removed = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    heap = list(zip(degree.tolist(), range(n)))
    heapq.heapify(heap)
    degen = 0
    for i in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if not removed[v] and d == degree[v]:
                break
        degen = max(degen, d)
        order[i] = v
        removed[v] = True
        live = graph.neighbors(v)
        live = live[~removed[live]]
        degree[live] -= 1
        for u, du in zip(live.tolist(), degree[live].tolist()):
            heapq.heappush(heap, (du, u))
    return order, degen


def degeneracy(graph: Graph) -> int:
    return degeneracy_ordering(graph)[1]


def average_degree(graph: Graph) -> float:
    return 2.0 * graph.m / graph.n if graph.n else 0.0


def degree_histogram(graph: Graph) -> dict:
    values, counts = unique(graph.degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def is_regular(graph: Graph) -> bool:
    return graph.n == 0 or bool((graph.degrees == graph.degrees[0]).all())


def edge_expansion_proxy(graph: Graph, trials: int = 8, seed: int = 0) -> float:
    """Cheap lower-bound proxy for edge expansion: min over sampled random
    halvings of cut(S)/|S|.  Distinguishes expander-ish workloads (large)
    from cycles/grids (≈ constant/|S|) in experiment tables.
    """
    if graph.n < 2 or graph.m == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    best = float("inf")
    half = graph.n // 2
    for _ in range(trials):
        side = np.zeros(graph.n, dtype=bool)
        side[rng.permutation(graph.n)[:half]] = True
        cut = int((side[graph.edges_u] != side[graph.edges_v]).sum())
        best = min(best, cut / half)
    return best
