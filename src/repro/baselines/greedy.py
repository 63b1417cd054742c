"""Sequential greedy list coloring — the classic baseline (Section 1).

The paper's opening observation: (degree+1)-list coloring admits a trivial
sequential greedy algorithm.  It is the correctness yardstick for every
distributed solver here, and the T9 experiment's "zero communication /
linear time" reference point.
"""

from __future__ import annotations

import numpy as np

from repro.core.instances import ListColoringInstance, make_delta_plus_one_instance
from repro.core.list_ops import greedy_extend
from repro.graphs.graph import Graph

__all__ = ["greedy_list_coloring", "greedy_delta_plus_one"]


def greedy_list_coloring(
    instance: ListColoringInstance, order: np.ndarray | None = None
) -> np.ndarray:
    """Color nodes in ``order`` (default: by id), each taking the first
    free color of its list.  Always succeeds because |L(v)| ≥ deg(v)+1.
    """
    colors = np.full(instance.n, -1, dtype=np.int64)
    if order is None:
        order = np.arange(instance.n)
    greedy_extend(instance.graph, instance.lists, colors, order)
    return colors


def greedy_delta_plus_one(graph: Graph, order: np.ndarray | None = None) -> np.ndarray:
    """Greedy (Δ+1)-coloring with the smallest-free-color rule: the list
    greedy on Observation 4.1's lists {0, …, deg(v)}, which always hold
    the smallest color no neighbor has."""
    return greedy_list_coloring(make_delta_plus_one_instance(graph), order)
