"""Micro-benchmark of Corollary 1.2's network decomposition.

Runs on the polylog-grid workload's first seed-1 input: the 100x100 grid
with its node ids permuted by ``np.random.default_rng(1).permutation``.
Before any timing it asserts that

* ``decompose`` equals ``tests/reference.py:decompose_reference`` (every
  cluster's nodes, center, color, radius and tree edges, and the round
  ledger);
* the sort-based ``repro.graphs.sorting.unique`` equals ``np.unique``
  (values, index, dtypes) on every key array the run's Steiner-tree BFS
  deduplicates.

It then records, best of ``REPEATS``:

* ``decompose_kappa`` — ``decompose`` plus the per-class congestion κ,
  the decomposition's share of one Corollary 1.2 solve;
* ``unique`` against ``np.unique`` on distinct int64 keys at 10k and 100k,
  plain and with ``return_index`` (numpy ≥ 2.3 takes a hash path for the
  first and a stable sort for the second).

The timings are recorded, not guarded.

Usage::

    PYTHONPATH=src python benchmarks/bench_decomposition.py [--json]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.decomposition import rozhon_ghaffari
from repro.decomposition.decomposed_coloring import _class_congestion
from repro.decomposition.rozhon_ghaffari import decompose
from repro.engine.rounds import RoundLedger
from repro.graphs.generators import grid_graph
from repro.graphs.graph import Graph
from repro.graphs.sorting import unique

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from _perf_json import add_json_arg, write_perf_json  # noqa: E402

sys.path.insert(0, os.path.join(HERE, "..", "tests"))
from reference import decompose_reference  # noqa: E402

ROWS = COLS = 100
SEED = 1
REPEATS = 10
KEY_SIZES = (10_000, 100_000)


def permuted_grid(seed: int) -> Graph:
    """The polylog-grid workload's first input for ``seed``."""
    base = grid_graph(ROWS, COLS)
    perm = np.random.default_rng(seed).permutation(base.n)
    return Graph(base.n, np.stack([perm[base.edges_u], perm[base.edges_v]], axis=1))


def assert_matches_reference(graph: Graph) -> int:
    ledger, ref_ledger = RoundLedger(), RoundLedger()
    new = decompose(graph, ledger=ledger)
    ref = decompose_reference(graph, ledger=ref_ledger)
    assert new.num_colors == ref.num_colors
    assert len(new.clusters) == len(ref.clusters)
    for a, b in zip(new.clusters, ref.clusters):
        assert (a.center, a.color, a.radius) == (b.center, b.color, b.radius)
        assert np.array_equal(a.nodes, b.nodes), f"cluster {a.center} nodes"
        assert a.tree_edges.dtype == np.int64
        assert np.array_equal(a.tree_edges, b.tree_edge_array()), (
            f"cluster {a.center} tree"
        )
    assert ledger.breakdown() == ref_ledger.breakdown()
    return len(new.clusters)


def steiner_unique_inputs(graph: Graph) -> list:
    """Every ``(keys, kwargs)`` the Steiner-tree BFS passes to ``unique``
    during one ``decompose``."""
    calls = []

    def recording(a, **kwargs):
        calls.append((np.array(a, copy=True), kwargs))
        return unique(a, **kwargs)

    rozhon_ghaffari.unique = recording
    try:
        decompose(graph)
    finally:
        rozhon_ghaffari.unique = unique
    return calls


def assert_unique_matches_numpy(calls: list) -> None:
    for keys, kwargs in calls:
        got, want = unique(keys, **kwargs), np.unique(keys, **kwargs)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        for mine, theirs in zip(got, want, strict=True):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def decompose_and_kappa(graph: Graph) -> list:
    by_color: dict = {}
    for cluster in decompose(graph).clusters:
        by_color.setdefault(cluster.color, []).append(cluster)
    return [_class_congestion(by_color[color]) for color in sorted(by_color)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_json_arg(parser, "decomposition")
    args = parser.parse_args()

    graph = permuted_grid(SEED)
    clusters = assert_matches_reference(graph)
    calls = steiner_unique_inputs(graph)
    assert calls, "the Steiner-tree BFS made no unique call"
    assert_unique_matches_numpy(calls)

    timings = {"decompose_kappa": best_of(lambda: decompose_and_kappa(graph), REPEATS)}
    print(f"grid {ROWS}x{COLS} seed={SEED}: {clusters} clusters, "
          f"{len(calls)} Steiner unique calls checked")
    print(f"decompose + kappa: {timings['decompose_kappa'] * 1000:8.2f} ms")
    rng = np.random.default_rng(SEED)
    for size in KEY_SIZES:
        keys = rng.permutation(10 * size)[:size].astype(np.int64)
        tag = f"{size // 1000}k"
        repeats = max(REPEATS, 200_000 // size)
        for label, kwargs in (("", {}), ("index_", {"return_index": True})):
            name = "with index" if kwargs else "plain"
            t_np = best_of(lambda: np.unique(keys, **kwargs), repeats)
            t_ours = best_of(lambda: unique(keys, **kwargs), repeats)
            timings[f"np_unique_{label}{tag}"] = t_np
            timings[f"unique_{label}{tag}"] = t_ours
            print(f"{tag:>4} keys, {name:<10}: np.unique {t_np * 1e6:8.1f} us, "
                  f"unique {t_ours * 1e6:8.1f} us ({t_np / t_ours:.1f}x)")

    if args.json:
        write_perf_json(
            args.json,
            "decomposition",
            params={
                "rows": ROWS,
                "cols": COLS,
                "seed": SEED,
                "repeats": REPEATS,
                "clusters": clusters,
                "steiner_unique_calls": len(calls),
                "key_sizes": list(KEY_SIZES),
            },
            timings_seconds=timings,
            identity="ok",  # asserted above, before any timing
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
