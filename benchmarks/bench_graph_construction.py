"""Micro-benchmark guarding the array-native graph construction path.

Compares the vectorized :class:`repro.graphs.graph.Graph` constructor (and
frontier-vectorized BFS) against the seed's per-edge/per-node reference
builder on a random-regular workload.  Exits non-zero if the construction
speedup falls below ``--min-speedup`` (default 5×), so CI catches
regressions that reintroduce Python loops on the hot path.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_construction.py \
        [--n 20000] [--d 8] [--min-speedup 5]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.graphs.graph import Graph

sys.path.insert(0, os.path.dirname(__file__))
from _perf_json import add_json_arg, write_perf_json  # noqa: E402


def seed_builder(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The pre-refactor constructor: per-edge set dedup + per-node sorts."""
    canonical = set()
    for u, v in edges:
        u, v = int(u), int(v)
        canonical.add((u, v) if u < v else (v, u))
    arr = np.array(sorted(canonical), dtype=np.int64)
    edges_u, edges_v = arr[:, 0].copy(), arr[:, 1].copy()
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, edges_u, 1)
    np.add.at(deg, edges_v, 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    targets = np.empty(2 * len(edges_u), dtype=np.int64)
    cursor = offsets[:-1].copy()
    for u, v in zip(edges_u, edges_v):
        targets[cursor[u]] = v
        cursor[u] += 1
        targets[cursor[v]] = u
        cursor[v] += 1
    for u in range(n):
        lo, hi = offsets[u], offsets[u + 1]
        targets[lo:hi] = np.sort(targets[lo:hi])
    return offsets, targets


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    add_json_arg(parser, "graph_construction")
    args = parser.parse_args()

    import networkx as nx

    nx_graph = nx.random_regular_graph(args.d, args.n, seed=args.seed)
    edge_array = np.array(list(nx_graph.edges()), dtype=np.int64)
    edge_tuples = [(int(u), int(v)) for u, v in edge_array]

    graph = Graph(args.n, edge_array)
    ref_offsets, ref_targets = seed_builder(args.n, edge_tuples)
    assert np.array_equal(graph.adj_offsets, ref_offsets)
    assert np.array_equal(graph.adj_targets, ref_targets)

    t_seed = best_of(lambda: seed_builder(args.n, edge_tuples))
    t_new = best_of(lambda: Graph(args.n, edge_array))
    speedup = t_seed / t_new
    t_bfs = best_of(lambda: graph.bfs_levels([0]))

    print(f"n={args.n} d={args.d} m={graph.m}")
    print(f"seed builder:       {t_seed * 1000:8.1f} ms")
    print(f"vectorized Graph:   {t_new * 1000:8.1f} ms   ({speedup:.1f}x)")
    print(f"bfs_levels (full):  {t_bfs * 1000:8.1f} ms")

    guard = "ok"
    if speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: construction speedup {speedup:.1f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.1f}x >= {args.min_speedup:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "graph_construction",
            params={"n": args.n, "d": args.d, "m": graph.m},
            timings_seconds={
                "seed_builder": t_seed,
                "vectorized": t_new,
                "bfs_levels": t_bfs,
            },
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
