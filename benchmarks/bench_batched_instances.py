"""Micro-benchmark guarding the batched multi-instance solver core.

Builds the canonical Corollary 1.2 workload — the clusters of a network
decomposition of a high-diameter cycle, grouped by color class — and solves
every class twice:

* **sequential** — one ``solve_list_coloring_congest`` call per cluster,
  the pre-batching consumer loop;
* **batched** — one ``solve_list_coloring_batch`` call per class, the path
  the decomposition engine now uses: one flat CSR store, instance-aware
  bucket counting, and the per-phase seed enumerations fused across
  clusters sharing a seed space (shared-seed phase fusion).

Both runs are asserted identical (colors, per-cluster round-ledger
breakdowns, potential traces) before timing — byte-identity is the
refactor's contract.  Exits non-zero if the batched speedup falls below
``--min-speedup`` (default 3×), so CI catches regressions that push
per-instance Python loops back into the batched per-phase path.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched_instances.py \
        [--n 1536] [--min-speedup 3]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.instances import (
    BatchedListColoringInstance,
    ListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import (
    solve_list_coloring_batch,
    solve_list_coloring_congest,
)
from repro.decomposition.rozhon_ghaffari import decompose
from repro.graphs import generators

sys.path.insert(0, os.path.dirname(__file__))
from _perf_json import add_json_arg, write_perf_json  # noqa: E402


def build_classes(n: int) -> list:
    """Per color class: the cluster sub-instances + Steiner-tree depths."""
    graph = generators.cycle_graph(n)
    decomposition = decompose(graph, validate=False)
    parent = make_delta_plus_one_instance(graph)
    by_color: dict = {}
    for cluster in decomposition.clusters:
        by_color.setdefault(cluster.color, []).append(cluster)
    classes = []
    for color in sorted(by_color):
        subs, depths = [], []
        for cluster in by_color[color]:
            sub_graph, original = graph.induced_subgraph(cluster.nodes)
            subs.append(
                ListColoringInstance(
                    sub_graph, parent.color_space, parent.lists.subset(original)
                )
            )
            depths.append(max(1, cluster.radius))
        classes.append((subs, depths))
    return classes


def solve_sequential(classes) -> list:
    return [
        [
            solve_list_coloring_congest(inst, comm_depth=depth, verify=False)
            for inst, depth in zip(subs, depths)
        ]
        for subs, depths in classes
    ]


def solve_batched(classes) -> list:
    return [
        solve_list_coloring_batch(
            BatchedListColoringInstance.from_instances(subs),
            comm_depths=depths,
            verify=False,
        ).results
        for subs, depths in classes
    ]


def assert_identical(sequential, batched) -> None:
    for seq_class, bat_class in zip(sequential, batched):
        for seq, bat in zip(seq_class, bat_class):
            assert np.array_equal(seq.colors, bat.colors), "colors diverged"
            assert seq.rounds.breakdown() == bat.rounds.breakdown(), (
                "round ledgers diverged"
            )
            for ps, pb in zip(seq.passes, bat.passes):
                assert ps.potential_trace == pb.potential_trace, (
                    "potential traces diverged"
                )


def best_of(fn, repeats: int = 4) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1536)
    parser.add_argument("--min-speedup", type=float, default=3.0)
    add_json_arg(parser, "batched_instances")
    args = parser.parse_args()

    classes = build_classes(args.n)
    num_clusters = sum(len(subs) for subs, _ in classes)

    assert_identical(solve_sequential(classes), solve_batched(classes))

    t_seq = best_of(lambda: solve_sequential(classes))
    t_bat = best_of(lambda: solve_batched(classes))
    speedup = t_seq / t_bat

    print(
        f"n={args.n} classes={len(classes)} clusters={num_clusters} "
        "(byte-identical outputs)"
    )
    print(f"sequential per-cluster solves: {t_seq * 1000:8.1f} ms")
    print(f"batched class solves:          {t_bat * 1000:8.1f} ms   ({speedup:.1f}x)")

    guard = "ok"
    if speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: batched speedup {speedup:.1f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.1f}x >= {args.min_speedup:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "batched_instances",
            params={"n": args.n, "classes": len(classes), "clusters": num_clusters},
            timings_seconds={"sequential": t_seq, "batched": t_bat},
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
