"""Micro-benchmark guarding the sharded parallel batch backend.

Builds a heterogeneous multi-instance workload — random regular graphs of
varying degree and size grouped into fusion runs, the batched class-solve
shape of the decomposition engine — and solves it twice:

* **serial** — one in-process ``solve_list_coloring_batch`` call;
* **process** — the same batch through ``ProcessBackend.solve_batch``: the
  batch is sharded along ``instance_offsets`` (fusion runs kept whole),
  shard solves run on a worker pool, and the results are merged back.

Before timing, byte-identity of the full solve is asserted at the level
the golden suite pins: colorings, round-ledger category totals and event
streams, per-pass potential traces.

Exits non-zero if the process-backend speedup falls below
``--min-speedup`` (default 2×) with ``--workers`` workers (default 4).
The speedup guard is skipped — identity is still enforced — when the host
has fewer cores than workers, where process parallelism cannot win.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_backend.py \
        [--n 256] [--workers 4] [--min-speedup 2]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import solve_list_coloring_batch
from repro.graphs import generators
from repro.parallel import ProcessBackend, plan_shards

sys.path.insert(0, os.path.dirname(__file__))
from _perf_json import add_json_arg, write_perf_json  # noqa: E402

# The canonical byte-identity comparators live next to the tests; the
# benchmark must enforce exactly what the test suite enforces.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from equivalence import assert_batch_results_equal  # noqa: E402


def build_batch(n: int) -> BatchedListColoringInstance:
    """Eight instances in four fusion runs (degrees 10..16, two sizes each).

    Ordered by degree so each shared-seed run is contiguous; the planner
    then cuts only between runs and 4 workers each take one whole run.
    The degrees are high so the per-phase 2^m seed sweeps (compute that
    scales with Linial's K = O(Δ²)) dominate the shard serialization cost.
    """
    instances = []
    for degree in (10, 12, 14, 16):  # even degrees: any size is realizable
        for size in (n, n + n // 4):
            graph = generators.random_regular_graph(
                size, degree, seed=100 * degree + size
            )
            instances.append(make_delta_plus_one_instance(graph))
    return BatchedListColoringInstance.from_instances(instances)


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    add_json_arg(parser, "parallel_backend")
    args = parser.parse_args()

    batch = build_batch(args.n)
    bounds = plan_shards(batch, args.workers).bounds
    print(
        f"batch: {batch.num_instances} instances, {batch.n} union nodes, "
        f"{len(bounds) - 1} shards at {args.workers} workers"
    )

    with ProcessBackend(workers=args.workers) as backend:
        serial = solve_list_coloring_batch(batch)
        parallel = backend.solve_batch(batch)
        assert_batch_results_equal(serial, parallel)
        print("byte-identical outputs (colors, ledgers, traces)")

        t_serial = best_of(lambda: solve_list_coloring_batch(batch))
        t_parallel = best_of(lambda: backend.solve_batch(batch))
    speedup = t_serial / t_parallel

    print(f"serial backend:  {t_serial * 1000:8.1f} ms")
    print(f"process backend: {t_parallel * 1000:8.1f} ms   ({speedup:.2f}x)")

    cores = os.cpu_count() or 1
    guard = "ok"
    skip_reason = None
    if cores < args.workers:
        guard = "skip"
        skip_reason = f"cpu_count {cores} < {args.workers} workers"
        print(f"SKIP speedup guard: {skip_reason} (identity checks passed)")
    elif speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: process-backend speedup {speedup:.2f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.2f}x >= {args.min_speedup:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "parallel_backend",
            params={"n": args.n, "workers": args.workers},
            timings_seconds={"serial": t_serial, "process": t_parallel},
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
            skip_reason=skip_reason,
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
