"""Micro-benchmark guarding the coloring service's coalesced throughput.

Models the serving workload: ``--rounds`` waves of requests over
``--graphs`` distinct same-signature instances (equal ``(⌈log C⌉, Δ)``,
the coalescer's fusion key) arriving concurrently, solved two ways:

* **sequential** — one fresh ``solve_list_coloring_congest`` call per
  request: the pre-serving per-request cost.
* **service** — the same requests submitted concurrently to a fresh
  :class:`~repro.serving.service.ColoringService`; the coalescer packs
  each wave into ONE fused batch (one 2^m sweep per phase per wave
  instead of per request).

The service runs on its default in-process backend, which never creates
a worker pool, so the measured speedup comes from sweep fusion alone,
*not* from parallelism; the guard therefore never self-skips, on 1-core
CI hosts included.

Both sides solve with the same ``--r-bits`` phase schedule (default
r = 3): fixing more prefix bits per phase shifts solve time from per-bit
round machinery — which coalescing cannot amortize — into the 2^m
integer seed sweeps that fusion shares across a wave, i.e. the regime
the serving layer is for.  The comparison stays apples-to-apples:
identical algorithm, identical outputs, only the execution strategy
differs.

Before timing, byte-identity is asserted at both pinned levels: every
service response against its standalone solve (colors, round-ledger
category totals and event streams, per-pass potential traces), and one
Lemma 2.1 pass of the coalesced batch against batch-of-one passes
(candidates and per-phase SeedChoices with Eq. (7) conditional traces).

Exits non-zero if the coalesced throughput falls below ``--min-speedup``
(default 1×).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--n 192] [--degree 12] [--graphs 4] [--rounds 3] \
        [--r-bits 3] [--min-speedup 1]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

import numpy as np

from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import solve_list_coloring_congest
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.graphs import generators
from repro.parallel.sharding import instance_fusion_signature
from repro.serving import ColoringService

sys.path.insert(0, os.path.dirname(__file__))
from _perf_json import add_json_arg, write_perf_json  # noqa: E402

# The canonical byte-identity comparators live next to the tests; the
# benchmark must enforce exactly what the test suite enforces.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from equivalence import assert_coloring_results_equal, assert_outcomes_equal  # noqa: E402


def r_schedule(phase_index: int, bits_left: int) -> int:
    """Fix ``--r-bits`` prefix bits per phase (module-level so it would
    also pickle to pool workers; the service's default backend stays
    in-process)."""
    return min(r_schedule.bits, bits_left)


r_schedule.bits = 3


def build_instances(n: int, degree: int, graphs: int) -> list:
    """``graphs`` distinct random regular graphs with one fusion signature
    (same n, same degree → same ``(⌈log C⌉, Δ)``), so every wave coalesces
    into a single fused batch."""
    return [
        make_delta_plus_one_instance(
            generators.random_regular_graph(n, degree, seed=1000 + i)
        )
        for i in range(graphs)
    ]


def make_service(graphs: int) -> ColoringService:
    """A fresh cold service on the default in-process backend."""
    return ColoringService(
        max_batch_instances=graphs,
        max_delay_ms=50.0,
        r_schedule=r_schedule,
    )


def run_service(instances: list, rounds: int, graphs: int):
    """Submit ``rounds`` × ``instances`` concurrently; return the results
    in submit order plus the service's closing stats."""

    async def drive():
        async with make_service(graphs) as service:
            results = await asyncio.gather(
                *[
                    service.submit(instance)
                    for _ in range(rounds)
                    for instance in instances
                ]
            )
        return results, service.stats()

    return asyncio.run(drive())


def assert_pass_identical(instances: list) -> None:
    """One Lemma 2.1 pass of the coalesced batch vs batch-of-one passes:
    covers the artifacts the solve result drops — per-phase SeedChoices
    and their Eq. (7) conditional traces."""

    def pass_outcomes(batch):
        psis = np.concatenate(
            [
                np.arange(int(d), dtype=np.int64)
                for d in np.diff(batch.instance_offsets)
            ]
        )
        nums = [int(d) for d in np.diff(batch.instance_offsets)]
        return partial_coloring_pass_batch(
            batch, psis, nums, r_schedule=r_schedule
        )

    fused = pass_outcomes(BatchedListColoringInstance.from_instances(instances))
    for i, instance in enumerate(instances):
        solo = pass_outcomes(
            BatchedListColoringInstance.from_instances([instance])
        )
        assert_outcomes_equal(solo[0], fused[i], f"outcome[{i}]")


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=192)
    parser.add_argument("--degree", type=int, default=12)
    parser.add_argument("--graphs", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--r-bits", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=1.0)
    add_json_arg(parser, "serving")
    args = parser.parse_args()
    r_schedule.bits = args.r_bits

    instances = build_instances(args.n, args.degree, args.graphs)
    signatures = {instance_fusion_signature(i) for i in instances}
    assert len(signatures) == 1, f"workload must share one signature: {signatures}"
    requests = args.graphs * args.rounds
    print(
        f"workload: {args.rounds} waves x {args.graphs} graphs "
        f"(n={args.n} d={args.degree}, signature {signatures.pop()}), "
        f"{requests} requests; service in-process "
        "(no pool, wins are fusion only)"
    )

    # -- identity before any timing ------------------------------------
    direct = [
        solve_list_coloring_congest(instance, r_schedule=r_schedule)
        for instance in instances
    ]
    served, stats = run_service(instances, args.rounds, args.graphs)
    for j, result in enumerate(served):
        assert_coloring_results_equal(
            direct[j % args.graphs], result, f"request[{j}]"
        )
    assert_pass_identical(instances)
    print(
        "byte-identical responses (colors, ledgers, traces, SeedChoices); "
        f"batches={stats['batch_sizes']}"
    )

    # -- timing --------------------------------------------------------
    def sequential():
        for _ in range(args.rounds):
            for instance in instances:
                solve_list_coloring_congest(instance, r_schedule=r_schedule)

    t_sequential = best_of(sequential)
    t_service = best_of(
        lambda: run_service(instances, args.rounds, args.graphs)
    )
    speedup = t_sequential / t_service

    print(f"sequential solves: {t_sequential * 1000:8.1f} ms")
    print(f"coalesced service: {t_service * 1000:8.1f} ms   ({speedup:.2f}x)")

    guard = "ok"
    if speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: coalesced throughput {speedup:.2f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.2f}x >= {args.min_speedup:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "serving",
            params={
                "n": args.n,
                "degree": args.degree,
                "graphs": args.graphs,
                "rounds": args.rounds,
                "r_bits": args.r_bits,
            },
            timings_seconds={
                "sequential": t_sequential,
                "service": t_service,
            },
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
