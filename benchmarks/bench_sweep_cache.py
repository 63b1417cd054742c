"""Micro-benchmark guarding the fingerprint-keyed sweep-result cache.

Builds a repeated-batch workload — the "coloring-as-a-service" traffic
shape: the same batch of Lemma 2.1 passes solved again and again, as a
serving layer or an incremental recoloring loop would — and measures

* **cold** — a fresh :class:`~repro.core.sweep_cache.SweepResultCache`
  per run: every phase's 2^m integer enumeration runs and its count
  matrix is stored;
* **warm** — the populated cache: every sweep is served by fingerprint
  and only the ``weight_rows`` step runs.

The workload uses an r = 2 phase schedule, whose integer half (the GF
multiply, the interval count-table build and one table gather per
(seed, column)) is the part the cache amortizes.  That half costs about
as much as the weighting a warm run still does, so warm beats cold by
about 2×.

Unlike the parallel backend, the warm-vs-cold ratio needs no second core,
so the speedup guard **never self-skips**: byte-identity (colors,
SeedChoices, Eq. (7) conditional traces, round ledgers) is asserted
against the cache-off serial path first, then warm must beat cold by
``--min-speedup`` (default 1×).  Cache-aware process backends are
additionally checked under every available start method (fork AND
spawn), planned to one shard so the pass runs inline under the backend's
cache: a cold backend run counts and stores every sweep, a warm run
serves everything from the cache, and both must match the serial
reference byte for byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_cache.py \
        [--n 640] [--copies 2] [--workers 2] [--min-speedup 1] [--json [PATH]]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time

import numpy as np

from repro.core.derandomize import sweep_cache_scope
from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.core.sweep_cache import SweepResultCache
from repro.engine.rounds import RoundLedger
from repro.graphs import generators
from repro.parallel import ProcessBackend

sys.path.insert(0, os.path.dirname(__file__))
from _perf_json import add_json_arg, write_perf_json  # noqa: E402

# The canonical byte-identity comparators live next to the tests; the
# benchmark must enforce exactly what the test suite enforces.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from equivalence import assert_ledgers_equal, assert_outcomes_equal  # noqa: E402


def r2_schedule(phase_index: int, bits_left: int) -> int:
    """Two prefix bits per phase (module-level: must pickle to workers)."""
    return min(2, bits_left)


def build_workload(n: int, copies: int):
    """``copies`` *distinct* random regular graphs with a many-color input
    coloring: ψ = identity, so m = ⌈log n⌉ and each phase's count matrix
    is large while the conflict graphs stay sparse (d = 6) — the integer
    sweep dominates and every instance contributes a distinct kernel
    fingerprint, exercising real multi-entry cache traffic."""
    instances = []
    for i in range(copies):
        graph = generators.random_regular_graph(n, 6, seed=11 + i)
        instances.append(make_delta_plus_one_instance(graph))
    batch = BatchedListColoringInstance.from_instances(instances)
    psis = np.concatenate(
        [np.arange(n, dtype=np.int64) for _ in range(copies)]
    )
    nums = [n] * copies
    return batch, psis, nums


def run_pass(batch, psis, nums, cache=None, backend=None):
    """One repeated-traffic request: a full Lemma 2.1 pass batch with
    fresh ledgers, under the given cache scope / backend."""
    ledgers = [RoundLedger() for _ in range(batch.num_instances)]
    with sweep_cache_scope(cache):
        outcomes = partial_coloring_pass_batch(
            batch,
            psis,
            nums,
            ledgers=ledgers,
            r_schedule=r2_schedule,
            backend=backend,
        )
    return outcomes, ledgers


def assert_identical(reference, actual, label: str) -> None:
    ref_outcomes, ref_ledgers = reference
    outcomes, ledgers = actual
    for i, (ref, out) in enumerate(zip(ref_outcomes, outcomes)):
        assert_outcomes_equal(ref, out, f"{label}.outcome[{i}]")
    for i, (ref, led) in enumerate(zip(ref_ledgers, ledgers)):
        assert_ledgers_equal(ref, led, f"{label}.ledger[{i}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=640)
    parser.add_argument("--copies", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--min-speedup", type=float, default=1.0)
    add_json_arg(parser, "sweep_cache")
    args = parser.parse_args()

    batch, psis, nums = build_workload(args.n, args.copies)
    print(
        f"workload: {batch.num_instances} distinct instances of n={args.n} "
        f"d=6, r=2 schedule ({batch.n} union nodes)"
    )

    # Cache-off serial reference: the byte-identity anchor.
    start = time.perf_counter()
    reference = run_pass(batch, psis, nums)
    t_nocache = time.perf_counter() - start

    # Identity of the cold (populating) and warm (fully-cached) paths.
    cache = SweepResultCache()
    cold = run_pass(batch, psis, nums, cache=cache)
    assert_identical(reference, cold, "cold")
    stores = cache.stats()["stores"]
    warm = run_pass(batch, psis, nums, cache=cache)
    assert_identical(reference, warm, "warm")
    warm_stats = cache.stats()
    assert warm_stats["stores"] == stores, "warm run stored new entries"
    assert warm_stats["hits"] >= stores, "warm run missed the cache"
    print(
        f"byte-identical outputs (outcomes, SeedChoices, traces, ledgers); "
        f"{stores} cached kernels, "
        f"{warm_stats['memory_bytes'] / 1e6:.1f} MB resident"
    )

    # Cache-aware process backend under every available start method,
    # planned to one shard (the inline path, under the backend's cache): a
    # cold run counts and stores every sweep, a warm run serves everything
    # from the cache — both byte-identical to serial.
    methods = [
        m for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ]
    for method in methods:
        backend_cache = SweepResultCache()
        with ProcessBackend(
            workers=args.workers,
            start_method=method,
            max_shards=1,  # one shard: solved inline under the cache
            sweep_cache=backend_cache,
        ) as backend:
            backend_cold = run_pass(batch, psis, nums, backend=backend)
            assert_identical(reference, backend_cold, f"{method}-cold")
            backend_warm = run_pass(batch, psis, nums, backend=backend)
            assert_identical(reference, backend_warm, f"{method}-warm")
            warm_record = backend.telemetry[-1]
            assert warm_record["cache"]["hits"] >= stores, (
                f"{method}: warm backend dispatch missed the cache"
            )
        print(f"byte-identical through ProcessBackend(start_method={method!r})")

    # Timings: cold = fresh cache each repeat; warm = populated cache.
    t_cold = float("inf")
    for _ in range(2):
        cache = SweepResultCache()
        start = time.perf_counter()
        run_pass(batch, psis, nums, cache=cache)
        t_cold = min(t_cold, time.perf_counter() - start)
    t_warm = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run_pass(batch, psis, nums, cache=cache)
        t_warm = min(t_warm, time.perf_counter() - start)
    speedup = t_cold / t_warm

    print(f"no cache:   {t_nocache * 1000:8.1f} ms")
    print(f"cold cache: {t_cold * 1000:8.1f} ms")
    print(f"warm cache: {t_warm * 1000:8.1f} ms   ({speedup:.2f}x)")

    # Warm-vs-cold needs no extra cores, so this guard never self-skips.
    if speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: warm-cache speedup {speedup:.2f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        guard = "ok"
        print(f"OK: speedup {speedup:.2f}x >= {args.min_speedup:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "sweep_cache",
            params={
                "n": args.n,
                "copies": args.copies,
                "workers": args.workers,
                "start_methods": methods,
            },
            timings_seconds={
                "nocache": t_nocache,
                "cold": t_cold,
                "warm": t_warm,
            },
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
