"""Micro-benchmark guarding the vectorized prefix-extension phase loop.

Runs the per-phase list pipeline — bucket counting k_w(v), threshold-based
bucket selection, and candidate-list shrinking — for all ⌈log C⌉ phases of
a (Δ+1) instance, twice:

* **seed reference** — the pre-refactor ragged ``list[np.ndarray]``
  implementation (per-node ``np.bincount`` loop, per-node ``searchsorted``
  bucket selection, per-node shrink);
* **CSR pipeline** — the :class:`ColorListStore` path the solver now uses
  (one ``np.bincount`` over ``node·2^r + bucket`` keys, broadcast threshold
  comparison, one boolean mask on the flat values array).

Both runs share the same deterministic per-phase hash values and must
produce identical candidate colors.  Exits non-zero if the speedup falls
below ``--min-speedup`` (default 5×), so CI catches regressions that
reintroduce per-node Python loops on the per-phase path.

Usage::

    PYTHONPATH=src python benchmarks/bench_prefix_pipeline.py \
        [--n 20000] [--d 8] [--min-speedup 5]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.instances import ColorListStore, make_delta_plus_one_instance
from repro.core.potential import accuracy_bits
from repro.core.prefix import _bucket_counts
from repro.graphs import generators
from repro.hashing.coins import bucket_thresholds, select_buckets

sys.path.insert(0, os.path.dirname(__file__))
from _perf_json import add_json_arg, write_perf_json  # noqa: E402


def _phase_hashes(n: int, color_bits: int, b: int, seed: int) -> np.ndarray:
    """Deterministic stand-in for the per-phase hash values y_v ∈ [2^b)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << b, size=(color_bits, n), dtype=np.int64)


def seed_phase_loop(
    lists: list, color_bits: int, b: int, hashes: np.ndarray
) -> np.ndarray:
    """The pre-refactor per-node pipeline, verbatim from the seed code."""
    n = len(lists)
    cand = [lst.copy() for lst in lists]
    for phase in range(color_bits):
        shift = color_bits - 1 - phase
        counts = np.zeros((n, 2), dtype=np.int64)
        for v in range(n):
            buckets = (cand[v] >> shift) & 1
            counts[v] = np.bincount(buckets, minlength=2)
        thresholds = bucket_thresholds(counts, b)
        y = hashes[phase]
        buckets = np.empty(n, dtype=np.int64)
        for v in range(n):
            buckets[v] = np.searchsorted(thresholds[v], y[v], side="right") - 1
        np.clip(buckets, 0, 1, out=buckets)
        for v in range(n):
            selected = ((cand[v] >> shift) & 1) == buckets[v]
            cand[v] = cand[v][selected]
            assert len(cand[v]) > 0
    return np.array([int(c[0]) for c in cand], dtype=np.int64)


def csr_phase_loop(
    store: ColorListStore, color_bits: int, b: int, hashes: np.ndarray
) -> np.ndarray:
    """The vectorized pipeline as run by ``prefix.extend_prefixes``."""
    n = store.n
    cand = store.copy()
    for phase in range(color_bits):
        shift = color_bits - 1 - phase
        node_ids = cand.node_ids()
        flat_buckets = (cand.values >> shift) & 1
        counts = _bucket_counts(node_ids, flat_buckets, n, 1)
        thresholds = bucket_thresholds(counts, b)
        buckets = select_buckets(thresholds, hashes[phase])
        cand = cand.select(flat_buckets == buckets[node_ids])
        assert not (cand.sizes == 0).any()
    return cand.values.copy()


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
    add_json_arg(parser, "prefix_pipeline")
    args = parser.parse_args()

    graph = generators.random_regular_graph(args.n, args.d, seed=args.seed)
    instance = make_delta_plus_one_instance(graph)
    color_bits = instance.color_bits
    b = accuracy_bits(graph.max_degree, color_bits, r=1)
    hashes = _phase_hashes(graph.n, color_bits, b, args.seed)
    ragged = instance.lists.to_lists()

    ref = seed_phase_loop(ragged, color_bits, b, hashes)
    new = csr_phase_loop(instance.lists, color_bits, b, hashes)
    assert np.array_equal(ref, new), "CSR phase loop diverged from reference"

    t_seed = best_of(lambda: seed_phase_loop(ragged, color_bits, b, hashes))
    t_new = best_of(lambda: csr_phase_loop(instance.lists, color_bits, b, hashes))
    speedup = t_seed / t_new

    print(f"n={args.n} d={args.d} phases={color_bits} b={b}")
    print(f"seed phase loop (ragged): {t_seed * 1000:8.1f} ms")
    print(f"CSR phase loop:           {t_new * 1000:8.1f} ms   ({speedup:.1f}x)")

    guard = "ok"
    if speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: phase-loop speedup {speedup:.1f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.1f}x >= {args.min_speedup:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "prefix_pipeline",
            params={"n": args.n, "d": args.d, "phases": color_bits, "b": b},
            timings_seconds={"ragged": t_seed, "csr": t_new},
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
