"""Micro-benchmark guarding Linial's step by root-finding.

Runs one Linial step on the congest-r1 solver's first step: a
``random_regular_graph(2000, 16, seed)`` colored by node ids, so K = 2000
and the field choice is (q, t) = (37, 2).  Two implementations:

* **compare** — the evaluate-and-compare oracle of ``tests/reference.py``
  (every node's polynomial at all q points, every (arc, point) pair
  compared), the step as it was;
* **roots** — ``linial_step``: each edge's collisions are the ≤ t roots of
  its difference polynomial, by the quadratic formula over GF(q).

For seeds 1 and 7 the collision matrix and the new colors are asserted
equal to the oracle before any timing.  Exits non-zero if the speedup
(best of ``REPEATS`` on ``TIMED_SEED``) falls below ``MIN_SPEEDUP``.

Usage::

    PYTHONPATH=src python benchmarks/bench_linial.py [--json]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.graphs.generators import random_regular_graph
from repro.substrates.linial import _choose_field, _collisions, _digits, linial_step

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from _perf_json import add_json_arg, write_perf_json  # noqa: E402

sys.path.insert(0, os.path.join(HERE, "..", "tests"))
from reference import linial_collisions_reference  # noqa: E402

#: Guarded speedup of the root path over the compare (about 15x on a
#: 2-core x86 host).
MIN_SPEEDUP = 3.0

#: Seeds whose first step is asserted against the oracle.
IDENTITY_SEEDS = (1, 7)

#: Seed of the timed step, and the number of timings each side keeps the
#: best of.
TIMED_SEED = 1
REPEATS = 15

N, DEGREE = 2000, 16


def first_step(seed: int):
    """(graph, colors, K) of congest-r1's first Linial step."""
    graph = random_regular_graph(N, DEGREE, seed)
    return graph, np.arange(N, dtype=np.int64), N


def assert_identity(seed: int) -> None:
    graph, colors, k = first_step(seed)
    q, t = _choose_field(k, graph.max_degree)
    ref_collision, ref_colors = linial_collisions_reference(graph, colors, k)
    collision = _collisions(graph, _digits(colors, q, t), q)
    assert np.array_equal(collision, ref_collision), f"collisions differ, seed {seed}"
    new_colors, new_k = linial_step(graph, colors, k)
    assert np.array_equal(new_colors, ref_colors), f"colors differ, seed {seed}"
    assert new_k == q * q


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_json_arg(parser, "linial")
    args = parser.parse_args()

    for seed in IDENTITY_SEEDS:
        assert_identity(seed)

    graph, colors, k = first_step(TIMED_SEED)
    q, t = _choose_field(k, graph.max_degree)
    t_compare = best_of(lambda: linial_collisions_reference(graph, colors, k), REPEATS)
    t_roots = best_of(lambda: linial_step(graph, colors, k), REPEATS)
    speedup = t_compare / t_roots

    print(f"n={graph.n} arcs={2 * graph.m} q={q} t={t} seed={TIMED_SEED}")
    print(f"compare (oracle): {t_compare * 1000:8.2f} ms")
    print(f"roots:            {t_roots * 1000:8.2f} ms   ({speedup:.1f}x)")

    guard = "ok"
    if speedup < MIN_SPEEDUP:
        guard = "fail"
        print(
            f"FAIL: root-path speedup {speedup:.1f}x < required {MIN_SPEEDUP:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.1f}x >= {MIN_SPEEDUP:.1f}x")

    if args.json:
        write_perf_json(
            args.json,
            "linial",
            params={
                "n": graph.n,
                "degree": DEGREE,
                "seed": TIMED_SEED,
                "q": q,
                "t": t,
                "repeats": REPEATS,
                "identity_seeds": list(IDENTITY_SEEDS),
            },
            timings_seconds={"compare": t_compare, "roots": t_roots},
            speedup=speedup,
            min_speedup=MIN_SPEEDUP,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
