"""Micro-benchmark guarding the table/compression seed-sweep kernels.

Builds a reference r = 1 phase group — several instances sharing one seed
space, proper ψ-colorings from a small palette and small candidate lists,
so edges collapse to few unique ``(ψ_u⊕ψ_v, thresholds)`` columns, the
regime every real phase is in — and evaluates the full 2^m seed sweep and
one complete ``derandomize_phase_group`` twice:

* **reference** — the pre-table / pre-compression path: GF(2^m) multiplies
  via the shift-and-add peasant kernel (``use_tables = False``) and the
  tests' per-edge sweep oracle (``expected_rows_reference``: the count
  gather over every edge column, exact sums per member and list size by
  ``np.add.at``), rebuilt per chunk; the reference choices come from the oracles alone
  (``derandomize_phase_reference``);
* **optimized** — the default path: the unique-column compressed sweep in
  discrete-log order (:meth:`~repro.core.potential.SeedSweepWorkspace.val1`:
  count windows, one matrix product per block), one workspace for the
  whole enumeration.

Both paths count in exact integers and form the same exact integer sums
per member and list size (which do not depend on column
deduplication), so the val1 matrices and the phase's
:class:`~repro.core.derandomize.SeedColumns` (seeds, conditional traces,
initial and final potentials) are asserted **bit-identical** before
timing.
Exits non-zero if the sweep speedup falls below ``--min-speedup``
(default 5×), so CI catches regressions that reintroduce per-edge work
into the derandomization hot path.

A second leg times the σ half of a phase at the s1 each member chose:

* **sigma_reference** — the full 2^b sweep the σ descent replaced
  (``sigma_sweep_reference`` in the tests: a (nodes × 2^b) bucket matrix,
  per-edge float contributions, then greedy block means);
* **sigma_descent** — :func:`~repro.core.potential.exact_by_sigma_grouped`
  on the sweep's workspace, as the solver runs it: b levels of exact
  clipped-threshold counts over the whole group, gathered from the levels
  of the sweep's count tables.

Before timing, every member's σ, σ trace, final value and root value from
the descent are asserted bit-identical to the tests' exact-integer oracle
(``sigma_descent_reference``); the σ leg is recorded, not guarded.

A third leg times :class:`~repro.core.potential.SeedSweepWorkspace`
construction, whose steps include the column dedup and the count kernel's
table fill (both sides fill the same tables):

* **workspace_reference** — the row-wise ``np.unique(axis=0)`` over the
  stacked E × (1 + 2·(2^r + 1)) key matrix that the packed key replaced;
* **workspace** — the default: one packed lexicographic int64 key per
  column and a 1-D ``np.unique``.

Before timing, both constructions are asserted to give identical unique
columns, inverse and kernel inputs (``kernel_fingerprint``); this leg is
recorded, not guarded.

A fourth leg times the count-table fill of
:class:`~repro.core.potential.SweepCountKernel` on two kernels: the r = 1
group's and an 8-bucket (interval-row) group's at b = 9 whose nodes draw
their bucket counts from 8 rows, as a clique phase's lists split alike:

* **count_table_reference** — the digit DP over every (row, d) cell that
  the doubling fill replaced (``count_table_reference`` in the tests);
* **count_table** — the default: the top-bit doubling fill
  (:func:`~repro.core.counting.count_xor_table`) keeping every level in
  the kernel's narrow dtype (the σ descent reads them), interval rows
  from four deduplicated prefix tables.

Before timing, both tables are asserted equal on each kernel; this leg is
recorded, not guarded.

A fifth leg times the s1 sweep on two real kernels, the ones a
Theorem 1.3 clique solve of ``random_regular_graph(600, 8, seed=1)``
(clique-multibit's seed-1 input) derandomizes: its largest r = 1, b = 11
group and its b = 9, 8-bucket group:

* **natural_order** — the count path the discrete-log windows replaced:
  one GF multiply and one count-table gather per (seed, column)
  (``count_rows_reference`` in the tests, seeds 0, 1, 2, … with the table
  built once), weighted by the workspace block by block;
* **log_order** — :meth:`~repro.core.potential.SeedSweepWorkspace.val1`,
  workspace build included.

Before timing, both ``val1`` matrices are asserted bit-identical on each
kernel.  The r = 1 leg is guarded at ``MIN_LOG_SPEEDUP`` (3×); the
8-bucket leg is recorded, not guarded.

Usage::

    PYTHONPATH=src python benchmarks/bench_seed_sweep.py \
        [--instances 3] [--n 400] [--deg 8] [--min-speedup 5]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

import repro.core.potential as potential
import repro.core.prefix as prefix
from repro.cliquemodel.coloring import solve_list_coloring_clique
from repro.core.derandomize import (
    derandomize_phase_group,
    fix_bits_greedily_many,
)
from repro.core.instances import make_delta_plus_one_instance
from repro.core.potential import SeedSweepWorkspace, exact_by_sigma_grouped
from repro.graphs.generators import random_regular_graph
from repro.hashing.pairwise import PairwiseFamily

HERE = os.path.dirname(__file__)
sys.path.insert(0, HERE)
from _perf_json import add_json_arg, write_perf_json  # noqa: E402

# The oracles live next to the tests that pin the engine against them.
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
from reference import (  # noqa: E402
    count_rows_reference,
    count_table_reference,
    expected_rows_reference,
    group_members,
    kernel_fingerprint,
    stack_group,
    unique_rows_reference,
)
from test_seed_sweep_compression import (  # noqa: E402
    derandomize_phase_reference,
    sigma_descent_reference,
    sigma_sweep_reference,
)

CHUNK = 512

#: The log-order sweep must beat the natural-order count path by this
#: factor on clique-multibit's r = 1, b = 11 kernel.
MIN_LOG_SPEEDUP = 3.0


def build_group(
    num_instances: int,
    n: int,
    deg: int,
    colors: int = 12,
    b: int = 10,
    seed: int = 0,
    buckets: int = 2,
    list_kinds: int = 0,
):
    """A fusion group shaped like a real Theorem 1.1 phase
    (``buckets = 2^r`` for an r-bit phase).  With ``list_kinds`` every
    node's bucket counts are one of that many rows, as in a clique phase
    whose lists split alike, so the kernel has few distinct interval rows."""
    rng = np.random.default_rng(seed)
    a = max(1, int(colors - 1).bit_length())
    family = PairwiseFamily(a, b)
    kinds = rng.integers(0, 3, size=(list_kinds, buckets)).astype(np.int64)
    members = []
    for _ in range(num_instances):
        psi = rng.integers(0, colors, size=n).astype(np.int64)
        u = rng.integers(0, n, size=n * deg)
        v = rng.integers(0, n, size=n * deg)
        keep = psi[u] != psi[v]
        if list_kinds:
            counts = kinds[rng.integers(0, list_kinds, size=n)]
        else:
            counts = rng.integers(0, 3, size=(n, buckets)).astype(np.int64)
        counts[:, 0] += 1
        members.append((psi, counts, u[keep], v[keep]))
    return stack_group(family, members)


def optimized_sweep(group) -> np.ndarray:
    """One workspace for the whole enumeration; compressed columns, swept
    in discrete-log order."""
    return SeedSweepWorkspace(group).val1(CHUNK)


def natural_order_sweep(group) -> np.ndarray:
    """The compressed sweep with the natural-order count path: per seed
    and column one GF multiply and one count-table gather, the table
    built once."""
    workspace = SeedSweepWorkspace(group)
    order = group.family.field.order
    counts = count_rows_reference(
        workspace.kernel, np.arange(order, dtype=np.int64)
    )
    val1 = np.empty((group.num_members, order), dtype=np.float64)
    for start in range(0, order, CHUNK):
        stop = min(order, start + CHUNK)
        val1[:, start:stop] = workspace.weight_rows(counts[start:stop])
    return val1


def clique_kernels() -> tuple:
    """The largest r = 1, b = 11 group and the b = 9, 8-bucket group that a
    clique solve of ``random_regular_graph(600, 8, seed=1)`` derandomizes."""
    groups = []
    derandomize = prefix.derandomize_phase_group

    def recording(group, *args, **kwargs):
        groups.append(group)
        return derandomize(group, *args, **kwargs)

    prefix.derandomize_phase_group = recording
    try:
        solve_list_coloring_clique(
            make_delta_plus_one_instance(random_regular_graph(600, 8, 1))
        )
    finally:
        prefix.derandomize_phase_group = derandomize
    r1 = max(
        (g for g in groups if g.num_buckets == 2 and g.b == 11),
        key=lambda g: g.num_edges,
    )
    interval = next(g for g in groups if g.num_buckets == 8 and g.b == 9)
    return r1, interval


def reference_sweep(group, order: int) -> np.ndarray:
    """The pre-workspace shape: re-fused from scratch every chunk."""
    val1 = np.empty((group.num_members, order), dtype=np.float64)
    for start in range(0, order, CHUNK):
        stop = min(order, start + CHUNK)
        val1[:, start:stop] = expected_rows_reference(
            group, np.arange(start, stop, dtype=np.int64)
        )
    return val1


def sigma_sweep(members: list, s1s: np.ndarray) -> np.ndarray:
    """σ by greedy block means over each member's full 2^b float sweep
    (``members`` are the group's members as groups of one)."""
    values = np.stack(
        [sigma_sweep_reference(est, s1) for est, s1 in zip(members, s1s)]
    )
    return fix_bits_greedily_many(values)[0]


def assert_descent_matches_oracle(group, s1s: np.ndarray) -> None:
    sigmas, traces, finals, roots = exact_by_sigma_grouped(
        group, s1s, SeedSweepWorkspace(group)
    )
    got = zip(sigmas, traces.tolist(), finals, roots)
    for est, s1, (sigma, trace, final, root) in zip(group_members(group), s1s, got):
        want_sigma, want_trace, want_final, want_root = sigma_descent_reference(
            est, s1
        )
        assert sigma == want_sigma, "σ choice diverged from the oracle"
        assert trace == want_trace, "σ trace diverged from the oracle"
        assert (final, root) == (want_final, want_root), (
            "σ final or root value diverged from the oracle"
        )


def reference_workspace(group) -> SeedSweepWorkspace:
    """The workspace built with the row-wise column dedup."""
    packed = potential._unique_rows
    potential._unique_rows = lambda columns: unique_rows_reference(
        np.stack(columns, axis=1)
    )[1:]
    try:
        return SeedSweepWorkspace(group)
    finally:
        potential._unique_rows = packed


def assert_workspace_matches_reference(group) -> None:
    new = SeedSweepWorkspace(group)
    ref = reference_workspace(group)
    for name in ("inverse", "uniq_psi_diff", "uniq_thr_u", "uniq_thr_v"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), (
            f"workspace {name} diverged"
        )
    assert kernel_fingerprint(new.kernel) == kernel_fingerprint(ref.kernel), (
        "kernel fingerprint diverged"
    )


def assert_tables_match_reference(kernels: list) -> None:
    for kernel in kernels:
        assert np.array_equal(
            kernel.table.reshape(-1, 1 << kernel.b), count_table_reference(kernel)
        ), "count table diverged from the digit DP"


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def assert_choices_identical(optimized, reference) -> None:
    """Two groups' :class:`SeedColumns`, column by column, bit for bit."""
    assert np.array_equal(optimized.s1, reference.s1) and np.array_equal(
        optimized.sigma, reference.sigma
    ), "seed choices diverged"
    assert optimized.trace.shape == reference.trace.shape
    assert optimized.trace.tobytes() == reference.trace.tobytes(), (
        "conditional-expectation traces diverged"
    )
    assert optimized.initial.tobytes() == reference.initial.tobytes()
    assert optimized.final.tobytes() == reference.final.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=3)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--deg", type=int, default=8)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    add_json_arg(parser, "seed_sweep")
    args = parser.parse_args()

    group = build_group(args.instances, args.n, args.deg)
    field = group.family.field
    order = 1 << group.family.m
    edges = group.num_edges
    unique = len(SeedSweepWorkspace(group).uniq_psi_diff)

    # Byte-identity of the sweep and of the full phase derandomization
    # against the pre-table / pre-compression reference path.
    val1_new = optimized_sweep(group)
    choices_new = derandomize_phase_group(group)
    field.use_tables = False
    val1_ref = reference_sweep(group, order)
    choices_ref = derandomize_phase_reference(group)
    field.use_tables = True
    assert np.array_equal(val1_new, val1_ref), "val1 sweep diverged"
    assert_choices_identical(choices_new, choices_ref)
    s1s = choices_new.s1
    assert_descent_matches_oracle(group, s1s)
    assert_workspace_matches_reference(group)
    interval_group = build_group(
        args.instances, args.n, args.deg, b=9, buckets=8, list_kinds=8
    )
    kernels = [
        SeedSweepWorkspace(each).kernel for each in (group, interval_group)
    ]
    assert_tables_match_reference(kernels)
    table_rows = [len(count_table_reference(kernel)) for kernel in kernels]
    clique = clique_kernels()
    for each in clique:
        assert (
            natural_order_sweep(each).tobytes() == optimized_sweep(each).tobytes()
        ), "log-order val1 diverged from the natural-order count path"

    t_new = best_of(lambda: optimized_sweep(group))
    field.use_tables = False
    t_ref = best_of(lambda: reference_sweep(group, order))
    field.use_tables = True
    speedup = t_ref / t_new
    members = group_members(group)
    t_sigma_ref = best_of(lambda: sigma_sweep(members, s1s))
    sweep = SeedSweepWorkspace(group)
    t_sigma = best_of(lambda: exact_by_sigma_grouped(group, s1s, sweep))
    t_ws_ref = best_of(lambda: reference_workspace(group), repeats=7)
    t_ws = best_of(lambda: SeedSweepWorkspace(group), repeats=7)
    t_table_ref = best_of(
        lambda: [count_table_reference(kernel) for kernel in kernels], repeats=7
    )
    t_table = best_of(
        lambda: [kernel._count_table() for kernel in kernels], repeats=7
    )
    t_natural, t_log = [], []
    for each in clique:
        t_natural.append(best_of(lambda: natural_order_sweep(each), repeats=7))
        t_log.append(best_of(lambda: optimized_sweep(each), repeats=7))
    log_speedups = [n / lg for n, lg in zip(t_natural, t_log)]

    print(
        f"instances={args.instances} edges={edges} unique-columns={unique} "
        f"seeds=2^{group.family.m} (byte-identical outputs)"
    )
    print(f"reference sweep (peasant GF, per-edge):    {t_ref * 1000:8.1f} ms")
    print(
        f"table/compressed sweep:                    {t_new * 1000:8.1f} ms"
        f"   ({speedup:.1f}x)"
    )
    label = f"σ full 2^{group.b} sweep + greedy:"
    print(f"{label:<43}{t_sigma_ref * 1000:8.1f} ms")
    print(
        f"{'σ descent on the sweep tables:':<43}{t_sigma * 1000:8.1f} ms"
        f"   ({t_sigma_ref / t_sigma:.1f}x, not guarded)"
    )
    print(f"{'workspace, row-wise np.unique(axis=0):':<43}{t_ws_ref * 1000:8.1f} ms")
    print(
        f"{'workspace, packed lexicographic key:':<43}{t_ws * 1000:8.1f} ms"
        f"   ({t_ws_ref / t_ws:.1f}x, not guarded)"
    )
    label = f"count tables ({' + '.join(map(str, table_rows))} rows), digit DP:"
    print(f"{label:<43}{t_table_ref * 1000:8.1f} ms")
    print(
        f"{'count tables, doubling, every level:':<43}{t_table * 1000:8.1f} ms"
        f"   ({t_table_ref / t_table:.1f}x, not guarded)"
    )
    for each, t_n, t_l, ratio, note in zip(
        clique, t_natural, t_log, log_speedups, ("guarded", "not guarded")
    ):
        label = f"clique {each.num_buckets}-bucket b={each.b} sweep, natural order:"
        print(f"{label:<43}{t_n * 1000:8.1f} ms")
        print(
            f"{'  the same, discrete-log windows:':<43}{t_l * 1000:8.1f} ms"
            f"   ({ratio:.1f}x, {note})"
        )

    guard = "ok"
    if speedup < args.min_speedup:
        guard = "fail"
        print(
            f"FAIL: sweep speedup {speedup:.1f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    else:
        print(f"OK: speedup {speedup:.1f}x >= {args.min_speedup:.1f}x")
    if log_speedups[0] < MIN_LOG_SPEEDUP:
        guard = "fail"
        print(
            f"FAIL: log-order sweep speedup {log_speedups[0]:.1f}x < "
            f"required {MIN_LOG_SPEEDUP:.1f}x",
            file=sys.stderr,
        )
    else:
        print(
            f"OK: log-order speedup {log_speedups[0]:.1f}x >= "
            f"{MIN_LOG_SPEEDUP:.1f}x"
        )

    if args.json:
        write_perf_json(
            args.json,
            "seed_sweep",
            params={
                "instances": args.instances,
                "n": args.n,
                "deg": args.deg,
                "edges": edges,
                "unique_columns": unique,
                "count_table_rows": table_rows,
                "clique_kernels": [
                    {
                        "buckets": each.num_buckets,
                        "b": each.b,
                        "m": each.family.m,
                        "edges": each.num_edges,
                    }
                    for each in clique
                ],
                "log_order_speedups": log_speedups,
                "min_log_order_speedup": MIN_LOG_SPEEDUP,
            },
            timings_seconds={
                "reference": t_ref,
                "optimized": t_new,
                "sigma_reference": t_sigma_ref,
                "sigma_descent": t_sigma,
                "workspace_reference": t_ws_ref,
                "workspace": t_ws,
                "count_table_reference": t_table_ref,
                "count_table": t_table,
                "natural_order_r1": t_natural[0],
                "log_order_r1": t_log[0],
                "natural_order_interval": t_natural[1],
                "log_order_interval": t_log[1],
            },
            speedup=speedup,
            min_speedup=args.min_speedup,
            guard=guard,
            identity="ok",  # asserted above, before any timing
        )
    return 1 if guard == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
