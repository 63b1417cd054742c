"""Micro-benchmarks of the computational kernels (timed properly).

These use pytest-benchmark's statistics (many iterations) since the
kernels are fast: the tests' counting DP oracle, the count-table fill,
GF(2^m) vector multiplication, the phase estimator, and one full derandomized phase.  They guard against
performance regressions in the derandomization hot path.
"""

import os
import sys

import numpy as np
import pytest

from repro.core.counting import count_xor_table
from repro.core.derandomize import CHUNK_SIZE, derandomize_phase_group
from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    exact_by_sigma_grouped,
)
from repro.hashing.gf2 import GF2m, get_field
from repro.hashing.pairwise import PairwiseFamily

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from reference import (  # noqa: E402
    count_xor_below,
    expected_rows_reference,
    stack_group,
)


@pytest.fixture(scope="module")
def estimator():
    rng = np.random.default_rng(0)
    n = 128
    psi = np.arange(n, dtype=np.int64)
    counts = rng.integers(1, 5, size=(n, 2)).astype(np.int64)
    eu, ev = [], []
    for u in range(n):
        for v in range(u + 1, min(u + 5, n)):
            eu.append(u)
            ev.append(v)
    family = PairwiseFamily(8, 9)
    return PhaseEstimator(
        family, psi, counts,
        np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64),
    )


def test_kernel_counting_dp(benchmark):
    b = 12
    rng = np.random.default_rng(1)
    d = rng.integers(0, 1 << b, size=100_000).astype(np.int64)
    t1 = rng.integers(0, (1 << b) + 1, size=100_000).astype(np.int64)
    t2 = rng.integers(0, (1 << b) + 1, size=100_000).astype(np.int64)
    result = benchmark(count_xor_below, d, t1, t2, b)
    assert (result >= 0).all()


def test_kernel_count_table(benchmark):
    # The top-bit doubling fill of the seed sweep's count table, every
    # level kept: 64 threshold rows; the full width, d in [0, 2^12), equals
    # the digit DP.
    b = 12
    rng = np.random.default_rng(1)
    t1 = rng.integers(0, (1 << b) + 1, size=64).astype(np.int64)
    t2 = rng.integers(0, (1 << b) + 1, size=64).astype(np.int64)
    table = benchmark(count_xor_table, t1, t2, b)
    d = np.arange(1 << b, dtype=np.int64)[None, :]
    assert np.array_equal(
        table[b], count_xor_below(d, t1[:, None], t2[:, None], b)
    )


def test_kernel_gf2_mul_vec(benchmark):
    # Default dispatch: the log/antilog table kernel at m = 16.
    field = get_field(16)
    rng = np.random.default_rng(2)
    a = rng.integers(0, field.order, size=50_000).astype(np.int64)
    b = rng.integers(0, field.order, size=50_000).astype(np.int64)
    out = benchmark(field.mul_vec, a, b)
    assert out.shape == a.shape


def test_kernel_gf2_mul_vec_peasant(benchmark):
    # Reference shift-and-add kernel on the same operands, for the
    # table-vs-peasant comparison in the benchmark report.
    field = GF2m(16, use_tables=False)
    rng = np.random.default_rng(2)
    a = rng.integers(0, field.order, size=50_000).astype(np.int64)
    b = rng.integers(0, field.order, size=50_000).astype(np.int64)
    out = benchmark(field.mul_vec, a, b)
    assert np.array_equal(out, get_field(16).mul_vec(a, b))


@pytest.fixture(scope="module")
def sweep_group():
    rng = np.random.default_rng(3)
    n, colors = 200, 10
    family = PairwiseFamily(4, 8)
    members = []
    for _ in range(3):
        psi = rng.integers(0, colors, size=n).astype(np.int64)
        u = rng.integers(0, n, size=n * 6)
        v = rng.integers(0, n, size=n * 6)
        keep = psi[u] != psi[v]
        counts = rng.integers(0, 3, size=(n, 2)).astype(np.int64)
        counts[:, 0] += 1
        members.append((psi, counts, u[keep], v[keep]))
    return stack_group(family, members)


def test_kernel_sweep_compressed(benchmark, sweep_group):
    # The log-order sweep over every s1, on one reused workspace.
    workspace = SeedSweepWorkspace(sweep_group)
    rows = benchmark(workspace.val1, CHUNK_SIZE)
    assert rows.shape == (sweep_group.num_members, sweep_group.family.field.order)


def test_kernel_sweep_uncompressed(benchmark, sweep_group):
    # The tests' natural-order per-edge sweep oracle (no column dedup);
    # must match the log-order rows exactly.
    candidates = np.arange(sweep_group.family.field.order, dtype=np.int64)
    rows = benchmark(expected_rows_reference, sweep_group, candidates)
    assert np.array_equal(rows, SeedSweepWorkspace(sweep_group).val1(CHUNK_SIZE))


def test_kernel_expected_by_s1(benchmark, estimator):
    # One-shot: the workspace build is part of the timed call.
    values = benchmark(lambda: SeedSweepWorkspace(estimator).val1(CHUNK_SIZE))
    assert values.shape == (1, estimator.family.field.order)


def test_kernel_sigma_descent(benchmark, estimator):
    (sigma,), (trace,), (final,), (root,) = benchmark(
        exact_by_sigma_grouped, estimator, [37]
    )
    assert 0 <= sigma < 1 << estimator.b
    assert len(trace) == estimator.b
    assert final <= root + 1e-9


def test_kernel_full_phase_derandomization(benchmark, estimator):
    chosen = benchmark.pedantic(
        lambda: derandomize_phase_group(estimator), rounds=3, iterations=1
    )
    assert chosen.trace.shape == (1, estimator.family.m + estimator.b)
    assert chosen.final[0] <= chosen.initial[0] + 1e-9
