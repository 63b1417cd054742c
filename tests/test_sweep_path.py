"""Tests for the one seed-sweep path and the names kept around it.

Every phase counts its 2^m seed rows through
:meth:`~repro.core.potential.SeedSweepWorkspace.expected_rows` inside the
chunk loop of :func:`~repro.core.derandomize.derandomize_phase_group`, and
nowhere else: no result is memoized between solves.  Four layers:

1. **The chunk loop** — every seed is counted exactly once per phase, any
   chunk size gives the same choices, and repeated or rebuilt sweeps are
   identical to the first.
2. **Kernel fingerprints** — still computed and pickled (the layout pin of
   ``test_seed_sweep_compression`` uses them), stable across processes.
3. **The inert ``repro.core.sweep_cache`` module** — kept only because the
   benchmark tracer wraps ``SweepResultCache.load`` / ``.store`` by name:
   it remembers nothing and no solve reaches it.
4. **Backends and entry points** — repeated process-backend solves
   (inline and sharded, fork and spawn) stay byte-identical to serial,
   and no solver, backend, service or CLI entry point takes a cache option.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import multiprocessing as mp
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.derandomize import derandomize_phase_group
from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import solve_list_coloring_batch
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.core.potential import SeedSweepWorkspace, SweepCountKernel
from repro.core.prefix import extend_prefixes_batch
from repro.core.sweep_cache import SweepResultCache
from repro.graphs import generators as gen
from repro.parallel import ProcessBackend, resolve_backend
from repro.serving import ColoringService

from equivalence import assert_batch_results_equal, assert_seed_choices_equal
from faults import leaked_segments, shm_segments
from test_seed_sweep_compression import random_group

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
SRC = Path(repro.__file__).resolve().parent


def make_sweep(seed: int = 0, buckets: int = 2, n: int = 30):
    group = random_group(3, buckets=buckets, seed=seed, n=n)
    sweep = SeedSweepWorkspace(group)
    order = 1 << group[0].family.m
    return group, sweep, order


def assert_choices_equal(reference, actual, label: str) -> None:
    assert len(reference) == len(actual)
    for i, (ref, got) in enumerate(zip(reference, actual)):
        assert_seed_choices_equal(ref, got, f"{label}[{i}]")


# ----------------------------------------------------------------------
# 1. The chunk loop
# ----------------------------------------------------------------------
class TestOneSweepPath:
    @pytest.mark.parametrize("buckets", [2, 4])
    def test_repeat_equals_fresh(self, buckets):
        """Sweeping the same group again, or a rebuilt copy of it, gives the
        first sweep's choices: nothing carries over between sweeps."""
        group = random_group(3, buckets=buckets, seed=2)
        reference = derandomize_phase_group(group)
        again = derandomize_phase_group(group)
        rebuilt = derandomize_phase_group(random_group(3, buckets=buckets, seed=2))
        assert_choices_equal(reference, again, "again")
        assert_choices_equal(reference, rebuilt, "rebuilt")

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1 << 20])
    def test_chunk_size_does_not_move_choices(self, chunk_size):
        group = random_group(3, buckets=4, seed=5)
        reference = derandomize_phase_group(group)
        chunked = derandomize_phase_group(group, chunk_size=chunk_size)
        assert_choices_equal(reference, chunked, f"chunk={chunk_size}")

    def test_chunk_loop_counts_every_seed_once(self, monkeypatch):
        """One phase hands each of its 2^m seeds to ``expected_rows``
        exactly once, in ascending chunks of at most ``chunk_size``."""
        group = random_group(2, buckets=2, seed=6)
        order = 1 << group[0].family.m
        seen = []
        expected_rows = SeedSweepWorkspace.expected_rows

        def recording(self, s1_candidates, out=None):
            seen.append(np.array(s1_candidates, copy=True))
            return expected_rows(self, s1_candidates, out=out)

        monkeypatch.setattr(SeedSweepWorkspace, "expected_rows", recording)
        derandomize_phase_group(group, chunk_size=7)
        assert all(1 <= len(chunk) <= 7 for chunk in seen)
        assert np.array_equal(np.concatenate(seen), np.arange(order))


# ----------------------------------------------------------------------
# 2. Kernel fingerprints
# ----------------------------------------------------------------------
def child_fingerprint(kernel: SweepCountKernel) -> str:
    """Recompute the fingerprint in a worker (module-level: picklable)."""
    rebuilt = SweepCountKernel(
        kernel.a,
        kernel.b,
        kernel.num_buckets,
        kernel.psi_diff,
        kernel.thr_u,
        kernel.thr_v,
    )
    return rebuilt.fingerprint


class TestFingerprintStability:
    def test_fingerprint_stable_across_processes(self):
        """spawn re-imports everything from scratch — a fingerprint that
        depended on process state (hash randomization, id(), dict order)
        would differ in the child."""
        _, sweep, _order = make_sweep(seed=11)
        kernel = sweep.kernel
        ctx = mp.get_context("spawn" if "spawn" in mp.get_all_start_methods()
                             else START_METHODS[0])
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            remote = pool.submit(child_fingerprint, kernel).result()
        assert remote == kernel.fingerprint

    def test_fingerprint_distinguishes_inputs(self):
        _, sweep_a, _ = make_sweep(seed=12)
        _, sweep_b, _ = make_sweep(seed=13)
        assert sweep_a.kernel.fingerprint != sweep_b.kernel.fingerprint

    def test_pickled_kernel_keeps_fingerprint_and_counts(self):
        _, sweep, order = make_sweep(seed=14, buckets=4)
        kernel = sweep.kernel
        seeds = np.arange(order, dtype=np.int64)
        counts = kernel.count_rows(seeds).copy()
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.fingerprint == kernel.fingerprint
        assert np.array_equal(clone.count_rows(seeds), counts)


# ----------------------------------------------------------------------
# 3. The inert sweep_cache module
# ----------------------------------------------------------------------
class TestInertCacheModule:
    def test_load_returns_none(self):
        _, sweep, order = make_sweep()
        assert SweepResultCache().load(sweep.kernel, order) is None

    def test_store_remembers_nothing(self):
        _, sweep, order = make_sweep()
        stub = SweepResultCache()
        counts = sweep.kernel.count_rows(np.arange(order, dtype=np.int64))
        assert stub.store(sweep.kernel, counts) is None
        assert stub.load(sweep.kernel, order) is None
        assert vars(stub) == {}

    def test_tracer_targets_are_plain_methods(self):
        """The benchmark tracer rebinds these two class attributes."""
        for name in ("load", "store"):
            assert inspect.isfunction(SweepResultCache.__dict__[name])

    def test_no_src_module_imports_it(self):
        importers = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(name.split(".")[-1] == "sweep_cache" for name in names):
                    importers.append(str(path.relative_to(SRC)))
        assert importers == []

    def test_solves_never_reach_it(self, monkeypatch):
        def unreachable(*_args, **_kwargs):
            raise AssertionError("a solve reached the inert cache module")

        monkeypatch.setattr(SweepResultCache, "load", unreachable)
        monkeypatch.setattr(SweepResultCache, "store", unreachable)
        batch = homogeneous_batch(copies=2, n=30)
        first = solve_list_coloring_batch(batch)
        assert_batch_results_equal(first, solve_list_coloring_batch(batch))


# ----------------------------------------------------------------------
# 4. Backends and entry points
# ----------------------------------------------------------------------
def homogeneous_batch(copies: int = 4, n: int = 40) -> BatchedListColoringInstance:
    """All instances share one fusion signature → one shard (inline)."""
    instances = [
        make_delta_plus_one_instance(gen.gnp_graph(n, 0.2, seed=7))
        for _ in range(copies)
    ]
    return BatchedListColoringInstance.from_instances(instances)


def distinct_batch(copies: int = 4, n: int = 30) -> BatchedListColoringInstance:
    instances = [
        make_delta_plus_one_instance(gen.gnp_graph(n, 0.2, seed=s))
        for s in range(copies)
    ]
    return BatchedListColoringInstance.from_instances(instances)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestRepeatedBackendSolves:
    def test_repeat_inline_solves_identical(self, start_method):
        before = shm_segments()
        batch = homogeneous_batch()
        serial = solve_list_coloring_batch(batch)
        with ProcessBackend(
            workers=WORKERS, start_method=start_method
        ) as backend:
            for _ in range(2):
                result = solve_list_coloring_batch(batch, backend=backend)
                assert_batch_results_equal(serial, result)
        assert isinstance(backend.telemetry, list)
        assert len(backend.telemetry) == 2
        for record in backend.telemetry:
            assert record["mode"] == "instance"
            assert "cache" not in record
        assert not leaked_segments(before)

    def test_repeat_sharded_solves_identical(self, start_method):
        before = shm_segments()
        batch = distinct_batch()
        serial = solve_list_coloring_batch(batch)
        with ProcessBackend(
            workers=WORKERS,
            start_method=start_method,
            keep_fusion_runs=False,
        ) as backend:
            for _ in range(2):
                result = solve_list_coloring_batch(batch, backend=backend)
                assert_batch_results_equal(serial, result)
        assert all("cache" not in record for record in backend.telemetry)
        assert not leaked_segments(before)


class TestNoCacheOptions:
    @pytest.mark.parametrize(
        "entry",
        [
            derandomize_phase_group,
            extend_prefixes_batch,
            partial_coloring_pass_batch,
            ProcessBackend,
            resolve_backend,
        ],
        ids=lambda entry: entry.__name__,
    )
    def test_no_sweep_cache_parameter(self, entry):
        assert "sweep_cache" not in inspect.signature(entry).parameters

    def test_service_takes_no_cache_option(self):
        params = inspect.signature(ColoringService).parameters
        assert [name for name in params if "cache" in name] == []

    def test_no_cache_exports(self):
        assert [name for name in repro.__all__ if "cache" in name.lower()] == []
        assert not hasattr(repro, "SweepResultCache")

    @pytest.mark.parametrize("command", ["color", "compare", "decompose"])
    def test_cli_offers_no_cache_flag(self, command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert "--backend" in out.getvalue() or command == "decompose"
        assert "cache" not in out.getvalue().lower()
