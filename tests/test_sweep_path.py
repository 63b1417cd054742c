"""Tests for the one seed-sweep path and the names kept around it.

Every phase counts its 2^m seed rows through
:meth:`~repro.core.potential.SweepCountKernel.count_rows` inside the
block loop of :meth:`~repro.core.potential.SeedSweepWorkspace.val1`, which
:func:`~repro.core.derandomize.derandomize_phase_group` runs with
``CHUNK_SIZE``, and nowhere else: no result is memoized between solves.
Four layers:

1. **The chunk loop** — every seed is counted exactly once per phase, in
   discrete-log order, any chunk size gives the same choices, and
   repeated or rebuilt sweeps are identical to the first.
2. **Kernel fingerprints** — the hash of a count kernel's inputs
   (:func:`~reference.kernel_fingerprint`, the layout pin of
   ``test_seed_sweep_compression``) is stable across processes and tells
   inputs apart.
3. **The inert ``repro.core.sweep_cache`` module** — kept only because the
   benchmark tracer wraps ``SweepResultCache.load`` / ``.store`` by name:
   it remembers nothing and no solve reaches it.
4. **Backends and entry points** — repeated process-backend solves
   (inline and sharded, fork and spawn) stay byte-identical to serial,
   and no solver, backend, service or CLI entry point takes a cache option.
   The pool is reached only by calling a backend, directly or through the
   service: no engine, pass or CLI command takes one.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core.derandomize as derandomize
import repro.parallel
from repro.cli import main
from repro.core.derandomize import derandomize_phase_group
from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import (
    solve_list_coloring_batch,
    solve_list_coloring_congest,
)
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.core.potential import SeedSweepWorkspace, SweepCountKernel
from repro.core.prefix import extend_prefixes_batch
from repro.core.sweep_cache import SweepResultCache
from repro.decomposition.decomposed_coloring import solve_list_coloring_polylog
from repro.graphs import generators as gen
from repro.hashing.pairwise import PairwiseFamily
from repro.mpc.coloring import solve_list_coloring_mpc
from repro.parallel import Backend, ProcessBackend, SerialBackend
from repro.serving import ColoringService

from equivalence import assert_batch_results_equal, assert_seed_columns_equal
from faults import leaked_segments, shm_segments
from reference import kernel_fingerprint
from test_seed_sweep_compression import random_group

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
SRC = Path(repro.__file__).resolve().parent


def make_sweep(seed: int = 0, buckets: int = 2, n: int = 30):
    group = random_group(3, buckets=buckets, seed=seed, n=n)
    sweep = SeedSweepWorkspace(group)
    order = 1 << group.family.m
    return group, sweep, order


def assert_choices_equal(reference, actual, label: str) -> None:
    assert len(reference.s1) == len(actual.s1)
    assert_seed_columns_equal(reference, actual, label)


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
    def test_chunk_size_does_not_move_choices(self, chunk_size, monkeypatch):
        group = random_group(3, buckets=4, seed=5)
        reference = derandomize_phase_group(group)
        monkeypatch.setattr(derandomize, "CHUNK_SIZE", chunk_size)
        chunked = derandomize_phase_group(group)
        assert_choices_equal(reference, chunked, f"chunk={chunk_size}")

    def test_chunk_loop_counts_every_seed_once(self, monkeypatch):
        """One phase hands each of its 2^m seeds to ``count_rows`` exactly
        once, in discrete-log order: s1 = 0 once, then g^i once for every
        i ∈ [0, 2^m − 1), in blocks of at most ``CHUNK_SIZE`` seeds, each
        counted in one row."""
        group = random_group(2, buckets=2, seed=6)
        field = group.family.field
        seen = []
        count_rows = SweepCountKernel.count_rows

        def recording(self, lo, hi):
            rows = count_rows(self, lo, hi)
            seen.append((self.s1_order[lo:hi].copy(), len(rows)))
            return rows

        monkeypatch.setattr(SweepCountKernel, "count_rows", recording)
        monkeypatch.setattr(derandomize, "CHUNK_SIZE", 7)
        derandomize_phase_group(group)
        assert len(seen) > 1
        assert all(1 <= len(block) <= 7 and rows == len(block) for block, rows in seen)
        s1s = np.concatenate([block for block, _ in seen])
        assert s1s[0] == 0 and (s1s == 0).sum() == 1
        powers = [field.pow(field.generator, i) for i in range(field.order - 1)]
        assert len(set(powers)) == field.order - 1
        assert s1s[1:].tolist() == powers


# ----------------------------------------------------------------------
# 2. Kernel fingerprints
# ----------------------------------------------------------------------
def kernel_inputs(kernel: SweepCountKernel) -> tuple:
    """The arguments that rebuild ``kernel``, with the family as ``(a, b)``."""
    return (
        (kernel.family.a, kernel.b),
        kernel.num_buckets,
        kernel.psi_diff,
        kernel.thr_u,
        kernel.thr_v,
    )


def rebuild_kernel(family_args, *arrays) -> SweepCountKernel:
    return SweepCountKernel(PairwiseFamily(*family_args), *arrays)


def child_fingerprint(inputs: tuple) -> str:
    """Rebuild a kernel and hash it in a worker (module-level: picklable)."""
    return kernel_fingerprint(rebuild_kernel(*inputs))


class TestFingerprintStability:
    def test_fingerprint_stable_across_processes(self):
        """spawn re-imports everything from scratch — a fingerprint that
        depended on process state (hash randomization, id(), dict order)
        would differ in the child, which rebuilds the kernel from its
        inputs."""
        _, sweep, _order = make_sweep(seed=11)
        kernel = sweep.kernel
        ctx = mp.get_context("spawn" if "spawn" in mp.get_all_start_methods()
                             else START_METHODS[0])
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            remote = pool.submit(child_fingerprint, kernel_inputs(kernel)).result()
        assert remote == kernel_fingerprint(kernel)

    def test_fingerprint_distinguishes_inputs(self):
        _, sweep_a, _ = make_sweep(seed=12)
        _, sweep_b, _ = make_sweep(seed=13)
        assert kernel_fingerprint(sweep_a.kernel) != kernel_fingerprint(sweep_b.kernel)

    def test_rebuilt_kernel_keeps_fingerprint_and_counts(self):
        _, sweep, order = make_sweep(seed=14, buckets=4)
        kernel = sweep.kernel
        clone = rebuild_kernel(*kernel_inputs(kernel))
        assert kernel_fingerprint(clone) == kernel_fingerprint(kernel)
        assert np.array_equal(clone.count_rows(0, order), kernel.count_rows(0, order))


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
        counts = sweep.kernel.count_rows(0, order)
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
                result = backend.solve_batch(batch)
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
                result = backend.solve_batch(batch)
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
        assert "--family" in out.getvalue()
        assert "cache" not in out.getvalue().lower()


class TestNoPoolRoutes:
    """The process pool is reached only by calling a backend, directly or
    through the service: no engine, Lemma 2.1 pass, resolver or CLI flag
    leads to it."""

    @pytest.mark.parametrize(
        "entry",
        [
            solve_list_coloring_congest,
            solve_list_coloring_batch,
            partial_coloring_pass_batch,
            solve_list_coloring_polylog,
            solve_list_coloring_mpc,
        ],
        ids=lambda entry: entry.__name__,
    )
    def test_engine_takes_no_backend(self, entry):
        assert "backend" not in inspect.signature(entry).parameters

    @pytest.mark.parametrize("cls", [Backend, SerialBackend, ProcessBackend])
    def test_backend_has_no_partial_pass(self, cls):
        assert not hasattr(cls, "partial_pass_batch")

    def test_service_takes_a_backend_instance_only(self):
        assert "workers" not in inspect.signature(ColoringService).parameters
        assert isinstance(ColoringService()._backend, SerialBackend)
        for spec in ("serial", "process"):
            with pytest.raises(TypeError):
                ColoringService(spec)

    @pytest.mark.parametrize("module", [repro, repro.parallel], ids=lambda m: m.__name__)
    def test_no_resolver_exports(self, module):
        assert {"resolve_backend", "backend_scope"} & set(module.__all__) == set()

    def test_no_src_name_for_a_removed_route(self):
        removed = {
            "partial_pass_batch",
            "partial_pass_shard",
            "replay_ledger",
            "backend_scope",
            "resolve_backend",
        }
        found = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                name = getattr(node, "name", None) or getattr(node, "id", None)
                if isinstance(node, ast.Attribute):
                    name = node.attr
                if name in removed:
                    found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
        assert found == []

    @pytest.mark.parametrize("command", ["color", "compare"])
    def test_cli_offers_no_pool_flag(self, command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main([command, "--help"])
        for flag in ("--backend", "--workers", "--dispatch-retries"):
            assert flag not in out.getvalue()

    def test_dispatch_record_keys(self):
        with ProcessBackend(workers=1) as backend:
            backend.solve_batch(homogeneous_batch(copies=2, n=12))
        assert set(backend.telemetry[-1]) == {
            "mode",
            "requested_shards",
            "effective_shards",
            "wall_seconds",
            "faults",
        }
