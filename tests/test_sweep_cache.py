"""Tests for the fingerprint-keyed sweep-result cache.

Four layers, mirroring the subsystem's structure:

1. **Cache unit behavior** — bitwise store/load round-trips, LRU
   eviction under a tiny byte budget, read-only entries, admission.
2. **Derandomize integration** — cold, warm, and uncached grouped
   sweeps produce identical SeedChoices; the ambient scope and a refused
   admission behave.
3. **Disk tier** — persistence across cache instances, atomicity of the
   entry files, and corrupted / truncated / mismatched entries falling
   back to recompute (plus repair-by-overwrite).
4. **Process backend** — cache-aware solves under fork and spawn are
   byte-identical to serial, telemetry carries per-dispatch cache
   deltas, pool workers never touch the coordinator's cache, and the
   kernel fingerprint is stable across process boundaries.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.derandomize import (
    current_sweep_cache,
    derandomize_phase_group,
    sweep_cache_scope,
)
from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import solve_list_coloring_batch
from repro.core.potential import SeedSweepWorkspace, SweepCountKernel
from repro.core.sweep_cache import SweepResultCache
from repro.graphs import generators as gen
from repro.parallel import ProcessBackend

from equivalence import assert_batch_results_equal, assert_seed_choices_equal
from faults import leaked_segments, shm_segments
from test_seed_sweep_compression import random_group

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


def make_sweep(seed: int = 0, buckets: int = 2, n: int = 30):
    group = random_group(3, buckets=buckets, seed=seed, n=n)
    sweep = SeedSweepWorkspace(group)
    order = 1 << group[0].family.m
    return group, sweep, order


def full_counts(sweep, order: int) -> np.ndarray:
    return sweep.kernel.count_rows(np.arange(order, dtype=np.int64))


# ----------------------------------------------------------------------
# 1. Cache unit behavior
# ----------------------------------------------------------------------
class TestCacheUnit:
    def test_store_load_roundtrip_bitwise(self):
        _, sweep, order = make_sweep()
        counts = full_counts(sweep, order)
        reference = counts.copy()
        cache = SweepResultCache()
        assert cache.load(sweep.kernel, order) is None
        cache.store(sweep.kernel, counts)
        loaded = cache.load(sweep.kernel, order)
        assert loaded is not None
        assert np.array_equal(loaded, reference)
        assert loaded.dtype == np.int64
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["entries"] == 1
        assert stats["memory_bytes"] == reference.nbytes

    def test_entries_are_read_only(self):
        _, sweep, order = make_sweep()
        cache = SweepResultCache()
        cache.store(sweep.kernel, full_counts(sweep, order))
        loaded = cache.load(sweep.kernel, order)
        with pytest.raises(ValueError):
            loaded[0, 0] = 1

    def test_distinct_fingerprints_are_distinct_entries(self):
        cache = SweepResultCache()
        sweeps = []
        for seed in range(3):
            _, sweep, order = make_sweep(seed=seed)
            cache.store(sweep.kernel, full_counts(sweep, order))
            sweeps.append((sweep, order))
        assert cache.stats()["entries"] == 3
        for sweep, order in sweeps:
            loaded = cache.load(sweep.kernel, order)
            assert np.array_equal(loaded, full_counts(sweep, order))

    def test_lru_eviction_under_tiny_budget(self):
        """A budget of ~two entries keeps the two most recently used."""
        entries = []
        for seed in range(3):
            _, sweep, order = make_sweep(seed=seed)
            entries.append((sweep, order, full_counts(sweep, order)))
        nbytes = entries[0][2].nbytes
        cache = SweepResultCache(max_bytes=2 * nbytes + nbytes // 2)
        for sweep, order, counts in entries:
            cache.store(sweep.kernel, counts)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["memory_bytes"] <= cache.max_bytes
        # Oldest (seed 0) was evicted; the two newer ones survive.
        assert cache.load(entries[0][0].kernel, entries[0][1]) is None
        assert cache.load(entries[1][0].kernel, entries[1][1]) is not None
        assert cache.load(entries[2][0].kernel, entries[2][1]) is not None

    def test_lru_order_follows_hits(self):
        entries = []
        for seed in range(3):
            _, sweep, order = make_sweep(seed=seed)
            entries.append((sweep, order, full_counts(sweep, order)))
        nbytes = entries[0][2].nbytes
        cache = SweepResultCache(max_bytes=2 * nbytes + nbytes // 2)
        cache.store(entries[0][0].kernel, entries[0][2])
        cache.store(entries[1][0].kernel, entries[1][2])
        # Touch entry 0 so entry 1 becomes least recently used.
        assert cache.load(entries[0][0].kernel, entries[0][1]) is not None
        cache.store(entries[2][0].kernel, entries[2][2])
        assert cache.load(entries[1][0].kernel, entries[1][1]) is None
        assert cache.load(entries[0][0].kernel, entries[0][1]) is not None

    def test_oversized_entry_skips_memory_tier(self, tmp_path):
        _, sweep, order = make_sweep()
        counts = full_counts(sweep, order)
        memory_only = SweepResultCache(max_bytes=counts.nbytes - 1)
        assert not memory_only.admits(counts.nbytes)
        with_disk = SweepResultCache(
            max_bytes=counts.nbytes - 1, directory=tmp_path
        )
        assert with_disk.admits(counts.nbytes)
        with_disk.store(sweep.kernel, counts)
        assert with_disk.stats()["entries"] == 0  # too big for memory
        assert with_disk.stats()["evictions"] == 0
        loaded = with_disk.load(sweep.kernel, order)  # served from disk
        assert np.array_equal(loaded, counts)
        assert with_disk.stats()["disk_hits"] == 1


# ----------------------------------------------------------------------
# 2. Derandomize integration
# ----------------------------------------------------------------------
class TestDerandomizeWithCache:
    @pytest.mark.parametrize("buckets", [2, 4])
    def test_warm_equals_cold_equals_uncached(self, buckets):
        group = random_group(3, buckets=buckets, seed=2)
        reference = derandomize_phase_group(group)
        cache = SweepResultCache()
        cold = derandomize_phase_group(group, sweep_cache=cache)
        warm = derandomize_phase_group(group, sweep_cache=cache)
        stats = cache.stats()
        assert stats["stores"] == 1 and stats["hits"] == 1
        for label, actual in (("cold", cold), ("warm", warm)):
            for i, (ref, got) in enumerate(zip(reference, actual)):
                assert_seed_choices_equal(ref, got, f"{label}[{i}]")

    def test_ambient_scope(self):
        group = random_group(2, seed=3)
        cache = SweepResultCache()
        assert current_sweep_cache() is None
        with sweep_cache_scope(cache):
            assert current_sweep_cache() is cache
            derandomize_phase_group(group)
            with sweep_cache_scope(None):  # nested shield
                assert current_sweep_cache() is None
                derandomize_phase_group(group)
        assert current_sweep_cache() is None
        # One store from the scoped call, nothing from the shielded one.
        assert cache.stats()["stores"] == 1
        assert cache.stats()["hits"] == 0

    def test_rejected_admission_falls_back_to_streaming(self):
        group = random_group(2, seed=4)
        reference = derandomize_phase_group(group)
        cache = SweepResultCache(max_bytes=0)  # admits nothing
        choices = derandomize_phase_group(group, sweep_cache=cache)
        assert cache.stats()["stores"] == 0
        assert cache.stats()["misses"] == 1
        for i, (ref, got) in enumerate(zip(reference, choices)):
            assert_seed_choices_equal(ref, got, f"streamed[{i}]")


    def test_miss_stores_the_serial_count_matrix(self):
        """A miss counts the whole seed range serially, in chunks, and
        stores exactly the matrix one ``count_rows`` call over it gives."""
        group, sweep, order = make_sweep(seed=5, buckets=4)
        cache = SweepResultCache()
        derandomize_phase_group(group, sweep_cache=cache, chunk_size=7)
        assert cache.stats()["stores"] == 1
        stored = cache.load(sweep.kernel, order)
        assert stored is not None
        assert np.array_equal(stored, full_counts(sweep, order))

    def test_hit_skips_counting(self, monkeypatch):
        group = random_group(3, buckets=2, seed=6)
        reference = derandomize_phase_group(group)
        cache = SweepResultCache()
        derandomize_phase_group(group, sweep_cache=cache)

        def no_counting(self, s1_values, out=None):
            raise AssertionError("a cache hit must not recount")

        monkeypatch.setattr(SweepCountKernel, "count_rows", no_counting)
        warm = derandomize_phase_group(group, sweep_cache=cache)
        assert cache.stats()["hits"] == 1
        for i, (ref, got) in enumerate(zip(reference, warm)):
            assert_seed_choices_equal(ref, got, f"warm[{i}]")

# ----------------------------------------------------------------------
# 3. Disk tier
# ----------------------------------------------------------------------
class TestDiskTier:
    def test_roundtrip_across_cache_instances(self, tmp_path):
        _, sweep, order = make_sweep(seed=8)
        counts = full_counts(sweep, order)
        writer = SweepResultCache(directory=tmp_path)
        writer.store(sweep.kernel, counts)
        assert writer.stats()["disk_stores"] == 1
        # A fresh cache (fresh process, conceptually) hits via disk.
        reader = SweepResultCache(directory=tmp_path)
        loaded = reader.load(sweep.kernel, order)
        assert np.array_equal(loaded, counts)
        stats = reader.stats()
        assert stats["disk_hits"] == 1 and stats["hits"] == 1
        # The disk hit was promoted into the memory tier.
        assert stats["entries"] == 1
        reader.load(sweep.kernel, order)
        assert reader.stats()["disk_hits"] == 1  # second hit from memory

    def test_entry_files_are_fingerprint_named(self, tmp_path):
        _, sweep, order = make_sweep(seed=8)
        cache = SweepResultCache(directory=tmp_path)
        cache.store(sweep.kernel, full_counts(sweep, order))
        path = tmp_path / (sweep.kernel.fingerprint + ".npy")
        assert path.exists()
        # No leftover temp files from the atomic write.
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncated", "empty", "wrong_shape", "wrong_dtype"],
    )
    def test_corrupt_entries_fall_back_to_recompute(self, tmp_path, corruption):
        _, sweep, order = make_sweep(seed=9)
        counts = full_counts(sweep, order)
        seeder = SweepResultCache(directory=tmp_path)
        seeder.store(sweep.kernel, counts)
        path = tmp_path / (sweep.kernel.fingerprint + ".npy")
        if corruption == "garbage":
            path.write_bytes(b"this is not a npy file")
        elif corruption == "truncated":
            good = path.read_bytes()
            path.write_bytes(good[: len(good) // 2])
        elif corruption == "empty":
            path.write_bytes(b"")
        elif corruption == "wrong_shape":
            np.save(path, counts[: order // 2])
        elif corruption == "wrong_dtype":
            np.save(path, counts.astype(np.float64))

        cache = SweepResultCache(directory=tmp_path)
        assert cache.load(sweep.kernel, order) is None
        stats = cache.stats()
        assert stats["disk_errors"] == 1 and stats["misses"] == 1
        assert not path.exists()  # the bad entry was dropped...
        cache.store(sweep.kernel, counts)  # ...and the recompute repairs it
        fresh = SweepResultCache(directory=tmp_path)
        assert np.array_equal(fresh.load(sweep.kernel, order), counts)

    def test_corrupt_entry_heals_through_derandomize(self, tmp_path):
        group = random_group(2, seed=10)
        reference = derandomize_phase_group(group)
        seed_cache = SweepResultCache(directory=tmp_path)
        derandomize_phase_group(group, sweep_cache=seed_cache)
        entries = list(tmp_path.glob("*.npy"))
        assert len(entries) == 1
        entries[0].write_bytes(b"corrupt")
        cache = SweepResultCache(directory=tmp_path)
        choices = derandomize_phase_group(group, sweep_cache=cache)
        assert cache.stats()["disk_errors"] == 1
        assert cache.stats()["stores"] == 1  # recomputed and rewritten
        for i, (ref, got) in enumerate(zip(reference, choices)):
            assert_seed_choices_equal(ref, got, f"healed[{i}]")
        # The rewritten entry is valid again.
        fresh = SweepResultCache(directory=tmp_path)
        warm = derandomize_phase_group(group, sweep_cache=fresh)
        assert fresh.stats()["disk_hits"] == 1
        for i, (ref, got) in enumerate(zip(reference, warm)):
            assert_seed_choices_equal(ref, got, f"rewarm[{i}]")


class TestDiskBudget:
    """The ``disk_max_bytes`` budget: oldest-mtime pruning on store."""

    @staticmethod
    def seeded_entries(count: int):
        entries = []
        for seed in range(count):
            _, sweep, order = make_sweep(seed=seed)
            entries.append((sweep, order, full_counts(sweep, order)))
        return entries

    def test_prunes_oldest_mtime_first(self, tmp_path):
        entries = self.seeded_entries(3)
        probe = SweepResultCache(directory=tmp_path)
        probe.store(entries[0][0].kernel, entries[0][2])
        (entry_file,) = tmp_path.glob("*.npy")
        nbytes = entry_file.stat().st_size
        entry_file.unlink()
        # Budget fits two entry files; storing three must evict exactly
        # the oldest one.  mtimes are pinned so ordering never depends on
        # filesystem timestamp granularity.
        cache = SweepResultCache(
            directory=tmp_path, disk_max_bytes=2 * nbytes + nbytes // 2
        )
        for age, (sweep, order, counts) in enumerate(entries):
            cache.store(sweep.kernel, counts)
            path = tmp_path / (sweep.kernel.fingerprint + ".npy")
            os.utime(path, (1000.0 + age, 1000.0 + age))
        assert cache.stats()["disk_evictions"] == 1
        # Oldest mtime (seed 0) pruned; newer two survive on disk.
        survivors = SweepResultCache(max_bytes=0, directory=tmp_path)
        assert survivors.load(entries[0][0].kernel, entries[0][1]) is None
        assert survivors.load(entries[1][0].kernel, entries[1][1]) is not None
        assert survivors.load(entries[2][0].kernel, entries[2][1]) is not None

    def test_zero_budget_keeps_nothing_but_still_serves_memory(self, tmp_path):
        _, sweep, order = make_sweep()
        counts = full_counts(sweep, order)
        cache = SweepResultCache(directory=tmp_path, disk_max_bytes=0)
        cache.store(sweep.kernel, counts)
        assert list(tmp_path.glob("*.npy")) == []
        assert cache.stats()["disk_evictions"] == 1
        # The memory tier is untouched by disk pruning.
        assert np.array_equal(cache.load(sweep.kernel, order), counts)
        assert cache.stats()["hits"] == 1

    def test_unbounded_default_never_evicts(self, tmp_path):
        entries = self.seeded_entries(3)
        cache = SweepResultCache(directory=tmp_path)
        for sweep, order, counts in entries:
            cache.store(sweep.kernel, counts)
        assert cache.stats()["disk_evictions"] == 0
        assert len(list(tmp_path.glob("*.npy"))) == 3

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="disk_max_bytes"):
            SweepResultCache(directory=tmp_path, disk_max_bytes=-1)

    def test_just_stored_entry_survives_mtime_ties(self, tmp_path):
        """Coarse-mtime filesystems can stamp a just-stored entry no newer
        than (or even older than) existing entries; pruning must never
        evict the entry it just wrote while older ones remain — but it
        stays prunable as the last resort, alone over the whole budget."""
        entries = self.seeded_entries(3)
        cache = SweepResultCache(directory=tmp_path)
        names = []
        for sweep, order, counts in entries:
            cache.store(sweep.kernel, counts)
            names.append(sweep.kernel.fingerprint + ".npy")
        # Worst case of an mtime tie-break: the newest entry carries the
        # OLDEST timestamp — pure mtime pruning would evict it first.
        for name, mtime in zip(names, (1002.0, 1001.0, 1000.0)):
            os.utime(tmp_path / name, (mtime, mtime))
        size = (tmp_path / names[2]).stat().st_size
        cache.disk_max_bytes = 2 * size + size // 2  # fits two entries
        cache._prune_disk(exclude=names[2])
        survivors = {path.name for path in tmp_path.glob("*.npy")}
        assert names[2] in survivors, "pruned the entry it just stored"
        assert len(survivors) == 2
        assert cache.stats()["disk_evictions"] == 1
        # Last resort: alone it exceeds the budget, so it goes too.
        cache.disk_max_bytes = size - 1
        cache._prune_disk(exclude=names[2])
        assert list(tmp_path.glob("*.npy")) == []

    def test_pruned_entry_recomputes_and_rewrites(self, tmp_path):
        """A pruned entry is only a future disk miss: the next uncached
        solve recomputes, rewrites, and stays byte-identical."""
        group = random_group(2, seed=12)
        reference = derandomize_phase_group(group)
        seeder = SweepResultCache(max_bytes=0, directory=tmp_path)
        derandomize_phase_group(group, sweep_cache=seeder)
        (entry_file,) = tmp_path.glob("*.npy")
        budget = entry_file.stat().st_size - 1  # too small: prune on store
        entry_file.unlink()
        tight = SweepResultCache(
            max_bytes=0, directory=tmp_path, disk_max_bytes=budget
        )
        warm = derandomize_phase_group(group, sweep_cache=tight)
        assert tight.stats()["disk_evictions"] >= 1
        assert list(tmp_path.glob("*.npy")) == []
        for i, (ref, got) in enumerate(zip(reference, warm)):
            assert_seed_choices_equal(ref, got, f"pruned[{i}]")


# ----------------------------------------------------------------------
# 4. Fingerprints across processes + the cache-aware backend
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
        would break disk-tier sharing between processes."""
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


def homogeneous_batch(copies: int = 4, n: int = 40) -> BatchedListColoringInstance:
    """All instances share one fusion signature → one shard (inline)."""
    instances = [
        make_delta_plus_one_instance(gen.gnp_graph(n, 0.2, seed=7))
        for _ in range(copies)
    ]
    return BatchedListColoringInstance.from_instances(instances)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestBackendCacheAware:
    def test_warm_solves_identical_and_telemetry(self, start_method):
        before = shm_segments()
        batch = homogeneous_batch()
        serial = solve_list_coloring_batch(batch)
        cache = SweepResultCache()
        with ProcessBackend(
            workers=WORKERS,
            start_method=start_method,
            sweep_cache=cache,
        ) as backend:
            cold = solve_list_coloring_batch(batch, backend=backend)
            assert_batch_results_equal(serial, cold)
            cold_record = backend.telemetry[-1]
            assert cold_record["cache"]["stores"] > 0
            assert cold_record["cache"]["hits"] == 0

            warm = solve_list_coloring_batch(batch, backend=backend)
            assert_batch_results_equal(serial, warm)
            warm_record = backend.telemetry[-1]
            assert warm_record["cache"]["hits"] > 0
            assert warm_record["cache"]["stores"] == 0
            assert warm_record["cache"]["misses"] == 0
        assert not leaked_segments(before)

    def test_ambient_cache_reaches_inline_modes(self, start_method):
        """A caller-scoped cache (no backend kwarg) is still consulted by
        the backend's inline single-shard dispatch."""
        before = shm_segments()
        batch = homogeneous_batch(copies=2)
        serial = solve_list_coloring_batch(batch)
        cache = SweepResultCache()
        with ProcessBackend(
            workers=WORKERS, start_method=start_method
        ) as backend:
            with sweep_cache_scope(cache):
                cold = solve_list_coloring_batch(batch, backend=backend)
                warm = solve_list_coloring_batch(batch, backend=backend)
        assert_batch_results_equal(serial, cold)
        assert_batch_results_equal(serial, warm)
        assert cache.stats()["hits"] > 0
        assert backend.telemetry[-1]["cache"]["hits"] > 0
        assert not leaked_segments(before)

    def test_instance_mode_workers_pin_cache_off(self, start_method):
        """Sharded dispatch must not grow per-worker cache copies: the
        shard entry point pins a null cache scope, so the coordinator
        cache sees no traffic from pool workers."""
        before = shm_segments()
        instances = [
            make_delta_plus_one_instance(gen.gnp_graph(30, 0.2, seed=s))
            for s in range(4)
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        serial = solve_list_coloring_batch(batch)
        cache = SweepResultCache()
        with ProcessBackend(
            workers=WORKERS,
            start_method=start_method,
            keep_fusion_runs=False,
            sweep_cache=cache,
        ) as backend:
            result = solve_list_coloring_batch(batch, backend=backend)
        assert_batch_results_equal(serial, result)
        if backend.telemetry[-1]["effective_shards"] > 1:
            assert cache.stats()["stores"] == 0
        assert not leaked_segments(before)
