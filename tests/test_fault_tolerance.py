"""Crash recovery: worker death during a dispatch, byte-identically.

The contract under test (the fault-tolerance layer): a pool worker
dying abruptly — ``os._exit`` mid-task, indistinguishable from a SIGKILL
or OOM kill — must never change a result and never take the backend down.
The backend rebuilds its poisoned executor, retries exactly the failed
shards, and past ``max_retries`` recomputes them inline; because every
recompute is deterministic, the merged output is byte-identical to the
serial path whichever route answered (the golden-suite identity
contract, extended to faulty hardware).

Covered here, under fork AND spawn where the harness kills mid-dispatch:

* shard solves — a worker dies inside a shard solve, also while the
  solve is streamed; and a pool broken *before* dispatch (the
  submit-time ``BrokenProcessPool`` path).
* retries exhausted (``exit-always``) — the inline serial fallback
  answers solves and partial passes, ``max_retries=0`` skips straight to
  it, and the backend is healed for the next dispatch.
* ``partial_pass_batch`` — outcome and replayed-ledger identity after
  recovery, and one telemetry record even when a worker raises.
* the serving path end-to-end — responses stay byte-identical to
  standalone solves and the crash shows up in ``batch_telemetry`` /
  ``stats()``.
* close semantics — a closed backend refuses to dispatch or prewarm
  instead of silently resurrecting its pool.

Fault counters land on every dispatch record as ``record["faults"]``
(``crashes`` / ``retries`` / ``pool_rebuilds`` / ``serial_fallbacks``),
asserted to show both the crash and the recovery action taken, and no
test may leave shared-memory segments behind.

Injected tests build a FRESH backend inside the injection context
(workers inherit the environment at pool creation) and use
``retry_backoff=0.0`` so bounded retries don't slow the suite.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os

import numpy as np
import pytest

from equivalence import (
    assert_batch_results_equal,
    assert_coloring_results_equal,
    assert_ledgers_equal,
    assert_outcomes_equal,
)
from faults import (
    break_pool,
    inject_exit_always,
    inject_exit_once,
    leaked_segments,
    raising_schedule,
    shm_segments,
)
from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import (
    solve_list_coloring_batch,
    solve_list_coloring_congest,
)
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.engine.rounds import RoundLedger
from repro.graphs import generators as gen
from repro.parallel import ProcessBackend, SerialBackend
from repro.parallel.backend import _FAULT_KEYS
from repro.serving import ColoringService

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
#: exit-always burns one worker pool per retry round, so those tests run
#: on the cheapest start method only.
FAST_METHOD = START_METHODS[0]


def healthy(faults: dict) -> bool:
    return all(faults[key] == 0 for key in _FAULT_KEYS)


def instance_batch(n: int = 40) -> BatchedListColoringInstance:
    """Two fusion runs → two shards on the pool."""
    instances = [
        make_delta_plus_one_instance(gen.gnp_graph(n, 0.2, seed=3)),
        make_delta_plus_one_instance(gen.gnp_graph(n, 0.2, seed=4)),
        make_delta_plus_one_instance(gen.cycle_graph(8)),
        make_delta_plus_one_instance(gen.cycle_graph(8)),
    ]
    return BatchedListColoringInstance.from_instances(instances)


def homogeneous_batch(copies: int = 4, n: int = 40) -> BatchedListColoringInstance:
    """One fusion signature → one shard, solved inline."""
    instances = [
        make_delta_plus_one_instance(gen.gnp_graph(n, 0.2, seed=7))
        for _ in range(copies)
    ]
    return BatchedListColoringInstance.from_instances(instances)


def instance_backend(start_method: str, **kwargs) -> ProcessBackend:
    return ProcessBackend(
        workers=WORKERS,
        start_method=start_method,
        retry_backoff=0.0,
        **kwargs,
    )


# ----------------------------------------------------------------------
# 1. Instance mode: shard futures.
# ----------------------------------------------------------------------
class TestInstanceModeRecovery:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_prebroken_pool_retries_and_heals(self, start_method):
        """A pool poisoned *before* dispatch (the state a prior OOM kill
        leaves behind) recovers at submit time; the next dispatch is
        clean."""
        before = shm_segments()
        batch = instance_batch()
        serial = solve_list_coloring_batch(batch)
        with instance_backend(start_method) as backend:
            break_pool(backend)
            recovered = solve_list_coloring_batch(batch, backend=backend)
            assert_batch_results_equal(serial, recovered, "pre-broken pool")
            record = backend.telemetry[-1]
            assert record["mode"] == "instance"
            faults = record["faults"]
            assert faults["crashes"] >= 1
            assert faults["pool_rebuilds"] >= 1
            assert faults["retries"] >= 1
            assert faults["serial_fallbacks"] == 0
            # Healed: the rebuilt pool serves the next dispatch cleanly.
            again = solve_list_coloring_batch(batch, backend=backend)
            assert_batch_results_equal(serial, again, "post-recovery dispatch")
            assert healthy(backend.telemetry[-1]["faults"])
        assert leaked_segments(before) == []

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_worker_death_mid_shard(self, start_method, tmp_path):
        """One worker os._exits inside a shard solve; the failed shards are
        retried on a rebuilt pool and the merge is byte-identical."""
        before = shm_segments()
        batch = instance_batch()
        serial = solve_list_coloring_batch(batch)
        with inject_exit_once(tmp_path) as marker:
            with instance_backend(start_method) as backend:
                recovered = solve_list_coloring_batch(batch, backend=backend)
            assert os.path.exists(marker), "no worker took the injected fault"
        assert_batch_results_equal(serial, recovered, "mid-shard worker death")
        record = backend.telemetry[-1]
        assert record["mode"] == "instance"
        assert record["faults"]["crashes"] >= 1
        assert record["faults"]["pool_rebuilds"] >= 1
        assert leaked_segments(before) == []


    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_stream_identical_after_worker_death(self, start_method, tmp_path):
        """A streamed solve whose worker dies still yields chunks that tile
        the batch once and merge byte-identically."""
        from repro.parallel.sharding import merge_solve_results

        before = shm_segments()
        batch = instance_batch()
        serial = solve_list_coloring_batch(batch)
        with inject_exit_once(tmp_path) as marker:
            with instance_backend(start_method) as backend:
                chunks = sorted(
                    backend.solve_batch_iter(batch), key=lambda c: c[0]
                )
            assert os.path.exists(marker), "no worker took the injected fault"
        spans = [(lo, hi) for lo, hi, _ in chunks]
        edges = [0] + [hi for _, hi in spans]
        assert [lo for lo, _ in spans] == edges[:-1]
        assert edges[-1] == batch.num_instances
        merged = merge_solve_results(result for _lo, _hi, result in chunks)
        assert_batch_results_equal(serial, merged, "streamed after crash")
        (record,) = backend.telemetry
        assert record["faults"]["crashes"] >= 1
        assert leaked_segments(before) == []


# ----------------------------------------------------------------------
# 2. Retries exhausted: the inline serial fallback answers.
# ----------------------------------------------------------------------
class TestSerialFallback:
    def test_instance_mode_falls_back_inline(self):
        before = shm_segments()
        batch = instance_batch()
        serial = solve_list_coloring_batch(batch)
        with inject_exit_always():
            with instance_backend(FAST_METHOD, max_retries=1) as backend:
                recovered = solve_list_coloring_batch(batch, backend=backend)
                faults = backend.telemetry[-1]["faults"]
                assert faults["crashes"] >= 1
                assert faults["retries"] >= 1
                assert faults["serial_fallbacks"] >= 1
        assert_batch_results_equal(serial, recovered, "inline shard fallback")
        assert leaked_segments(before) == []

    def test_backend_healed_after_fallback(self):
        """After an exit-always dispatch answered inline, the next dispatch
        (injection disarmed) runs on a fresh pool with zero faults."""
        batch = instance_batch()
        serial = solve_list_coloring_batch(batch)
        with instance_backend(FAST_METHOD, max_retries=0) as backend:
            with inject_exit_always():
                degraded = solve_list_coloring_batch(batch, backend=backend)
            assert backend.telemetry[-1]["faults"]["serial_fallbacks"] >= 1
            clean = solve_list_coloring_batch(batch, backend=backend)
            assert healthy(backend.telemetry[-1]["faults"])
        assert_batch_results_equal(serial, degraded, "degraded dispatch")
        assert_batch_results_equal(serial, clean, "post-fallback dispatch")


    def test_zero_retries_skips_straight_to_inline(self):
        """``max_retries=0``: every shard of a crashed dispatch is
        recomputed inline, and none is re-dispatched."""
        batch = instance_batch()
        serial = solve_list_coloring_batch(batch)
        with instance_backend(FAST_METHOD, max_retries=0) as backend:
            with inject_exit_always():
                recovered = solve_list_coloring_batch(batch, backend=backend)
            record = backend.telemetry[-1]
        assert_batch_results_equal(serial, recovered, "zero-retry fallback")
        faults = record["faults"]
        assert faults["retries"] == 0
        assert faults["pool_rebuilds"] == 1
        assert faults["serial_fallbacks"] == record["effective_shards"]

    def test_partial_pass_falls_back_inline(self):
        batch = instance_batch()
        k = batch.num_instances
        psis = np.concatenate(
            [np.arange(inst.n, dtype=np.int64) for inst in batch.split()]
        )
        nums = [max(2, inst.n) for inst in batch.split()]
        serial_ledgers = [RoundLedger() for _ in range(k)]
        serial = partial_coloring_pass_batch(
            batch, psis, nums, ledgers=serial_ledgers
        )
        recovered_ledgers = [RoundLedger() for _ in range(k)]
        with inject_exit_always():
            with instance_backend(FAST_METHOD, max_retries=1) as backend:
                recovered = backend.partial_pass_batch(
                    batch, psis, nums, ledgers=recovered_ledgers
                )
                faults = backend.telemetry[-1]["faults"]
        assert faults["crashes"] >= 1
        assert faults["serial_fallbacks"] >= 1
        for i, (want, got) in enumerate(zip(serial, recovered)):
            assert_outcomes_equal(want, got, f"outcome[{i}]")
        for i, (want, got) in enumerate(zip(serial_ledgers, recovered_ledgers)):
            assert_ledgers_equal(want, got, f"ledger[{i}]")


# ----------------------------------------------------------------------
# 3. Partial passes: outcomes and replayed ledgers after recovery.
# ----------------------------------------------------------------------
class TestPartialPassRecovery:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_partial_pass_identical_after_crash(self, start_method):
        before = shm_segments()
        batch = instance_batch()
        k = batch.num_instances
        psis = np.concatenate(
            [np.arange(inst.n, dtype=np.int64) for inst in batch.split()]
        )
        nums = [max(2, inst.n) for inst in batch.split()]
        serial_ledgers = [RoundLedger() for _ in range(k)]
        serial = partial_coloring_pass_batch(
            batch, psis, nums, ledgers=serial_ledgers
        )
        with instance_backend(start_method) as backend:
            break_pool(backend)
            recovered_ledgers = [RoundLedger() for _ in range(k)]
            recovered = backend.partial_pass_batch(
                batch, psis, nums, ledgers=recovered_ledgers
            )
            record = backend.telemetry[-1]
            assert record["op"] == "partial_pass"
            assert record["faults"]["crashes"] >= 1
            assert record["faults"]["pool_rebuilds"] >= 1
        for i, (want, got) in enumerate(zip(serial, recovered)):
            assert_outcomes_equal(want, got, f"outcome[{i}]")
        for i, (want, got) in enumerate(zip(serial_ledgers, recovered_ledgers)):
            assert_ledgers_equal(want, got, f"ledger[{i}]")
        assert leaked_segments(before) == []

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_partial_pass_worker_death_mid_shard(self, start_method, tmp_path):
        before = shm_segments()
        batch = instance_batch()
        k = batch.num_instances
        psis = np.concatenate(
            [np.arange(inst.n, dtype=np.int64) for inst in batch.split()]
        )
        nums = [max(2, inst.n) for inst in batch.split()]
        serial_ledgers = [RoundLedger() for _ in range(k)]
        serial = partial_coloring_pass_batch(
            batch, psis, nums, ledgers=serial_ledgers
        )
        recovered_ledgers = [RoundLedger() for _ in range(k)]
        with inject_exit_once(tmp_path) as marker:
            with instance_backend(start_method) as backend:
                recovered = backend.partial_pass_batch(
                    batch, psis, nums, ledgers=recovered_ledgers
                )
            assert os.path.exists(marker), "no worker took the injected fault"
        (record,) = backend.telemetry
        assert record["op"] == "partial_pass"
        assert record["faults"]["crashes"] >= 1
        for i, (want, got) in enumerate(zip(serial, recovered)):
            assert_outcomes_equal(want, got, f"outcome[{i}]")
        for i, (want, got) in enumerate(zip(serial_ledgers, recovered_ledgers)):
            assert_ledgers_equal(want, got, f"ledger[{i}]")
        assert leaked_segments(before) == []

    @pytest.mark.parametrize(
        "make_batch", [instance_batch, homogeneous_batch], ids=["pool", "inline"]
    )
    def test_raising_pass_still_records_telemetry(self, make_batch):
        """A shard whose pass raises a Python exception is a bug, not a
        fault: the exception propagates unchanged, and the dispatch still
        appends exactly one telemetry record (on the pool and inline)."""
        before = shm_segments()
        batch = make_batch()
        psis = np.concatenate(
            [np.arange(inst.n, dtype=np.int64) for inst in batch.split()]
        )
        nums = [max(2, inst.n) for inst in batch.split()]
        with instance_backend(FAST_METHOD) as backend:
            with pytest.raises(RuntimeError, match="schedule exploded"):
                backend.partial_pass_batch(
                    batch, psis, nums, r_schedule=raising_schedule
                )
            (record,) = backend.telemetry
            assert record["op"] == "partial_pass"
            assert healthy(record["faults"])
        assert leaked_segments(before) == []


# ----------------------------------------------------------------------
# 4. Serving path end-to-end.
# ----------------------------------------------------------------------
class TestServingRecovery:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_service_survives_worker_death(self, start_method, tmp_path):
        before = shm_segments()
        instance = make_delta_plus_one_instance(gen.gnp_graph(40, 0.2, seed=7))
        direct = solve_list_coloring_congest(instance)
        with inject_exit_once(tmp_path) as marker:
            # Fusion runs off: the three coalesced copies share one
            # signature, so only free cutting puts them on the pool.
            with instance_backend(
                start_method, keep_fusion_runs=False
            ) as backend:
                service = ColoringService(
                    backend, max_batch_instances=3, max_delay_ms=5.0
                )

                async def drive():
                    async with service:
                        return await asyncio.gather(
                            *[service.submit(instance) for _ in range(3)]
                        )

                served = asyncio.run(drive())
            assert os.path.exists(marker), "no worker took the injected fault"
        for i, got in enumerate(served):
            assert_coloring_results_equal(direct, got, f"request[{i}]")
        # The crash is visible on the batch record and aggregated in stats.
        faulted = [r for r in service.batch_telemetry if "faults" in r]
        assert faulted and faulted[0]["faults"]["crashes"] >= 1
        stats = service.stats()
        assert stats["faults"]["crashes"] >= 1
        assert stats["faults"]["pool_rebuilds"] >= 1
        assert stats["failed_batches"] == 0  # recovered, not failed
        assert stats["completed"] == 3
        assert leaked_segments(before) == []


# ----------------------------------------------------------------------
# 5. Close semantics and prewarm.
# ----------------------------------------------------------------------
class TestCloseSemantics:
    def test_dispatch_after_close_raises(self):
        backend = ProcessBackend(workers=2)
        backend.close()
        batch = homogeneous_batch(copies=2, n=12)
        with pytest.raises(RuntimeError, match="closed"):
            backend.solve_batch(batch)
        with pytest.raises(RuntimeError, match="closed"):
            backend.solve_batch_iter(batch)
        with pytest.raises(RuntimeError, match="closed"):
            backend.partial_pass_batch(batch, [], [2, 2])
        with pytest.raises(RuntimeError, match="closed"):
            backend.prewarm()
        assert backend._executor is None  # nothing resurrected

    def test_prewarm_builds_pool_once(self):
        with ProcessBackend(workers=2) as backend:
            assert backend._executor is None
            backend.prewarm()
            pool = backend._executor
            assert pool is not None
            backend.prewarm()
            assert backend._executor is pool  # idempotent

    def test_prewarm_noop_when_nothing_fans_out(self):
        with ProcessBackend(workers=1) as backend:
            backend.prewarm()
            assert backend._executor is None  # inline-only: no pool

    def test_serial_backend_prewarm_noop(self):
        SerialBackend().prewarm()  # must simply not raise

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=1, max_retries=-1)
        with pytest.raises(ValueError):
            ProcessBackend(workers=1, retry_backoff=-0.5)
