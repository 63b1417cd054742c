"""Tests for the serving layer: coalescer, streaming backend, service.

Four layers, mirroring the subsystem's structure:

1. **Coalescer unit behavior** — groups fill at ``max_batch_instances``
   and never mix fusion signatures; deadlines follow the oldest pending
   request; ``due`` / ``flush_all`` pop oldest-first.
2. **Streaming backend** — ``solve_batch_iter`` chunks tile the batch
   exactly once and sorted-concatenate byte-identically to
   ``solve_batch`` on pool shards and on the inline single-shard path,
   under fork AND spawn; eager validation, early close and the serial
   default are covered.
3. **Service equivalence** — randomized concurrent submissions through a
   :class:`ColoringService` resolve byte-identically to standalone
   ``solve_list_coloring_congest`` calls, over both start methods, with
   no leaked shared-memory segments or worker pools.
4. **Service behavior** — delay flushes, single-request groups,
   mixed-signature bursts, immediate full-group dispatch, shutdown
   (drain and cancel), ownership of the backend, telemetry, and a
   failing request that fails nobody else in its group.

Pool size defaults to 2 workers; CI pins it via ``REPRO_TEST_WORKERS=2``.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os

import numpy as np
import pytest

from equivalence import assert_batch_results_equal, assert_coloring_results_equal
from faults import leaked_segments, shm_segments
from repro.core.instances import make_delta_plus_one_instance
from repro.core.list_coloring import solve_list_coloring_congest
from repro.graphs import generators as gen
from repro.parallel import ProcessBackend, SerialBackend
from repro.parallel.sharding import instance_fusion_signature
from repro.serving import ColoringService, PendingRequest, RequestCoalescer
from test_parallel_backend import random_batch, random_instance

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


@pytest.fixture(scope="module", params=START_METHODS)
def process_backend(request):
    """One pool per start method, shared across the module (spawn worker
    startup re-imports repro, so reuse keeps the suite fast).  Prewarmed,
    so the semaphores of its live pool predate every leak snapshot."""
    backend = ProcessBackend(workers=WORKERS, start_method=request.param)
    backend.prewarm()
    yield backend
    backend.close()


def regular_instance(seed: int, n: int = 16, degree: int = 4):
    return make_delta_plus_one_instance(
        gen.random_regular_graph(n, degree, seed=seed)
    )


# ----------------------------------------------------------------------
# 1. Coalescer unit behavior
# ----------------------------------------------------------------------
def pending(signature: tuple, enqueued_at: float) -> PendingRequest:
    return PendingRequest(
        instance=None, signature=signature, future=None, enqueued_at=enqueued_at
    )


class TestCoalescer:
    def test_group_pops_exactly_at_capacity(self):
        coalescer = RequestCoalescer(max_batch_instances=3, max_delay_ms=1e9)
        assert coalescer.add(pending((4, 3), 0.0)) is None
        assert coalescer.add(pending((4, 3), 0.1)) is None
        group = coalescer.add(pending((4, 3), 0.2))
        assert group is not None and len(group) == 3
        assert [request.enqueued_at for request in group] == [0.0, 0.1, 0.2]
        # Popped: the signature starts a fresh group afterwards.
        assert coalescer.pending_count == 0
        assert coalescer.add(pending((4, 3), 0.3)) is None

    def test_signatures_never_cross_coalesce(self):
        coalescer = RequestCoalescer(max_batch_instances=2, max_delay_ms=1e9)
        assert coalescer.add(pending((4, 3), 0.0)) is None
        assert coalescer.add(pending((5, 6), 0.1)) is None
        group = coalescer.add(pending((4, 3), 0.2))
        assert {request.signature for request in group} == {(4, 3)}
        assert coalescer.pending_count == 1  # the (5, 6) request waits

    def test_next_deadline_tracks_oldest_pending(self):
        coalescer = RequestCoalescer(max_batch_instances=8, max_delay_ms=100.0)
        assert coalescer.next_deadline() is None
        coalescer.add(pending((4, 3), 2.0))
        coalescer.add(pending((5, 6), 1.0))
        assert coalescer.next_deadline() == pytest.approx(1.0 + 0.1)

    def test_due_pops_expired_groups_oldest_first(self):
        coalescer = RequestCoalescer(max_batch_instances=8, max_delay_ms=100.0)
        coalescer.add(pending((4, 3), 2.0))
        coalescer.add(pending((5, 6), 1.0))
        coalescer.add(pending((6, 7), 50.0))
        groups = coalescer.due(now=3.0)  # cutoff 2.9: both old groups due
        assert [group[0].signature for group in groups] == [(5, 6), (4, 3)]
        assert coalescer.pending_count == 1
        assert coalescer.due(now=3.0) == []

    def test_partial_group_only_flushes_after_delay(self):
        coalescer = RequestCoalescer(max_batch_instances=8, max_delay_ms=100.0)
        coalescer.add(pending((4, 3), 1.0))
        assert coalescer.due(now=1.05) == []  # 50ms old: not yet
        (group,) = coalescer.due(now=1.2)  # 200ms old: flushed
        assert len(group) == 1

    def test_flush_all_pops_everything_oldest_first(self):
        coalescer = RequestCoalescer(max_batch_instances=8, max_delay_ms=1e9)
        coalescer.add(pending((4, 3), 2.0))
        coalescer.add(pending((5, 6), 1.0))
        groups = coalescer.flush_all()
        assert [group[0].signature for group in groups] == [(5, 6), (4, 3)]
        assert coalescer.pending_count == 0
        assert coalescer.flush_all() == []

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="max_batch_instances"):
            RequestCoalescer(max_batch_instances=0)
        with pytest.raises(ValueError, match="max_delay_ms"):
            RequestCoalescer(max_delay_ms=-1.0)

    def test_signature_matches_batch_planner(self):
        """The scalar signature equals the batched planner's row."""
        from repro.core.instances import BatchedListColoringInstance
        from repro.parallel.sharding import fusion_signatures

        instances = [random_instance(np.random.default_rng(s)) for s in range(8)]
        batch = BatchedListColoringInstance.from_instances(instances)
        rows = fusion_signatures(batch)
        for i, instance in enumerate(instances):
            assert instance_fusion_signature(instance) == tuple(
                int(v) for v in rows[i]
            )


# ----------------------------------------------------------------------
# 2. Streaming backend: solve_batch_iter
# ----------------------------------------------------------------------
def collect_chunks(backend, batch, **kwargs):
    chunks = list(backend.solve_batch_iter(batch, **kwargs))
    spans = sorted((lo, hi) for lo, hi, _ in chunks)
    # Chunks tile [0, num_instances) exactly once.
    edges = [0] + [hi for _, hi in spans]
    assert [lo for lo, _ in spans] == edges[:-1]
    assert edges[-1] == batch.num_instances
    return chunks


class TestSolveBatchIter:
    @pytest.mark.parametrize("seed", range(4))
    def test_chunks_reassemble_to_solve_batch(self, process_backend, seed):
        from repro.core.instances import BatchedListColoringInstance
        from repro.parallel.sharding import merge_solve_results

        instances = random_batch(seed)
        if not instances:
            instances = [regular_instance(seed)]
        batch = BatchedListColoringInstance.from_instances(instances)
        reference = SerialBackend().solve_batch(batch)
        chunks = collect_chunks(process_backend, batch)
        merged = merge_solve_results(
            result for _lo, _hi, result in sorted(chunks, key=lambda c: c[0])
        )
        assert_batch_results_equal(reference, merged)

    def test_instance_mode_yields_per_shard_chunks(self):
        from repro.core.instances import BatchedListColoringInstance

        # Heterogeneous signatures + keep_fusion_runs off → multiple shards.
        instances = [
            regular_instance(seed=s, n=16, degree=d)
            for s, d in ((1, 4), (2, 6), (3, 4), (4, 6))
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        with ProcessBackend(
            workers=WORKERS, keep_fusion_runs=False
        ) as backend:
            chunks = collect_chunks(backend, batch)
            assert len(chunks) > 1
            assert backend.telemetry[-1]["mode"] == "instance"

    def test_single_shard_yields_one_inline_chunk(self):
        from repro.core.instances import BatchedListColoringInstance

        # Homogeneous batch: fusion runs collapse it to one shard, which
        # is solved inline as one chunk covering the whole batch.
        instances = [regular_instance(seed=s) for s in range(3)]
        batch = BatchedListColoringInstance.from_instances(instances)
        reference = SerialBackend().solve_batch(batch)
        with ProcessBackend(workers=WORKERS) as backend:
            ((lo, hi, result),) = collect_chunks(backend, batch)
            record = backend.telemetry[-1]
            assert backend._executor is None  # inline: no pool was built
        assert (lo, hi) == (0, batch.num_instances)
        assert record["mode"] == "instance"
        assert record["effective_shards"] == 1
        assert_batch_results_equal(reference, result)

    def test_rng_rejected_eagerly(self, process_backend):
        from repro.core.instances import BatchedListColoringInstance

        batch = BatchedListColoringInstance.from_instances(
            [regular_instance(0)]
        )
        # Must raise at the call, not on first next(): the serving layer
        # relies on validation errors surfacing before dispatch.
        with pytest.raises(ValueError, match="derandomized"):
            process_backend.solve_batch_iter(batch, rng=np.random.default_rng(0))

    def test_empty_batch_yields_nothing(self, process_backend):
        from repro.core.instances import BatchedListColoringInstance

        batch = BatchedListColoringInstance.from_instances([])
        assert list(process_backend.solve_batch_iter(batch)) == []

    def test_early_close_keeps_pool_reusable(self):
        from repro.core.instances import BatchedListColoringInstance

        before = shm_segments()
        instances = [
            regular_instance(seed=s, n=16, degree=d)
            for s, d in ((1, 4), (2, 6), (3, 4), (4, 6))
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        reference = SerialBackend().solve_batch(batch)
        with ProcessBackend(
            workers=WORKERS, keep_fusion_runs=False
        ) as backend:
            iterator = backend.solve_batch_iter(batch)
            next(iterator)
            records_before = len(backend.telemetry)
            iterator.close()  # GeneratorExit: remaining shards dropped
            assert len(backend.telemetry) == records_before + 1
            # The pool survives an abandoned stream and solves again,
            # byte-identically.
            assert_batch_results_equal(reference, backend.solve_batch(batch))
        assert leaked_segments(before) == []

    def test_serial_backend_default_single_chunk(self):
        from repro.core.instances import BatchedListColoringInstance

        batch = BatchedListColoringInstance.from_instances(
            [regular_instance(0), regular_instance(1)]
        )
        backend = SerialBackend()
        reference = backend.solve_batch(batch)
        ((lo, hi, result),) = collect_chunks(backend, batch)
        assert (lo, hi) == (0, 2)
        assert_batch_results_equal(reference, result)


# ----------------------------------------------------------------------
# 3. Service equivalence (property-based, fork AND spawn)
# ----------------------------------------------------------------------
def submit_all(service: ColoringService, instances: list) -> list:
    async def drive():
        async with service:
            return await asyncio.gather(
                *[service.submit(instance) for instance in instances]
            )

    return asyncio.run(drive())


class TestServiceEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_responses_match_standalone_solves(self, process_backend, seed):
        before = shm_segments()
        instances = random_batch(seed) or [regular_instance(seed)]
        direct = [solve_list_coloring_congest(inst) for inst in instances]
        service = ColoringService(
            process_backend, max_batch_instances=3, max_delay_ms=2.0
        )
        served = submit_all(service, instances)
        for i, (expected, got) in enumerate(zip(direct, served)):
            assert_coloring_results_equal(expected, got, f"request[{i}]")
        assert leaked_segments(before) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_default_service_matches_pool_service(self, process_backend, seed):
        """The in-process default and a caller-passed pool answer the same
        traffic with the same bytes: the pool only changes speed."""
        instances = random_batch(seed + 10) or [regular_instance(seed)]
        default = submit_all(
            ColoringService(max_batch_instances=3, max_delay_ms=2.0), instances
        )
        pooled = submit_all(
            ColoringService(
                process_backend, max_batch_instances=3, max_delay_ms=2.0
            ),
            instances,
        )
        for i, (a, b) in enumerate(zip(default, pooled)):
            assert_coloring_results_equal(a, b, f"request[{i}]")

    def test_repeat_traffic_stays_identical(self, process_backend):
        before = shm_segments()
        instances = [regular_instance(s) for s in range(3)]
        direct = [solve_list_coloring_congest(inst) for inst in instances]
        service = ColoringService(
            process_backend, max_batch_instances=3, max_delay_ms=5.0
        )
        served = submit_all(service, instances * 3)
        for j, got in enumerate(served):
            assert_coloring_results_equal(direct[j % 3], got, f"request[{j}]")
        assert service.stats()["cache"] is None
        assert leaked_segments(before) == []


    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_coalesced_group_split_across_shards(self, start_method):
        """With fusion runs off, one coalesced same-signature group is cut
        into pool shards and streamed back chunk by chunk; every response
        still equals its standalone solve."""
        before = shm_segments()
        instances = [regular_instance(s) for s in range(4)]
        direct = [solve_list_coloring_congest(inst) for inst in instances]
        with ProcessBackend(
            workers=WORKERS, start_method=start_method, keep_fusion_runs=False
        ) as backend:
            service = ColoringService(
                backend, max_batch_instances=4, max_delay_ms=5.0
            )
            served = submit_all(service, instances)
            assert any(
                record["effective_shards"] > 1 for record in backend.telemetry
            )
        for i, (expected, got) in enumerate(zip(direct, served)):
            assert_coloring_results_equal(expected, got, f"request[{i}]")
        assert leaked_segments(before) == []

# ----------------------------------------------------------------------
# 4. Service behavior
# ----------------------------------------------------------------------
class TestServiceBehavior:
    def test_partial_group_flushes_on_delay(self):
        """One lone request must resolve via the max_delay_ms timer."""
        instance = regular_instance(0)
        expected = solve_list_coloring_congest(instance)

        async def drive():
            async with ColoringService(
                max_batch_instances=100, max_delay_ms=5.0
            ) as service:
                return await asyncio.wait_for(service.submit(instance), 30.0)

        result = asyncio.run(drive())
        assert_coloring_results_equal(expected, result, "lone request")

    def test_full_group_dispatches_without_waiting(self):
        """A filled group must not wait out an hour-long delay knob."""
        instances = [regular_instance(s) for s in range(2)]

        async def drive():
            async with ColoringService(
                max_batch_instances=2, max_delay_ms=3_600_000.0
            ) as service:
                return await asyncio.wait_for(
                    asyncio.gather(*[service.submit(i) for i in instances]),
                    30.0,
                )

        results = asyncio.run(drive())
        assert len(results) == 2

    def test_mixed_signature_burst_never_cross_coalesces(self):
        degree_of = {}
        instances = []
        for s in range(3):
            low = regular_instance(s, n=16, degree=4)
            high = regular_instance(s, n=16, degree=6)
            instances += [low, high]  # interleaved burst
            degree_of[instance_fusion_signature(low)] = 4
            degree_of[instance_fusion_signature(high)] = 6
        direct = [solve_list_coloring_congest(inst) for inst in instances]
        service = ColoringService(
            max_batch_instances=3, max_delay_ms=5.0
        )
        served = submit_all(service, instances)
        for i, (expected, got) in enumerate(zip(direct, served)):
            assert_coloring_results_equal(expected, got, f"request[{i}]")
        # Every coalesced batch is signature-homogeneous and all six
        # requests of each signature were batched among themselves.
        per_signature = {}
        for record in service.batch_telemetry:
            assert record["signature"] in degree_of
            per_signature[record["signature"]] = (
                per_signature.get(record["signature"], 0) + record["size"]
            )
        assert per_signature == {sig: 3 for sig in degree_of}

    def test_submit_after_close_raises(self):
        async def drive():
            service = ColoringService()
            async with service:
                pass
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(regular_instance(0))

        asyncio.run(drive())

    def test_close_drain_resolves_inflight(self):
        """close(drain=True) dispatches the pending partial group."""
        instance = regular_instance(0)
        expected = solve_list_coloring_congest(instance)

        async def drive():
            service = ColoringService(
                max_batch_instances=100, max_delay_ms=3_600_000.0
            ).start()
            future = asyncio.ensure_future(service.submit(instance))
            await asyncio.sleep(0.02)  # intake, but never full or due
            await service.close(drain=True)
            return await future

        result = asyncio.run(drive())
        assert_coloring_results_equal(expected, result, "drained request")

    def test_close_cancel_drops_pending(self):
        async def drive():
            service = ColoringService(
                max_batch_instances=100, max_delay_ms=3_600_000.0
            ).start()
            futures = [
                asyncio.ensure_future(service.submit(regular_instance(s)))
                for s in range(3)
            ]
            await asyncio.sleep(0.02)
            await service.close(drain=False)
            await asyncio.gather(*futures, return_exceptions=True)
            return [future.cancelled() for future in futures]

        assert asyncio.run(drive()) == [True, True, True]

    def test_default_backend_serial_caller_backend_left_open(self):
        before = shm_segments()
        # Default: an in-process serial backend, never a pool.
        service = ColoringService()
        submit_all(service, [regular_instance(0)])
        assert isinstance(service._backend, SerialBackend)
        # Caller-owned: the service must not shut the backend down.
        with ProcessBackend(workers=2, keep_fusion_runs=False) as backend:
            service = ColoringService(backend, max_batch_instances=2)
            submit_all(service, [regular_instance(s) for s in range(2)])
            assert service._backend is backend
            assert backend._executor is not None
        assert leaked_segments(before) == []

    def test_stats_and_latencies_after_close(self):
        instances = [regular_instance(s) for s in range(4)]
        service = ColoringService(
            max_batch_instances=2, max_delay_ms=5.0
        )
        submit_all(service, instances)
        stats = service.stats()
        assert stats["requests"] == 4
        assert stats["completed"] == 4
        assert stats["pending"] == 0
        assert sum(stats["batch_sizes"]) == 4
        assert stats["batches"] == len(service.batch_telemetry)
        assert stats["failed_batches"] == 0
        assert stats["faults"] == {}  # serial backend: nothing to sum
        assert len(service.request_latencies) == 4
        assert all(latency >= 0.0 for latency in service.request_latencies)
        for record in service.batch_telemetry:
            assert record["chunks"] >= 1
            assert record["wall_seconds"] >= 0.0
            assert "error" not in record

    def test_failed_batch_still_recorded_with_error(self):
        """A dispatch that raises mid-stream must not vanish from
        batch_telemetry: its record lands with an ``"error"`` field."""

        class ExplodingBackend(SerialBackend):
            def solve_batch_iter(self, batch, **kwargs):
                raise RuntimeError("stream died")
                yield  # pragma: no cover - makes this a generator

        service = ColoringService(ExplodingBackend(), max_batch_instances=1)

        async def drive():
            async with service:
                with pytest.raises(RuntimeError, match="stream died"):
                    await service.submit(regular_instance(0))

        asyncio.run(drive())
        (record,) = service.batch_telemetry
        assert "stream died" in record["error"]
        assert record["chunks"] == 0
        assert record["size"] == 1
        stats = service.stats()
        assert stats["failed_batches"] == 1
        assert stats["batches"] == 1

    @pytest.mark.parametrize(
        "position", [0, 2, 3], ids=["first", "middle", "last"]
    )
    def test_poison_request_fails_only_itself(self, monkeypatch, position):
        """One request whose solve raises, coalesced with healthy ones: the
        group's batch fails, each member is re-solved alone, and only the
        poison request's future holds the exception.  The healthy answers
        equal standalone solves byte for byte, wherever the poison sits in
        the group."""
        import repro.core.list_coloring as list_coloring

        healthy = [regular_instance(s) for s in range(3)]
        poison = regular_instance(7, n=18)  # same signature, marked by n
        assert instance_fusion_signature(poison) == instance_fusion_signature(
            healthy[0]
        )
        direct = [solve_list_coloring_congest(inst) for inst in healthy]
        solve_batch = list_coloring.solve_list_coloring_batch

        def poisoned(batch, **kwargs):
            if 18 in batch.instance_sizes.tolist():
                raise ValueError("poison request")
            return solve_batch(batch, **kwargs)

        monkeypatch.setattr(list_coloring, "solve_list_coloring_batch", poisoned)
        service = ColoringService(
            max_batch_instances=4, max_delay_ms=50.0
        )
        requests = healthy[:position] + [poison] + healthy[position:]

        async def drive():
            async with service:
                return await asyncio.gather(
                    *(service.submit(inst) for inst in requests),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(drive())
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert len(errors) == 1 and outcomes[position] is errors[0]
        assert isinstance(errors[0], ValueError)
        served = outcomes[:position] + outcomes[position + 1:]
        for i, (expected, got) in enumerate(zip(direct, served)):
            assert_coloring_results_equal(expected, got, f"healthy[{i}]")
        # The failed group plus one re-solve per member, of which only the
        # poison request's failed.
        assert [r["size"] for r in service.batch_telemetry] == [4, 1, 1, 1, 1]
        assert service.stats()["failed_batches"] == 2

    def test_midstream_failure_resolves_the_rest_alone(self):
        """A group whose stream dies after its first chunk landed: the
        resolved request keeps its answer and is not solved again; only the
        unresolved members are re-solved, each alone."""

        class FailsAfterFirstChunk(SerialBackend):
            def solve_batch_iter(self, batch, **kwargs):
                if batch.num_instances == 1:
                    yield from super().solve_batch_iter(batch, **kwargs)
                    return
                first, _rest = batch.shard([0, 1, batch.num_instances])
                yield (0, 1, self.solve_batch(first, **kwargs))
                raise RuntimeError("stream died")

        instances = [regular_instance(s) for s in range(3)]
        direct = [solve_list_coloring_congest(inst) for inst in instances]
        service = ColoringService(
            FailsAfterFirstChunk(), max_batch_instances=3, max_delay_ms=50.0
        )
        served = submit_all(service, instances)
        for i, (expected, got) in enumerate(zip(direct, served)):
            assert_coloring_results_equal(expected, got, f"request[{i}]")
        sizes = [r["size"] for r in service.batch_telemetry]
        assert sizes == [3, 1, 1]
        assert service.batch_telemetry[0]["chunks"] == 1
        assert "stream died" in service.batch_telemetry[0]["error"]
        assert service.stats()["failed_batches"] == 1

    def test_restarted_service_answers_identically(self):
        """A second service generation over the same traffic answers byte
        for byte like the first: nothing a service keeps between requests
        changes an answer."""
        instances = [regular_instance(s) for s in range(2)]
        direct = [solve_list_coloring_congest(inst) for inst in instances]

        def run_generation():
            service = ColoringService(max_batch_instances=2)
            results = submit_all(service, instances)
            assert service.stats()["cache"] is None
            return results

        first, second = run_generation(), run_generation()
        for i, (expected, a, b) in enumerate(zip(direct, first, second)):
            assert_coloring_results_equal(expected, a, f"first[{i}]")
            assert_coloring_results_equal(expected, b, f"second[{i}]")
