"""Coloring-as-a-service: async batch intake over the batched solver.

:class:`ColoringService` turns the one-shot
:func:`~repro.core.list_coloring.solve_list_coloring_congest` call into a
high-throughput pipeline for *unrelated concurrent requests*:

1. **Intake** — :meth:`ColoringService.submit` accepts one
   :class:`~repro.core.instances.ListColoringInstance` per request and
   returns an awaitable per-request
   :class:`~repro.core.list_coloring.ColoringResult` future.
2. **Coalesce** — a :class:`~repro.serving.coalescer.RequestCoalescer`
   groups pending requests by fusion signature ``(⌈log C⌉, Δ)`` under
   ``max_batch_instances`` / ``max_delay_ms``; each group is packed into
   ONE :meth:`BatchedListColoringInstance.from_instances` batch, so the
   shared-seed phase fusion (one 2^m sweep per group per phase)
   amortizes solver work across strangers' requests.
3. **Stream** — batches dispatch through the backend's
   ``solve_batch_iter`` on a dedicated dispatch thread; every request's
   future resolves the moment its *shard* lands (``call_soon_threadsafe``
   back into the event loop) instead of at the batch merge barrier.

Because each per-instance output of a fused batch is byte-identical to a
standalone solve (the pinned batch contract), every response equals the
standalone ``solve_list_coloring_congest`` call for that instance, bit for
bit — no matter how requests were grouped, sharded or streamed.  The same
determinism bounds a failure's blast radius: when a group's batch raises,
its unresolved members are re-solved one by one, and only a request whose
own solve raises fails.

The event loop only ever does bookkeeping: solves run in a single-slot
``ThreadPoolExecutor``, so intake stays responsive while a batch is in
flight.  By default the batch solves in-process (:class:`SerialBackend`);
a caller-passed :class:`~repro.parallel.backend.ProcessBackend` shards it
across that backend's worker pool instead, with the same bytes.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.instances import BatchedListColoringInstance
from repro.parallel.backend import Backend, SerialBackend
from repro.parallel.sharding import instance_fusion_signature
from repro.serving.coalescer import PendingRequest, RequestCoalescer

__all__ = ["ColoringService"]

#: Dispatch-queue sentinel: drains remaining groups, then stops the worker.
_SHUTDOWN = object()


class ColoringService:
    """Async intake queue + fusion-keyed coalescer over a shared backend.

    Parameters
    ----------
    backend:
        ``None`` (default) solves in-process on a :class:`SerialBackend`.
        A :class:`Backend` instance is used as-is and stays caller-owned
        (not closed by :meth:`close`); anything else raises
        :class:`TypeError`.
    max_batch_instances, max_delay_ms:
        Coalescing knobs (see :class:`RequestCoalescer`): dispatch a
        group when it fills, or when its oldest request has waited
        ``max_delay_ms``.
    r_schedule, strict, verify:
        Solver options applied to every dispatch — part of the request
        contract, so every response equals
        ``solve_list_coloring_congest(instance, r_schedule=..., ...)``.

    Use as an async context manager, or call :meth:`start` /
    :meth:`close` explicitly.  Telemetry: :attr:`batch_telemetry` (one
    record per solved group: signature, size, chunks, wall seconds),
    :attr:`request_latencies` (submit→resolve seconds per
    completed request), :meth:`stats`.
    """

    def __init__(
        self,
        backend=None,
        *,
        max_batch_instances: int = 8,
        max_delay_ms: float = 2.0,
        r_schedule=None,
        strict: bool = True,
        verify: bool = True,
    ):
        if backend is None:
            backend = SerialBackend()
        elif not isinstance(backend, Backend):
            raise TypeError(f"backend must be None or a Backend, got {backend!r}")
        self._backend = backend
        self._coalescer = RequestCoalescer(
            max_batch_instances=max_batch_instances, max_delay_ms=max_delay_ms
        )
        self._r_schedule = r_schedule
        self._strict = strict
        self._verify = verify

        self.batch_telemetry: list[dict] = []
        self.request_latencies: list[float] = []
        self._n_requests = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatch_queue: asyncio.Queue | None = None
        self._worker_task: asyncio.Task | None = None
        self._timer_task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ColoringService":
        """Bind to the running event loop and start the dispatch worker
        and flush timer (idempotent; :meth:`submit` starts lazily)."""
        if self._closed:
            raise RuntimeError("service is closed")
        if self._loop is not None:
            if self._loop is not asyncio.get_running_loop():
                raise RuntimeError("service is bound to a different event loop")
            return self
        self._loop = asyncio.get_running_loop()
        self._dispatch_queue = asyncio.Queue()
        self._wake = asyncio.Event()
        # One dispatch at a time: the backend's pool supplies parallelism;
        # serializing dispatches keeps its telemetry single-writer.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        # Pre-warm from the loop thread: under the fork start method,
        # creating worker processes before any dispatch thread exists
        # avoids forking a multi-threaded coordinator.  (A no-op for
        # backends that never fan out.)
        self._backend.prewarm()
        self._worker_task = self._loop.create_task(self._dispatch_worker())
        self._timer_task = self._loop.create_task(self._timer_loop())
        return self

    async def __aenter__(self) -> "ColoringService":
        return self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Shut the service down.

        ``drain=True`` (default) dispatches every pending group and waits
        for all in-flight requests to resolve; ``drain=False`` cancels
        pending and queued requests (a group already solving on the
        dispatch thread still resolves).  Either way the dispatch thread
        and the flush timer are released; the backend is the caller's to
        close.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop is None:
            return
        if drain:
            for group in self._coalescer.flush_all():
                self._dispatch_queue.put_nowait(group)
        else:
            for group in self._coalescer.flush_all():
                self._cancel_group(group)
            while True:
                try:
                    queued = self._dispatch_queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if queued is not _SHUTDOWN:
                    self._cancel_group(queued)
        self._timer_task.cancel()
        try:
            await self._timer_task
        except asyncio.CancelledError:
            pass
        self._dispatch_queue.put_nowait(_SHUTDOWN)
        await self._worker_task
        self._executor.shutdown(wait=True)

    @staticmethod
    def _cancel_group(group) -> None:
        for request in group:
            if not request.future.done():
                request.future.cancel()

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    async def submit(self, instance):
        """Enqueue one list-coloring request; await its
        :class:`~repro.core.list_coloring.ColoringResult`.

        The result is byte-identical to
        ``solve_list_coloring_congest(instance, r_schedule=..., strict=...,
        verify=...)`` with this service's solver options, regardless of
        which strangers' requests it was coalesced or sharded with; a
        stranger's failing request does not fail this one.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        self.start()
        future = self._loop.create_future()
        request = PendingRequest(
            instance=instance,
            signature=instance_fusion_signature(instance),
            future=future,
            enqueued_at=time.monotonic(),
        )
        self._n_requests += 1
        full_group = self._coalescer.add(request)
        if full_group is not None:
            self._dispatch_queue.put_nowait(full_group)
        else:
            self._wake.set()  # (re)arm the flush timer
        return await future

    # ------------------------------------------------------------------
    # Timers and dispatch
    # ------------------------------------------------------------------
    async def _timer_loop(self) -> None:
        """Flush partial groups whose oldest request hit ``max_delay_ms``.

        Sleeps until the earliest pending deadline; a new pending request
        sets :attr:`_wake` to re-evaluate (deadlines are FIFO per group,
        so the earliest deadline only moves when groups come and go)."""
        while True:
            deadline = self._coalescer.next_deadline()
            if deadline is None:
                await self._wake.wait()
                self._wake.clear()
                continue
            delay = deadline - time.monotonic()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
                else:
                    self._wake.clear()
                continue
            for group in self._coalescer.due(time.monotonic()):
                self._dispatch_queue.put_nowait(group)

    async def _dispatch_worker(self) -> None:
        """Consume coalesced groups; solve each on the dispatch thread.

        When a group's batch raises, every member still unresolved is
        re-solved alone, and only a request whose own solve raises gets
        an exception: one poison request cannot fail the strangers it was
        coalesced with.  Solves are deterministic, so a re-solve answers
        byte-identically to the batch it replaces."""
        while True:
            group = await self._dispatch_queue.get()
            if group is _SHUTDOWN:
                return
            try:
                await self._loop.run_in_executor(
                    self._executor, self._solve_group, group
                )
            except Exception as exc:  # noqa: BLE001 - forwarded per request
                for request in group:
                    error = exc
                    if len(group) > 1 and not request.future.done():
                        try:
                            await self._loop.run_in_executor(
                                self._executor, self._solve_group, [request]
                            )
                        except Exception as own:  # noqa: BLE001
                            error = own
                    if not request.future.done():
                        request.future.set_exception(error)

    def _solve_group(self, group) -> None:
        """Dispatch-thread body: pack, solve, stream chunk resolutions.

        The telemetry record is appended in a ``finally`` so a dispatch
        that raises mid-stream is still visible: failed batches carry an
        ``"error"`` field instead of vanishing from
        :attr:`batch_telemetry` / :meth:`stats`.  When the backend
        recovered from worker crashes, the record also carries the summed
        ``"faults"`` counters of this dispatch's backend records."""
        batch = BatchedListColoringInstance.from_instances(
            [request.instance for request in group]
        )
        start = time.perf_counter()
        backend_telemetry = getattr(self._backend, "telemetry", None)
        records_before = (
            len(backend_telemetry) if backend_telemetry is not None else 0
        )
        chunks = 0
        error = None
        try:
            for lo, _hi, chunk in self._backend.solve_batch_iter(
                batch,
                r_schedule=self._r_schedule,
                strict=self._strict,
                verify=self._verify,
            ):
                chunks += 1
                now = time.monotonic()
                for offset, result in enumerate(chunk.results):
                    request = group[lo + offset]
                    self._loop.call_soon_threadsafe(
                        self._finish_request,
                        request,
                        result,
                        now - request.enqueued_at,
                    )
        except BaseException as exc:  # re-raised; recorded first
            error = exc
            raise
        finally:
            record = {
                "signature": group[0].signature,
                "size": len(group),
                "chunks": chunks,
                "wall_seconds": time.perf_counter() - start,
            }
            if error is not None:
                record["error"] = repr(error)
            if backend_telemetry is not None:
                faults: dict = {}
                for entry in backend_telemetry[records_before:]:
                    for key, value in entry.get("faults", {}).items():
                        faults[key] = faults.get(key, 0) + value
                if faults:
                    record["faults"] = faults
            # Appended on the loop thread so telemetry lists are
            # single-writer.  A caller racing in right after its own future
            # resolved may not see its batch's record yet (the record is
            # built after the final chunk's resolutions are scheduled —
            # holding those back would defeat streaming); after close() the
            # lists are complete.
            self._loop.call_soon_threadsafe(self.batch_telemetry.append, record)

    def _finish_request(self, request, result, latency: float) -> None:
        self.request_latencies.append(latency)
        if not request.future.done():
            request.future.set_result(result)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service-level telemetry snapshot.

        Batch records land on the event loop just after their final
        chunk's resolutions, so a snapshot taken the instant one's own
        request resolved may lag by that one in-flight batch; a snapshot
        after :meth:`close` is complete and exact.

        ``"faults"`` sums the per-batch fault counters (worker crashes,
        retries, pool rebuilds, serial fallbacks — see
        :class:`~repro.parallel.backend.ProcessBackend`) and
        ``"failed_batches"`` counts batches whose dispatch raised (their
        records carry ``"error"``).  ``"cache"`` is always ``None``: the
        service keeps no result cache, and the key stays for readers of
        the snapshot that still look it up."""
        sizes = [record["size"] for record in self.batch_telemetry]
        faults: dict = {}
        for record in self.batch_telemetry:
            for key, value in record.get("faults", {}).items():
                faults[key] = faults.get(key, 0) + value
        return {
            "requests": self._n_requests,
            "completed": len(self.request_latencies),
            "batches": len(self.batch_telemetry),
            "batch_sizes": sizes,
            "mean_batch_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "pending": self._coalescer.pending_count,
            "failed_batches": sum(
                1 for record in self.batch_telemetry if "error" in record
            ),
            "faults": faults,
            "cache": None,
        }
