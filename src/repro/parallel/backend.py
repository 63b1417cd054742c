"""Execution backends for the batched Theorem 1.1 solver.

A backend decides *where* the array program of
:func:`~repro.core.list_coloring.solve_list_coloring_batch` runs:

* :class:`SerialBackend` — in-process; exactly the engine's own call, and
  what :class:`~repro.serving.service.ColoringService` uses by default.
* :class:`ProcessBackend` — shards the batch along ``instance_offsets``
  (:func:`~repro.parallel.sharding.plan_shards`, fusion runs kept whole)
  and dispatches shard solves to a ``ProcessPoolExecutor``.  Because
  every per-instance output of the batched engine is byte-identical to a
  batch-of-one solve, the merged colorings, seed choices, round ledgers
  and potential traces are byte-identical to the serial backend — the
  contract the golden suite and ``benchmarks/bench_parallel_backend.py``
  pin.

The one operation is the full solve, whole (:meth:`Backend.solve_batch`)
or streamed by shard (:meth:`Backend.solve_batch_iter`).  No engine takes
a backend: a caller that wants the pool builds a :class:`ProcessBackend`
and calls it, or hands it to the service.

Callables threaded through a :class:`ProcessBackend` (``r_schedule``) must
be picklable, i.e. module-level functions, and randomized runs
(``rng is not None``) are rejected: the serial path draws per-phase seeds
in global instance order, which sharding would reorder.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

from repro.parallel.sharding import merge_solve_results, plan_shards
from repro.parallel.worker import run_shard, solve_shard

__all__ = [
    "Backend",
    "ProcessBackend",
    "SerialBackend",
]


class Backend:
    """Protocol for batched-solver executors.

    Subclasses implement :meth:`solve_batch` (the full Theorem 1.1 loop)
    with the exact signature of
    :func:`~repro.core.list_coloring.solve_list_coloring_batch` — same
    defaults, same return type, byte-identical outputs.
    """

    def solve_batch(self, batch, **kwargs):
        raise NotImplementedError

    def solve_batch_iter(self, batch, **kwargs):
        """Yield ``(lo, hi, BatchColoringResult)`` chunks of the solve.

        Chunk ``(lo, hi, result)`` carries the results of instances
        ``[lo, hi)``; together the chunks tile ``[0, num_instances)``
        exactly once, in *no guaranteed order*.  Sorting by ``lo`` and
        concatenating reproduces :meth:`solve_batch` byte-identically —
        that is the streaming contract the serving layer builds on (a
        consumer may resolve chunk ``[lo, hi)`` the moment it lands
        instead of waiting for the merge barrier).

        The default implementation is one chunk covering the whole batch;
        executors with real shard-level completion override it.
        """
        result = self.solve_batch(batch, **kwargs)
        if batch.num_instances:
            yield (0, batch.num_instances, result)

    def prewarm(self) -> None:
        """Eagerly build executor resources (no-op for in-process
        backends).  Long-lived consumers — the serving layer — call this
        at startup so the first request does not pay worker-spawn
        latency."""

    def close(self) -> None:
        """Release executor resources (no-op for in-process backends)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(Backend):
    """The in-process path: delegate straight to the batched engine."""

    def solve_batch(self, batch, **kwargs):
        from repro.core.list_coloring import solve_list_coloring_batch

        return solve_list_coloring_batch(batch, **kwargs)


#: Per-dispatch fault-telemetry counters (``record["faults"]``):
#: ``crashes`` — worker deaths observed (``BrokenProcessPool``);
#: ``retries`` — shards re-dispatched onto a rebuilt pool;
#: ``pool_rebuilds`` — executors dropped and recreated;
#: ``serial_fallbacks`` — shards recomputed inline after retries ran out.
_FAULT_KEYS = ("crashes", "retries", "pool_rebuilds", "serial_fallbacks")


def _new_faults() -> dict:
    return {key: 0 for key in _FAULT_KEYS}


class ProcessBackend(Backend):
    """Multiprocess executor for the batched solver.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    start_method:
        ``fork`` / ``forkserver`` / ``spawn``; defaults to ``fork`` where
        available (zero-copy page sharing of the parent's arrays until
        first write), else the platform default.
    max_shards:
        Upper bound on shards per dispatch; defaults to ``workers``.
    keep_fusion_runs:
        Keep contiguous equal-signature fusion runs inside one shard (see
        :func:`~repro.parallel.sharding.plan_shards`).  Disabling it
        trades shared-seed sweep fusion for finer load balancing; outputs
        are byte-identical either way.
    sweep_workers:
        Accepted only as ``0`` (the default), for callers written against
        the removed seed axis; any other value raises :class:`ValueError`.
    max_retries:
        Crash-recovery budget: how many times a shard whose worker died
        (``BrokenProcessPool``) is re-dispatched onto a rebuilt pool
        before the coordinator recomputes it inline.  Every recovery path
        recomputes deterministically, so results stay byte-identical to
        the serial backend whichever path answers.  ``0`` skips straight
        to the inline fallback.  Python exceptions *raised* by worker
        code are not faults and propagate unchanged — a deterministic
        recompute would fail identically.
    retry_backoff:
        Base seconds slept before retry ``n`` (linear: ``n *
        retry_backoff``), giving a crash-looping host a breather.

    Every dispatch plans contiguous shards on node-count weights; a
    single-shard plan runs inline (no slicing, no IPC), otherwise the
    shards run on the pool.  Each dispatch appends one telemetry record to
    :attr:`telemetry` — ``mode`` (always ``"instance"``),
    requested vs effective shards, wall seconds, a ``"faults"`` dict
    (crashes, retries, pool rebuilds, serial fallbacks; all zero on a
    healthy dispatch) — even when the dispatch raised or its stream was
    closed early.

    The pool is created lazily on first dispatch and reused across calls
    (one backend serves every batch of a service, say); :meth:`prewarm`
    builds it eagerly.  :meth:`close` — or use as a
    context manager — shuts it down *permanently*: dispatching or
    prewarming a closed backend raises :class:`RuntimeError` instead of
    silently resurrecting a pool the owner believed released.
    """

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
        max_shards: int | None = None,
        keep_fusion_runs: bool = True,
        sweep_workers: int = 0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ):
        import multiprocessing as mp

        if sweep_workers != 0:
            raise ValueError(
                f"sweep_workers={sweep_workers!r}: the seed axis was removed; "
                "only 0 is accepted"
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.workers = int(workers)
        self.start_method = start_method
        self.max_shards = self.workers if max_shards is None else int(max_shards)
        self.keep_fusion_runs = keep_fusion_runs
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.telemetry: list[dict] = []
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._executor is None:
            import multiprocessing as mp

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp.get_context(self.start_method),
            )
        return self._executor

    def prewarm(self) -> None:
        """Build the worker pool now rather than on first dispatch.

        A no-op with ``workers == 1`` — dispatches then run inline and a
        pool would only burn memory.  Raises :class:`RuntimeError` after
        :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        if self.workers > 1:
            self._pool()

    def close(self) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _rebuild_pool(self) -> None:
        """Drop a broken executor so the next :meth:`_pool` call builds a
        fresh one.  ``wait=False``: the dead pool's remaining workers are
        unjoinable anyway, and a SIGKILLed pool can deadlock a waiting
        shutdown."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _pool_map_with_recovery(self, payloads, faults):
        """Yield ``(index, solve_shard(payload))`` for every payload, in
        completion order, surviving worker death.

        All payloads are submitted to the pool (through
        :func:`~repro.parallel.worker.run_shard`); ``BrokenProcessPool`` —
        raised at submit time if the pool is already poisoned, or on any
        individual future — marks those payloads failed instead of
        escaping.  The broken executor is dropped and rebuilt and the
        failed payloads re-submitted, up to ``max_retries`` rounds with
        linear backoff; whatever still fails is computed inline, so a
        degraded backend answers every dispatch.  Recomputation is
        deterministic, so a retried or inlined piece's bytes are identical
        to a first-try pool solve.  Python exceptions *raised by* worker
        code propagate unchanged — they are bugs, not faults, and a
        deterministic recompute would fail identically.  ``faults`` is
        mutated in place (see ``_FAULT_KEYS``).  Closing the generator
        early cancels not-yet-started futures.
        """
        pending = dict(enumerate(payloads))
        attempts = 0
        while True:
            failed = {}
            futures = {}
            try:
                pool = self._pool()
                for j in sorted(pending):
                    futures[pool.submit(run_shard, pending[j])] = j
            except BrokenProcessPool:
                # Pool already broken at submit time: whatever did not
                # make it in is collected below, after the futures that
                # did land are drained.
                faults["crashes"] += 1
            try:
                for future in as_completed(futures):
                    j = futures[future]
                    try:
                        output = future.result()
                    except BrokenProcessPool:
                        faults["crashes"] += 1
                        failed[j] = pending[j]
                    else:
                        yield j, output
            finally:
                # Early close (GeneratorExit) or a worker exception: drop
                # pieces that have not started; the pool survives.
                for future in futures:
                    future.cancel()
            submitted = set(futures.values())
            for j, payload in pending.items():
                if j not in submitted:
                    failed[j] = payload
            if not failed:
                return
            # Worker death poisons the executor permanently — drop and
            # rebuild it even when falling back inline, so the *next*
            # dispatch finds a live pool.
            self._rebuild_pool()
            faults["pool_rebuilds"] += 1
            pending = failed
            if attempts < self.max_retries:
                attempts += 1
                faults["retries"] += len(pending)
                if self.retry_backoff > 0.0:
                    time.sleep(self.retry_backoff * attempts)
                continue
            break
        # Retries exhausted: the coordinator recomputes the failed pieces
        # inline, in index order.
        faults["serial_fallbacks"] += len(pending)
        for j in sorted(pending):
            yield j, solve_shard(pending[j])

    def _dispatch(self, batch, options: dict, per_instance: dict):
        """Plan contiguous shards of ``batch`` and yield ``(lo, hi,
        BatchColoringResult)`` per shard as it completes.

        Every shard solves with ``options`` and its own slice of each
        ``per_instance`` sequence.  A single-shard plan runs inline (no
        slicing, no IPC); otherwise the shards run on the pool with crash
        recovery.  The telemetry record is appended in the ``finally``, so
        a dispatch that raised or whose stream was closed early is still
        recorded.
        """
        plan = plan_shards(
            batch,
            min(self.max_shards, batch.num_instances),
            keep_fusion_runs=self.keep_fusion_runs,
        )

        def payload(shard, lo, hi):
            sliced = {
                key: None if seq is None else list(seq[lo:hi])
                for key, seq in per_instance.items()
            }
            return shard, {**options, **sliced}

        faults = _new_faults()
        start_time = time.perf_counter()
        try:
            if plan.effective_shards <= 1:
                k = batch.num_instances
                yield (0, k, solve_shard(payload(batch, 0, k)))
            else:
                bounds = plan.bounds.tolist()
                payloads = [
                    payload(shard, lo, hi)
                    for shard, lo, hi in zip(
                        batch.shard(plan.bounds), bounds[:-1], bounds[1:]
                    )
                ]
                for j, output in self._pool_map_with_recovery(payloads, faults):
                    yield (bounds[j], bounds[j + 1], output)
        finally:
            self.telemetry.append(
                {
                    "mode": "instance",
                    "requested_shards": int(plan.requested_shards),
                    "effective_shards": int(plan.effective_shards),
                    "wall_seconds": time.perf_counter() - start_time,
                    "faults": faults,
                }
            )

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        batch,
        r_schedule=None,
        strict: bool = True,
        rng=None,
        verify: bool = True,
        comm_depths=None,
        input_colorings=None,
        nums_input_colors=None,
    ):
        # Drain-and-merge over the streaming iterator: chunks arrive in
        # completion order, sorting by instance range restores batch order,
        # so the merged result is byte-identical to the serial path (the
        # golden suite pins this).
        chunks = sorted(
            self.solve_batch_iter(
                batch,
                r_schedule=r_schedule,
                strict=strict,
                rng=rng,
                verify=verify,
                comm_depths=comm_depths,
                input_colorings=input_colorings,
                nums_input_colors=nums_input_colors,
            ),
            key=lambda chunk: chunk[0],
        )
        return merge_solve_results(result for _lo, _hi, result in chunks)

    def solve_batch_iter(
        self,
        batch,
        r_schedule=None,
        strict: bool = True,
        rng=None,
        verify: bool = True,
        comm_depths=None,
        input_colorings=None,
        nums_input_colors=None,
    ):
        """Stream the solve: yield ``(lo, hi, BatchColoringResult)`` per
        shard as it completes (see :meth:`Backend.solve_batch_iter`).

        Shard solves are submitted to the pool and yielded through
        :func:`concurrent.futures.as_completed` — a fast shard lands
        before a slow one regardless of batch position, so a streaming
        consumer (the serving layer) resolves its requests at shard
        granularity instead of the merge barrier.  A single-shard plan
        yields one chunk covering the whole batch.  Validation errors
        raise at the call, not on first ``next()``.  Closing the iterator
        early cancels not-yet-started shard futures (running ones finish;
        the pool stays reusable) and still appends the telemetry record.
        The telemetry ``wall_seconds`` of a streamed dispatch includes any
        time the consumer spends between chunks.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        if rng is not None:
            raise ValueError(
                "the process backend requires derandomized solves "
                "(rng draws are ordered across the whole batch)"
            )
        if batch.num_instances == 0:
            return iter(())
        return self._dispatch(
            batch,
            dict(r_schedule=r_schedule, strict=strict, verify=verify),
            dict(
                comm_depths=comm_depths,
                input_colorings=input_colorings,
                nums_input_colors=nums_input_colors,
            ),
        )
