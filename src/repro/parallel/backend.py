"""Execution backends for the batched Theorem 1.1 solver.

A backend decides *where* the array program of
:func:`~repro.core.list_coloring.solve_list_coloring_batch` runs:

* :class:`SerialBackend` — in-process, the default; exactly the existing
  single-call path.
* :class:`ProcessBackend` — shards the batch along ``instance_offsets``
  (:func:`~repro.parallel.sharding.plan_shards`, fusion runs kept whole)
  and dispatches shard solves to a ``ProcessPoolExecutor``.  Because
  every per-instance output of the batched engine is byte-identical to a
  batch-of-one solve, the merged colorings, seed choices, round ledgers
  and potential traces are byte-identical to the serial backend — the
  contract the golden suite and ``benchmarks/bench_parallel_backend.py``
  pin.

Both backends expose the same two operations — the full solve and the
single Lemma 2.1 pass — which is all the decomposition and MPC engines
need to route their class/residual batches through a pluggable executor.

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

import numpy as np

from repro.parallel.sharding import (
    merge_solve_results,
    plan_shards,
    replay_ledger,
)
from repro.parallel.worker import partial_pass_shard, run_shard, solve_shard

__all__ = [
    "Backend",
    "ProcessBackend",
    "SerialBackend",
    "backend_scope",
    "resolve_backend",
]


class Backend:
    """Protocol for batched-solver executors.

    Subclasses implement :meth:`solve_batch` (the full Theorem 1.1 loop)
    and :meth:`partial_pass_batch` (one Lemma 2.1 pass) with the exact
    signatures of their serial counterparts — same defaults, same return
    types, byte-identical outputs.
    """

    name = "abstract"

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

    def partial_pass_batch(self, batch, psis, nums_input_colors, **kwargs):
        raise NotImplementedError

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

    name = "serial"

    def solve_batch(self, batch, **kwargs):
        from repro.core.list_coloring import solve_list_coloring_batch

        return solve_list_coloring_batch(batch, **kwargs)

    def partial_pass_batch(self, batch, psis, nums_input_colors, **kwargs):
        from repro.core.partial_coloring import partial_coloring_pass_batch

        return partial_coloring_pass_batch(
            batch, psis, nums_input_colors, **kwargs
        )


def _slice(seq, lo: int, hi: int):
    return None if seq is None else list(seq[lo:hi])


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
    :attr:`telemetry` — ``op``, ``mode`` (always ``"instance"``),
    requested vs effective shards, wall seconds, a ``"faults"`` dict
    (crashes, retries, pool rebuilds, serial fallbacks; all zero on a
    healthy dispatch) — even when the dispatch raised or its stream was
    closed early.

    The pool is created lazily on first dispatch and reused across calls
    (one backend can serve every color class of a decomposition, say);
    :meth:`prewarm` builds it eagerly.  :meth:`close` — or use as a
    context manager — shuts it down *permanently*: dispatching or
    prewarming a closed backend raises :class:`RuntimeError` instead of
    silently resurrecting a pool the owner believed released.
    """

    name = "process"

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

    def _pool_map_with_recovery(self, shard_fn, payloads, faults):
        """Yield ``(index, shard_fn(payload))`` for every payload, in
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
                    futures[pool.submit(run_shard, (shard_fn, pending[j]))] = j
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
            yield j, shard_fn(pending[j])

    def _check_dispatch(self, rng) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        if rng is not None:
            raise ValueError(
                "the process backend requires derandomized solves "
                "(rng draws are ordered across the whole batch)"
            )

    def _dispatch(self, op: str, batch, shard_fn, make_payload):
        """The one shard-dispatch routine behind every operation.

        Plans contiguous shards, builds one ``make_payload(shard, lo,
        hi)`` per shard and yields ``(lo, hi, shard_fn(payload))`` per
        shard as it completes.  A single-shard plan runs inline (no
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
        faults = _new_faults()
        start_time = time.perf_counter()
        try:
            if plan.effective_shards <= 1:
                k = batch.num_instances
                yield (0, k, shard_fn(make_payload(batch, 0, k)))
            else:
                bounds = plan.bounds.tolist()
                payloads = [
                    make_payload(shard, lo, hi)
                    for shard, lo, hi in zip(
                        batch.shard(plan.bounds), bounds[:-1], bounds[1:]
                    )
                ]
                for j, output in self._pool_map_with_recovery(
                    shard_fn, payloads, faults
                ):
                    yield (bounds[j], bounds[j + 1], output)
        finally:
            record = {
                "op": op,
                "mode": "instance",
                "requested_shards": int(plan.requested_shards),
                "effective_shards": int(plan.effective_shards),
                "wall_seconds": time.perf_counter() - start_time,
                "faults": faults,
            }
            self.telemetry.append(record)

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
        self._check_dispatch(rng)
        if batch.num_instances == 0:
            return iter(())

        def make_payload(shard, lo, hi):
            return (
                shard,
                dict(
                    r_schedule=r_schedule,
                    strict=strict,
                    verify=verify,
                    comm_depths=_slice(comm_depths, lo, hi),
                    input_colorings=_slice(input_colorings, lo, hi),
                    nums_input_colors=_slice(nums_input_colors, lo, hi),
                ),
            )

        return self._dispatch("solve", batch, solve_shard, make_payload)

    # ------------------------------------------------------------------
    def partial_pass_batch(
        self,
        batch,
        psis,
        nums_input_colors,
        comm_depths=None,
        ledgers=None,
        r_schedule=None,
        avoid_mis: bool = False,
        strict: bool = True,
        rng=None,
    ):
        self._check_dispatch(rng)
        if batch.num_instances == 0:
            return []
        psis = np.asarray(psis, dtype=np.int64)
        offsets = batch.instance_offsets

        def make_payload(shard, lo, hi):
            return (
                shard,
                psis[int(offsets[lo]):int(offsets[hi])],
                list(nums_input_colors[lo:hi]),
                [
                    ledgers is not None and ledgers[i] is not None
                    for i in range(lo, hi)
                ],
                dict(
                    comm_depths=_slice(comm_depths, lo, hi),
                    r_schedule=r_schedule,
                    avoid_mis=avoid_mis,
                    strict=strict,
                ),
            )

        # Shard order restores batch order; each shard's fresh ledgers are
        # replayed event by event into the caller's, exactly the charges a
        # serial pass would have made.
        outcomes = []
        for lo, _hi, (shard_outcomes, shard_ledgers) in sorted(
            self._dispatch("partial_pass", batch, partial_pass_shard, make_payload),
            key=lambda chunk: chunk[0],
        ):
            outcomes.extend(shard_outcomes)
            for offset, shard_ledger in enumerate(shard_ledgers):
                if shard_ledger is not None:
                    replay_ledger(ledgers[lo + offset], shard_ledger)
        return outcomes


class _BackendScope:
    """Resolve a backend spec; on exit, close the backend only if it was
    constructed here (i.e. the spec was a name).  Caller-owned
    :class:`Backend` instances pass through untouched, so a shared pool
    survives across calls."""

    def __init__(self, spec, workers: int | None = None):
        self._spec = spec
        self._workers = workers
        self._backend: Backend | None = None

    def __enter__(self) -> Backend:
        self._backend = resolve_backend(self._spec, self._workers)
        return self._backend

    def __exit__(self, *exc) -> None:
        if self._backend is not None and self._backend is not self._spec:
            self._backend.close()


def backend_scope(spec, workers: int | None = None) -> _BackendScope:
    """Context manager around :func:`resolve_backend` that closes backends
    it created (names → fresh pools) and leaves caller-owned instances
    open.  The dispatch points use this so ``backend="process"`` cannot
    leak worker pools to nondeterministic GC."""
    return _BackendScope(spec, workers)


def resolve_backend(
    backend,
    workers: int | None = None,
    max_retries: int | None = None,
) -> Backend:
    """Coerce ``None`` / a name / a :class:`Backend` into a backend.

    ``None`` and ``"serial"`` give the in-process default; ``"process"``
    builds a :class:`ProcessBackend` (with ``workers`` / ``max_retries``
    if given — ``max_retries`` is the worker-crash retry
    budget before the inline serial fallback).  Backend instances pass
    through untouched, so callers can share one pool.
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        if backend == "serial":
            return SerialBackend()
        if backend == "process":
            kwargs = {}
            if max_retries is not None:
                kwargs["max_retries"] = max_retries
            return ProcessBackend(workers=workers, **kwargs)
        raise ValueError(
            f"unknown backend {backend!r} (expected 'serial' or 'process')"
        )
    raise TypeError(f"backend must be None, a name, or a Backend, got {backend!r}")
