"""Seed-axis parallelism: shared-memory fan-out of the 2^m seed sweep.

The instance axis (:mod:`repro.parallel.sharding`) cannot help a
homogeneous batch — ``keep_fusion_runs`` collapses it to one shard — and
cannot help a single large instance at all.  This module adds the second
axis from the ROADMAP: split the per-phase enumeration of the 2^m
multiplicative seeds into contiguous chunks, run the *integer* counting
kernel (:class:`~repro.core.potential.SweepCountKernel`) for each chunk in
a pool worker, and land the partial results in one
``multiprocessing.shared_memory`` block — one producer per chunk, no
overlap, no serialization of the count matrix back through pickles.

Byte-identity is structural, not incidental: the kernel is elementwise per
(seed row, count column), so *any* partition of the seed range produces
the same integer matrix; the coordinator then applies the weighting
(:meth:`~repro.core.potential.SeedSweepWorkspace.weight_rows`) alone.  Each
``val1`` entry is a fixed function of exact integer sums over its own seed
row, so seed choices, ledgers and colorings follow bit-for-bit.

The :class:`SweepCostModel` decides how (and whether) to chunk, calibrated
online from worker-reported kernel timings, and feeds measured per-node
costs back to the shard planner so both axes are planned from the same
model.
"""

from __future__ import annotations

import os
import secrets
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "SeedChunkDispatcher",
    "SweepCostModel",
    "attach_sweep_shm",
    "create_sweep_shm",
]

#: Name prefix of every segment this module creates — the lifecycle tests
#: scan ``/dev/shm`` for leftovers by this prefix.
SHM_PREFIX = "repro-sweep-"


def create_sweep_shm(nbytes: int) -> shared_memory.SharedMemory:
    """Create a fresh uniquely-named shared-memory block (coordinator side).

    The coordinator owns the segment: it must ``close()`` *and*
    ``unlink()`` it (the dispatcher does both in a ``finally``), normal
    completion or not.
    """
    while True:
        name = SHM_PREFIX + secrets.token_hex(8)
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - 64-bit collision
            continue


def attach_sweep_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    Workers only borrow the coordinator's segment.  Python >= 3.13 has
    ``track=False`` for exactly this; older versions register the
    attachment too, but pool workers share the parent's resource tracker
    (the tracker fd travels in the spawn preparation data), so the
    worker's duplicate REGISTER is a set-level no-op there and the
    coordinator's ``unlink()`` performs the single clean UNREGISTER —
    unregistering here as well would strip the coordinator's entry and
    make its unlink warn.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _blend(old: float, new: float, alpha: float) -> float:
    return (1.0 - alpha) * old + alpha * new


@dataclass
class SweepCostModel:
    """Online cost model for the two-axis planner.

    All quantities start from rough priors and converge by EWMA as
    measured timings arrive — the first dispatch in a pool is planned from
    the priors, later ones from this pool's actual hardware.

    ``unit_seconds``
        Seconds of kernel work per count entry (seed row × count column).
        The prior deliberately sits at the *high* end of measured rates:
        an overestimate merely triggers one early dispatch whose timings
        then correct it, while an underestimate never dispatches and so
        never observes anything (the model only learns from dispatches).
    ``chunk_overhead``
        Fixed per-chunk cost of a pool dispatch (pickling the kernel,
        queue latency, shm attach).
    ``sweep_fraction``
        Fraction of a whole solve spent inside seed sweeps; drives the
        instance-vs-seed mode choice (Amdahl term of seed-axis dispatch).
    ``node_seconds``
        Measured seconds per node keyed by fusion signature — replaces the
        planner's raw node-count weights once a signature has been timed.
    """

    unit_seconds: float = 3e-7
    chunk_overhead: float = 2e-3
    sweep_fraction: float = 0.6
    alpha: float = 0.5  #: EWMA step
    node_seconds: dict = field(default_factory=dict)

    # ----------------------------------------------------------- observe
    def observe_sweep(
        self, entries: int, chunks: int, kernel_seconds: float, wall_seconds: float
    ) -> None:
        """Fold one dispatched sweep's timings into the model.

        ``kernel_seconds`` is the *sum* of worker-reported chunk times —
        the serial-equivalent compute — so ``unit_seconds`` calibrates
        independently of how many workers ran concurrently.
        """
        if entries > 0 and kernel_seconds > 0.0:
            self.unit_seconds = _blend(
                self.unit_seconds, kernel_seconds / entries, self.alpha
            )
        if chunks > 0 and wall_seconds > 0.0:
            overhead = max(0.0, wall_seconds - kernel_seconds) / chunks
            self.chunk_overhead = max(
                1e-5, _blend(self.chunk_overhead, overhead, self.alpha)
            )

    def observe_sweep_fraction(self, sweep_seconds: float, total_seconds: float) -> None:
        """Fold one solve's sweep share (seed-axis runs measure it free)."""
        if total_seconds > 0.0:
            fraction = min(1.0, max(0.0, sweep_seconds / total_seconds))
            self.sweep_fraction = _blend(self.sweep_fraction, fraction, self.alpha)

    def observe_shard(self, signature: tuple, nodes: int, wall_seconds: float) -> None:
        """Fold one timed shard solve into the per-signature node costs."""
        if nodes <= 0 or wall_seconds <= 0.0:
            return
        rate = wall_seconds / nodes
        old = self.node_seconds.get(signature)
        self.node_seconds[signature] = (
            rate if old is None else _blend(old, rate, self.alpha)
        )

    # ------------------------------------------------------------- plan
    def instance_weights(
        self, signatures: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Planner weights: measured seconds/node per signature × nodes.

        Signatures never timed fall back to the median measured rate (or
        1.0 with no measurements at all), so the weights stay node-count
        proportional until the model learns otherwise.
        """
        sizes = np.maximum(1, np.asarray(sizes, dtype=np.float64))
        if not self.node_seconds:
            return sizes
        default = float(np.median(list(self.node_seconds.values())))
        rates = np.array(
            [
                self.node_seconds.get(tuple(int(v) for v in sig), default)
                for sig in signatures
            ],
            dtype=np.float64,
        )
        return rates * sizes

    def plan_chunks(self, order: int, count_width: int, workers: int) -> int:
        """Seed-chunk count for one sweep: enough for the pool plus 2×
        oversubscription for balance, but never so many that per-chunk
        dispatch overhead rivals the chunk's kernel work (each chunk must
        carry >= 4× its own overhead)."""
        if workers <= 1 or order < 2 or count_width < 1:
            return 1
        serial = order * count_width * self.unit_seconds
        affordable = int(serial / (4.0 * self.chunk_overhead))
        return max(1, min(2 * workers, order, affordable))

    def seed_mode_share(self, workers: int) -> float:
        """Predicted runtime share of a seed-axis solve vs serial = 1.0
        (Amdahl: only the sweep fraction parallelizes)."""
        if workers <= 1:
            return 1.0
        f = self.sweep_fraction
        return (1.0 - f) + f / workers


class SeedChunkDispatcher:
    """Executor for grouped seed sweeps over a process pool.

    Installed by the backend via
    :func:`~repro.core.derandomize.sweep_dispatch_scope`; implements the
    core layer's dispatcher protocol: ``sweep_val1(sweep, order,
    chunk_size, out)`` fills the full ``val1`` matrix and returns True, or
    declines (too little work to beat dispatch overhead, count matrix too
    large for a sane segment) and returns False so the serial chunk loop
    runs.  ``sweep_counts(sweep, order, out)`` is the counts-only variant
    the sweep-result cache uses on a miss: same planning and fan-out, but
    the integer matrix is copied out unweighted for the coordinator to
    weight and store.

    ``pool_factory`` is called per dispatch so the backend's lazily
    created ``ProcessPoolExecutor`` is shared between both axes.

    **Crash recovery.**  A pool worker dying mid-chunk (OOM kill,
    segfault, ``os._exit``) surfaces as ``BrokenProcessPool`` on that
    chunk's future and permanently poisons the executor.  Because the
    counting kernel is deterministic and each chunk is the sole producer
    of its row range, recovery is purely mechanical: ``on_pool_broken``
    (the backend's pool rebuild) is invoked, the *failed* chunks — and
    only those — are re-dispatched up to ``max_retries`` times with
    linear backoff, and whatever still fails is recomputed inline by the
    coordinator, straight into the same shared segment.  The assembled
    integer matrix is byte-identical in every case.  The
    coordinator-owned segment is closed *and* unlinked in a ``finally``
    whether workers died or not, so a SIGKILLed worker cannot leak
    ``/dev/shm`` space.  Cumulative counters land in
    :attr:`fault_counters` (``crashes`` / ``retries`` / ``pool_rebuilds``
    / ``serial_fallbacks``); the backend diffs them per dispatch into its
    telemetry.  Without an ``on_pool_broken`` rebuild hook a broken pool
    cannot heal, so failed chunks go straight to the inline fallback.

    Exceptions *raised by* chunk code (a Python error inside the kernel)
    are not recovery material — recomputing a deterministic error fails
    identically — and propagate unchanged.
    """

    def __init__(
        self,
        pool_factory,
        workers: int,
        cost_model: SweepCostModel | None = None,
        telemetry: list | None = None,
        min_entries: int = 1 << 15,
        max_entries: int = 1 << 27,
        chunks: int | None = None,
        on_pool_broken=None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ):
        self.pool_factory = pool_factory
        self.workers = int(workers)
        self.cost_model = cost_model if cost_model is not None else SweepCostModel()
        self.telemetry = telemetry if telemetry is not None else []
        self.min_entries = int(min_entries)
        self.max_entries = int(max_entries)
        self.chunks = chunks  #: fixed chunk count (tests); None → cost model
        self.on_pool_broken = on_pool_broken
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        #: Cumulative worker-death counters (per-dispatch deltas are
        #: diffed into ``backend.telemetry`` records as ``"faults"``).
        self.fault_counters = {
            "crashes": 0,
            "retries": 0,
            "pool_rebuilds": 0,
            "serial_fallbacks": 0,
        }
        #: Creating process.  ``fork`` clones the ambient dispatch scope
        #: into pool workers, where this dispatcher's pool handle is a dead
        #: copy — a forked copy must decline so the serial loop runs there.
        self._pid = os.getpid()

    def _plan(self, kernel, order: int) -> int:
        """Chunk count for one sweep, or 0 to decline the dispatch."""
        if os.getpid() != self._pid:
            return 0
        if kernel is None or kernel.count_width == 0 or self.workers <= 1:
            return 0
        entries = order * kernel.count_width
        if entries > self.max_entries:
            return 0
        if self.chunks is not None:
            chunks = max(1, min(int(self.chunks), order))
        else:
            if entries < self.min_entries:
                return 0
            chunks = self.cost_model.plan_chunks(
                order, kernel.count_width, self.workers
            )
        return chunks if chunks > 1 else 0

    def _run_chunks(self, kernel, shm_name: str, order: int, spans: list):
        """Dispatch one round of chunk tasks; return ``(failed_spans,
        kernel_seconds)``.  Worker death (``BrokenProcessPool`` — at
        submit time if the pool is already broken, or on a chunk's
        future) marks that chunk failed instead of raising; every other
        exception propagates unchanged."""
        from repro.parallel.worker import sweep_chunk_counts

        kernel_seconds = 0.0
        failed = []
        futures = []
        try:
            pool = self.pool_factory()
            for lo, hi in spans:
                futures.append(
                    (
                        pool.submit(
                            sweep_chunk_counts, (kernel, shm_name, order, lo, hi)
                        ),
                        (lo, hi),
                    )
                )
        except BrokenProcessPool:
            # The pool was already broken: whatever did not make it in
            # joins the failed set.
            self.fault_counters["crashes"] += 1
            failed.extend(spans[len(futures):])
        for future, span in futures:
            try:
                _lo, _hi, seconds = future.result()
            except BrokenProcessPool:
                self.fault_counters["crashes"] += 1
                failed.append(span)
            else:
                kernel_seconds += seconds
        return failed, kernel_seconds

    def _fan_out(self, kernel, order: int, chunks: int, consume):
        """Run the chunked integer fan-out and hand the assembled count
        matrix (a view into the shared segment) to ``consume`` before the
        segment is released.  Returns ``(consume_result, kernel_seconds,
        wall_seconds)``.

        Worker death never escapes this method: failed chunks are retried
        on a rebuilt pool (``on_pool_broken``) up to ``max_retries``
        times, then recomputed inline — each chunk is elementwise over
        its own row range, so any mix of pool and inline producers
        assembles the identical integer matrix.  The shared segment
        outlives the retries (the coordinator owns it; a SIGKILLed
        worker's mapping dies with the worker) and is closed and unlinked
        in the ``finally`` on every path."""
        # Exact integer chunk edges: covers [0, order) for any chunk count,
        # dividing or not.
        edges = (order * np.arange(chunks + 1, dtype=np.int64)) // chunks
        spans = [
            (int(lo), int(hi))
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        ]
        entries = order * kernel.count_width
        start_time = time.perf_counter()
        shm = create_sweep_shm(entries * np.dtype(np.int64).itemsize)
        kernel_seconds = 0.0
        try:
            pending = spans
            attempts = 0
            while pending:
                failed, seconds = self._run_chunks(kernel, shm.name, order, pending)
                kernel_seconds += seconds
                if not failed:
                    break
                failed.sort()
                if self.on_pool_broken is not None:
                    # Heal the executor now, even if this dispatch falls
                    # back inline: the next sweep must find a live pool.
                    self.on_pool_broken()
                    self.fault_counters["pool_rebuilds"] += 1
                    if attempts < self.max_retries:
                        attempts += 1
                        self.fault_counters["retries"] += len(failed)
                        if self.retry_backoff > 0.0:
                            time.sleep(self.retry_backoff * attempts)
                        pending = failed
                        continue
                # Retries exhausted (or no rebuild hook): the coordinator
                # recomputes just the failed row ranges inline.
                fallback_start = time.perf_counter()
                view = np.ndarray(
                    (order, kernel.count_width), dtype=np.int64, buffer=shm.buf
                )
                try:
                    for lo, hi in failed:
                        kernel.count_rows(
                            np.arange(lo, hi, dtype=np.int64), out=view[lo:hi]
                        )
                finally:
                    del view  # drop the buffer view before close()
                kernel_seconds += time.perf_counter() - fallback_start
                self.fault_counters["serial_fallbacks"] += len(failed)
                break

            counts = np.ndarray(
                (order, kernel.count_width), dtype=np.int64, buffer=shm.buf
            )
            try:
                result = consume(counts)
            finally:
                del counts  # drop the buffer view before close()
        finally:
            shm.close()
            shm.unlink()
        return result, kernel_seconds, time.perf_counter() - start_time

    def _record(
        self,
        kernel,
        order: int,
        chunks: int,
        kernel_seconds: float,
        wall_seconds: float,
        weight_seconds: float | None,
    ) -> None:
        entries = order * kernel.count_width
        self.cost_model.observe_sweep(entries, chunks, kernel_seconds, wall_seconds)
        self.telemetry.append(
            {
                "order": int(order),
                "count_width": int(kernel.count_width),
                "chunks": int(chunks),
                "wall_seconds": wall_seconds,
                "kernel_seconds": kernel_seconds,
                "weight_seconds": weight_seconds,
                "fingerprint": kernel.fingerprint,
            }
        )

    def sweep_val1(self, sweep, order: int, chunk_size: int, out: np.ndarray) -> bool:
        kernel = sweep.kernel
        chunks = self._plan(kernel, order)
        if not chunks:
            return False

        def weight(counts: np.ndarray) -> float:
            # The weighting step, in the coordinator.  Row blocks are
            # independent, so the serial chunk_size granularity is kept
            # purely to bound the work arrays.
            weight_start = time.perf_counter()
            for start in range(0, order, chunk_size):
                stop = min(order, start + chunk_size)
                sweep.weight_rows(counts[start:stop], out=out[:, start:stop])
            return time.perf_counter() - weight_start

        weight_seconds, kernel_seconds, wall_seconds = self._fan_out(
            kernel, order, chunks, weight
        )
        self._record(
            kernel, order, chunks, kernel_seconds, wall_seconds, weight_seconds
        )
        return True

    def sweep_counts(self, sweep, order: int, out: np.ndarray) -> bool:
        """Counts-only fan-out (the sweep-cache miss path): fill ``out``
        with the full int64 count matrix and return True, or decline
        exactly as :meth:`sweep_val1` would.  No weighting happens
        here — the coordinator re-applies ``weight_rows`` itself (and the
        cache stores the pure integers), recorded as ``weight_seconds:
        None`` in telemetry."""
        kernel = sweep.kernel
        chunks = self._plan(kernel, order)
        if not chunks:
            return False
        _, kernel_seconds, wall_seconds = self._fan_out(
            kernel, order, chunks, lambda counts: np.copyto(out, counts)
        )
        self._record(kernel, order, chunks, kernel_seconds, wall_seconds, None)
        return True
