"""Worker-process entry points for the process backend.

These must be importable module-level functions: under the ``spawn`` and
``forkserver`` start methods the pool pickles the callable by qualified
name and re-imports :mod:`repro` inside the worker.  Payloads are plain
tuples of picklable pieces — the shard batch itself (whose
:class:`~repro.core.instances.ColorListStore` pickles as its two flat
arrays) plus the per-shard keyword slices.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine.rounds import RoundLedger

__all__ = [
    "FAULT_ENV",
    "solve_shard",
    "solve_shard_timed",
    "partial_pass_shard",
    "partial_pass_shard_timed",
    "sweep_chunk_counts",
]

#: Opt-in fault injection for the crash-recovery tests (see
#: ``tests/faults.py``).  The value is ``<action>:<marker>:<guard_pid>``:
#: ``exit-once`` makes the first worker call that wins the marker-file
#: race die via ``os._exit(1)`` (an abrupt, SIGKILL-like death — no
#: cleanup, no exception back to the pool); ``exit-always`` kills every
#: worker call.  ``guard_pid`` names the coordinating process, which
#: never injects — so the coordinator's inline serial fallbacks are safe
#: even if they shared these entry points.  Unset (the default) the hook
#: is a single dict lookup per task.
FAULT_ENV = "REPRO_FAULT_INJECT"


def _maybe_inject_fault() -> None:
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    action, _, rest = spec.partition(":")
    marker, _, guard_pid = rest.partition(":")
    if guard_pid and guard_pid == str(os.getpid()):
        return
    if action == "exit-always":
        os._exit(1)
    if action == "exit-once" and marker:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # another call already took the hit
        os.close(fd)
        os._exit(1)


def solve_shard(payload):
    """Run the full Theorem 1.1 loop on one shard (serially, in-process).

    The null dispatch scope matters under ``fork``: workers forked while
    the coordinator held a seed-axis scope would inherit its contextvar —
    and with it a dead copy of the coordinator's pool — so shard solves
    explicitly pin the serial sweep loop.  The null cache scope is pinned
    for the same reason: a forked worker would otherwise inherit the
    coordinator's sweep-result cache and grow a private, never-shared
    copy of it in every pool process.
    """
    _maybe_inject_fault()
    shard, kwargs = payload
    from repro.core.derandomize import sweep_cache_scope, sweep_dispatch_scope
    from repro.core.list_coloring import solve_list_coloring_batch

    with sweep_dispatch_scope(None), sweep_cache_scope(None):
        return solve_list_coloring_batch(shard, **kwargs)


def solve_shard_timed(payload):
    """:func:`solve_shard` plus its wall time (cost-model calibration)."""
    start = time.perf_counter()
    result = solve_shard(payload)
    return result, time.perf_counter() - start


def sweep_chunk_counts(payload):
    """Integer count rows for one contiguous seed chunk, written straight
    into the coordinator's shared-memory ``val1`` count matrix.

    ``payload`` is ``(kernel, shm_name, total_rows, lo, hi)``: the pickled
    :class:`~repro.core.potential.SweepCountKernel` (its GF(2^m) tables are
    rebuilt lazily from the per-process cache), the segment name, the full
    matrix height and this chunk's row range.  The kernel's count table
    is not pickled, so each chunk rebuilds it (one counting DP per
    distinct threshold row over every d ∈ [0, 2^b)) before its gathers;
    ``kernel_seconds`` includes that build.  Each chunk is the sole
    producer of its rows, so no synchronization is needed; the kernel is
    elementwise per row, so the assembled matrix is bit-identical to one
    serial enumeration.  Returns ``(lo, hi, kernel_seconds)``.
    """
    _maybe_inject_fault()
    kernel, shm_name, total_rows, lo, hi = payload
    from repro.parallel.sweep import attach_sweep_shm

    start = time.perf_counter()
    shm = attach_sweep_shm(shm_name)
    try:
        view = np.ndarray(
            (total_rows, kernel.count_width), dtype=np.int64, buffer=shm.buf
        )
        try:
            kernel.count_rows(np.arange(lo, hi, dtype=np.int64), out=view[lo:hi])
        finally:
            del view  # drop the buffer view before close()
    finally:
        shm.close()
    return lo, hi, time.perf_counter() - start


def partial_pass_shard(payload):
    """One Lemma 2.1 pass on one shard.

    ``ledger_mask[i]`` says whether the caller holds a ledger for shard
    instance i; a fresh ledger is charged here and shipped back so the
    dispatcher can replay its events into the caller's ledger.
    """
    _maybe_inject_fault()
    shard, psis, nums_input_colors, ledger_mask, kwargs = payload
    from repro.core.derandomize import sweep_cache_scope, sweep_dispatch_scope
    from repro.core.partial_coloring import partial_coloring_pass_batch

    ledgers = [RoundLedger() if has else None for has in ledger_mask]
    with sweep_dispatch_scope(None), sweep_cache_scope(None):
        outcomes = partial_coloring_pass_batch(
            shard, psis, nums_input_colors, ledgers=ledgers, **kwargs
        )
    return outcomes, ledgers


def partial_pass_shard_timed(payload):
    """:func:`partial_pass_shard` plus its wall time."""
    start = time.perf_counter()
    outcomes, ledgers = partial_pass_shard(payload)
    return outcomes, ledgers, time.perf_counter() - start
