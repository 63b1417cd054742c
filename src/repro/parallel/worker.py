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

__all__ = [
    "FAULT_ENV",
    "run_shard",
    "solve_shard",
]

#: Opt-in fault injection for the crash-recovery tests (see
#: ``tests/faults.py``).  The value is ``<action>:<marker>:<guard_pid>``:
#: ``exit-once`` makes the first worker call that wins the marker-file
#: race die via ``os._exit(1)`` (an abrupt, SIGKILL-like death — no
#: cleanup, no exception back to the pool); ``exit-always`` kills every
#: worker call.  ``guard_pid`` names the coordinating process, which
#: never injects (its inline serial fallbacks call :func:`solve_shard`
#: directly and never reach the hook anyway).  Unset (the default) the
#: hook is a single dict lookup per task.
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
    """Run the full Theorem 1.1 loop on one shard, in this process.

    ``payload`` is ``(shard, kwargs)``; returns the shard's
    :class:`~repro.core.list_coloring.BatchColoringResult`.
    """
    shard, kwargs = payload
    from repro.core.list_coloring import solve_list_coloring_batch

    return solve_list_coloring_batch(shard, **kwargs)


def run_shard(payload):
    """Pool entry point: the fault-injection hook, then
    :func:`solve_shard`."""
    _maybe_inject_fault()
    return solve_shard(payload)
