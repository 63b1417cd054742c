"""Fault-injection harness for the crash-recovery tests.

Two ways to kill pool workers, both abrupt (``os._exit`` skips every
``finally`` and atexit hook — from the coordinator's side it is
indistinguishable from a SIGKILL/OOM kill):

* :func:`break_pool` — submit :func:`kill_self` straight to a backend's
  executor, poisoning it *before* the dispatch under test.  Exercises the
  submit-time ``BrokenProcessPool`` path.
* :func:`inject_exit_once` / :func:`inject_exit_always` — arm the
  ``REPRO_FAULT_INJECT`` hook in :mod:`repro.parallel.worker`, so a
  worker dies *mid-dispatch*, inside a real shard/chunk task.
  ``exit-once`` races on a marker file so exactly one task takes the hit;
  ``exit-always`` kills every pool task (retries included), forcing the
  inline serial fallback.  The guard pid (this process) never injects,
  so the coordinator's own fallback recomputation is safe even though it
  shares code paths with the workers.

:func:`shm_segments` / :func:`leaked_segments` are the shared-memory
leak check every backend test uses: snapshot before the dispatches under
test, then assert nothing new outlived them.

Everything here must be picklable by qualified name: ``spawn`` workers
re-import this module, which works because the tests directory is on
``sys.path`` (the suite already imports ``equivalence`` the same way).
Workers inherit ``os.environ`` at pool-creation time, so the inject
helpers only affect pools created *inside* the ``with`` block — use a
fresh backend per injected test, never a module-shared one.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager

from repro.parallel import SHM_PREFIX
from repro.parallel.worker import FAULT_ENV


def shm_segments() -> set:
    """Names in ``/dev/shm`` with the prefixes perfbench's hygiene gate
    scans: :data:`repro.parallel.SHM_PREFIX`, stdlib shared memory
    (``psm_``) and multiprocessing semaphores (``sem.``, which a live
    ``spawn``/``forkserver`` pool holds until it shuts down).

    Under pytest-xdist the other workers' live pools hold ``sem.`` names
    that cannot be told apart from this process's, so that prefix is only
    scanned when the suite runs in one process.
    """
    prefixes = (SHM_PREFIX, "psm_")
    if not os.environ.get("PYTEST_XDIST_WORKER"):
        prefixes += ("sem.",)
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {name for name in names if name.startswith(prefixes)}


def leaked_segments(before: set) -> list:
    """Segments of :func:`shm_segments`' kinds that appeared since the
    ``before`` snapshot and are still there."""
    return sorted(shm_segments() - before)


def kill_self(_arg=None):
    """Pool task that dies abruptly (no exception back, no cleanup)."""
    os._exit(1)


def raising_schedule(phase_index, bits_left):
    """Prefix-bit schedule that raises: a Python error inside shard code."""
    raise RuntimeError("schedule exploded")


def sleep_worker(seconds):
    """Pool task that idles, for wedging a worker mid-dispatch."""
    import time

    time.sleep(seconds)
    return os.getpid()


def break_pool(backend, timeout: float = 60.0) -> None:
    """Poison ``backend``'s executor by killing one worker in it.

    After this returns, the pool is broken: the next submit raises
    ``BrokenProcessPool``, which is exactly the state an OOM-killed or
    segfaulted worker leaves behind.
    """
    from concurrent.futures.process import BrokenProcessPool

    future = backend._pool().submit(kill_self)
    try:
        future.result(timeout=timeout)
    except BrokenProcessPool:
        return
    raise AssertionError("kill_self returned; the worker survived os._exit")


@contextmanager
def inject_exit_once(tmp_path):
    """Arm the worker-side hook: the first pool task (in any process
    created while armed) to win the marker-file race dies via
    ``os._exit(1)``; the rest run normally.  Yields the marker path so
    tests can assert the fault actually fired."""
    marker = os.path.join(os.fspath(tmp_path), f"fault-{uuid.uuid4().hex}")
    os.environ[FAULT_ENV] = f"exit-once:{marker}:{os.getpid()}"
    try:
        yield marker
    finally:
        os.environ.pop(FAULT_ENV, None)


@contextmanager
def inject_exit_always():
    """Arm the worker-side hook so EVERY pool task dies — retries can
    never succeed, forcing the coordinator's inline serial fallback."""
    os.environ[FAULT_ENV] = f"exit-always::{os.getpid()}"
    try:
        yield
    finally:
        os.environ.pop(FAULT_ENV, None)
