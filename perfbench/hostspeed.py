"""Host speed reference: a fixed pure-Python loop, timed between operations.

The benchmark shares a small host with other work, and each of the
host's CPUs slows down on its own, by up to 1.8x, in stretches of a
second to minutes: the same solve of the same input in one process takes
anywhere from 0.8 s to 1.5 s, with CPU time equal to wall time.  A fixed
pure-Python loop slows with it, so the benchmark times that loop on each
CPU the workload may use while the program is idle, and reports its
timings at reference speed::

    scaled = measured * REFERENCE_MS / (median loop time in ms)

that is, the figure a host on which the loop takes ``REFERENCE_MS`` would
show.  The loop is the benchmark's own code, so a change to the program
moves a scaled figure by the same share as the measured one.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

#: Loop time, in ms, that scaled figures refer to.
REFERENCE_MS = 10.0
#: Iterations of the reference loop (about 10 ms on a 2 GHz core).
LOOP = 150_000
#: Seconds between background samples (:meth:`HostSpeed.sampling`).
PERIOD_S = 0.3


def probe() -> float:
    """CPU seconds one pass of the reference loop takes on this thread.
    CPU time, not wall time, so that waiting for the GIL or for a core
    that another process holds does not count; a slower core does."""
    start = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.thread_time() - start


class HostSpeed:
    """Reference-loop times taken during one phase of a run."""

    def __init__(self):
        self.samples: list = []

    def sample(self, n: int = 3) -> None:
        """``n`` loop times on each CPU this process may use, in turn:
        the CPUs of a shared host slow down independently of each other."""
        allowed = os.sched_getaffinity(0)
        try:
            for _ in range(n):
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    self.samples.append(probe())
        finally:
            os.sched_setaffinity(0, allowed)

    @contextlib.contextmanager
    def sampling(self, period: float = PERIOD_S):
        """Sample the loop on a background thread, once at once and then
        every ``period`` seconds, until the block ends: the speed of a
        long solve is its CPU's average speed while it runs, which samples
        taken only between solves miss.  The thread shares the CPU and the
        GIL with the solve and takes a few percent of its time, the same
        share whatever the program does."""
        stop = threading.Event()

        def run():
            self.samples.append(probe())
            while not stop.wait(period):
                self.samples.append(probe())

        thread = threading.Thread(target=run, name="hostspeed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def probe_ms(self) -> float:
        """Median loop time in ms."""
        return statistics.median(self.samples) * 1000.0

    def scale(self) -> float:
        """Factor from measured to reference-speed timings."""
        return REFERENCE_MS / self.probe_ms()
