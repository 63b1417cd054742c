"""Inert stand-in for the removed sweep-result cache.

Nothing in the package imports this module or calls either method.  It
stays only because the tracer of ``perfbench/`` wraps
``SweepResultCache.load`` / ``.store`` by name; the benchmark change that
retires the ``sweep_cache.*`` metrics deletes this module.
"""


class SweepResultCache:
    def load(self, kernel, order):
        return None

    def store(self, kernel, counts):
        pass
