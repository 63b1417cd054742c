"""Fingerprint-keyed memoization of seed-sweep count matrices.

The 2^m seed sweep splits into a pure-integer half (the
:class:`~repro.core.potential.SweepCountKernel` — GF(2^m) multiply plus
count-table gather) and the weighting step
(:meth:`~repro.core.potential.SeedSweepWorkspace.weight_rows`).  The
kernel's :attr:`~repro.core.potential.SweepCountKernel.fingerprint` is a
sha256 over everything the integer half depends on — family parameters
``(a, b)``, bucket count, the (unique) ψ-difference column and endpoint
threshold rows — so two sweeps with equal fingerprints produce the same
int64 count matrix, bit for bit.  Repeated traffic over similar
instances (re-solves, perturbed streams, repair passes) therefore only
ever needs the integer half once per distinct fingerprint.

:class:`SweepResultCache` stores exactly those **integer count
matrices** and nothing float: the per-edge weights ``1/k_w(u) +
1/k_w(v)`` come from bucket *counts* that are not recoverable from the
threshold rows the fingerprint covers, so two sweeps may share a
fingerprint yet weight differently.  The coordinator re-applies
``weight_rows`` fresh on every hit; because the weighting makes each
``val1`` entry a fixed function of exact integer sums over its own seed
row, a warm solve is byte-identical to a cold one and to the cache-off
path.

Two tiers:

* **memory** — an LRU over read-only int64 arrays under a byte budget
  (``max_bytes``); a matrix larger than the whole budget is never
  admitted to memory (it would only evict everything else).
* **disk** (optional, ``directory=``) — one ``<fingerprint>.npy`` per
  entry, written atomically (temp file + ``os.replace``) so readers
  never observe partial writes.  Loads validate dtype and shape; any
  corrupt, truncated, or mismatched file counts as a miss (plus
  ``disk_errors``), is unlinked, and the sweep recomputes and rewrites
  it.  Disk hits are promoted into the memory tier.  An optional
  ``disk_max_bytes`` budget bounds the tier: every store prunes
  oldest-mtime entries until the directory fits again (counted as
  ``disk_evictions``), so a long-running service cannot grow the
  directory without bound across restarts.

The cache is consulted through the contextvar seam in
:mod:`repro.core.derandomize` (``sweep_cache_scope``) — the same
pattern as the seed-axis dispatcher — so the core never imports the
parallel machinery and worker processes can pin the cache off.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict

import numpy as np

__all__ = ["SweepResultCache"]


class SweepResultCache:
    """LRU memory tier + optional disk tier for sweep count matrices.

    Parameters
    ----------
    max_bytes:
        Byte budget of the in-memory tier (default 256 MiB).  ``0``
        disables the memory tier (useful for a disk-only cache).
    directory:
        Optional directory for the on-disk tier; created if missing.
        Entries are ``<fingerprint>.npy`` files shared by every process
        pointed at the same directory.
    disk_max_bytes:
        Optional byte budget of the on-disk tier (``None`` = unbounded,
        the pre-budget behaviour).  Enforced after every disk store by
        unlinking the oldest-mtime ``.npy`` entries until the directory
        fits; each unlink counts as a ``disk_evictions``.  A pruned
        entry is simply a future disk miss that recomputes and rewrites.
    """

    def __init__(
        self,
        max_bytes: int = 256 << 20,
        directory=None,
        disk_max_bytes: int | None = None,
    ):
        self.max_bytes = int(max_bytes)
        if self.max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.directory = os.fspath(directory) if directory is not None else None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        self.disk_max_bytes = None if disk_max_bytes is None else int(disk_max_bytes)
        if self.disk_max_bytes is not None and self.disk_max_bytes < 0:
            raise ValueError(
                f"disk_max_bytes must be >= 0 or None, got {disk_max_bytes}"
            )
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()
        self.memory_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_errors = 0
        self.disk_evictions = 0

    # ------------------------------------------------------------------
    def admits(self, nbytes: int) -> bool:
        """Whether a count matrix of ``nbytes`` is worth materializing:
        it fits the memory budget, or a disk tier can hold it.  Callers
        check this *before* filling the full (order × width) matrix so an
        oversized sweep falls back to the streaming chunk loop."""
        return int(nbytes) <= self.max_bytes or self.directory is not None

    def load(self, kernel, order: int) -> np.ndarray | None:
        """The cached count matrix for ``kernel`` over seeds [0, order),
        or ``None`` on a miss.  Returned arrays are read-only and shared;
        callers must treat them as immutable."""
        key = kernel.fingerprint
        shape = (int(order), kernel.count_width)
        counts = self._entries.get(key)
        if counts is not None:
            if counts.shape == shape:
                self._entries.move_to_end(key)
                self.hits += 1
                return counts
            # Same fingerprint but a different seed-range length (the
            # fingerprint covers (a, b) and order = 2^max(a, b), so this
            # only happens if a caller mixes orders): drop the entry.
            self.memory_bytes -= counts.nbytes
            del self._entries[key]
        if self.directory is not None:
            counts = self._load_disk(key, shape)
            if counts is not None:
                self.hits += 1
                self.disk_hits += 1
                self._insert(key, counts)
                return counts
        self.misses += 1
        return None

    def store(self, kernel, counts: np.ndarray) -> None:
        """Store the full count matrix for ``kernel``.  The cache takes
        ownership of ``counts`` (it is marked read-only in place)."""
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        counts.setflags(write=False)
        key = kernel.fingerprint
        self.stores += 1
        self._insert(key, counts)
        if self.directory is not None:
            self._store_disk(key, counts)

    def stats(self) -> dict:
        """Telemetry snapshot (plain ints, safe to diff across calls)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "memory_bytes": self.memory_bytes,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "disk_evictions": self.disk_evictions,
        }

    def clear(self) -> None:
        """Drop the memory tier (disk entries and counters are kept)."""
        self._entries.clear()
        self.memory_bytes = 0

    # ------------------------------------------------------------------
    def _insert(self, key: str, counts: np.ndarray) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.memory_bytes -= old.nbytes
        if counts.nbytes > self.max_bytes:
            return  # disk-only entry; would evict the whole memory tier
        self._entries[key] = counts
        self.memory_bytes += counts.nbytes
        while self.memory_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.memory_bytes -= evicted.nbytes
            self.evictions += 1

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".npy")

    def _store_disk(self, key: str, counts: np.ndarray) -> None:
        tmp_path = None
        try:
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=key[:16] + "-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, counts)
            os.replace(tmp_path, self._disk_path(key))
            tmp_path = None
            self.disk_stores += 1
            self._prune_disk(exclude=key + ".npy")
        except OSError:
            self.disk_errors += 1
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def _prune_disk(self, exclude: str | None = None) -> None:
        """Enforce ``disk_max_bytes``: unlink oldest-mtime entries until the
        tier fits.  ``exclude`` names the just-stored entry, explicitly
        ordered *last* in the prune queue: mtime order alone cannot keep
        it there, because on coarse-mtime filesystems (1 s granularity is
        common) a burst of stores produces mtime ties and the tie-broken
        sort can place the newest entry first — pruning would then evict
        exactly the matrix about to be consulted.  It is still pruned as
        the last resort, when it alone exceeds the whole budget."""
        if self.disk_max_bytes is None:
            return
        entries = []
        total = 0
        with os.scandir(self.directory) as scan:
            for entry in scan:
                if not entry.name.endswith(".npy"):
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, entry.name, stat.st_size))
                total += stat.st_size
        entries.sort()
        if exclude is not None:
            # Stable: mtime order is preserved within the non-excluded set.
            entries.sort(key=lambda item: item[1] == exclude)
        for _mtime, name, size in entries:
            if total <= self.disk_max_bytes:
                break
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                self.disk_errors += 1
                continue
            total -= size
            self.disk_evictions += 1

    def _load_disk(self, key: str, shape: tuple) -> np.ndarray | None:
        path = self._disk_path(key)
        if not os.path.exists(path):
            return None
        try:
            counts = np.load(path, allow_pickle=False)
            if counts.dtype != np.int64 or counts.shape != shape:
                raise ValueError(
                    f"cache entry {key}: expected int64 {shape}, "
                    f"got {counts.dtype} {counts.shape}"
                )
        except Exception:
            # Corrupt / truncated / mismatched entry: drop it so the
            # recompute that follows this miss rewrites a good one.
            self.disk_errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        counts.setflags(write=False)
        return counts
