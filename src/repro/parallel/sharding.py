"""Shard planning and result merging for the parallel batch backend.

A :class:`~repro.core.instances.BatchedListColoringInstance` is one array
program over ``(values, offsets, instance_offsets)``; the instance
partition is its natural sharding boundary (ROADMAP: per-group seed sweeps
are embarrassingly parallel, per-instance bit fixing is already
segmented).  Every per-instance output of the batched solver is
byte-identical to a batch-of-one solve — the pinned contract of the
shared-seed fusion engine — so *any* contiguous partition of the instance
range merges back byte-identically.  The planner therefore only optimizes
throughput: shard boundaries prefer the boundaries of fusion *runs* —
maximal stretches of instances sharing a static seed-space signature — so
the shared-seed sweep fusion inside each shard is preserved rather than
split across workers.

The signature is a static proxy: the true per-phase fusion key is the
seed space ``(m, b, 2^r)`` with m = max(a, b), and the ψ-domain bits
``a`` depend on Linial's input-coloring size, which is only known
mid-solve.  Instances agreeing on ``(⌈log C⌉, Δ)`` agree on the accuracy
bits ``b`` of every phase, so the proxy only has to predict m: it is
exact whenever a ≤ b (then m = b), and for like-sized graphs a agrees
as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instances import BatchedListColoringInstance

__all__ = [
    "ShardPlan",
    "fusion_signatures",
    "instance_fusion_signature",
    "merge_solve_results",
    "plan_shards",
]


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` for non-negative int64 values.

    Six constant-shift passes (the binary expansion of 63) — exact, no
    float ``log2`` round-off at powers of two.
    """
    x = np.asarray(x, dtype=np.int64)
    out = np.zeros_like(x)
    v = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.int64(1) << shift)
        out[big] += shift
        v[big] >>= shift
    out[x > 0] += 1
    return out


def fusion_signatures(batch: BatchedListColoringInstance) -> np.ndarray:
    """Static per-instance seed-space signatures ``(⌈log C⌉, Δ_block)``.

    Returned as a ``(num_instances, 2)`` int64 matrix — row i is instance
    i's signature; rows compare with ``(sig[i] != sig[j]).any()``.
    Instances with equal signatures land in the same shared-seed fusion
    group in (almost) every phase; the planner avoids cutting between them.
    """
    k = batch.num_instances
    sizes = batch.instance_sizes
    deltas = np.zeros(k, dtype=np.int64)
    valid = np.flatnonzero(sizes > 0)
    if len(valid):
        # reduceat over the valid block starts: blocks between consecutive
        # valid starts are empty (equal offsets), so each segment covers
        # exactly one non-empty block's nodes.
        starts = batch.instance_offsets[:-1][valid]
        deltas[valid] = np.maximum.reduceat(batch.graph.degrees, starts)
    # ceil_log2(C) == bit_length(C - 1), clipped to >= 1.
    log_c = np.maximum(
        1, _bit_length(np.maximum(0, np.asarray(batch.color_spaces, np.int64) - 1))
    )
    return np.stack([log_c, deltas], axis=1)


def instance_fusion_signature(instance) -> tuple:
    """Static seed-space signature ``(⌈log C⌉, Δ)`` of ONE instance.

    The scalar twin of :func:`fusion_signatures` — identical values to the
    row a batch built from this instance would get — used by the serving
    layer's request coalescer to group unrelated requests that will fuse
    their shared-seed sweeps once batched together.
    """
    graph = instance.graph
    delta = int(graph.degrees.max()) if graph.n else 0
    log_c = max(1, max(0, int(instance.color_space) - 1).bit_length())
    return (log_c, delta)


@dataclass
class ShardPlan:
    """Outcome of :func:`plan_shards`.

    ``effective_shards`` may be smaller than ``requested_shards`` when
    ``keep_fusion_runs`` leaves fewer admissible cut points than shards
    requested; the backend reports both in its telemetry.
    """

    bounds: np.ndarray  #: int64 ``[0, .., num_instances]``, shard edges
    requested_shards: int

    @property
    def effective_shards(self) -> int:
        return max(1, len(self.bounds) - 1)


def plan_shards(
    batch: BatchedListColoringInstance,
    num_shards: int,
    keep_fusion_runs: bool = True,
) -> ShardPlan:
    """Contiguous shard plan along ``instance_offsets``.

    ``bounds`` is a non-decreasing int64 array ``[0, .., num_instances]``
    with at most ``num_shards`` gaps, balancing the per-shard node count.
    With ``keep_fusion_runs`` (the default), a boundary is only placed
    where the fusion signature changes, so contiguous shared-seed groups
    stay whole — a homogeneous batch then degrades to fewer (possibly one)
    shards rather than splitting its fused sweep, and the plan's
    ``effective_shards`` records the loss.
    """
    k = batch.num_instances
    num_shards = max(1, int(num_shards))
    if k == 0:
        return ShardPlan(
            bounds=np.array([0, 0], dtype=np.int64), requested_shards=num_shards
        )
    weights = np.maximum(1, batch.instance_sizes).astype(np.float64)
    cum = np.zeros(k + 1, dtype=np.float64)
    np.cumsum(weights, out=cum[1:])
    total = float(cum[-1])

    allowed = np.ones(k + 1, dtype=bool)
    if keep_fusion_runs and k > 1:
        signatures = fusion_signatures(batch)
        allowed[1:k] = (signatures[1:] != signatures[:-1]).any(axis=1)

    bounds = [0]
    candidates = np.flatnonzero(allowed)
    for j in range(1, num_shards):
        ideal = total * j / num_shards
        open_cuts = candidates[(candidates > bounds[-1]) & (candidates < k)]
        if not len(open_cuts):
            break
        pick = int(open_cuts[np.argmin(np.abs(cum[open_cuts] - ideal))])
        # Never overshoot so far that later shards starve: accept the cut
        # closest to the ideal boundary; monotonicity is enforced above.
        bounds.append(pick)
    bounds.append(k)
    return ShardPlan(
        bounds=np.array(bounds, dtype=np.int64), requested_shards=num_shards
    )


def merge_solve_results(shard_results) -> "BatchColoringResult":
    """Concatenate per-shard :class:`BatchColoringResult`\\ s in shard order.

    Instance order within shards and shard order together restore the
    original batch order; every per-instance artifact (colors, ledger,
    pass statistics, potential traces) is carried through untouched, so the
    merge is byte-identical to the serial solve by the batch contract.
    """
    from repro.core.list_coloring import BatchColoringResult

    merged = BatchColoringResult()
    for shard_result in shard_results:
        merged.results.extend(shard_result.results)
    return merged
