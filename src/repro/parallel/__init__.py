"""Parallel execution backends for the batched solver core.

The batch ``(values, offsets, instance_offsets)`` array program shards
along its instance partition; :class:`ProcessBackend` dispatches shard
solves to a worker pool and merges every artifact — colorings, seed
choices, round ledgers, potential traces — back byte-identically to the
serial path (:class:`SerialBackend`).  Every dispatch appends one record
to the backend's ``telemetry`` (shards, wall time, faults).

The solvers take no backend: a caller reaches the pool by building a
:class:`ProcessBackend` and calling its ``solve_batch`` /
``solve_batch_iter``, or by handing it to
:class:`~repro.serving.service.ColoringService`.
"""

from repro.parallel.backend import (
    Backend,
    ProcessBackend,
    SerialBackend,
)
from repro.parallel.sharding import (
    ShardPlan,
    fusion_signatures,
    instance_fusion_signature,
    merge_solve_results,
    plan_shards,
)

#: Name prefix of the shared-memory segments the removed seed axis
#: created.  Nothing in the package creates such segments any more;
#: leak checks still scan for the prefix alongside the standard library's
#: ``psm_`` and ``sem.`` names.
SHM_PREFIX = "repro-sweep-"

__all__ = [
    "Backend",
    "ProcessBackend",
    "SHM_PREFIX",
    "SerialBackend",
    "ShardPlan",
    "fusion_signatures",
    "instance_fusion_signature",
    "merge_solve_results",
    "plan_shards",
]
