"""Fusion-keyed request coalescing for the serving layer.

A coloring request arrives alone, but the solver is cheapest when many
instances that share a seed space are packed into ONE
:class:`~repro.core.instances.BatchedListColoringInstance`: shared-seed
phase fusion runs one 2^m sweep for the whole group.
:class:`RequestCoalescer` therefore groups pending requests by their
static fusion signature ``(⌈log C⌉, Δ)``
(:func:`~repro.parallel.sharding.instance_fusion_signature` — the same
key the shard planner refuses to cut across) under two knobs:

* ``max_batch_instances`` — a group dispatches the moment it fills;
* ``max_delay_ms`` — a partial group dispatches once its *oldest*
  request has waited this long, bounding per-request latency.

Requests with different signatures never share a group: packing them
would buy no fusion (different seed spaces) while coupling their
latencies.

The coalescer is a pure data structure — no clock, no event loop, no
locks.  :meth:`RequestCoalescer.add` hands back a group exactly when it
fills; :meth:`due` / :meth:`flush_all` pop groups by deadline or
unconditionally.  :class:`~repro.serving.service.ColoringService` owns
the asyncio side (timers, futures, dispatch).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["PendingRequest", "RequestCoalescer"]


@dataclass
class PendingRequest:
    """One intake-queue entry: the instance, its coalescing key, the
    future the caller awaits, and the enqueue timestamp (monotonic
    seconds) the delay knob and latency telemetry are measured from."""

    instance: object  #: ListColoringInstance
    signature: tuple  #: (⌈log C⌉, Δ) fusion signature
    future: object  #: asyncio.Future resolved with the ColoringResult
    enqueued_at: float  #: time.monotonic() at submit


@dataclass
class RequestCoalescer:
    """Group pending requests by fusion signature (see module docstring)."""

    max_batch_instances: int = 8
    max_delay_ms: float = 2.0
    #: signature -> pending requests in arrival order.  Ordered so
    #: `flush_all` dispatches groups oldest-signature-first.
    _groups: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        self.max_batch_instances = int(self.max_batch_instances)
        if self.max_batch_instances < 1:
            raise ValueError(
                f"max_batch_instances must be >= 1, got {self.max_batch_instances}"
            )
        self.max_delay_ms = float(self.max_delay_ms)
        if self.max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {self.max_delay_ms}")

    @property
    def pending_count(self) -> int:
        return sum(len(group) for group in self._groups.values())

    def add(self, request: PendingRequest) -> list | None:
        """Enqueue ``request``; return its group if that filled it.

        A returned group is popped from the coalescer — the caller owns
        its dispatch.  ``None`` means the request is waiting for peers or
        its deadline.
        """
        group = self._groups.setdefault(request.signature, [])
        group.append(request)
        if len(group) >= self.max_batch_instances:
            del self._groups[request.signature]
            return group
        return None

    def next_deadline(self) -> float | None:
        """Monotonic time at which the oldest pending group falls due, or
        ``None`` when nothing is pending."""
        if not self._groups:
            return None
        oldest = min(group[0].enqueued_at for group in self._groups.values())
        return oldest + self.max_delay_ms / 1000.0

    def due(self, now: float) -> list:
        """Pop every group whose oldest request has waited ``max_delay_ms``
        by monotonic time ``now`` (oldest group first)."""
        cutoff = now - self.max_delay_ms / 1000.0
        ready = sorted(
            (
                signature
                for signature, group in self._groups.items()
                if group[0].enqueued_at <= cutoff
            ),
            key=lambda signature: self._groups[signature][0].enqueued_at,
        )
        return [self._groups.pop(signature) for signature in ready]

    def flush_all(self) -> list:
        """Pop every pending group regardless of deadline (oldest first)."""
        groups = sorted(
            self._groups.values(), key=lambda group: group[0].enqueued_at
        )
        self._groups = OrderedDict()
        return groups
