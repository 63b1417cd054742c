"""The (UNICAST) CONGESTED CLIQUE model (Section 4, [LPPP03]).

n nodes, all-to-all communication: per round every node may send a distinct
O(log n)-bit message to every other node.  The input graph G may be an
arbitrary graph on the same node set.

Lenzen's routing theorem [Len13]: any routing demand in which every node
sends at most n messages and receives at most n messages can be delivered
in O(1) rounds.  :func:`lenzen_routing_rounds` *checks* a demand against
that premise and returns the constant round charge — algorithms that would
violate the premise fail loudly instead of silently cheating the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CliqueSpec", "lenzen_routing_rounds", "LENZEN_CONSTANT"]

#: Round cost charged for one invocation of Lenzen's routing scheme.  The
#: scheme of [Len13] runs in 16 rounds; any O(1) works for the theorems.
LENZEN_CONSTANT = 16


@dataclass(frozen=True)
class CliqueSpec:
    """Model parameters for a CONGESTED CLIQUE execution."""

    n: int

    @property
    def word_bits(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.n))))


def lenzen_routing_rounds(
    spec: CliqueSpec, send_counts, receive_counts
) -> int:
    """Validate a routing demand and return its O(1) round cost.

    ``send_counts[v]`` / ``receive_counts[v]`` are the number of O(log n)-
    bit words node v must send / receive.  Raises if any node exceeds the
    n-word premise of Lenzen's theorem.
    """
    limit = spec.n
    for v, count in enumerate(send_counts):
        if count > limit:
            raise ValueError(
                f"Lenzen routing premise violated: node {v} sends {count} "
                f"words > n = {limit}"
            )
    for v, count in enumerate(receive_counts):
        if count > limit:
            raise ValueError(
                f"Lenzen routing premise violated: node {v} receives {count} "
                f"words > n = {limit}"
            )
    return LENZEN_CONSTANT
