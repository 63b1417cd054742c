"""Deterministic (degree+1)-list coloring in the CONGESTED CLIQUE
(Theorem 1.3).

The algorithm is the one of Lemma 2.1 with three clique-specific speedups
(Section 4):

1. **No diameter term** — the leader is reached directly, and Θ(log n)-bit
   seed *segments* are fixed in O(1) rounds: the leader delegates one seed
   candidate to each of 2^λ helper nodes, every node sends its conditional
   expectation for each candidate to the responsible helper (unicast),
   helpers aggregate and the leader broadcasts the argmin.  Our engine
   realizes exactly this arithmetic (the batch evaluation over all
   candidates) and charges O(1) rounds per segment.
2. **Multi-bit extension** — once at most n/2^i nodes remain uncolored, the
   residual degree is ≤ n/2^i, so Lenzen routing lets every node ship 2^i
   bucket counts to each neighbor in O(1) rounds and i prefix bits are fixed
   per phase: ⌈log C⌉/i phases per pass.  Summing over passes gives the
   O(log C · log log Δ) total.
3. **Endgame** — when ≤ n/Δ nodes remain, the whole residual subgraph
   (≤ 2n words including lists) is Lenzen-routed to the leader and solved
   locally in O(1) rounds.

The input coloring ψ is the node ids (K = n), as in the paper's proof —
Linial is not needed because the seed is fixed in whole segments.  The MIS
at the end of each pass uses the "avoid MIS" accuracy boost of Section 4,
so it costs a single round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cliquemodel.model import CliqueSpec, lenzen_routing_rounds
from repro.core.instances import ListColoringInstance
from repro.core.list_ops import greedy_extend, prune_lists_after_coloring
from repro.core.partial_coloring import partial_coloring_pass
from repro.core.validation import verify_proper_list_coloring
from repro.engine.rounds import RoundLedger

__all__ = ["CliqueColoringResult", "solve_list_coloring_clique"]

#: Rounds charged to fix one Θ(log n)-bit seed segment (delegate candidates,
#: send conditional expectations, aggregate, broadcast argmin).
SEGMENT_ROUNDS = 4


@dataclass
class CliquePassStats:
    active_before: int
    colored: int
    bits_per_phase: int
    phases: int
    seed_segments: int
    rounds: int
    potential_trace: list = field(default_factory=list)


@dataclass
class CliqueColoringResult:
    colors: np.ndarray
    rounds: RoundLedger
    passes: list = field(default_factory=list)
    endgame_nodes: int = 0  #: nodes colored locally at the leader

    @property
    def num_passes(self) -> int:
        return len(self.passes)


def _segments(seed_bits: int, lam: int) -> int:
    return max(1, math.ceil(seed_bits / max(1, lam)))


def solve_list_coloring_clique(
    instance: ListColoringInstance,
    strict: bool = True,
    verify: bool = True,
    endgame: bool = True,
) -> CliqueColoringResult:
    """Solve the instance in the CONGESTED CLIQUE (Theorem 1.3)."""
    graph = instance.graph
    n = graph.n
    spec = CliqueSpec(n=n)
    ledger = RoundLedger()
    colors = np.full(n, -1, dtype=np.int64)
    result = CliqueColoringResult(colors=colors, rounds=ledger)
    if n == 0:
        return result

    lam = spec.word_bits  # segment length Θ(log n)
    psi = np.arange(n, dtype=np.int64)  # ids as input coloring (K = n)
    lists = instance.copy_lists()
    delta = max(1, graph.max_degree)

    while True:
        active = np.flatnonzero(colors == -1)
        if len(active) == 0:
            break

        # Endgame: residual graph fits at the leader (≈ 2n words).
        if endgame and len(active) * (delta + 1) <= 2 * n:
            sub_graph, original = graph.induced_subgraph(active)
            send = np.zeros(n, dtype=np.int64)
            send[original] = sub_graph.degrees + lists.sizes[original]
            receive = np.zeros(n, dtype=np.int64)
            receive[0] = int(send.sum())
            if receive[0] <= n:
                ledger.charge(
                    "endgame_routing", lenzen_routing_rounds(spec, send, receive)
                )
                # The leader's local solve: greedy on the residual graph.
                greedy_extend(graph, lists, colors, active)
                result.endgame_nodes = len(active)
                ledger.charge("endgame_broadcast", 1)
                break
            # Demand too large for one shot — keep iterating passes.

        # Multi-bit acceleration: uncolored ≤ n/2^i  ⇒  fix i bits/phase.
        shrink = max(1.0, n / len(active))
        bits_per_phase = max(1, int(math.floor(math.log2(shrink))) + 1)
        bits_per_phase = min(bits_per_phase, instance.color_bits, 6)

        sub_graph, original = graph.induced_subgraph(active)
        sub_instance = ListColoringInstance(
            sub_graph, instance.color_space, lists.subset(original)
        )
        outcome = partial_coloring_pass(
            sub_instance,
            psi[original],
            num_input_colors=n,
            r_schedule=lambda _phase, _left: bits_per_phase,
            avoid_mis=True,
            strict=strict,
        )
        newly = np.flatnonzero(outcome.colors != -1)
        colors[original[newly]] = outcome.colors[newly]
        prune_lists_after_coloring(graph, lists, colors, original[newly])

        # Round accounting per the Theorem 1.3 schedule.
        pass_rounds = 0
        for record in outcome.prefix.phases:
            segments = _segments(record.seed_bits, lam)
            pass_rounds += 1  # bucket-count exchange (Lenzen-feasible)
            pass_rounds += segments * SEGMENT_ROUNDS
            pass_rounds += 1  # bucket announcement
        pass_rounds += 1  # avoid-MIS single round
        pass_rounds += 1  # permanent-color announcements
        ledger.charge("passes", pass_rounds)

        result.passes.append(
            CliquePassStats(
                active_before=len(active),
                colored=int(outcome.colored_count),
                bits_per_phase=bits_per_phase,
                phases=len(outcome.prefix.phases),
                seed_segments=sum(
                    _segments(rec.seed_bits, lam) for rec in outcome.prefix.phases
                ),
                rounds=pass_rounds,
                potential_trace=outcome.prefix.potential_trace,
            )
        )

    if verify:
        verify_proper_list_coloring(instance, colors)
    return result
