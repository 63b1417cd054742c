"""One partial-coloring pass: Lemma 2.1.

Runs the derandomized prefix extension until every node holds a single
candidate color, then permanently colors an independent set of low-conflict
nodes:

* standard variant — nodes with conflict degree ≤ 3 (potential < 4) form a
  max-degree-3 subgraph of the conflict graph; an MIS of it (via Linial +
  color classes, O(log* K) rounds) keeps its candidate colors.  At least a
  1/8 fraction of all nodes is colored.
* ``avoid_mis`` variant (Section 4, "How to avoid MIS") — coins are produced
  with an extra (Δ+1) accuracy factor so the final potential is below n;
  at least half the nodes then have at most one conflict and the higher id
  of each conflicting pair wins, a 1-round MIS.  At least a 1/4 fraction is
  colored.

:func:`partial_coloring_pass_batch` runs the pass over every instance of a
:class:`BatchedListColoringInstance` simultaneously: the prefix extension is
the batched engine of :mod:`repro.core.prefix` (shared-seed phase fusion),
and the endgame (eligibility, the eligible conflict subgraph, the MIS) runs
once on the union of the instances' results.  The MIS's Linial crunch runs
once per group of instances sharing ``(K_i, conflict Δ_i)``, the inputs of
its schedule, so each outcome — members, MIS rounds, round charges — is
identical to a standalone pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instances import BatchedListColoringInstance, ListColoringInstance
from repro.core.prefix import PrefixResult, extend_prefixes_batch
from repro.engine.rounds import RoundLedger
from repro.graphs.graph import Graph
from repro.substrates.mis import mis_by_blocks

__all__ = [
    "PartialColoringOutcome",
    "partial_coloring_pass",
    "partial_coloring_pass_batch",
]


@dataclass
class PartialColoringOutcome:
    """Result of one Lemma 2.1 pass on an instance."""

    colors: np.ndarray  #: per node, the permanent color or -1
    colored_count: int
    fraction: float
    prefix: PrefixResult
    mis_rounds: int
    eligible_count: int  #: |V_{<4}| (or |V_{≤1}| in the avoid-MIS variant)


def _charge_congest_rounds(
    ledger: RoundLedger | None,
    prefix: PrefixResult,
    comm_depth: int,
    mis_rounds: int,
) -> None:
    """CONGEST round accounting for one pass (Lemma 2.6 / Lemma 2.1).

    Per phase: the (k-values, ψ) neighbor exchange — an r-bit phase ships
    2^r bucket counts per edge, and a CONGEST message carries O(1) of them,
    so the exchange costs ⌈2^r / 2⌉ rounds (1 for the paper's r = 1);
    then one aggregation + broadcast over the BFS tree per seed bit; then
    one round to announce the chosen bucket.  The MIS adds its Linial
    iterations and color-class rounds.
    """
    if ledger is None:
        return
    per_bit = 2 * max(1, comm_depth) + 1
    for record in prefix.phases:
        count_words = 1 << record.r
        ledger.charge("exchange", 1 + (count_words + 1) // 2)
        ledger.charge("seed_fixing", record.seed_bits * per_bit)
    ledger.charge("mis", mis_rounds)


def _empty_outcome() -> PartialColoringOutcome:
    return PartialColoringOutcome(
        np.full(0, -1, dtype=np.int64),
        0,
        0.0,
        PrefixResult(
            candidates=np.empty(0, dtype=np.int64),
            conflict_degrees=np.empty(0, dtype=np.int64),
            conflict_edges_u=np.empty(0, dtype=np.int64),
            conflict_edges_v=np.empty(0, dtype=np.int64),
        ),
        0,
        0,
    )


def partial_coloring_pass(
    instance: ListColoringInstance,
    psi: np.ndarray,
    num_input_colors: int,
    comm_depth: int = 1,
    ledger: RoundLedger | None = None,
    r_schedule=None,
    avoid_mis: bool = False,
    strict: bool = True,
    rng: np.random.Generator | None = None,
) -> PartialColoringOutcome:
    """Color at least 1/8 of the nodes of ``instance`` (Lemma 2.1).

    Single-instance view of :func:`partial_coloring_pass_batch`.
    """
    batch = BatchedListColoringInstance.from_instances([instance])
    return partial_coloring_pass_batch(
        batch,
        psi,
        [num_input_colors],
        comm_depths=[comm_depth],
        ledgers=[ledger],
        r_schedule=r_schedule,
        avoid_mis=avoid_mis,
        strict=strict,
        rng=rng,
    )[0]


def partial_coloring_pass_batch(
    batch: BatchedListColoringInstance,
    psis: np.ndarray,
    nums_input_colors,
    comm_depths=None,
    ledgers=None,
    r_schedule=None,
    avoid_mis: bool = False,
    strict: bool = True,
    rng: np.random.Generator | None = None,
) -> list[PartialColoringOutcome]:
    """One Lemma 2.1 pass on every instance of ``batch`` at once.

    ``psis`` is the concatenated per-instance input colorings (union node
    indexed); ``nums_input_colors``, ``comm_depths`` and ``ledgers`` are
    per-instance.  Returns one outcome per instance, each identical to a
    standalone :func:`partial_coloring_pass` on that instance.
    """
    k = batch.num_instances
    if k == 0:
        return []
    if comm_depths is None:
        comm_depths = [1] * k
    if ledgers is None:
        ledgers = [None] * k
    psis = np.asarray(psis, dtype=np.int64)
    sizes_n = batch.instance_sizes

    outcomes: dict[int, PartialColoringOutcome] = {}
    nonempty = [i for i in range(k) if sizes_n[i] > 0]
    for i in range(k):
        if sizes_n[i] == 0:
            outcomes[i] = _empty_outcome()

    if nonempty:
        if len(nonempty) == k:
            sub_batch = batch
            psis_sub = psis
        else:
            views = batch.split()
            sub_batch = BatchedListColoringInstance.from_instances(
                [views[i] for i in nonempty]
            )
            psis_sub = np.concatenate(
                [psis[batch.instance_slice(i)] for i in nonempty]
            )
        deltas = batch.graph.block_max_degrees(batch.instance_offsets)
        strengthens = [
            int(deltas[i]) + 1 if avoid_mis else 1 for i in nonempty
        ]
        prefixes = extend_prefixes_batch(
            sub_batch,
            psis_sub,
            [nums_input_colors[i] for i in nonempty],
            r_schedule=r_schedule,
            strengthens=strengthens,
            strict=strict,
            rng=rng,
        )

        # The endgame on the union of the instances' results: eligibility,
        # the eligible conflict subgraph and the MIS are per node, so one
        # array pass serves every instance.
        sub_offs = sub_batch.instance_offsets
        n_sub = sub_batch.n
        candidates = np.concatenate([p.candidates for p in prefixes])
        threshold = 1 if avoid_mis else 3
        degrees = np.concatenate([p.conflict_degrees for p in prefixes])
        eligible = degrees <= threshold
        eligible_ids = np.flatnonzero(eligible)
        remap = np.full(n_sub, -1, dtype=np.int64)
        remap[eligible_ids] = np.arange(len(eligible_ids))
        # Conflict edges stay canonical: each instance's are, and the
        # blocks are shifted in order.
        conflict_u = np.concatenate(
            [p.conflict_edges_u + sub_offs[j] for j, p in enumerate(prefixes)]
        )
        conflict_v = np.concatenate(
            [p.conflict_edges_v + sub_offs[j] for j, p in enumerate(prefixes)]
        )
        keep = eligible[conflict_u] & eligible[conflict_v]
        sub_u, sub_v = remap[conflict_u[keep]], remap[conflict_v[keep]]
        eligible_offs = np.searchsorted(eligible_ids, sub_offs)

        if avoid_mis:
            # Conflict degree ≤ 1: the higher id of each conflicting pair
            # joins; isolated eligible nodes join.  One CONGEST round.
            members = np.ones(len(eligible_ids), dtype=bool)
            members[np.minimum(sub_u, sub_v)] = False
            mis_rounds = np.ones(len(nonempty), dtype=np.int64)
        else:
            conflict = Graph.from_arrays(len(eligible_ids), sub_u, sub_v)
            members, mis_rounds = mis_by_blocks(
                conflict,
                psis_sub[eligible_ids],
                eligible_offs,
                [nums_input_colors[i] for i in nonempty],
            )

        winners = eligible_ids[members]
        colors_sub = np.full(n_sub, -1, dtype=np.int64)
        colors_sub[winners] = candidates[winners]
        colored_counts = np.bincount(
            np.searchsorted(sub_offs, winners, side="right") - 1,
            minlength=len(nonempty),
        )
        for j, (i, prefix) in enumerate(zip(nonempty, prefixes)):
            n = int(sizes_n[i])
            colored = int(colored_counts[j])
            if strict and rng is None:
                # Deterministic guarantee only; the randomized variant
                # achieves the bound in expectation (Lemmas 2.2/2.3), not
                # per run.
                required = n / 8.0
                if colored < required - 1e-9:
                    raise AssertionError(
                        f"Lemma 2.1 violated: colored {colored} < n/8 = {n / 8}"
                    )

            _charge_congest_rounds(
                ledgers[i], prefix, comm_depths[i], int(mis_rounds[j])
            )
            outcomes[i] = PartialColoringOutcome(
                colors=colors_sub[sub_offs[j]:sub_offs[j + 1]].copy(),
                colored_count=colored,
                fraction=colored / n,
                prefix=prefix,
                mis_rounds=int(mis_rounds[j]),
                eligible_count=int(eligible_offs[j + 1] - eligible_offs[j]),
            )

    return [outcomes[i] for i in range(k)]
