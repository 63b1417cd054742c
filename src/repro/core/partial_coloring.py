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
while the cheap id-sensitive endgame (eligibility, MIS, round charges) stays
per instance so each outcome is identical to a standalone pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instances import BatchedListColoringInstance, ListColoringInstance
from repro.core.prefix import PrefixResult, extend_prefixes_batch
from repro.engine.rounds import RoundLedger
from repro.graphs.graph import Graph
from repro.substrates.mis import mis_bounded_degree

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
    backend=None,
    sweep_cache=None,
) -> list[PartialColoringOutcome]:
    """One Lemma 2.1 pass on every instance of ``batch`` at once.

    ``psis`` is the concatenated per-instance input colorings (union node
    indexed); ``nums_input_colors``, ``comm_depths`` and ``ledgers`` are
    per-instance.  Returns one outcome per instance, each identical to a
    standalone :func:`partial_coloring_pass` on that instance.  ``backend``
    selects the executor exactly as in
    :func:`~repro.core.list_coloring.solve_list_coloring_batch`; with a
    process backend the worker ledgers are replayed event-by-event into
    the caller's ``ledgers``.  ``sweep_cache`` memoizes the serial path's
    grouped seed sweeps (ignored when a non-serial ``backend`` takes over,
    which installs its own cache scope).
    """
    if backend is not None:
        from repro.parallel.backend import SerialBackend, backend_scope

        with backend_scope(backend) as resolved:
            if not isinstance(resolved, SerialBackend):
                return resolved.partial_pass_batch(
                    batch,
                    psis,
                    nums_input_colors,
                    comm_depths=comm_depths,
                    ledgers=ledgers,
                    r_schedule=r_schedule,
                    avoid_mis=avoid_mis,
                    strict=strict,
                    rng=rng,
                )
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
        deltas = [
            int(batch.graph.degrees[batch.instance_slice(i)].max())
            for i in nonempty
        ]
        strengthens = [
            delta + 1 if avoid_mis else 1 for delta in deltas
        ]
        prefixes = extend_prefixes_batch(
            sub_batch,
            psis_sub,
            [nums_input_colors[i] for i in nonempty],
            r_schedule=r_schedule,
            strengthens=strengthens,
            strict=strict,
            rng=rng,
            sweep_cache=sweep_cache,
        )

        threshold = 1 if avoid_mis else 3
        for i, prefix in zip(nonempty, prefixes):
            n = int(sizes_n[i])
            psi = psis[batch.instance_slice(i)]
            colors = np.full(n, -1, dtype=np.int64)

            eligible = prefix.conflict_degrees <= threshold
            eligible_ids = np.flatnonzero(eligible)

            # Conflict subgraph restricted to eligible nodes.
            if len(prefix.conflict_edges_u):
                keep = (
                    eligible[prefix.conflict_edges_u]
                    & eligible[prefix.conflict_edges_v]
                )
                sub_u = prefix.conflict_edges_u[keep]
                sub_v = prefix.conflict_edges_v[keep]
            else:
                sub_u = sub_v = np.empty(0, dtype=np.int64)

            remap = np.full(n, -1, dtype=np.int64)
            remap[eligible_ids] = np.arange(len(eligible_ids))
            sub_u = remap[sub_u]
            sub_v = remap[sub_v]

            if avoid_mis:
                # Conflict degree ≤ 1: the higher id of each conflicting
                # pair joins; isolated eligible nodes join.  One CONGEST
                # round.
                members = np.ones(len(eligible_ids), dtype=bool)
                members[np.minimum(sub_u, sub_v)] = False
                mis_rounds = 1
            else:
                conflict_sub = Graph(
                    len(eligible_ids), np.stack([sub_u, sub_v], axis=1)
                )
                mis = mis_bounded_degree(
                    conflict_sub, psi[eligible_ids], int(nums_input_colors[i])
                )
                members = mis.members
                mis_rounds = mis.rounds

            winners = eligible_ids[members]
            colors[winners] = prefix.candidates[winners]
            colored = len(winners)

            if strict and rng is None:
                # Deterministic guarantee only; the randomized variant
                # achieves the bound in expectation (Lemmas 2.2/2.3), not
                # per run.
                required = n / 8.0
                if colored < required - 1e-9:
                    raise AssertionError(
                        f"Lemma 2.1 violated: colored {colored} < n/8 = {n / 8}"
                    )

            _charge_congest_rounds(ledgers[i], prefix, comm_depths[i], mis_rounds)
            outcomes[i] = PartialColoringOutcome(
                colors=colors,
                colored_count=colored,
                fraction=colored / n,
                prefix=prefix,
                mis_rounds=mis_rounds,
                eligible_count=int(eligible.sum()),
            )

    return [outcomes[i] for i in range(k)]
