"""Deterministic (degree+1)-list coloring in D·polylog time (Theorem 1.1).

The solver:

1. computes a K = O(Δ²) input coloring with Linial's algorithm (O(log* n)
   rounds),
2. builds a BFS tree per connected component for the seed-bit aggregations
   (O(D) rounds),
3. repeats the partial-coloring pass of Lemma 2.1 on the residual graph of
   uncolored nodes — each pass permanently colors ≥ 1/8 of them, so
   O(log n) passes suffice — updating the color lists of uncolored nodes
   after every pass.

Every communication charge mirrors the paper's accounting; the returned
:class:`ColoringResult` carries the ledger, per-pass statistics and the
potential traces used by the T1/T2/T3 experiments.

:func:`solve_list_coloring_batch` runs the whole Theorem 1.1 loop over every
instance of a :class:`BatchedListColoringInstance` at once: per-pass
residual sub-instances are re-batched and solved through the shared-seed
fused prefix engine, color lists live in one flat CSR store pruned by a
single batched deletion per pass, and per-instance round ledgers / pass
statistics are recovered from the batch trace — identical to running the
instances sequentially.  Linial runs once per group of instances sharing
``(n_i, Δ_i)``, on the group's union graph; no per-instance instance
objects are built unless ``verify`` asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.instances import BatchedListColoringInstance, ListColoringInstance
from repro.core.list_ops import prune_lists_after_coloring
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.core.validation import verify_proper_list_coloring
from repro.engine.rounds import RoundLedger
from repro.substrates.linial import linial_coloring

__all__ = [
    "BatchColoringResult",
    "ColoringResult",
    "PassStats",
    "solve_list_coloring_batch",
    "solve_list_coloring_congest",
]


@dataclass
class PassStats:
    """Summary of one Lemma 2.1 pass inside the Theorem 1.1 loop."""

    active_before: int
    colored: int
    fraction: float
    potential_trace: list
    seed_bits: int
    phases: int


@dataclass
class ColoringResult:
    """A complete list coloring plus the evidence the experiments report."""

    colors: np.ndarray
    rounds: RoundLedger
    passes: list = field(default_factory=list)  #: list[PassStats]
    input_coloring_size: int = 0
    linial_iterations: int = 0
    comm_depth: int = 0

    @property
    def num_passes(self) -> int:
        return len(self.passes)


@dataclass
class BatchColoringResult:
    """Per-instance :class:`ColoringResult` list of one batched solve."""

    results: list = field(default_factory=list)

    @property
    def num_instances(self) -> int:
        return len(self.results)

    @property
    def colors(self) -> np.ndarray:
        """Concatenated colors in union node order."""
        if not self.results:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([r.colors for r in self.results])

    def rounds_totals(self) -> list[int]:
        return [r.rounds.total for r in self.results]


def solve_list_coloring_congest(
    instance: ListColoringInstance,
    r_schedule=None,
    strict: bool = True,
    rng: np.random.Generator | None = None,
    verify: bool = True,
    comm_depth: int | None = None,
    input_coloring: np.ndarray | None = None,
    num_input_colors: int | None = None,
) -> ColoringResult:
    """Solve the (degree+1)-list-coloring instance (Theorem 1.1).

    ``comm_depth`` overrides the aggregation-tree depth (Corollary 1.2 runs
    this solver on clusters whose communication happens over a Steiner tree
    of depth β in the *original* graph).  ``input_coloring`` likewise allows
    reusing an externally computed K-coloring instead of running Linial.

    Single-instance view of :func:`solve_list_coloring_batch`.
    """
    batch = BatchedListColoringInstance.from_instances([instance])
    result = solve_list_coloring_batch(
        batch,
        r_schedule=r_schedule,
        strict=strict,
        rng=rng,
        verify=verify,
        comm_depths=None if comm_depth is None else [comm_depth],
        input_colorings=None if input_coloring is None else [input_coloring],
        nums_input_colors=(
            None if num_input_colors is None else [num_input_colors]
        ),
    )
    return result.results[0]


def solve_list_coloring_batch(
    batch: BatchedListColoringInstance,
    r_schedule=None,
    strict: bool = True,
    rng: np.random.Generator | None = None,
    verify: bool = True,
    comm_depths=None,
    input_colorings=None,
    nums_input_colors=None,
) -> BatchColoringResult:
    """Solve every instance of ``batch`` through one Theorem 1.1 loop.

    ``comm_depths``, ``input_colorings`` and ``nums_input_colors`` are
    per-instance sequences (or None for the per-instance defaults: BFS-tree
    depth and Linial's coloring).  Each returned :class:`ColoringResult` —
    colors, round ledger, pass statistics and potential traces — is
    identical to a sequential :func:`solve_list_coloring_congest` call on
    that instance; the batching amortizes the per-phase seed enumerations
    across instances that share a seed space (see
    :func:`~repro.core.derandomize.derandomize_phase_group`).
    A :class:`~repro.parallel.backend.ProcessBackend` runs this same call
    on contiguous shards of the batch, byte-identically (see
    :mod:`repro.parallel`).
    """
    k = batch.num_instances
    if k == 0:
        return BatchColoringResult()
    offs = batch.instance_offsets
    sizes_n = batch.instance_sizes
    slices = [batch.instance_slice(i) for i in range(k)]
    colors = np.full(batch.n, -1, dtype=np.int64)
    lists = batch.copy_lists()

    # Step 1: input colorings, union-node indexed for one-gather ψ
    # restriction per pass (Linial's K = O(Δ²) from node ids by default).
    psi_global, num_input, linial_iters = _input_colorings(
        batch, input_colorings, nums_input_colors
    )
    results: list[ColoringResult] = []
    depths: list[int] = []
    for i in range(k):
        ledger = RoundLedger()
        if sizes_n[i] == 0:
            results.append(
                ColoringResult(colors=np.full(0, -1, dtype=np.int64), rounds=ledger)
            )
            depths.append(0)
            continue
        if input_colorings is None or input_colorings[i] is None:
            ledger.charge("linial", max(1, linial_iters[i]))

        # Step 2: BFS tree depth per component — the aggregation cost unit.
        depth = None if comm_depths is None else comm_depths[i]
        if depth is None:
            g = batch.instance_graph(i)
            depth = 0
            for component in g.connected_components():
                root = int(component[0])
                _, levels = g.bfs_tree(root)
                depth = max(depth, int(levels.max(initial=0)))
            ledger.charge("bfs_tree", max(1, depth))

        depths.append(int(depth))
        results.append(
            ColoringResult(
                colors=colors[slices[i]],
                rounds=ledger,
                input_coloring_size=num_input[i],
                linial_iterations=linial_iters[i],
                comm_depth=int(depth),
            )
        )

    max_passes = [
        max(1, math.ceil(math.log(max(2, int(n_i))) / math.log(8 / 7)) + 2)
        for n_i in sizes_n
    ]

    passes = [0] * k
    while True:
        active = np.flatnonzero(colors == -1)
        if len(active) == 0:
            break
        active_counts = np.bincount(
            np.searchsorted(offs, active, side="right") - 1, minlength=k
        )
        live = [i for i in range(k) if active_counts[i]]
        for i in live:
            passes[i] += 1
            if passes[i] > max_passes[i] and rng is None:
                raise AssertionError(
                    f"exceeded the O(log n) pass bound: "
                    f"{passes[i]} > {max_passes[i]}"
                )

        # The residual sub-batch in ONE union slice: the active set stays
        # sorted, so instance blocks stay contiguous and one induced
        # subgraph + one CSR subset replace the per-instance constructions
        # (each instance's block is exactly its own residual sub-instance).
        sub_graph, original = batch.graph.induced_subgraph(active)
        sub_offsets = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(active_counts[live], out=sub_offsets[1:])
        sub_batch = BatchedListColoringInstance(
            sub_graph,
            sub_offsets,
            batch.color_spaces[live],
            lists.subset(original),
        )
        outcomes = partial_coloring_pass_batch(
            sub_batch,
            psi_global[original],
            [num_input[i] for i in live],
            comm_depths=[depths[i] for i in live],
            ledgers=[results[i].rounds for i in live],
            r_schedule=r_schedule,
            strict=strict,
            rng=rng,
        )

        newly_global = []
        for j, (i, outcome) in enumerate(zip(live, outcomes)):
            block = original[sub_offsets[j]:sub_offsets[j + 1]]
            newly = np.flatnonzero(outcome.colors != -1)
            global_ids = block[newly]
            colors[global_ids] = outcome.colors[newly]
            newly_global.append(global_ids)
            results[i].passes.append(
                PassStats(
                    active_before=len(block),
                    colored=int(outcome.colored_count),
                    fraction=float(outcome.fraction),
                    potential_trace=outcome.prefix.potential_trace,
                    seed_bits=outcome.prefix.total_seed_bits,
                    phases=len(outcome.prefix.phases),
                )
            )

        # One batched CSR deletion prunes every instance's lists at once
        # (instances are vertex-disjoint, so this matches the sequential
        # per-instance updates exactly).
        prune_lists_after_coloring(
            batch.graph, lists, colors, np.concatenate(newly_global)
        )
        for i in live:
            results[i].rounds.charge("list_update", 1)

    for i in range(k):
        results[i].colors = colors[slices[i]].copy()
    if verify:
        for i, view in enumerate(batch.split()):
            if view.graph.n:
                verify_proper_list_coloring(view, results[i].colors)
    return BatchColoringResult(results=results)


def _input_colorings(batch, input_colorings, nums_input_colors):
    """ψ over the union nodes, plus per-instance K_i and Linial iterations.

    A given coloring is used as it is.  The others come from Linial's
    algorithm on node ids, run once per group of instances that share
    ``(n_i, Δ_i)`` — the only inputs its field choices read — on the
    group's union graph with local ids as the initial colors, so every
    node gets the color a standalone run gives it.
    """
    k = batch.num_instances
    offs = batch.instance_offsets
    sizes = batch.instance_sizes
    psi = np.zeros(batch.n, dtype=np.int64)
    num_colors = [0] * k
    iterations = [0] * k
    deltas = batch.graph.block_max_degrees(offs)
    groups: dict[tuple, list] = {}
    for i in np.flatnonzero(sizes).tolist():
        given = None if input_colorings is None else input_colorings[i]
        if given is None:
            groups.setdefault((int(sizes[i]), int(deltas[i])), []).append(i)
            continue
        size = None if nums_input_colors is None else nums_input_colors[i]
        if size is None:
            size = int(np.max(given, initial=0)) + 1
        psi[offs[i]:offs[i + 1]] = given
        num_colors[i] = int(size)
    for (n_i, _delta), members in groups.items():
        graph, nodes = batch.graph.block_subgraph(offs, members)
        local = nodes - np.repeat(offs[members], n_i)
        linial = linial_coloring(graph, local, n_i)
        psi[nodes] = linial.colors
        for i in members:
            num_colors[i] = linial.num_colors
            iterations[i] = linial.iterations
    return psi, num_colors, iterations
