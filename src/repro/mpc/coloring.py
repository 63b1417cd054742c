"""Deterministic (degree+1)-list coloring in the MPC model
(Theorems 1.4 and 1.5, Lemma 4.2, Observation 4.1).

Both regimes follow the Lemma 2.1 structure with the clique-style segment
derandomization; what differs is how node data is laid out and how much a
machine may touch per round:

* **linear memory** (S = Θ(n), Theorem 1.4): all edges and list entries of
  node u live on its home machine M_u.  Per phase, machines exchange the
  per-edge (k-counts, |L|) payloads, evaluate their candidate-vector of
  length 2^λ ≤ S locally, and aggregate the vectors over a √S-ary machine
  tree; O(1) rounds per segment, O(log Δ · log C) rounds in total, with an
  endgame that ships the ≤ n/Δ² residual nodes (≤ n/Δ edges) to one
  machine.
* **sublinear memory** (S = Θ(n^α), Theorem 1.5): a node's data spans
  machines; the per-node aggregation trees of Definition 5.4 (fan-out √S,
  depth O(1/α)) collect k-counts, and the conditional-expectation vectors
  are computed edge-based.  List updates after a pass use the set-difference
  primitive (Definition 5.3).  The endgame is Lemma 4.2: once Δ < √S the
  whole candidate color is fixed in a single phase per pass (our
  ``r = ⌈log C⌉`` prefix extension), O(log n) passes.

The seed *selection* arithmetic is the shared engine
(:mod:`repro.core.derandomize`) — mathematically identical to what the
machines compute piecewise — while every *data-plane* step (distribution,
neighbor exchange, list update, residual shipping) moves real records
through :class:`~repro.mpc.machine.MPCEngine` with the S-word budgets
enforced; the round ledger follows the schedule above.

Observation 4.1 (the (Δ+1) → list-coloring reduction) is implemented as a
genuine MPC computation over edge records via :func:`mpc_group_ranks`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.instances import (
    BatchedListColoringInstance,
    ColorListStore,
    ListColoringInstance,
)
from repro.core.list_ops import greedy_extend
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.core.prefix import full_width_schedule
from repro.core.validation import verify_proper_list_coloring
from repro.engine.rounds import RoundLedger
from repro.graphs.graph import Graph
from repro.mpc.machine import MPCConfig, MPCEngine
from repro.mpc.primitives import (
    SORT_ROUNDS,
    aggregation_fanout,
    mpc_group_ranks,
    mpc_set_difference,
    mpc_sort,
)

__all__ = [
    "MPCColoringResult",
    "solve_list_coloring_mpc",
    "observation_4_1_lists",
]


@dataclass
class MPCPassStats:
    active_before: int
    colored: int
    bits_per_phase: int
    phases: int
    rounds_charged: int
    potential_trace: list = field(default_factory=list)


@dataclass
class MPCColoringResult:
    colors: np.ndarray
    rounds: RoundLedger
    regime: str
    memory_words: int
    num_machines: int
    max_send_words: int = 0
    max_receive_words: int = 0
    max_storage_words: int = 0
    passes: list = field(default_factory=list)
    endgame_nodes: int = 0

    @property
    def num_passes(self) -> int:
        return len(self.passes)


# ----------------------------------------------------------------------
# Observation 4.1 — (Δ+1)-coloring reduces to (degree+1)-list coloring.
# ----------------------------------------------------------------------
def observation_4_1_lists(graph: Graph, engine: MPCEngine) -> dict:
    """Produce the lists L(u) = {0..deg(u)} as MPC records (Observation 4.1).

    The engine is loaded with the directed edge records; each machine
    storing (u, v) learns v's rank i among u's neighbors via Corollary 5.2
    and writes the list entry (u, i-1); the machine holding u's last edge
    also writes (u, deg(u)).  Returns ``{u: sorted list}`` assembled from
    the records (for verification against the direct construction).
    """
    directed = _directed_edges(graph)
    records = _tagged_records("edge", directed[:, 0], directed[:, 1])
    for machine in range(engine.num_machines):
        engine.stores[machine] = []
    engine.scatter(records)

    mpc_group_ranks(
        engine,
        key_fn=lambda r: (r[1], r[2]),
        group_fn=lambda r: r[1],
        annotate=lambda r, rank, size: ("entry", r[1], rank - 1, rank == size, size),
    )
    lists: dict = {u: set() for u in range(graph.n)}
    for store in engine.stores:
        for _tag, u, color, is_last, size in store:
            lists[u].add(color)
            if is_last:
                lists[u].add(size)
    for u in range(graph.n):
        if graph.degree(u) == 0:
            lists[u].add(0)
    return {u: sorted(colors) for u, colors in lists.items()}


# ----------------------------------------------------------------------
# The coloring solvers.
# ----------------------------------------------------------------------
def _directed_edges(graph: Graph) -> np.ndarray:
    """Both orientations of every edge, interleaved: (u,v), (v,u), ..."""
    directed = np.empty((2 * graph.m, 2), dtype=np.int64)
    directed[0::2, 0] = graph.edges_u
    directed[0::2, 1] = graph.edges_v
    directed[1::2, 0] = graph.edges_v
    directed[1::2, 1] = graph.edges_u
    return directed


def _tagged_records(tag: str, first: np.ndarray, second: np.ndarray) -> list:
    """``(tag, a, b)`` record tuples straight from two flat arrays.

    One ``zip`` over the materialized columns — no per-record Python
    unpacking loop.
    """
    return list(zip(itertools.repeat(tag), first.tolist(), second.tolist()))


def _initial_records(instance: ListColoringInstance) -> list:
    directed = _directed_edges(instance.graph)
    store = instance.lists
    records = _tagged_records("edge", directed[:, 0], directed[:, 1])
    records.extend(_tagged_records("list", store.node_ids(), store.values))
    return records


def _tree_depth(num_leaves: int, fanout: int) -> int:
    depth = 1
    reach = fanout
    while reach < max(1, num_leaves):
        reach *= fanout
        depth += 1
    return depth


def solve_list_coloring_mpc(
    instance: ListColoringInstance,
    regime: str = "linear",
    alpha: float = 0.5,
    strict: bool = True,
    verify: bool = True,
) -> MPCColoringResult:
    """Solve the instance in the MPC model (Theorem 1.4 or 1.5)."""
    if regime not in ("linear", "sublinear"):
        raise ValueError(f"regime must be 'linear' or 'sublinear', got {regime!r}")
    graph = instance.graph
    n = graph.n
    ledger = RoundLedger()
    colors = np.full(n, -1, dtype=np.int64)

    total_items = 2 * graph.m + int(instance.list_sizes().sum()) + 1
    if regime == "linear":
        config = MPCConfig.linear(max(8, n), total_items)
    else:
        config = MPCConfig.sublinear(max(8, n), total_items, alpha=alpha)
    engine = MPCEngine(config)
    result = MPCColoringResult(
        colors=colors,
        rounds=ledger,
        regime=regime,
        memory_words=config.memory_words,
        num_machines=config.num_machines,
    )
    if n == 0:
        return result

    # Input distribution: adversarial scatter, then the lexicographic sort
    # the paper assumes as preprocessing (Section 4).
    engine.scatter(_initial_records(instance))
    mpc_sort(engine, key=lambda r: (r[1], 0 if r[0] == "edge" else 1, r[2]))
    ledger.charge("preprocessing", SORT_ROUNDS)

    fanout = aggregation_fanout(config)
    machine_tree_depth = _tree_depth(config.num_machines, fanout)
    lam = max(1, int(math.floor(math.log2(max(2, config.memory_words)))))

    psi = np.arange(n, dtype=np.int64)  # ids as input coloring (K = n)
    lists = instance.copy_lists()
    delta = max(1, graph.max_degree)
    sqrt_s = int(math.isqrt(config.memory_words))

    while True:
        active = np.flatnonzero(colors == -1)
        if len(active) == 0:
            break

        # Endgame criteria.
        if regime == "linear" and len(active) <= max(1, n // max(1, delta * delta)):
            _mpc_endgame(engine, graph, lists, colors, active, ledger)
            result.endgame_nodes = len(active)
            break

        single_shot = regime == "sublinear" and delta < max(2, sqrt_s)
        if single_shot:
            # Lemma 4.2: fix the whole candidate color in one phase.
            r_schedule = full_width_schedule
        else:
            r_schedule = None  # one bit per phase

        sub_graph, original = graph.induced_subgraph(active)
        sub_instance = ListColoringInstance(
            sub_graph, instance.color_space, lists.subset(original)
        )

        # Maintain the residual records under the current placement (the
        # list updates of the previous pass rewrote the stores); the paper
        # maintains this incrementally in O(1) rounds, charged below.
        _load_residual_records(engine, graph, lists, colors)
        if regime == "sublinear":
            # The per-node aggregation trees of Definition 5.4: rebuilt on
            # the residual records and exercised for the k-count collection
            # of a sample of nodes; rounds flow through the engine.
            from repro.mpc.aggregation_tree import AggregationTreeStructure

            before = engine.rounds
            aggregation = AggregationTreeStructure(
                engine,
                group_fn=lambda r: r[1],
                key_fn=lambda r: (r[1], 0 if r[0] == "edge" else 1, r[2]),
            )
            if strict:
                aggregation.validate()
            for v in (int(x) for x in active[: min(4, len(active))]):
                size = aggregation.aggregate_group(
                    v,
                    value_fn=lambda r: 1 if r[0] == "list" else 0,
                    combine=lambda a_, b_: a_ + b_,
                )
                assert size == len(lists[v])
            ledger.charge(
                "aggregation_trees",
                max(2 * machine_tree_depth, engine.rounds - before),
            )
        else:
            mpc_sort(
                engine, key=lambda r: (r[1], 0 if r[0] == "edge" else 1, r[2])
            )
            ledger.charge("maintenance", SORT_ROUNDS)

        # Data plane: per-edge (k-counts, |L|) exchange.  Each machine ships
        # one payload word-pair per directed edge it stores.
        _exchange_edge_payloads(engine, ledger)

        # The residual instance rides the batched solver path (a batch of
        # one): the same fused phase engine every other consumer uses.
        outcome = partial_coloring_pass_batch(
            BatchedListColoringInstance.from_instances([sub_instance]),
            psi[original],
            [n],
            r_schedule=r_schedule,
            avoid_mis=True,
            strict=strict,
        )[0]
        newly = np.flatnonzero(outcome.colors != -1)
        colors[original[newly]] = outcome.colors[newly]

        # Round accounting for the seed fixing (segments of λ bits, each
        # one vector aggregation over the machine tree).
        pass_rounds = 0
        for record in outcome.prefix.phases:
            segments = max(1, math.ceil(record.seed_bits / lam))
            pass_rounds += 1  # payload exchange
            pass_rounds += segments * 2 * machine_tree_depth
            pass_rounds += 1  # bucket announcement
        pass_rounds += 2  # avoid-MIS round + winner announcements
        ledger.charge("passes", pass_rounds)

        # List updates through the set-difference primitive (real records).
        _mpc_list_update(
            engine, graph, lists, colors, original[newly], ledger, verify=verify
        )

        result.passes.append(
            MPCPassStats(
                active_before=len(active),
                colored=int(outcome.colored_count),
                bits_per_phase=outcome.prefix.phases[0].r
                if outcome.prefix.phases
                else 0,
                phases=len(outcome.prefix.phases),
                rounds_charged=pass_rounds,
                potential_trace=outcome.prefix.potential_trace,
            )
        )

    result.max_send_words = engine.max_send_words
    result.max_receive_words = engine.max_receive_words
    result.max_storage_words = engine.max_storage_words
    ledger.charge("data_plane", engine.rounds)
    if verify:
        verify_proper_list_coloring(instance, colors)
    return result


def _load_residual_records(
    engine: MPCEngine, graph: Graph, lists: ColorListStore, colors: np.ndarray
) -> None:
    """Replace the stores with the records of the uncolored residual."""
    uncolored = np.flatnonzero(colors == -1)
    active_mask = colors == -1
    srcs, nbrs = graph.gather_neighbors(uncolored)
    both = active_mask[nbrs]
    records = _tagged_records("edge", srcs[both], nbrs[both])
    residual = lists.subset(uncolored)
    records.extend(
        _tagged_records(
            "list", uncolored[residual.node_ids()], residual.values
        )
    )
    for machine in range(engine.num_machines):
        engine.stores[machine] = []
    engine.scatter(records)


def _exchange_edge_payloads(engine: MPCEngine, ledger: RoundLedger) -> None:
    """Ship one payload along every directed edge record (budget check).

    The machine storing (u, v) sends (v, u, k-counts, |L|) towards the
    machine storing (v, u); we route by the destination of the reversed
    record under the current sorted placement.
    """
    # Directory of reversed-edge locations under the current placement.
    location: dict = {}
    for machine, store in enumerate(engine.stores):
        for record in store:
            if record[0] == "edge":
                location[(record[1], record[2])] = machine

    def route(src, store):
        routed = [(src, record) for record in store]
        for record in store:
            if record[0] == "edge":
                dst = location.get((record[2], record[1]), src)
                routed.append((dst, ("payload", record[2], record[1])))
        return routed

    engine.exchange(route)

    # Drop the payload records again (they were consumed on arrival).
    def cleanup(src, store):
        return [(src, r) for r in store if r[0] != "payload"]

    engine.exchange(cleanup)
    ledger.charge("edge_payloads", 2)


def _mpc_list_update(
    engine: MPCEngine,
    graph: Graph,
    lists: ColorListStore,
    colors: np.ndarray,
    newly_colored: np.ndarray,
    ledger: RoundLedger,
    verify: bool = True,
) -> None:
    """Delete colors taken by newly colored neighbors (Definition 5.3).

    A-records: the list entries of still-uncolored nodes; B-records: for
    each newly colored node w and each uncolored neighbor u of w, the pair
    (u, color(w)).  After the set-difference, entries marked present are
    deleted.  The same deletion is applied to the driver's mirror of the
    lists; with ``verify`` the surviving records are collected and asserted
    equal to the mirror (the collection is skipped entirely otherwise — it
    is a debug cross-check, not part of the data plane or round charges).
    """
    uncolored = np.flatnonzero(colors == -1)
    before = lists.subset(uncolored)
    records = _tagged_records("a", uncolored[before.node_ids()], before.values)
    newly = np.asarray(newly_colored, dtype=np.int64)
    srcs, nbrs = graph.gather_neighbors(newly)
    open_nbr = colors[nbrs] == -1
    del_nodes = nbrs[open_nbr]
    del_colors = colors[srcs][open_nbr]
    records.extend(_tagged_records("b", del_nodes, del_colors))
    for machine in range(engine.num_machines):
        engine.stores[machine] = []
    engine.scatter(records)
    mpc_set_difference(
        engine, classify=lambda r: (r[0], r[1], r[2])
    )
    ledger.charge("list_update", SORT_ROUNDS + 2)

    # Driver mirror: the same deletion as one batched CSR update ...
    lists.delete_pairs(del_nodes, del_colors)
    if not verify:
        return
    # ... asserted equal to the records the MPC set-difference kept.
    surviving = [
        (u, c)
        for store in engine.stores
        for (_tag, u, c), present in store
        if not present
    ]
    if surviving:
        surv = np.asarray(surviving, dtype=np.int64)
        surv_nodes, surv_colors = surv[:, 0], surv[:, 1]
    else:
        surv_nodes = surv_colors = np.empty(0, dtype=np.int64)
    order = np.lexsort((surv_colors, surv_nodes))
    after = lists.subset(uncolored)
    if not (
        np.array_equal(surv_nodes[order], uncolored[after.node_ids()])
        and np.array_equal(surv_colors[order], after.values)
    ):
        raise AssertionError(
            "MPC set-difference and the CSR mirror update disagree"
        )


def _mpc_endgame(
    engine: MPCEngine,
    graph: Graph,
    lists: ColorListStore,
    colors: np.ndarray,
    active: np.ndarray,
    ledger: RoundLedger,
) -> None:
    """Ship the residual subgraph to machine 0 and solve locally.

    The movement is executed as a real exchange so the S-word receive
    budget of machine 0 is enforced — the endgame is only entered when the
    residual data provably fits.
    """
    active = np.asarray(active, dtype=np.int64)
    active_mask = np.zeros(graph.n, dtype=bool)
    active_mask[active] = True
    srcs, nbrs = graph.gather_neighbors(active)
    forward = active_mask[nbrs] & (srcs < nbrs)
    records = _tagged_records("edge", srcs[forward], nbrs[forward])
    residual = lists.subset(active)
    records.extend(
        _tagged_records("list", active[residual.node_ids()], residual.values)
    )
    for machine in range(engine.num_machines):
        engine.stores[machine] = []
    engine.scatter(records)
    engine.exchange(lambda src, store: [(0, r) for r in store])
    ledger.charge("endgame", 2)

    greedy_extend(graph, lists, colors, active)
