"""End-to-end CONGEST simulation of Theorem 1.1 (message level).

Stages, each a separate simulation on the same graph (their round counts
add up):

1. BFS-tree construction by flooding (O(D) rounds);
2. Linial's color reduction from ids to K = O(Δ²) colors (O(log* n)
   one-round steps, run as a message-passing program);
3. the partial-coloring passes of Lemma 2.1 until every node is colored
   (:mod:`repro.congest.coloring_program`).

Intended for small graphs — this is the model-fidelity layer.  The returned
stats include the exact simulated round count and the largest message ever
sent, which tests compare against the CONGEST budget and the engine's
round accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.congest.coloring_program import (
    CongestColoringRun,
    _linial_new_color,
    congest_coloring_program,
)
from repro.congest.programs import GeneratorProgram, MessageBuffer, bfs_program, exchange
from repro.congest.simulator import SyncSimulator
from repro.core.instances import ListColoringInstance
from repro.graphs.graph import Graph
from repro.substrates.linial import linial_schedule

__all__ = ["run_congest_coloring", "CongestRunStats", "simulate_bfs_tree"]


@dataclass
class CongestRunStats:
    colors: np.ndarray
    total_rounds: int
    bfs_rounds: int
    linial_rounds: int
    coloring_rounds: int
    messages_sent: int
    max_message_bits: int
    bandwidth_bits: int
    input_coloring_size: int


def simulate_bfs_tree(graph: Graph, root: int = 0, bandwidth_factor: int = 64):
    """Run the BFS program; returns (tree dict, rounds)."""
    programs = [GeneratorProgram(bfs_program(root)) for _ in range(graph.n)]
    sim = SyncSimulator(graph, programs, bandwidth_factor=bandwidth_factor)
    result = sim.run()
    tree = result.contexts[0].shared["bfs"]
    if len(tree) != graph.n:
        raise RuntimeError("BFS did not reach every node (graph disconnected?)")
    return tree, result.rounds


def _linial_program_factory(schedule, initial_color: int):
    def algo(ctx):
        buffer = MessageBuffer()
        color = initial_color
        results = ctx.shared.setdefault("linial", {})
        for seq, (q, t, _k) in enumerate(schedule):
            got = yield from exchange(buffer, seq, sorted(ctx.neighbors), color)
            color = _linial_new_color(color, list(got.values()), q, t)
        results[ctx.node] = color

    return algo


def run_congest_coloring(
    instance: ListColoringInstance, bandwidth_factor: int = 64
) -> CongestRunStats:
    """Simulate the full Theorem 1.1 pipeline at message level."""
    graph = instance.graph
    if graph.n == 0:
        return CongestRunStats(
            np.empty(0, dtype=np.int64), 0, 0, 0, 0, 0, 0, 0, 0
        )

    tree, bfs_rounds = simulate_bfs_tree(graph, 0, bandwidth_factor)

    # Linial stage: ids -> K = O(Δ²) colors.
    schedule = linial_schedule(max(2, graph.n), max(1, graph.max_degree))
    programs = [
        GeneratorProgram(_linial_program_factory(schedule, v))
        for v in range(graph.n)
    ]
    sim = SyncSimulator(graph, programs, bandwidth_factor=bandwidth_factor)
    linial_result = sim.run()
    if schedule:
        psi_map = linial_result.contexts[0].shared["linial"]
        psi = np.array([psi_map[v] for v in range(graph.n)], dtype=np.int64)
        num_input_colors = schedule[-1][0] ** 2
    else:
        psi = np.arange(graph.n, dtype=np.int64)
        num_input_colors = max(2, graph.n)

    run = CongestColoringRun(instance, psi, num_input_colors)
    programs = [
        GeneratorProgram(congest_coloring_program(run, 0, tree))
        for _ in range(graph.n)
    ]
    sim = SyncSimulator(graph, programs, bandwidth_factor=bandwidth_factor)
    coloring_result = sim.run()
    colors_map = coloring_result.contexts[0].shared["colors"]
    colors = np.array([colors_map[v] for v in range(graph.n)], dtype=np.int64)

    total = bfs_rounds + linial_result.rounds + coloring_result.rounds
    return CongestRunStats(
        colors=colors,
        total_rounds=total,
        bfs_rounds=bfs_rounds,
        linial_rounds=linial_result.rounds,
        coloring_rounds=coloring_result.rounds,
        messages_sent=coloring_result.messages_sent,
        max_message_bits=max(
            coloring_result.max_message_bits, linial_result.max_message_bits
        ),
        bandwidth_bits=sim.spec.bits_per_message,
        input_coloring_size=num_input_colors,
    )
