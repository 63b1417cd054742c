"""Scenario: wireless frequency assignment as (degree+1)-list coloring.

Run:  python examples/frequency_assignment.py

Base stations form an interference graph (geometric neighbors interfere).
Regulation allows each station only a subset of the spectrum — its *list* —
but every station is guaranteed one more allowed channel than it has
interferers, which is exactly the paper's (degree+1)-list-coloring setting.
The deterministic CONGEST algorithm assigns channels so that no two
interfering stations share one, in O(D·polylog) simulated rounds and
without any randomness (no retry storms, reproducible plans).

The second half simulates *repeated traffic*: regulators revise the
channel lists every few hours, so the operator re-plans a stream of
perturbed instances over the same towers.  Replaying the stream gives
byte-identical assignments, because the solver is deterministic: an
audit can re-derive any past plan from its lists alone.

The final leg runs the same traffic through a
:class:`~repro.serving.service.ColoringService` — the planning desk as a
shared endpoint: regional operators submit re-plans concurrently, the
service coalesces same-signature requests into fused batches (one seed
sweep per group and phase) and resolves each submission the moment its
shard lands.  Every response is still byte-identical to a standalone
solve of that request.
"""

import asyncio
import time

import numpy as np

from repro import (
    ColoringService,
    ListColoringInstance,
    solve_list_coloring_congest,
    verify_proper_list_coloring,
)
from repro.graphs.graph import Graph


def build_interference_graph(num_stations: int, radius: float, seed: int):
    """Random geometric graph: stations within `radius` interfere."""
    rng = np.random.default_rng(seed)
    positions = rng.random((num_stations, 2))
    edges = []
    for u in range(num_stations):
        for v in range(u + 1, num_stations):
            if np.linalg.norm(positions[u] - positions[v]) < radius:
                edges.append((u, v))
    return Graph(num_stations, edges), positions


def allowed_channels(graph: Graph, spectrum: int, seed: int):
    """Per-station regulatory lists: deg+1 channels sampled from the
    spectrum, biased toward the lower band (licensing cost)."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / (1.0 + np.arange(spectrum))
    weights /= weights.sum()
    lists = []
    for v in range(graph.n):
        need = graph.degree(v) + 1
        lists.append(
            rng.choice(spectrum, size=need, replace=False, p=weights)
        )
    return lists


def repeated_traffic_demo(graph: Graph, spectrum: int, ticks: int = 5) -> None:
    """Re-plan a stream of perturbed instances twice.

    Each tick re-samples the regulatory lists (a new licensing round over
    the same towers); the stream is then solved a second time, as an
    audit replaying the same requests would.  The replay reproduces every
    assignment byte for byte.  Between ticks, the number of stations that
    must retune shows how much a licensing round churns the plan.
    """
    stream = [
        ListColoringInstance(
            graph, spectrum, allowed_channels(graph, spectrum, seed=100 + t)
        )
        for t in range(ticks)
    ]
    start = time.perf_counter()
    plans = [solve_list_coloring_congest(inst) for inst in stream]
    plan_seconds = time.perf_counter() - start
    replays = [solve_list_coloring_congest(inst) for inst in stream]
    for inst, plan, replay in zip(stream, plans, replays):
        verify_proper_list_coloring(inst, plan.colors)
        assert (plan.colors == replay.colors).all()
    retunes = [
        int((before.colors != after.colors).sum())
        for before, after in zip(plans, plans[1:])
    ]
    print(f"\nrepeated traffic: {ticks} perturbed instances, solved twice")
    print(
        f"  {plan_seconds * 1000 / ticks:7.1f} ms per plan; stations retuned "
        f"per licensing round: {retunes}"
    )
    print("  replayed assignments are byte-identical to the first plans")


def service_demo(graph: Graph, spectrum: int, ticks: int = 5) -> None:
    """The planning desk as a service: concurrent re-plan submissions.

    Two licensing waves over the same towers are submitted concurrently —
    all the requests of a wave at once, as independent regional operators
    would.  Same-signature requests coalesce into fused batches (watch the
    batch sizes), the second wave answers exactly as the first, and each
    submission resolves as soon as its shard completes; per-request
    latency percentiles come straight off the service telemetry.
    """
    stream = [
        ListColoringInstance(
            graph, spectrum, allowed_channels(graph, spectrum, seed=100 + t)
        )
        for t in range(ticks)
    ]
    direct = [solve_list_coloring_congest(inst) for inst in stream]

    async def drive():
        # serial backend: this demo's instances are small, so the fused
        # inline solve beats shipping shards to a pool.
        async with ColoringService(
            "serial", max_batch_instances=ticks, max_delay_ms=10.0
        ) as service:
            plans = []
            for _wave in range(2):
                plans.append(
                    await asyncio.gather(
                        *[service.submit(inst) for inst in stream]
                    )
                )
        # telemetry is complete once close() (the `async with` exit) ran
        return plans, service.stats(), list(service.request_latencies)

    (first_plans, second_plans), stats, latencies = asyncio.run(drive())
    for direct_plan, first, second in zip(direct, first_plans, second_plans):
        assert (first.colors == direct_plan.colors).all()
        assert (second.colors == direct_plan.colors).all()
    p50, p95 = np.percentile(np.array(latencies) * 1000.0, [50, 95])
    print(f"\nservice mode: 2 waves x {ticks} concurrent submissions")
    print(
        f"  coalesced batches: {stats['batches']} "
        f"(sizes {stats['batch_sizes']}, mean {stats['mean_batch_size']:.1f})"
    )
    print(
        f"  request latency: p50 {p50:7.1f} ms   p95 {p95:7.1f} ms "
        f"({stats['completed']} requests)"
    )
    print("  every response matches its standalone solve byte for byte")


def main() -> None:
    spectrum = 48  # channels
    graph, _positions = build_interference_graph(60, radius=0.22, seed=7)
    print(
        f"interference graph: {graph.n} stations, {graph.m} interference "
        f"pairs, max interferers Δ={graph.max_degree}"
    )
    instance = ListColoringInstance(
        graph, spectrum, allowed_channels(graph, spectrum, seed=8)
    )

    result = solve_list_coloring_congest(instance)
    verify_proper_list_coloring(instance, result.colors)

    print(f"assigned channels to all stations in {result.num_passes} passes, "
          f"{result.rounds.total} simulated rounds")
    usage = np.bincount(result.colors, minlength=spectrum)
    busiest = int(np.argmax(usage))
    print(f"busiest channel: {busiest} ({usage[busiest]} stations)")
    print(f"channels in use: {int((usage > 0).sum())}/{spectrum}")
    # Determinism: the plan is reproducible bit for bit.
    again = solve_list_coloring_congest(instance)
    assert (again.colors == result.colors).all()
    print("re-run produced the identical assignment (fully deterministic)")

    repeated_traffic_demo(graph, spectrum)
    service_demo(graph, spectrum)


if __name__ == "__main__":
    main()
