"""One workload run, in its own interpreter: set up, measure, check.

Started by ``run.py``, never by hand.  Prints one line
``PERFBENCH_RESULT <json>`` as the last line of its standard output; the
JSON holds ``correct``, ``attempted``, ``failed``, ``metrics`` and an
``extra`` dict the report uses.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with no wrapper installed; with ``--trace 1``
they are the per-layer ones, from operations run under the tracer, and
the spans are written to ``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.  An engine set-up
#: includes a full warm-up solve; serve-burst's are short, so it takes more.
SETUPS = 3
SERVE_SETUPS = 7
#: polylog-grid inputs per run: its rounds and solve time depend on the id
#: permutation, so a run cycles through several.
GRID_PERMUTATIONS = 8
#: serve-burst shape.
BURST_RATE = 1.0  # bursts per second, Poisson arrivals
BURST_SIZE = 8
POOL_GRAPHS = 16
SERVE_DEGREES = (6, 10)
SERVE_NODES = 64
#: serve-burst samples host speed only in idle gaps at least this long.
PROBE_GAP_S = 0.05
PROBES_PER_GAP = 4


def shm_segments() -> set:
    """Names in ``/dev/shm`` of the kinds this program's processes create:
    seed-sweep segments, stdlib shared memory and semaphores."""
    from repro.parallel import SHM_PREFIX

    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {n for n in names if n.startswith((SHM_PREFIX, "psm_", "sem."))}


def hygiene_problems(shm_before: set) -> list:
    """What the run left behind: live child processes, and shared-memory
    segments created since ``shm_before`` was taken."""
    problems = []
    alive = multiprocessing.active_children()
    if alive:
        problems.append(
            f"{len(alive)} child process(es) still alive: "
            + ", ".join(str(p.pid) for p in alive)
        )
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append("shared memory left behind: " + ", ".join(sorted(leaked)))
    return problems


def digest(result) -> str:
    """Hash of a solve's colors and round ledger."""
    h = hashlib.sha256(np.ascontiguousarray(result.colors, dtype=np.int64).tobytes())
    h.update(json.dumps(sorted(result.rounds.breakdown().items())).encode())
    return h.hexdigest()


class Gate:
    """The correctness gate, applied outside every timed span.

    Each key (an instance) has a reference digest, the first output seen
    for it; every later output must hash the same.  Each distinct output
    is checked once with ``verify_proper_list_coloring``.
    """

    def __init__(self):
        self.reference: dict = {}
        self.verified: set = set()
        self.errors: list = []

    def check(self, key, instance, result, expected: str | None = None) -> bool:
        from repro.core.validation import verify_proper_list_coloring

        d = digest(result)
        if expected is not None:
            self.reference.setdefault(key, expected)
        ref = self.reference.setdefault(key, d)
        if d != ref:
            self.errors.append(f"{key}: output differs from its reference")
            return False
        if d not in self.verified:
            try:
                verify_proper_list_coloring(instance, result.colors)
            except (AssertionError, ValueError) as exc:
                self.errors.append(f"{key}: {exc}")
                return False
            self.verified.add(d)
        return True


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
    return float(ordered[rank])


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------
def _regular(n: int, d: int):
    def inputs(seed: int) -> list:
        from repro.core.instances import make_delta_plus_one_instance
        from repro.graphs.generators import random_regular_graph

        return [make_delta_plus_one_instance(random_regular_graph(n, d, seed))]

    return inputs


def _permuted_grids(seed: int) -> list:
    """``GRID_PERMUTATIONS`` copies of the 100x100 grid, node ids permuted."""
    from repro.core.instances import make_delta_plus_one_instance
    from repro.graphs.generators import grid_graph
    from repro.graphs.graph import Graph

    base = grid_graph(100, 100)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(GRID_PERMUTATIONS):
        perm = rng.permutation(base.n)
        edges = np.stack([perm[base.edges_u], perm[base.edges_v]], axis=1)
        out.append(make_delta_plus_one_instance(Graph(base.n, edges)))
    return out


def _engines() -> dict:
    """name -> (root span, seed -> input instances, solver)."""
    from repro.cliquemodel.coloring import solve_list_coloring_clique
    from repro.core.list_coloring import solve_list_coloring_congest
    from repro.decomposition.decomposed_coloring import solve_list_coloring_polylog

    return {
        "congest-r1": ("congest.solve", _regular(2000, 16), solve_list_coloring_congest),
        "clique-multibit": ("cliquemodel.solve", _regular(600, 8), solve_list_coloring_clique),
        "polylog-grid": ("decomposition.solve", _permuted_grids, solve_list_coloring_polylog),
    }


def run_engine(name: str, seed: int, seconds: float, tracer) -> dict:
    """Solve i is of input ``i % len(inputs)``.  Set-up k builds the
    inputs and runs solve k; the solves of set-ups after the first are
    warm, so they are latency samples as well as the timed window's."""
    root, inputs, solve = _engines()[name]
    limit_ms = spec.WORKLOADS[name][1]
    gate = Gate()
    instances: list = []
    rounds: dict = {}

    def solve_one(i, rid=None):
        key = i % len(instances)
        instance = instances[key]
        start = time.perf_counter()
        if rid is None:
            result = solve(instance)
        else:
            tracer.enabled = True
            try:
                result = tracer.call(root, solve, instance, rid=rid)
            finally:
                tracer.enabled = False
        wall = time.perf_counter() - start
        rounds.setdefault(key, result.rounds.total)
        return wall, gate.check(key, instance, result)

    # Host speed is sampled all through the set-ups and the timed window;
    # each phase's timings are scaled by its own samples.
    setup_speed, window_speed = hostspeed.HostSpeed(), hostspeed.HostSpeed()
    setup_walls, walls, setups, ratios, failed, met = [], [], [], [], 0, 0
    with setup_speed.sampling():
        for i in range(SETUPS):
            start = time.perf_counter()
            instances = inputs(seed)
            wall, ok = solve_one(i)
            setups.append(time.perf_counter() - start)
            failed += not ok
            if i:
                setup_walls.append(wall)
                met += ok and wall * 1000.0 <= limit_ms

    i = SETUPS
    with window_speed.sampling():
        start = time.perf_counter()
        # At least one timed solve, and every input solved at least once.
        while (
            i == SETUPS
            or len(rounds) < len(instances)
            or time.perf_counter() - start < seconds
        ):
            try:
                if tracer is None:
                    wall, ok = solve_one(i)
                else:
                    # Untraced then traced, back to back, for the overhead.
                    plain, ok = solve_one(i)
                    wall, traced_ok = solve_one(i, rid=i - SETUPS)
                    ok = ok and traced_ok
                    ratios.append(wall / plain)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                traceback.print_exc()
                wall, ok = float("inf"), False
            i += 1
            walls.append(wall)
            failed += not ok
            met += ok and wall * 1000.0 <= limit_ms
            if failed > 3:  # a broken engine fails every solve; stop early
                break

    scaled = [w * setup_speed.scale() for w in setup_walls] + [
        w * window_speed.scale() for w in walls
    ]
    out = {
        "attempted": i,
        "failed": failed,
        "errors": gate.errors,
        "metrics": {
            "latency_p50_ms": statistics.median(scaled) * 1000.0,
            "slo_met_frac": met / (len(setup_walls) + len(walls)),
            "rounds_per_solve": statistics.fmean(rounds.values()),
            "setup_s": statistics.median(setups) * setup_speed.scale(),
        },
        "extra": {
            "samples": len(scaled),
            "setups": setups,
            "root": root,
            "raw_latency_p50_ms": statistics.median(setup_walls + walls) * 1000.0,
            "raw_setup_s": statistics.median(setups),
            "probe_ms": window_speed.probe_ms(),
        },
    }
    if tracer is not None:
        traced = [s for s in tracer.spans if s.rid is not None]
        out["layers"] = layer_metrics(
            traced, len(ratios), [s for s in traced if s.rid == 0], 1
        )
        out["layers"]["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        out["layers"]["host.probe_ms"] = window_speed.probe_ms()
    return out


def layer_metrics(time_spans, n_time: int, count_spans, n_count: int) -> dict:
    """Per-layer metrics, per operation: times averaged over the
    operations behind ``time_spans``, counts over those behind
    ``count_spans`` (on the engine workloads, the first traced solve, so
    they repeat exactly for a seed)."""
    times = tracing.aggregate(time_spans)
    counts = tracing.aggregate(count_spans)
    out = dict.fromkeys(spec.per_layer(), 0.0)
    for name in spec.SPANS:
        row = times.get(name, {})
        out[f"{name}.busy_s"] = row.get("busy_s", 0.0) / max(1, n_time)
        out[f"{name}.self_s"] = row.get("self_s", 0.0) / max(1, n_time)
        out[f"{name}.calls"] = counts.get(name, {}).get("calls", 0) / max(1, n_count)
    for name in ("potential.count", "potential.weight"):
        out[f"{name}.cells"] = counts.get(name, {}).get("cells", 0) / max(1, n_count)
    batches = counts.get("decomposition.class_batch", {})
    if batches:
        out["decomposition.clusters_per_batch_mean"] = batches["clusters"] / batches["calls"]
    workspace = times.get("potential.workspace", {})
    if workspace.get("edge_cols"):
        out["potential.unique_col_ratio"] = workspace["count_width"] / workspace["edge_cols"]
    return out


# ----------------------------------------------------------------------
# serve-burst
# ----------------------------------------------------------------------
def serve_inputs(seed: int, seconds: float):
    """Pool graphs, a warm-up burst, the Poisson burst schedule (seconds
    from the window start) and the bursts, as ``(key, base, request)``
    triples: ``base`` is the instance a standalone solve checks against,
    ``request`` the object submitted (a pooled repeat is its own shallow
    copy of the pooled instance, so each request has its own identity)."""
    from repro.core.instances import make_delta_plus_one_instance
    from repro.graphs.generators import random_regular_graph

    rng = np.random.default_rng(seed)

    def graph(d):
        g = random_regular_graph(SERVE_NODES, int(d), int(rng.integers(2**31)))
        return make_delta_plus_one_instance(g)

    pool = [graph(SERVE_DEGREES[i % 2]) for i in range(POOL_GRAPHS)]
    warmup = [graph(SERVE_DEGREES[i % 2]) for i in range(BURST_SIZE)]
    n_bursts = max(2, round(BURST_RATE * seconds))
    # Poisson arrivals, stratified: the gaps between bursts are the
    # n_bursts quantiles of the exponential gap distribution, in an order
    # the seed shuffles.  Every run then holds the same set of gaps, so
    # how often bursts overlap and queue does not vary with the seed.
    quantiles = (np.arange(n_bursts) + 0.5) / n_bursts
    gaps = -np.log1p(-quantiles) / BURST_RATE
    schedule = np.cumsum(rng.permutation(gaps))
    # Every burst carries the same mix (per degree, a quarter of the burst
    # pooled and a quarter fresh), so it always coalesces into one group
    # per degree; only which graphs, and when, vary with the seed.
    per_kind = BURST_SIZE // (2 * len(SERVE_DEGREES))
    bursts = []
    for b in range(n_bursts):
        burst = []
        for i, d in enumerate(SERVE_DEGREES):
            for _ in range(per_kind):
                k = int(rng.integers(POOL_GRAPHS // 2)) * 2 + i
                burst.append((("pool", k), pool[k], copy.copy(pool[k])))
            for j in range(per_kind):
                inst = graph(d)
                burst.append((("fresh", b, i, j), inst, inst))
        bursts.append([burst[t] for t in rng.permutation(BURST_SIZE)])
    return warmup, schedule, bursts


async def _window(service, bursts, schedule, speed):
    """Open loop: send each burst at its scheduled time, whatever the
    service is doing.  Returns per-request ``(result, due, done, error)``
    and per-burst send lag, all in ``perf_counter`` seconds.  Whenever
    every request sent so far has resolved, ``speed`` is sampled up to
    ``PROBES_PER_GAP`` times, while the next send is ``PROBE_GAP_S`` away."""
    records = []
    lags = []
    idle = asyncio.Event()
    outstanding = 0

    async def one(slot, request, due):
        nonlocal outstanding
        try:
            result, error = await service.submit(request), None
        except Exception as exc:  # noqa: BLE001 - counted as failed
            result, error = None, exc
        records[slot] = (result, due, time.perf_counter(), error)
        outstanding -= 1
        if not outstanding:
            idle.set()

    tasks = []
    base = time.perf_counter() - schedule[0] + 0.05
    for burst, offset in zip(bursts, schedule):
        due = base + offset
        delay = due - time.perf_counter()
        if delay > 0 and tasks:
            try:
                await asyncio.wait_for(idle.wait(), delay)
            except asyncio.TimeoutError:
                pass
            probes = 0
            while (
                idle.is_set()
                and probes < PROBES_PER_GAP
                and due - time.perf_counter() >= PROBE_GAP_S
            ):
                speed.sample(1)
                probes += 1
            delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        idle.clear()
        outstanding += len(burst)
        for _key, _base, request in burst:
            records.append(None)
            tasks.append(asyncio.create_task(one(len(records) - 1, request, due)))
    await asyncio.gather(*tasks)
    # Batch records reach the service's telemetry on the loop just after
    # their requests resolve; let the last one land.
    await asyncio.sleep(0.05)
    return records, lags


async def _shutdown(service, backend) -> None:
    try:
        if service is not None:
            await service.close(drain=True)
    finally:
        if backend is not None:
            backend.close()


async def run_serve(seed: int, seconds: float, tracer) -> dict:
    from repro.core.list_coloring import solve_list_coloring_congest
    from repro.parallel import ProcessBackend
    from repro.serving import ColoringService

    limit_ms = spec.WORKLOADS["serve-burst"][1]
    setup_speed, window_speed = hostspeed.HostSpeed(), hostspeed.HostSpeed()
    setups = []
    service = backend = None
    try:
        for _ in range(SERVE_SETUPS):
            await _shutdown(service, backend)
            service = backend = None
            setup_speed.sample()
            start = time.perf_counter()
            warmup, schedule, bursts = serve_inputs(seed, seconds)
            backend = ProcessBackend(workers=2, sweep_workers=0)
            service = ColoringService(
                backend=backend, max_batch_instances=BURST_SIZE, max_delay_ms=2.0
            )
            service.start()
            await asyncio.gather(*(service.submit(inst) for inst in warmup))
            setups.append(time.perf_counter() - start)
        setup_speed.sample()

        # Telemetry marks past the warm-up burst, once its records landed.
        await asyncio.sleep(0.05)
        marks = (len(service.batch_telemetry), len(backend.telemetry))
        window_speed.sample()
        if tracer is not None:
            tracer.alternate = True
        try:
            records, lags = await _window(service, bursts, schedule, window_speed)
        finally:
            if tracer is not None:
                tracer.alternate = False
    finally:
        await _shutdown(service, backend)

    # Correctness gate, after the timed phase: every response against a
    # standalone serial solve of the same instance.
    gate = Gate()
    expected = {}
    flat = [triple for burst in bursts for triple in burst]
    latencies, rounds, failed, met = [], [], 0, 0
    for (key, base, request), (result, due, done, error) in zip(flat, records):
        ok = error is None
        if ok:
            if key not in expected:
                expected[key] = digest(solve_list_coloring_congest(base))
            ok = gate.check(key, request, result, expected=expected[key])
        if error is not None:
            gate.errors.append(f"{key}: {error!r}")
        latency = done - due
        if ok:
            latencies.append(latency)
            rounds.append(result.rounds.total)
        failed += not ok
        met += ok and latency * 1000.0 <= limit_ms

    stats = service.stats()
    out = {
        "attempted": len(records),
        "failed": failed,
        "errors": gate.errors,
        "metrics": {
            "latency_p50_ms": statistics.median(latencies) * 1000.0 * window_speed.scale()
            if latencies
            else float("inf"),
            "slo_met_frac": met / len(records),
            "rounds_per_solve": statistics.fmean(rounds) if rounds else 0.0,
            "setup_s": statistics.median(setups) * setup_speed.scale(),
        },
        "extra": {
            "samples": len(latencies),
            "setups": setups,
            "root": "serving.batch",
            "raw_latency_p50_ms": statistics.median(latencies) * 1000.0
            if latencies
            else None,
            "raw_setup_s": statistics.median(setups),
            "probe_ms": window_speed.probe_ms(),
            "probes": len(window_speed.samples),
            "latency_p90_ms": percentile(latencies, 0.9) * 1000.0 if latencies else None,
            "lag_ms_p90": percentile(lags, 0.9) * 1000.0,
            "batch_size_mean": stats["mean_batch_size"],
            "cache": stats["cache"],
        },
    }
    if tracer is not None:
        out["layers"] = serve_layers(tracer, service, backend, flat, records, lags, marks)
        out["layers"]["host.probe_ms"] = window_speed.probe_ms()
    return out


def serve_layers(tracer, service, backend, flat, records, lags, marks) -> dict:
    """Per-layer metrics of a window whose batches alternated traced and
    untraced (see ``Tracer._wrap_batch``): times and counts per request of
    a traced batch; the tail and ``trace.overhead_frac`` from comparing
    the two kinds."""
    batch_records = service.batch_telemetry[marks[0]:]
    dispatches = backend.telemetry[marks[1]:]
    if len(batch_records) != len(tracer.batches):
        raise RuntimeError(
            f"{len(batch_records)} batch records but {len(tracer.batches)} batches seen"
        )
    traced_records = [r for r, b in zip(batch_records, tracer.batches) if b[1]]
    plain_records = [r for r, b in zip(batch_records, tracer.batches) if not b[1]]
    n_traced = sum(r["size"] for r in traced_records)
    # Only spans under a traced batch: a wrapped call made on another
    # thread meanwhile has no operation id.
    spans = [s for s in tracer.spans if s.rid is not None]
    out = layer_metrics(spans, n_traced, spans, n_traced)

    # Request spans with their queue wait: scheduled send -> the start of
    # the batch that carried the request.
    carried = {}
    for start, traced, members in tracer.batches:
        for member in members:
            carried[member] = (start, traced)
    waits, plain_latencies = [], []
    for i, ((_key, _base, request), (_res, due, done, error)) in enumerate(
        zip(flat, records)
    ):
        span = tracer.record("request", due, done, rid=f"r{i}")
        start, traced = carried.get(id(request), (None, True))
        if start is not None:
            tracer.record("queue", due, start, rid=f"r{i}", parent=span.id)
            waits.append(start - due)
        if not traced and error is None:
            plain_latencies.append(done - due)

    window_wall = max(done for _r, _due, done, _e in records) - min(
        due for _r, due, _done, _e in records
    )
    hits = sum(r.get("cache", {}).get("hits", 0) for r in batch_records)
    misses = sum(r.get("cache", {}).get("misses", 0) for r in batch_records)
    faults = {}
    for record in dispatches:
        for key, value in record.get("faults", {}).items():
            faults[key] = faults.get(key, 0) + value
    out.update(
        {
            "sweep_cache.hits": hits,
            "sweep_cache.misses": misses,
            "sweep_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "parallel.effective_shards_mean": statistics.fmean(
                r["effective_shards"] for r in dispatches
            )
            if dispatches
            else 0.0,
            "parallel.inline_frac": sum(
                r["mode"] != "instance" or r["effective_shards"] <= 1
                for r in dispatches
            )
            / max(1, len(dispatches)),
            "parallel.faults.crashes": faults.get("crashes", 0),
            "parallel.faults.retries": faults.get("retries", 0),
            "parallel.faults.serial_fallbacks": faults.get("serial_fallbacks", 0),
            "serving.batches": len(batch_records),
            "serving.batch_size_mean": statistics.fmean(r["size"] for r in batch_records)
            if batch_records
            else 0.0,
            "serving.queue_wait_ms_p50": statistics.median(waits) * 1000.0
            if waits
            else 0.0,
            "serving.latency_p90_ms": percentile(plain_latencies, 0.9) * 1000.0
            if plain_latencies
            else 0.0,
            "serving.dispatch_busy_frac": sum(r["wall_seconds"] for r in batch_records)
            / window_wall,
            "serving.failed_batches": sum("error" in r for r in batch_records),
            "loadgen.lag_ms_p90": percentile(lags, 0.9) * 1000.0,
            "trace.overhead_frac": _dispatch_per_request(traced_records)
            / _dispatch_per_request(plain_records)
            - 1.0,
        }
    )
    return out


def _dispatch_per_request(batch_records) -> float:
    """Batch wall seconds per request: the service time tracing slows,
    without the queueing around it."""
    return sum(r["wall_seconds"] for r in batch_records) / max(
        1, sum(r["size"] for r in batch_records)
    )


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # Imports end here: everything the workloads call is loaded before
    # the first set-up starts its clock.
    import networkx  # noqa: F401

    import repro.cliquemodel.coloring  # noqa: F401
    import repro.decomposition.decomposed_coloring  # noqa: F401
    import repro.serving  # noqa: F401

    if args.workload != "serve-burst":
        # The engine workloads are serial: keep the solves and the host
        # speed samples on one CPU, since the CPUs of a shared host slow
        # down independently.  serve-burst's threads use every CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = tracing.Tracer().install() if args.trace else None
    shm_before = shm_segments()
    if args.workload == "serve-burst":
        result = asyncio.run(run_serve(args.seed, args.seconds, tracer))
    else:
        result = run_engine(args.workload, args.seed, args.seconds, tracer)

    problems = hygiene_problems(shm_before)
    for line in result["errors"] + problems:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    if tracer is not None:
        tracer.uninstall()
        out_dir = os.path.join(ROOT, ".bench_out")
        try:
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(
                os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            )
        except OSError as exc:
            print(f"perfbench: spans not written: {exc}", file=sys.stderr)
        metrics = result["layers"]
    else:
        metrics = result["metrics"]
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    payload = {
        "correct": result["failed"] == 0 and not result["errors"] and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "extra": result["extra"],
    }
    print(spec.RESULT_TAG + json.dumps(payload), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
