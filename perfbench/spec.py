"""Names, units and bounds of everything the benchmark reports.

This module is the one source: ``BENCHMARK.json`` at the repository root
is written from it by ::

    python3 perfbench/spec.py

and ``selftest.py`` fails while the written file is out of date.
"""

from __future__ import annotations

import json
import os

#: Seconds one run measures, for every workload.
RUN_SECONDS = 20

#: Prefix of the line a workload process reports its result on.
RESULT_TAG = "PERFBENCH_RESULT "

#: name -> (why, per-operation latency limit in ms for ``slo_met_frac``).
#: An operation is one engine call on the engine workloads and one request
#: on serve-burst.  The engine limits are three times the per-solve time
#: measured on a 2-core host, so they only trip on a gross regression or a
#: stalled solve; the serving limit is the service's latency objective.
WORKLOADS = {
    "congest-r1": (
        "Theorem 1.1 solver on a 2000-node 16-regular graph, serial, no "
        "cache: every phase is r=1, so the float weighting and sigma "
        "layers dominate",
        12_000.0,
    ),
    "clique-multibit": (
        "Theorem 1.3 clique solver on a 600-node 8-regular graph: "
        "multi-bit phases (r up to 6) run the interval-DP count kernel, "
        "which dominates",
        6_000.0,
    ),
    "polylog-grid": (
        "Corollary 1.2 solver on seed-permuted 100x100 grids, serial: "
        "network decomposition, then hundreds of tiny clusters per color "
        "class, so per-instance overhead outweighs the sweep kernels",
        4_000.0,
    ),
    "serve-burst": (
        "open-loop Poisson bursts of 8 small requests into the service: "
        "the only path through serving, parallel and the sweep cache",
        1_000.0,
    ),
}

#: End-to-end metrics: name -> (unit, better, bound, definition).
END_TO_END = {
    "latency_p50_ms": (
        "ms",
        "lower",
        0.25,
        "median wall time of one operation, at reference host speed "
        "(hostspeed.py): an engine call from instance in to verified "
        "coloring out, or a request from its scheduled send to its "
        "resolved future",
    ),
    "slo_met_frac": (
        "fraction",
        "higher",
        0.05,
        "operations that finished correctly within the workload's latency "
        "limit, over operations attempted",
    ),
    "rounds_per_solve": (
        "rounds",
        "lower",
        0.2,
        "model rounds charged per solve, an exact count (averaged over the "
        "requests on serve-burst)",
    ),
    "setup_s": (
        "s",
        "lower",
        0.25,
        "median over several set-ups, at reference host speed, of: inputs "
        "built, service and pool pre-warmed, one untimed warm-up solve or "
        "burst",
    ),
    "peak_rss_mb": ("MB", "lower", 0.2, "peak RSS of the workload process"),
}

#: Layer spans, in the order the report prints them.  Each span name gets
#: ``.busy_s``, ``.self_s`` and ``.calls`` per-layer metrics, all per
#: operation (per solve on the engine workloads, per request on
#: serve-burst).
SPANS = (
    "congest.solve",
    "cliquemodel.solve",
    "decomposition.solve",
    "decomposition.decompose",
    "decomposition.class_batch",
    "graphs.induced_subgraph",
    "substrates.linial",
    "partial_coloring.pass",
    "potential.estimators",
    "derandomize.phase",
    "potential.workspace",
    "potential.count",
    "potential.weight",
    "potential.sigma",
    "derandomize.fix_bits",
    "list_ops.prune",
    "validation.verify",
    "serving.batch",
    "parallel.dispatch",
    "parallel.plan",
    "sweep_cache.load",
    "sweep_cache.store",
)

#: Per-layer metrics that are not per-span timings: name -> unit.
LAYER_EXTRAS = {
    "decomposition.clusters_per_batch_mean": "count",
    "potential.count.cells": "count",
    "potential.weight.cells": "count",
    "potential.unique_col_ratio": "fraction",
    "sweep_cache.hits": "count",
    "sweep_cache.misses": "count",
    "sweep_cache.hit_ratio": "fraction",
    "parallel.effective_shards_mean": "count",
    "parallel.inline_frac": "fraction",
    "parallel.faults.crashes": "count",
    "parallel.faults.retries": "count",
    "parallel.faults.serial_fallbacks": "count",
    "serving.batches": "count",
    "serving.batch_size_mean": "count",
    "serving.queue_wait_ms_p50": "ms",
    "serving.latency_p90_ms": "ms",
    "serving.dispatch_busy_frac": "fraction",
    "serving.failed_batches": "count",
    "loadgen.lag_ms_p90": "ms",
    "trace.overhead_frac": "fraction",
    "host.probe_ms": "ms",
}


def per_layer() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for span in SPANS:
        out[f"{span}.busy_s"] = "s"
        out[f"{span}.self_s"] = "s"
        out[f"{span}.calls"] = "count"
    out.update(LAYER_EXTRAS)
    return out


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this benchmark satisfies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _limit) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _doc) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in per_layer().items()
        ],
    }


def _better(name: str) -> str:
    higher = ("sweep_cache.hits", "sweep_cache.hit_ratio")
    return "higher" if name in higher else "lower"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
