"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

(Not named ``test_*.py``, so the repository's own suite does not collect
it.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _small_instance(seed=3):
    from repro.core.instances import make_delta_plus_one_instance
    from repro.graphs.generators import random_regular_graph

    return make_delta_plus_one_instance(random_regular_graph(40, 4, seed))


# -- metric names, units and the BENCHMARK.json shape -------------------
def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc == spec.benchmark_json()


def test_benchmark_json_shape():
    doc = spec.benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= doc["run_seconds"] <= 60
    for path in doc["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert os.path.isdir(os.path.join(ROOT, path))
    assert len(doc["command"]) <= 32 and all(len(a) <= 200 for a in doc["command"])
    assert 2 <= len(doc["workloads"]) <= 8
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert 1 <= len(doc["per_layer"]) <= 128
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for entry in doc[section]:
            assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
            assert entry["better"] in ("higher", "lower")
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


def test_result_line_carries_every_metric_with_its_unit():
    payload = {"correct": True, "attempted": 3, "failed": 0}
    plain = dict(payload, metrics=dict.fromkeys(spec.END_TO_END, 1.5))
    line = run.result_line(plain, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert set(line["metrics"]) == set(spec.END_TO_END)
    traced = dict(payload, metrics=dict.fromkeys(spec.per_layer(), 0.0))
    assert set(run.result_line(traced, 1)["metrics"]) == set(spec.per_layer())


# -- the correctness gate -----------------------------------------------
def test_gate_trips_on_a_corrupted_color():
    from repro.core.list_coloring import solve_list_coloring_congest

    instance = _small_instance()
    result = solve_list_coloring_congest(instance)
    gate = workload.Gate()
    assert gate.check("a", instance, result)
    assert gate.check("a", instance, solve_list_coloring_congest(instance))

    result.colors = result.colors.copy()
    u, v = int(instance.graph.edges_u[0]), int(instance.graph.edges_v[0])
    result.colors[u] = result.colors[v]
    assert not gate.check("a", instance, result)  # differs from its reference
    assert not gate.check("b", instance, result)  # first sight: not proper
    assert len(gate.errors) == 2


def test_gate_holds_served_output_to_the_standalone_digest():
    from repro.core.list_coloring import solve_list_coloring_congest

    instance = _small_instance()
    result = solve_list_coloring_congest(instance)
    gate = workload.Gate()
    assert not gate.check("k", instance, result, expected="0" * 64)
    assert gate.check("j", instance, result, expected=workload.digest(result))


# -- tracing ------------------------------------------------------------
def _span(tracer, name, start, end, parent=None):
    return tracer.record(name, start, end, rid=0, parent=parent)


def test_self_time_on_a_synthetic_span_tree():
    tracer = tracing.Tracer()
    root = _span(tracer, "solve", 0.0, 10.0)
    a = _span(tracer, "pass", 1.0, 4.0, root.id)
    b = _span(tracer, "pass", 3.0, 6.0, root.id)  # overlaps a: union counts once
    leaf = _span(tracer, "phase", 2.0, 3.0, a.id)
    late = _span(tracer, "pass", 9.0, 12.0, root.id)  # clipped to the parent
    selfs = tracing.self_times(tracer.spans)
    assert selfs[root.id] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[a.id] == pytest.approx(2.0)
    assert selfs[b.id] == pytest.approx(3.0)
    assert selfs[leaf.id] == pytest.approx(1.0)
    assert selfs[late.id] == pytest.approx(3.0)
    table = tracing.aggregate(tracer.spans)
    assert table["pass"]["calls"] == 3
    assert table["pass"]["busy_s"] == pytest.approx(9.0)
    assert table["pass"]["self_s"] == pytest.approx(8.0)


def test_tracer_wraps_every_layer_and_restores_it():
    from repro.core import derandomize, list_coloring, potential, prefix

    def current():
        return (
            prefix.derandomize_phase_group,
            derandomize.fix_bits_greedily_many,
            potential.SweepCountKernel.__dict__["count_rows"],
            potential.PhaseEstimator.__dict__["build_group"],
        )

    originals = current()
    tracer = tracing.Tracer().install()
    try:
        instance = _small_instance()
        tracer.enabled = True
        traced = tracer.call("congest.solve", list_coloring.solve_list_coloring_congest,
                             instance, rid=0)
        tracer.enabled = False
        plain = list_coloring.solve_list_coloring_congest(instance)
    finally:
        tracer.uninstall()
    assert workload.digest(traced) == workload.digest(plain)
    assert current() == originals
    table = tracing.aggregate(tracer.spans)
    for name in ("congest.solve", "partial_coloring.pass", "derandomize.phase",
                 "potential.workspace", "potential.count", "potential.weight",
                 "potential.sigma", "derandomize.fix_bits", "substrates.linial"):
        assert table[name]["calls"] >= 1, name
    assert table["potential.count"]["cells"] > 0
    by_id = {s.id: s for s in tracer.spans}
    for span in tracer.spans:
        if span.name == "potential.count":
            assert by_id[span.parent].name == "derandomize.phase"
    assert all(s.rid == 0 for s in tracer.spans)


def test_tracer_times_the_decomposition_layer():
    from repro.core.instances import make_delta_plus_one_instance
    from repro.decomposition import decomposed_coloring
    from repro.graphs.generators import grid_graph

    instance = make_delta_plus_one_instance(grid_graph(12, 12))
    tracer = tracing.Tracer().install()
    try:
        tracer.enabled = True
        result = tracer.call("decomposition.solve",
                             decomposed_coloring.solve_list_coloring_polylog,
                             instance, rid=0)
    finally:
        tracer.uninstall()
    table = tracing.aggregate(tracer.spans)
    assert table["decomposition.decompose"]["calls"] == 1
    batches = table["decomposition.class_batch"]
    assert batches["calls"] == len({c.color for c in result.decomposition.clusters})
    assert batches["clusters"] == len(result.decomposition.clusters)
    metrics = workload.layer_metrics(tracer.spans, 1, tracer.spans, 1)
    assert metrics["decomposition.clusters_per_batch_mean"] == pytest.approx(
        batches["clusters"] / batches["calls"])


def test_service_batches_alternate_traced_per_signature():
    class Request:
        def __init__(self, signature):
            self.signature = signature
            self.instance = object()

    tracer = tracing.Tracer()
    inside = []
    solve_group = tracer._wrap_batch(lambda service, group: inside.append(tracer.enabled))
    solve_group(None, [Request("a")])  # before ``alternate``: not logged
    tracer.alternate = True
    for signature in "aabbab":
        solve_group(None, [Request(signature)])
    assert [traced for _start, traced, _ids in tracer.batches] == [
        True, False, True, False, True, True]
    assert inside == [False, True, False, True, False, True, True]
    assert [s.name for s in tracer.spans] == ["serving.batch"] * 4
    assert not tracer.enabled


# -- process hygiene ----------------------------------------------------
def test_hygiene_check_fails_on_an_unclosed_backend():
    from repro.core.instances import BatchedListColoringInstance, make_delta_plus_one_instance
    from repro.graphs.generators import random_regular_graph
    from repro.parallel import ProcessBackend

    before = workload.shm_segments()
    assert workload.hygiene_problems(before) == []
    batch = BatchedListColoringInstance.from_instances(
        [make_delta_plus_one_instance(random_regular_graph(30, d, 1)) for d in (3, 4)]
    )
    backend = ProcessBackend(workers=2, sweep_workers=0)
    try:
        backend.solve_batch(batch)  # two signatures: two shards in the pool
        assert backend.telemetry[-1]["effective_shards"] == 2
        problems = workload.hygiene_problems(before)
        assert problems and "child process" in problems[0]
    finally:
        backend.close()
    assert workload.hygiene_problems(before) == []


def test_run_refuses_to_start_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "congest-r1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_percentile_is_nearest_rank():
    values = list(np.arange(1, 101))
    assert workload.percentile(values, 0.5) == 50
    assert workload.percentile(values, 0.9) == 90
    assert workload.percentile([7.0], 0.9) == 7.0


def test_host_speed_scales_timings_to_the_reference_loop():
    speed = hostspeed.HostSpeed()
    speed.samples = [0.030, 0.020, 0.025]
    assert speed.probe_ms() == pytest.approx(25.0)
    assert speed.scale() == pytest.approx(hostspeed.REFERENCE_MS / 25.0)
    allowed = os.sched_getaffinity(0)
    speed.sample(2)
    assert len(speed.samples) == 3 + 2 * len(allowed) and min(speed.samples) > 0
    assert os.sched_getaffinity(0) == allowed
    with speed.sampling(period=0.01):
        time.sleep(0.2)
    assert len(speed.samples) >= 3 + 2 * len(allowed) + 2
    assert not [t for t in threading.enumerate() if t.name == "hostspeed"]
