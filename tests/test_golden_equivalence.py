"""Golden-equivalence guard for the CSR color-list refactor.

``tests/data/golden_engines.json`` was generated by running every engine
(CONGEST reference solver, message-level CONGEST simulation, CONGESTED
CLIQUE, MPC linear/sublinear, decomposed polylog, and the avoid-MIS pass)
on fixed seed instances with the original ragged ``list[np.ndarray]``
color-list implementation.  The tests here re-run the engines and assert
that colorings (hashed), round-ledger breakdowns, and potential traces are
identical — so any representation change (e.g. the CSR ``ColorListStore``)
provably preserves every observable output.

The ``large-congest`` section adds n ≈ 512–1024 instances (affordable
since the table-driven seed-sweep kernels): Theorem 1.1 records pinned for
the congest solver and covered by the one-call batched section.  The
sharded process backend is NOT a separate golden section — it is asserted
against the very same ``congest`` / ``large-congest`` records, which *is*
the regression gate: serial, batched and sharded-parallel execution must
all reproduce one set of pinned records.

One record was re-pinned since: ``tree31.polylog.colors`` changed when the
E[·|s1] weighting became exact integer sums.  The first polylog phase on
that tree has the same exact expectation (14603/1536) for all 128 values
of s1, so the greedy bit descent is a tie at every bit; the old float
weighting's 1-ulp prefix-sum noise chose s1 = 4, the exact weighting
chooses s1 = 0.  Rounds, ledgers and potentials were unchanged.

Regenerate (only when an *intentional* behavior change lands) with::

    PYTHONPATH=src python tests/test_golden_equivalence.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.instances import (
    make_delta_plus_one_instance,
    make_random_lists_instance,
)
from repro.core.partial_coloring import partial_coloring_pass
from repro.graphs import generators as gen

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_engines.json")


def _hash_colors(colors: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(colors, dtype=np.int64).tobytes()
    ).hexdigest()


def _instances() -> dict:
    instances = {}
    instances["cycle24"] = make_delta_plus_one_instance(gen.cycle_graph(24))
    instances["regular32d4"] = make_delta_plus_one_instance(
        gen.random_regular_graph(32, 4, seed=1)
    )
    instances["grid5"] = make_delta_plus_one_instance(gen.grid_graph(5, 5))
    instances["tree31"] = make_delta_plus_one_instance(gen.random_tree(31, seed=3))
    instances["randlists24"] = make_random_lists_instance(
        gen.random_regular_graph(24, 3, seed=2),
        16,
        np.random.default_rng(7),
        slack=1,
    )
    return instances


def _large_instances() -> dict:
    """n ≈ 512–1024 instances for the congest/batched/parallel paths only
    (the record-level MPC / clique / simulation engines stay on the small
    set, where their Python data planes are affordable)."""
    instances = {}
    instances["regular512d6"] = make_delta_plus_one_instance(
        gen.random_regular_graph(512, 6, seed=41)
    )
    instances["grid24"] = make_delta_plus_one_instance(gen.grid_graph(24, 24))
    instances["randlists1024"] = make_random_lists_instance(
        gen.random_regular_graph(1024, 4, seed=43),
        64,
        np.random.default_rng(17),
        slack=2,
    )
    return instances


# ----------------------------------------------------------------------
# One record per (engine, instance): colors hash + ledger + potentials.
# ----------------------------------------------------------------------
def _record_congest(instance) -> dict:
    from repro.core.list_coloring import solve_list_coloring_congest

    result = solve_list_coloring_congest(instance)
    return {
        "colors": _hash_colors(result.colors),
        "rounds_total": result.rounds.total,
        "breakdown": result.rounds.breakdown(),
        "potential_traces": [p.potential_trace for p in result.passes],
        "seed_bits": [p.seed_bits for p in result.passes],
    }


def _record_clique(instance) -> dict:
    from repro.cliquemodel.coloring import solve_list_coloring_clique

    result = solve_list_coloring_clique(instance)
    return {
        "colors": _hash_colors(result.colors),
        "rounds_total": result.rounds.total,
        "breakdown": result.rounds.breakdown(),
        "potential_traces": [p.potential_trace for p in result.passes],
        "endgame_nodes": result.endgame_nodes,
    }


def _record_mpc(instance, regime: str) -> dict:
    from repro.mpc.coloring import solve_list_coloring_mpc

    result = solve_list_coloring_mpc(instance, regime=regime)
    return {
        "colors": _hash_colors(result.colors),
        "rounds_total": result.rounds.total,
        "breakdown": result.rounds.breakdown(),
        "potential_traces": [p.potential_trace for p in result.passes],
        "endgame_nodes": result.endgame_nodes,
    }


def _record_polylog(instance) -> dict:
    from repro.decomposition.decomposed_coloring import solve_list_coloring_polylog

    result = solve_list_coloring_polylog(instance)
    return {
        "colors": _hash_colors(result.colors),
        "rounds_total": result.rounds.total,
        "breakdown": result.rounds.breakdown(),
    }


def _record_avoid_mis(instance) -> dict:
    outcome = partial_coloring_pass(
        instance,
        psi=np.arange(instance.n, dtype=np.int64),
        num_input_colors=max(2, instance.n),
        avoid_mis=True,
    )
    return {
        "colors": _hash_colors(outcome.colors),
        "colored": outcome.colored_count,
        "eligible": outcome.eligible_count,
        "potential_trace": outcome.prefix.potential_trace,
    }


def _record_congest_simulation(instance) -> dict:
    from repro.congest.runner import run_congest_coloring

    stats = run_congest_coloring(instance)
    return {
        "colors": _hash_colors(stats.colors),
        "total_rounds": stats.total_rounds,
        "messages_sent": stats.messages_sent,
        "max_message_bits": stats.max_message_bits,
    }


def _record_batched_congest(instances: dict, backend=None) -> dict:
    """Solve ALL instances through ONE ``solve_list_coloring_batch`` call.

    The per-instance records are shaped exactly like ``_record_congest``'s,
    so the batched path is pinned against the same ragged-implementation
    goldens as the sequential loop — the batched-vs-sequential equivalence
    gate of the multi-instance refactor.  With ``backend`` the same call is
    routed through an alternative executor (the sharded process backend),
    which must reproduce the records byte-identically.
    """
    from repro.core.instances import BatchedListColoringInstance
    from repro.core.list_coloring import solve_list_coloring_batch

    names = list(instances)
    batch = BatchedListColoringInstance.from_instances(
        [instances[name] for name in names]
    )
    result = solve_list_coloring_batch(batch, backend=backend)
    records = {}
    for name, res in zip(names, result.results):
        records[name] = {
            "colors": _hash_colors(res.colors),
            "rounds_total": res.rounds.total,
            "breakdown": res.rounds.breakdown(),
            "potential_traces": [p.potential_trace for p in res.passes],
            "seed_bits": [p.seed_bits for p in res.passes],
        }
    return records


ENGINE_RECORDERS = {
    "congest": _record_congest,
    "clique": _record_clique,
    "mpc-linear": lambda inst: _record_mpc(inst, "linear"),
    "mpc-sublinear": lambda inst: _record_mpc(inst, "sublinear"),
    "polylog": _record_polylog,
    "avoid-mis": _record_avoid_mis,
}

#: Message-level simulation is slow; one small connected instance suffices.
SIMULATION_INSTANCES = ("cycle24",)

#: Top-level golden key for the one-call batched solve of every instance.
BATCHED_KEY = "batched-congest"

#: Top-level golden key for the sequential congest records of the large set.
LARGE_KEY = "large-congest"


def build_records() -> dict:
    instances = _instances()
    records: dict = {}
    for name, instance in instances.items():
        records[name] = {
            engine: recorder(instance)
            for engine, recorder in ENGINE_RECORDERS.items()
        }
    for name in SIMULATION_INSTANCES:
        records[name]["congest-simulation"] = _record_congest_simulation(
            instances[name]
        )
    large = _large_instances()
    records[LARGE_KEY] = {
        name: _record_congest(instance) for name, instance in large.items()
    }
    records[BATCHED_KEY] = _record_batched_congest({**instances, **large})
    return records


def _assert_matches(actual, golden, path: str) -> None:
    if isinstance(golden, dict):
        assert set(actual) == set(golden), f"{path}: keys differ"
        for key in golden:
            _assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), f"{path}: length differs"
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_matches(a, g, f"{path}[{i}]")
    elif isinstance(golden, float):
        # Potentials: tolerate last-ulp drift across numpy builds only.
        assert actual == pytest.approx(golden, rel=1e-12, abs=1e-12), (
            f"{path}: {actual} != {golden}"
        )
    else:
        assert actual == golden, f"{path}: {actual} != {golden}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def actual() -> dict:
    return build_records()


@pytest.fixture(scope="module")
def parallel_actual() -> dict:
    """Per-instance records of ONE sharded process-backend solve over the
    combined small + large instance set (2 workers) — compared against the
    very same golden records as the serial/batched paths."""
    from repro.parallel import ProcessBackend

    instances = {**_instances(), **_large_instances()}
    with ProcessBackend(workers=2) as backend:
        return _record_batched_congest(instances, backend=backend)


@pytest.fixture(scope="module")
def free_cut_actual() -> dict:
    """Like ``parallel_actual`` but with fusion runs ignored and one shard
    per instance requested, under ``spawn`` where available: shared-seed
    runs are split across workers that re-import the package, and the
    merge must still reproduce the golden records."""
    import multiprocessing as mp

    from repro.parallel import ProcessBackend

    instances = {**_instances(), **_large_instances()}
    methods = mp.get_all_start_methods()
    with ProcessBackend(
        workers=2,
        start_method="spawn" if "spawn" in methods else methods[0],
        max_shards=len(instances),
        keep_fusion_runs=False,
    ) as backend:
        records = _record_batched_congest(instances, backend=backend)
        assert backend.telemetry[-1]["effective_shards"] > 1
    return records


@pytest.mark.parametrize("instance_name", list(_instances()))
def test_engines_match_ragged_golden(golden, actual, instance_name):
    _assert_matches(actual[instance_name], golden[instance_name], instance_name)


@pytest.mark.parametrize("instance_name", list(_large_instances()))
def test_large_congest_pinned(golden, actual, instance_name):
    """The large (n ≈ 512–1024) Theorem 1.1 records are golden-pinned."""
    _assert_matches(
        actual[LARGE_KEY][instance_name],
        golden[LARGE_KEY][instance_name],
        f"{LARGE_KEY}.{instance_name}",
    )


@pytest.mark.parametrize("instance_name", list(_instances()))
def test_batched_solve_matches_ragged_congest_golden(golden, actual, instance_name):
    """One batched call over all instances == the sequential per-instance
    loop as recorded by the ORIGINAL ragged implementation (colors, ledgers,
    potential traces) — the byte-identity gate of multi-instance batching."""
    _assert_matches(
        actual[BATCHED_KEY][instance_name],
        golden[instance_name]["congest"],
        f"{BATCHED_KEY}.{instance_name}",
    )


@pytest.mark.parametrize("instance_name", list(_large_instances()))
def test_batched_solve_matches_large_golden(golden, actual, instance_name):
    """The one-call batch covers the large set against its sequential
    records too."""
    _assert_matches(
        actual[BATCHED_KEY][instance_name],
        golden[LARGE_KEY][instance_name],
        f"{BATCHED_KEY}.{instance_name}",
    )


def test_batched_section_pinned(golden, actual):
    """The batched records are themselves golden-pinned, so future changes
    to the fusion/grouping logic cannot drift silently."""
    _assert_matches(actual[BATCHED_KEY], golden[BATCHED_KEY], BATCHED_KEY)


@pytest.fixture(scope="module")
def repeat_actual() -> dict:
    """Records of the SECOND of two back-to-back batched solves, per
    executor: serial, and one shared process pool (2 workers).  Nothing is
    memoized between solves, so a repeat recounts every seed sweep and must
    reproduce the very same pinned records as the first solve."""
    from repro.parallel import ProcessBackend

    instances = {**_instances(), **_large_instances()}
    _record_batched_congest(instances)
    repeats = {"serial": _record_batched_congest(instances)}
    with ProcessBackend(workers=2) as backend:
        _record_batched_congest(instances, backend=backend)
        repeats["process"] = _record_batched_congest(instances, backend=backend)
    return repeats


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_repeat_solve_matches_batched_golden(golden, repeat_actual, executor):
    """A repeated batched solve reproduces the pinned batched records
    byte-identically."""
    _assert_matches(
        repeat_actual[executor], golden[BATCHED_KEY], f"repeat-{executor}"
    )


@pytest.mark.parametrize("instance_name", list(_instances()))
def test_parallel_backend_matches_ragged_congest_golden(
    golden, parallel_actual, instance_name
):
    """The sharded process backend reproduces the ragged-era sequential
    records — the shard/merge byte-identity gate (colors, ledgers,
    potential traces, seed bits)."""
    _assert_matches(
        parallel_actual[instance_name],
        golden[instance_name]["congest"],
        f"parallel.{instance_name}",
    )


@pytest.mark.parametrize("instance_name", list(_large_instances()))
def test_parallel_backend_matches_large_golden(
    golden, parallel_actual, instance_name
):
    _assert_matches(
        parallel_actual[instance_name],
        golden[LARGE_KEY][instance_name],
        f"parallel.{instance_name}",
    )



@pytest.mark.parametrize("instance_name", list(_instances()))
def test_free_cut_backend_matches_ragged_congest_golden(
    golden, free_cut_actual, instance_name
):
    """Fusion runs split across spawn workers: still the ragged-era
    sequential records."""
    _assert_matches(
        free_cut_actual[instance_name],
        golden[instance_name]["congest"],
        f"free-cut.{instance_name}",
    )


@pytest.mark.parametrize("instance_name", list(_large_instances()))
def test_free_cut_backend_matches_large_golden(
    golden, free_cut_actual, instance_name
):
    _assert_matches(
        free_cut_actual[instance_name],
        golden[LARGE_KEY][instance_name],
        f"free-cut.{instance_name}",
    )

if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true")
    if not parser.parse_args().regen:
        raise SystemExit("pass --regen to rewrite the golden file")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(build_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
