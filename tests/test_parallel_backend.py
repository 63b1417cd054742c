"""Property-based serial-vs-process equivalence for the sharded backend.

The contract under test: for ANY batch shape — randomized graph families,
list lengths, color spaces, instance counts, including empty instances,
single-shard plans and shards of size 1 — the process backend's merged
``solve_batch`` output is *byte-identical* to the serial path: colorings,
round ledgers (totals and event streams) and potential traces.  The
randomized families are seeded (deterministic reruns); both the ``fork``
and ``spawn`` start methods are exercised so the worker-side
reconstruction of the CSR store is covered under page-sharing and
re-import semantics alike.

Pool size defaults to 2 workers; CI pins it via ``REPRO_TEST_WORKERS=2``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager

import numpy as np
import pytest

from equivalence import (
    assert_arrays_equal,
    assert_batch_results_equal,
    assert_ledgers_equal,
    assert_outcomes_equal,
)
from faults import leaked_segments, raising_schedule, shm_segments
from repro.core.instances import (
    BatchedListColoringInstance,
    ColorListStore,
    ListColoringInstance,
    make_delta_plus_one_instance,
    make_random_lists_instance,
)
from repro.core.list_coloring import solve_list_coloring_batch
from repro.core.partial_coloring import partial_coloring_pass_batch
from repro.engine.rounds import RoundLedger
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.parallel import ProcessBackend, fusion_signatures, plan_shards

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


@pytest.fixture(scope="module", params=START_METHODS)
def process_backend(request):
    """One pool per start method, shared across the module (spawn worker
    startup re-imports repro, so reuse keeps the suite fast)."""
    backend = ProcessBackend(workers=WORKERS, start_method=request.param)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# Seeded-random instance / batch families.
# ----------------------------------------------------------------------
def random_instance(rng: np.random.Generator) -> ListColoringInstance:
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return make_delta_plus_one_instance(gen.cycle_graph(int(rng.integers(4, 17))))
    if kind == 1:
        n = int(rng.integers(8, 21))
        d = int(rng.choice([3, 4]))
        if (n * d) % 2:
            n += 1
        return make_delta_plus_one_instance(
            gen.random_regular_graph(n, d, seed=int(rng.integers(0, 1 << 16)))
        )
    if kind == 2:
        return make_delta_plus_one_instance(
            gen.random_tree(int(rng.integers(4, 17)), seed=int(rng.integers(0, 1 << 16)))
        )
    if kind == 3:
        return make_delta_plus_one_instance(gen.star_graph(int(rng.integers(3, 9))))
    if kind == 4:
        # Random list-coloring workload: bigger color space, slack lists.
        n = int(rng.integers(6, 15))
        d = 3
        if (n * d) % 2:
            n += 1
        return make_random_lists_instance(
            gen.random_regular_graph(n, d, seed=int(rng.integers(0, 1 << 16))),
            int(rng.choice([16, 32])),
            np.random.default_rng(int(rng.integers(0, 1 << 16))),
            slack=int(rng.integers(0, 3)),
        )
    if kind == 5:
        # Isolated nodes: size-1 lists, zero edges.
        return make_delta_plus_one_instance(Graph(int(rng.integers(1, 6)), []))
    # Empty instance: zero nodes.
    return ListColoringInstance(Graph(0, []), 4, ColorListStore.from_lists([], 0))


def random_batch(seed: int, max_k: int = 6) -> list:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, max_k + 1))
    return [random_instance(rng) for _ in range(k)]


# ----------------------------------------------------------------------
# Shard / merge round-trips and planning invariants.
# ----------------------------------------------------------------------
class TestShardMerge:
    @pytest.mark.parametrize("seed", range(10))
    def test_shard_merge_round_trip(self, seed):
        instances = random_batch(seed)
        batch = BatchedListColoringInstance.from_instances(instances)
        rng = np.random.default_rng(seed + 1000)
        k = batch.num_instances
        # Random non-decreasing bounds, including empty shards.
        cuts = np.sort(rng.integers(0, k + 1, size=int(rng.integers(0, 4))))
        bounds = np.concatenate([[0], cuts, [k]])
        merged = BatchedListColoringInstance.merge(batch.shard(bounds))
        assert_arrays_equal(merged.graph.edges_u, batch.graph.edges_u, "edges_u")
        assert_arrays_equal(merged.graph.edges_v, batch.graph.edges_v, "edges_v")
        assert_arrays_equal(
            merged.instance_offsets, batch.instance_offsets, "instance_offsets"
        )
        assert_arrays_equal(merged.color_spaces, batch.color_spaces, "color_spaces")
        assert_arrays_equal(merged.lists.values, batch.lists.values, "values")
        assert_arrays_equal(merged.lists.offsets, batch.lists.offsets, "offsets")
        # Cached per-instance graphs survive the round trip.
        assert merged.instance_graphs is not None
        for a, b in zip(merged.split(), batch.split()):
            assert_arrays_equal(a.lists.values, b.lists.values, "split values")

    def test_shard_size_one_each(self):
        instances = random_batch(3, max_k=5) or [
            make_delta_plus_one_instance(gen.cycle_graph(5))
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        k = batch.num_instances
        shards = batch.shard(np.arange(k + 1))
        assert len(shards) == k
        for shard, inst in zip(shards, instances):
            assert shard.num_instances == 1
            assert shard.n == inst.n
            assert_arrays_equal(shard.lists.values, inst.lists.values, "values")

    def test_merge_empty(self):
        merged = BatchedListColoringInstance.merge([])
        assert merged.num_instances == 0 and merged.n == 0

    def test_shard_rejects_bad_bounds(self):
        batch = BatchedListColoringInstance.from_instances(
            [make_delta_plus_one_instance(gen.cycle_graph(5))]
        )
        with pytest.raises(ValueError):
            batch.shard([0])
        with pytest.raises(ValueError):
            batch.shard([0, 2])
        with pytest.raises(ValueError):
            batch.shard([0, 1, 0, 1])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_plan_bounds_invariants(self, seed, num_shards):
        instances = random_batch(seed)
        batch = BatchedListColoringInstance.from_instances(instances)
        bounds = plan_shards(batch, num_shards).bounds
        assert bounds[0] == 0 and bounds[-1] == batch.num_instances
        assert (np.diff(bounds) >= 0).all()
        assert len(bounds) - 1 <= max(1, num_shards)
        # Fusion runs stay whole: no cut where the signature repeats.
        sig = fusion_signatures(batch)
        for cut in bounds[1:-1].tolist():
            assert (sig[cut] != sig[cut - 1]).any(), (
                f"cut at {cut} splits a fusion run {sig[cut]}"
            )

    def test_plan_bounds_homogeneous_degrades_to_one_shard(self):
        instances = [make_delta_plus_one_instance(gen.cycle_graph(8))] * 4
        batch = BatchedListColoringInstance.from_instances(instances)
        assert len(plan_shards(batch, 4).bounds) == 2  # one shard: run kept whole
        loose = plan_shards(batch, 4, keep_fusion_runs=False).bounds
        assert len(loose) == 5  # free cutting balances into 4 shards

    def test_plan_weights_are_node_counts(self):
        # One 60-node instance then four 8-node ones: balancing node counts
        # cuts right after the big instance, not at the instance midpoint.
        instances = [make_delta_plus_one_instance(gen.cycle_graph(60))] + [
            make_delta_plus_one_instance(gen.cycle_graph(8))
        ] * 4
        batch = BatchedListColoringInstance.from_instances(instances)
        assert plan_shards(batch, 2, keep_fusion_runs=False).bounds.tolist() == [
            0, 1, 5,
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_free_cuts_balance_node_counts(self, seed):
        """Free cutting never yields an empty shard, and no shard carries
        more than its even share of nodes plus one instance."""
        batch = BatchedListColoringInstance.from_instances(
            random_batch(seed + 100, max_k=10)
        )
        k = batch.num_instances
        weights = np.maximum(1, batch.instance_sizes)
        cum = np.concatenate([[0], np.cumsum(weights)])
        for num_shards in (2, 3, 4):
            bounds = plan_shards(batch, num_shards, keep_fusion_runs=False).bounds
            if k == 0:
                assert bounds.tolist() == [0, 0]
                continue
            assert (np.diff(bounds) > 0).all(), f"empty shard in {bounds}"
            shard_nodes = np.diff(cum[bounds])
            assert shard_nodes.max() <= cum[-1] / num_shards + weights.max()

    def test_plan_of_degree_runs_cuts_between_runs(self):
        # Four fusion runs (degrees 10..16), two sizes each — the shape of
        # the parallel-backend benchmark: node-count weights cut the eight
        # instances in half at 2 shards and into whole runs at 4.
        instances = [
            make_delta_plus_one_instance(
                gen.random_regular_graph(size, degree, seed=100 * degree + size)
            )
            for degree in (10, 12, 14, 16)
            for size in (24, 30)
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        assert plan_shards(batch, 2).bounds.tolist() == [0, 4, 8]
        assert plan_shards(batch, 4).bounds.tolist() == [0, 2, 4, 6, 8]

    def test_plan_empty_batch(self):
        plan = plan_shards(BatchedListColoringInstance.from_instances([]), 3)
        assert plan.bounds.tolist() == [0, 0]
        assert plan.requested_shards == 3
        assert plan.effective_shards == 1

    def test_effective_shards_surfaced_for_homogeneous_batch(self):
        instances = [
            make_delta_plus_one_instance(gen.gnp_graph(40, 0.2, seed=7))
        ] * 4
        batch = BatchedListColoringInstance.from_instances(instances)
        plan = plan_shards(batch, 4)
        assert plan.requested_shards == 4
        assert plan.effective_shards == 1
        assert plan.bounds.tolist() == [0, 4]

    def test_effective_shards_in_backend_telemetry(self, process_backend):
        instances = [
            make_delta_plus_one_instance(gen.gnp_graph(12, 0.2, seed=7))
        ] * 2
        batch = BatchedListColoringInstance.from_instances(instances)
        process_backend.solve_batch(batch)
        record = process_backend.telemetry[-1]
        assert record["effective_shards"] == 1
        assert record["requested_shards"] == min(WORKERS, batch.num_instances)

    def test_vectorized_signatures_match_reference(self):
        from repro.core.instances import ceil_log2

        rng = np.random.default_rng(11)
        instances = []
        for _ in range(7):
            n = int(rng.integers(1, 20))
            instances.append(
                make_delta_plus_one_instance(gen.random_tree(n, seed=int(rng.integers(0, 99))))
                if n > 1
                else make_delta_plus_one_instance(gen.star_graph(2))
            )
        batch = BatchedListColoringInstance.from_instances(instances)
        sig = fusion_signatures(batch)
        assert sig.shape == (batch.num_instances, 2)
        for i in range(batch.num_instances):
            lo, hi = batch.instance_offsets[i], batch.instance_offsets[i + 1]
            delta = (
                int(batch.graph.degrees[lo:hi].max()) if hi > lo else 0
            )
            want = (max(1, ceil_log2(int(batch.color_spaces[i]))), delta)
            assert tuple(sig[i]) == want


# ----------------------------------------------------------------------
# Serial vs process byte-identity.
# ----------------------------------------------------------------------
class TestSolveEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_batch_identical(self, seed, process_backend):
        instances = random_batch(seed)
        batch = BatchedListColoringInstance.from_instances(instances)
        serial = solve_list_coloring_batch(batch)
        parallel = process_backend.solve_batch(batch)
        assert_batch_results_equal(serial, parallel, f"batch(seed={seed})")

    def test_empty_batch(self, process_backend):
        batch = BatchedListColoringInstance.from_instances([])
        result = process_backend.solve_batch(batch)
        assert result.results == []

    def test_single_instance_single_shard(self, process_backend):
        # One instance = one shard: the dispatcher's inline fast path.
        instance = make_delta_plus_one_instance(gen.cycle_graph(11))
        batch = BatchedListColoringInstance.from_instances([instance])
        serial = solve_list_coloring_batch(batch)
        parallel = process_backend.solve_batch(batch)
        assert_batch_results_equal(serial, parallel)

    def test_batch_with_empty_members(self, process_backend):
        empty = ListColoringInstance(Graph(0, []), 4, ColorListStore.from_lists([], 0))
        full = make_delta_plus_one_instance(gen.random_regular_graph(12, 3, seed=9))
        star = make_delta_plus_one_instance(gen.star_graph(5))
        batch = BatchedListColoringInstance.from_instances(
            [empty, full, empty, star, empty]
        )
        serial = solve_list_coloring_batch(batch)
        parallel = process_backend.solve_batch(batch)
        assert_batch_results_equal(serial, parallel)

    def test_size_one_shards_identical(self):
        # Force every instance into its own shard (fusion runs ignored).
        instances = random_batch(7, max_k=5) or [
            make_delta_plus_one_instance(gen.cycle_graph(6))
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        serial = solve_list_coloring_batch(batch)
        with ProcessBackend(
            workers=WORKERS,
            max_shards=batch.num_instances,
            keep_fusion_runs=False,
        ) as backend:
            parallel = backend.solve_batch(batch)
        assert_batch_results_equal(serial, parallel)

    def test_kwargs_sliced_per_shard(self, process_backend):
        instances = [
            make_delta_plus_one_instance(gen.cycle_graph(10)),
            make_delta_plus_one_instance(gen.random_regular_graph(12, 4, seed=4)),
            make_delta_plus_one_instance(gen.star_graph(6)),
        ]
        psis = [np.arange(inst.n, dtype=np.int64) for inst in instances]
        kwargs = dict(
            comm_depths=[2, 5, 3],
            input_colorings=psis,
            nums_input_colors=[inst.n for inst in instances],
        )
        batch = BatchedListColoringInstance.from_instances(instances)
        serial = solve_list_coloring_batch(batch, **kwargs)
        parallel = process_backend.solve_batch(batch, **kwargs)
        assert_batch_results_equal(serial, parallel)

    def test_rejects_rng(self, process_backend):
        batch = BatchedListColoringInstance.from_instances(
            [make_delta_plus_one_instance(gen.cycle_graph(6))] * 2
        )
        with pytest.raises(ValueError, match="derandomized"):
            process_backend.solve_batch(batch, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# Forced shard counts: every contiguous cut merges back byte-identically.
# ----------------------------------------------------------------------
@contextmanager
def shard_settings(backend, max_shards: int, keep_fusion_runs: bool = False):
    """Temporarily re-plan the module-shared backend (its pool is reused)."""
    saved = backend.max_shards, backend.keep_fusion_runs
    backend.max_shards, backend.keep_fusion_runs = max_shards, keep_fusion_runs
    try:
        yield backend
    finally:
        backend.max_shards, backend.keep_fusion_runs = saved


def distinct_batch(k: int = 6) -> BatchedListColoringInstance:
    """``k`` instances of mixed families and sizes."""
    rng = np.random.default_rng(31)
    instances = []
    while len(instances) < k:
        instance = random_instance(rng)
        if instance.n > 0:
            instances.append(instance)
    return BatchedListColoringInstance.from_instances(instances)


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_solve_forced_shard_counts_identical(self, process_backend, shards):
        batch = distinct_batch()
        serial = solve_list_coloring_batch(batch)
        with shard_settings(process_backend, shards):
            parallel = process_backend.solve_batch(batch)
        assert_batch_results_equal(serial, parallel, f"shards={shards}")
        record = process_backend.telemetry[-1]
        assert record["requested_shards"] == shards
        assert record["effective_shards"] == shards
        assert record["mode"] == "instance"

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_random_shard_counts_identical(self, process_backend, seed):
        rng = np.random.default_rng(seed + 200)
        instances = random_batch(seed + 200, max_k=8) or [
            make_delta_plus_one_instance(gen.cycle_graph(7))
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        serial = solve_list_coloring_batch(batch)
        shards = int(rng.integers(2, 9))
        keep_runs = bool(rng.integers(0, 2))
        with shard_settings(process_backend, shards, keep_runs):
            parallel = process_backend.solve_batch(batch)
        assert_batch_results_equal(
            serial, parallel, f"seed={seed} shards={shards} keep={keep_runs}"
        )
        plan = plan_shards(
            batch, min(shards, batch.num_instances), keep_fusion_runs=keep_runs
        )
        assert process_backend.telemetry[-1]["effective_shards"] == (
            plan.effective_shards
        )

    def test_stream_chunks_follow_plan_bounds(self, process_backend):
        batch = distinct_batch()
        with shard_settings(process_backend, 3):
            spans = sorted(
                (lo, hi) for lo, hi, _ in process_backend.solve_batch_iter(batch)
            )
        bounds = plan_shards(batch, 3, keep_fusion_runs=False).bounds.tolist()
        assert spans == list(zip(bounds[:-1], bounds[1:]))


class TestShardIndependence:
    """What the pool's merge rests on, checked in-process: one Lemma 2.1
    pass over each shard of a plan equals the whole batch's pass on that
    shard's instances.  Outcomes carry the full PrefixResult, so this is
    where SeedChoices (s1, sigma, conditional traces) are compared, and
    the per-instance ledgers (some absent, some pre-charged) must be
    appended to identically."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("avoid_mis", [False, True])
    def test_pass_on_shards_matches_whole_batch(self, seed, avoid_mis):
        rng = np.random.default_rng(seed + 50)
        instances = random_batch(seed + 50) or [
            make_delta_plus_one_instance(gen.cycle_graph(8))
        ]
        batch = BatchedListColoringInstance.from_instances(instances)
        k = batch.num_instances
        psis = [np.arange(inst.n, dtype=np.int64) for inst in instances]
        nums = [max(2, inst.n) for inst in instances]

        def ledger_set():
            ledgers = []
            for i in range(k):
                if i % 3 == 2:
                    ledgers.append(None)
                else:
                    ledger = RoundLedger()
                    ledger.charge("pre", i + 1)
                    ledgers.append(ledger)
            return ledgers

        whole_ledgers, shard_ledgers = ledger_set(), ledger_set()
        whole = partial_coloring_pass_batch(
            batch, np.concatenate(psis), nums,
            ledgers=whole_ledgers, avoid_mis=avoid_mis,
        )
        shards = int(rng.integers(2, 6))
        bounds = plan_shards(batch, shards, keep_fusion_runs=False).bounds
        sharded = []
        for (lo, hi), part in zip(zip(bounds[:-1], bounds[1:]), batch.shard(bounds)):
            sharded.extend(
                partial_coloring_pass_batch(
                    part,
                    np.concatenate([np.empty(0, dtype=np.int64)] + psis[lo:hi]),
                    nums[lo:hi],
                    ledgers=shard_ledgers[lo:hi],
                    avoid_mis=avoid_mis,
                )
            )
        assert len(sharded) == k
        for i, (w, s) in enumerate(zip(whole, sharded)):
            assert_outcomes_equal(w, s, f"outcome[{i}]")
        for i, (w, s) in enumerate(zip(whole_ledgers, shard_ledgers)):
            assert_ledgers_equal(w, s, f"ledger[{i}]")

    def test_unsharded_pass_seed_choices_are_recorded(self):
        # The comparison above is only as strong as what an outcome
        # carries: a pass over an instance with edges records the seed
        # its phases fixed.
        (outcome,) = partial_coloring_pass_batch(
            BatchedListColoringInstance.from_instances(
                [make_delta_plus_one_instance(gen.cycle_graph(12))]
            ),
            np.arange(12, dtype=np.int64),
            [12],
        )
        assert any(phase.seed is not None for phase in outcome.prefix.phases)
        assert outcome.colored_count >= 12 / 8


class TestShmHygiene:
    """No shared-memory segment or pool semaphore outlives a closed
    backend, whether its dispatches completed or raised."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_no_segments_after_sharded_solve(self, start_method):
        before = shm_segments()
        batch = distinct_batch(4)
        serial = solve_list_coloring_batch(batch)
        with ProcessBackend(
            workers=WORKERS, start_method=start_method, keep_fusion_runs=False
        ) as backend:
            parallel = backend.solve_batch(batch)
            assert backend.telemetry[-1]["effective_shards"] > 1
        assert_batch_results_equal(serial, parallel)
        assert leaked_segments(before) == []

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_no_segments_after_worker_exception(self, start_method):
        before = shm_segments()
        batch = distinct_batch(4)
        with ProcessBackend(
            workers=WORKERS, start_method=start_method, keep_fusion_runs=False
        ) as backend:
            with pytest.raises(RuntimeError, match="schedule exploded"):
                backend.solve_batch(batch, r_schedule=raising_schedule)
            assert len(backend.telemetry) == 1
        assert leaked_segments(before) == []


# ----------------------------------------------------------------------
# Backend construction and plumbing.
# ----------------------------------------------------------------------
class TestResolution:
    def test_healthy_dispatch_records_zero_faults(self, process_backend):
        """Every dispatch record carries "faults"; without worker deaths
        the counters are all zero (the observability baseline the crash
        tests diff against)."""
        batch = BatchedListColoringInstance.from_instances(
            [random_instance(np.random.default_rng(5)) for _ in range(4)]
        )
        process_backend.solve_batch(batch)
        record = process_backend.telemetry[-1]
        assert record["faults"] == {
            "crashes": 0,
            "retries": 0,
            "pool_rebuilds": 0,
            "serial_fallbacks": 0,
        }

    def test_max_retries_knob(self):
        with ProcessBackend(workers=1, max_retries=5) as backend:
            assert backend.max_retries == 5
        with ProcessBackend(workers=1) as default:
            assert default.max_retries == 2

    def test_process_backend_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)

    def test_sweep_workers_accepts_only_zero(self):
        """The seed axis is gone: ``sweep_workers=0`` is still accepted
        (and changes nothing), any other value is refused."""
        instances = [make_delta_plus_one_instance(gen.cycle_graph(8))] * 2
        batch = BatchedListColoringInstance.from_instances(instances)
        with ProcessBackend(workers=2, sweep_workers=0) as backend:
            result = backend.solve_batch(batch)
            assert backend.telemetry[-1]["mode"] == "instance"
        assert_batch_results_equal(solve_list_coloring_batch(batch), result)
        for value in (1, 2, None):
            with pytest.raises(ValueError, match="seed axis was removed"):
                ProcessBackend(workers=2, sweep_workers=value)

    def test_store_pickle_round_trip(self):
        import pickle

        store = ColorListStore.from_lists([[3, 1], [7], [], [2, 5, 9]])
        clone = pickle.loads(pickle.dumps(store))
        assert_arrays_equal(clone.values, store.values, "values")
        assert_arrays_equal(clone.offsets, store.offsets, "offsets")
        with pytest.raises(ValueError):
            clone.values[0] = 0  # read-only flag re-applied on unpickle
