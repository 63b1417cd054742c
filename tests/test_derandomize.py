"""Method of conditional expectations (Lemma 2.6): Eq. (7) and seed quality."""

import numpy as np
import pytest

from equivalence import assert_seed_columns_equal
from repro.core.derandomize import (
    CHUNK_SIZE,
    SeedColumns,
    derandomize_phase_group,
    fix_bits_greedily_many,
)
from repro.core.instances import (
    BatchedListColoringInstance,
    make_random_lists_instance,
)
from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    buckets_for_seed_grouped,
)
from repro.core.prefix import extend_prefixes_batch
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.hashing.pairwise import PairwiseFamily
from reference import fix_bits_greedily_reference
from test_seed_sweep_compression import sigma_sweep_reference


def greedy_one_row(values):
    """``(index, trace)`` of the engine's greedy on one row, checked against
    the per-row Python-loop oracle."""
    lo, traces = fix_bits_greedily_many(np.asarray(values)[None, :])
    idx, trace = fix_bits_greedily_reference(values)
    assert (int(lo[0]), traces[0].tolist()) == (idx, trace)
    return idx, trace


class TestFixBitsGreedily:
    def test_finds_global_minimum_on_monotone_array(self):
        values = np.arange(16.0)
        idx, trace = greedy_one_row(values)
        assert idx == 0
        assert len(trace) == 4

    def test_result_never_exceeds_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            values = rng.random(32)
            idx, trace = greedy_one_row(values)
            assert values[idx] <= values.mean() + 1e-12

    def test_trace_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        values = rng.random(64)
        idx, trace = greedy_one_row(values)
        previous = values.mean()
        for t in trace:
            assert t <= previous + 1e-12
            previous = t
        assert trace[-1] == pytest.approx(values[idx])

    def test_ties_prefer_zero_bit(self):
        values = np.array([1.0, 1.0, 1.0, 1.0])
        idx, _trace = greedy_one_row(values)
        assert idx == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fix_bits_greedily_many(np.arange(3.0)[None, :])


def small_estimator(seed=0):
    rng = np.random.default_rng(seed)
    n = 8
    psi = np.arange(n, dtype=np.int64)
    counts = rng.integers(1, 4, size=(n, 2)).astype(np.int64)
    eu, ev = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                eu.append(u)
                ev.append(v)
    family = PairwiseFamily(3, 5)
    return PhaseEstimator(
        family, psi, counts,
        np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64),
    )


def zero_columns(bits: int) -> SeedColumns:
    """The Lemma 2.6 outcome of one edgeless member with ``bits`` = m + b
    seed bits: seed (0, 0), expectations 0.0, an all-zero trace."""
    return SeedColumns(
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(1),
        np.zeros(1),
        np.zeros((1, bits)),
    )


def record_columns(seed) -> SeedColumns:
    """A phase record's :class:`SeedChoice` as the columns of a group of
    one."""
    return SeedColumns(
        np.array([seed.s1], dtype=np.int64),
        np.array([seed.sigma], dtype=np.int64),
        np.array([seed.initial_expectation]),
        np.array([seed.final_value]),
        np.array(seed.conditional_trace).reshape(1, seed.seed_bits),
    )


class TestDerandomizePhase:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_final_value_beats_expectation(self, seed):
        chosen = derandomize_phase_group(small_estimator(seed))
        assert chosen.final[0] <= chosen.initial[0] + 1e-9

    @pytest.mark.parametrize("seed", [0, 5])
    def test_trace_length_is_seed_bits(self, seed):
        est = small_estimator(seed)
        chosen = derandomize_phase_group(est)
        assert chosen.trace.shape == (1, est.family.m + est.b)
        assert [len(column) for column in chosen[:4]] == [1] * 4

    def test_trace_monotone(self):
        chosen = derandomize_phase_group(small_estimator(2))
        previous = chosen.initial[0]
        for value in chosen.trace[0]:
            assert value <= previous + 1e-9
            previous = value

    def test_chosen_seed_realizes_final_value(self):
        est = small_estimator(4)
        chosen = derandomize_phase_group(est)
        exact = sigma_sweep_reference(est, int(chosen.s1[0]))
        assert exact[chosen.sigma[0]] == pytest.approx(chosen.final[0])

    def test_beats_average_random_seed(self):
        """The derandomized seed is at least as good as the average seed —
        the whole point of the method of conditional expectations."""
        est = small_estimator(6)
        chosen = derandomize_phase_group(est)
        average = SeedSweepWorkspace(est).val1(CHUNK_SIZE)[0].mean()
        assert chosen.final[0] <= average + 1e-9

    @pytest.mark.parametrize("buckets", [2, 4, 8])
    def test_edgeless_phase_gives_zero_columns(self, buckets):
        """Without edges Φ ≡ 0: the derandomized columns are s1 = σ = 0,
        expectations 0.0 and an all-zero trace (the default the phase loop
        keeps instead of building an estimator), and y = 0 picks every
        node's lowest nonempty bucket."""
        rng = np.random.default_rng(buckets)
        none = np.empty(0, dtype=np.int64)
        for n in (0, 1, 5, 12):
            a, b = (int(x) for x in rng.integers(1, 7, size=2))
            counts = rng.integers(0, 3, size=(n, buckets)).astype(np.int64)
            counts[:, -1] += 1  # nonempty lists; leading buckets may be empty
            psi = rng.integers(0, 1 << a, size=n).astype(np.int64)
            est = PhaseEstimator(PairwiseFamily(a, b), psi, counts, none, none)
            chosen = derandomize_phase_group(est)
            assert_seed_columns_equal(
                zero_columns(est.family.m + b), chosen, f"n={n}"
            )
            picked = buckets_for_seed_grouped(est, [0], [0])
            assert np.array_equal(picked, np.argmax(counts > 0, axis=1))

    @pytest.mark.parametrize("r", [1, 2])
    def test_batch_records_edgeless_instances_as_an_edgeless_group(self, r):
        """The batch builds no estimator for an instance without alive
        edges, yet its phase record is, bit for bit, what
        ``derandomize_phase_group`` gives an edgeless estimator of that
        phase's seed space."""
        graphs = [gen.cycle_graph(9), Graph(4, np.empty((0, 2), dtype=np.int64)),
                  gen.random_regular_graph(12, 3, 2)]
        rng = np.random.default_rng(r)
        instances = [make_random_lists_instance(g, 16, rng, slack=2) for g in graphs]
        batch = BatchedListColoringInstance.from_instances(instances)
        psis = np.concatenate([np.arange(g.n, dtype=np.int64) for g in graphs])
        results = extend_prefixes_batch(
            batch, psis, [g.n for g in graphs], r_schedule=lambda p, left: r
        )
        checked = 0
        for graph, result in zip(graphs, results):
            before = graph.m
            for t, record in enumerate(result.phases):
                if before == 0:
                    seed = record.seed
                    assert all(
                        type(x) is float
                        for x in (record.initial_expectation, record.final_value,
                                  *seed.conditional_trace)
                    )
                    none = np.empty(0, dtype=np.int64)
                    est = PhaseEstimator(
                        PairwiseFamily(seed.s1_bits, seed.sigma_bits),
                        np.zeros(1, dtype=np.int64),
                        np.ones((1, 1 << record.r), dtype=np.int64),
                        none,
                        none,
                    )
                    assert_seed_columns_equal(
                        derandomize_phase_group(est), record_columns(seed),
                        f"phase {t}",
                    )
                    assert record.initial_expectation == seed.initial_expectation
                    assert record.final_value == seed.final_value
                    checked += 1
                before = record.alive_edges
        # Every phase of the edgeless instance, and phases of the others
        # after their last edge died.
        assert len(results[1].phases) == 4 // r
        assert checked > len(results[1].phases)
