"""Method of conditional expectations (Lemma 2.6): Eq. (7) and seed quality."""

import numpy as np
import pytest

from equivalence import assert_seed_choices_equal
from repro.core.derandomize import (
    CHUNK_SIZE,
    derandomize_phase_group,
    fix_bits_greedily_many,
)
from repro.core.potential import (
    PhaseEstimator,
    SeedSweepWorkspace,
    buckets_for_seed_grouped,
)
from repro.core.prefix import _edgeless_choice
from repro.hashing.pairwise import PairwiseFamily
from reference import fix_bits_greedily_reference
from test_seed_sweep_compression import sigma_sweep_reference


def greedy_one_row(values):
    """``(index, trace)`` of the engine's greedy on one row, checked against
    the per-row Python-loop oracle."""
    lo, traces = fix_bits_greedily_many(np.asarray(values)[None, :])
    idx, trace = fix_bits_greedily_reference(values)
    assert (int(lo[0]), traces[0]) == (idx, trace)
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


class TestDerandomizePhase:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_final_value_beats_expectation(self, seed):
        choice = derandomize_phase_group(small_estimator(seed))[0]
        assert choice.final_value <= choice.initial_expectation + 1e-9

    @pytest.mark.parametrize("seed", [0, 5])
    def test_trace_length_is_seed_bits(self, seed):
        est = small_estimator(seed)
        (choice,) = derandomize_phase_group(est)
        assert len(choice.conditional_trace) == est.family.m + est.b
        assert choice.seed_bits == est.family.m + est.b

    def test_trace_monotone(self):
        choice = derandomize_phase_group(small_estimator(2))[0]
        previous = choice.initial_expectation
        for value in choice.conditional_trace:
            assert value <= previous + 1e-9
            previous = value

    def test_chosen_seed_realizes_final_value(self):
        est = small_estimator(4)
        (choice,) = derandomize_phase_group(est)
        exact = sigma_sweep_reference(est, choice.s1)
        assert exact[choice.sigma] == pytest.approx(choice.final_value)

    def test_beats_average_random_seed(self):
        """The derandomized seed is at least as good as the average seed —
        the whole point of the method of conditional expectations."""
        est = small_estimator(6)
        (choice,) = derandomize_phase_group(est)
        average = SeedSweepWorkspace(est).val1(CHUNK_SIZE)[0].mean()
        assert choice.final_value <= average + 1e-9

    @pytest.mark.parametrize("buckets", [2, 4, 8])
    def test_edgeless_phase_takes_the_closed_form(self, buckets):
        """Without edges Φ ≡ 0: the derandomized choice is s1 = σ = 0 with
        an all-zero trace (the shortcut the phase loop takes instead of
        building an estimator), and y = 0 picks every node's lowest
        nonempty bucket."""
        rng = np.random.default_rng(buckets)
        none = np.empty(0, dtype=np.int64)
        for n in (0, 1, 5, 12):
            a, b = (int(x) for x in rng.integers(1, 7, size=2))
            counts = rng.integers(0, 3, size=(n, buckets)).astype(np.int64)
            counts[:, -1] += 1  # nonempty lists; leading buckets may be empty
            psi = rng.integers(0, 1 << a, size=n).astype(np.int64)
            est = PhaseEstimator(PairwiseFamily(a, b), psi, counts, none, none)
            (choice,) = derandomize_phase_group(est)
            assert_seed_choices_equal(
                _edgeless_choice(est.family.m, b), choice, f"n={n}"
            )
            chosen = buckets_for_seed_grouped(est, [0], [0])
            assert np.array_equal(chosen, np.argmax(counts > 0, axis=1))
