"""Message-level CLIQUE segment fixing (Theorem 1.3 proof, speedup 1)."""

import numpy as np
import pytest

from repro.cliquemodel.segment_program import run_segment_fixing


class TestSegmentFixing:
    def test_picks_the_argmin_candidate(self):
        rng = np.random.default_rng(0)
        values = rng.random((10, 8))
        result = run_segment_fixing(values)
        sums = values.sum(axis=0)
        assert result.chosen == int(np.argmin(sums))

    def test_constant_rounds(self):
        """The whole fixing takes O(1) rounds regardless of candidates."""
        for num_candidates in (2, 8, 16):
            values = np.arange(16.0 * num_candidates).reshape(16, num_candidates)
            result = run_segment_fixing(values)
            assert result.rounds <= 8

    def test_tie_breaks_to_smallest_candidate(self):
        values = np.ones((6, 4))
        result = run_segment_fixing(values)
        assert result.chosen == 0

    def test_leader_can_be_any_node(self):
        rng = np.random.default_rng(1)
        values = rng.random((9, 5))
        for leader in (0, 3, 8):
            result = run_segment_fixing(values, leader=leader)
            assert result.chosen == int(np.argmin(values.sum(axis=0)))

    def test_rejects_too_many_candidates(self):
        with pytest.raises(ValueError):
            run_segment_fixing(np.ones((4, 6)))

    def test_at_least_as_good_as_bitwise_greedy(self):
        """Fixing a whole λ-bit segment by direct argmin is at least as
        good as the engine's bit-by-bit greedy on the same values (both
        are valid derandomizations; the segment version is the clique's
        speedup and can only do better)."""
        from reference import fix_bits_greedily_reference

        rng = np.random.default_rng(2)
        per_node = rng.random((12, 8))
        totals = per_node.sum(axis=0)
        greedy_choice, _trace = fix_bits_greedily_reference(totals)
        protocol = run_segment_fixing(per_node)
        assert totals[protocol.chosen] <= totals[greedy_choice] + 1e-12
        assert protocol.chosen == int(np.argmin(totals))
