"""Instances, Observation 4.1, validation, and the round ledger."""

import numpy as np
import pytest

from repro.core.instances import (
    ListColoringInstance,
    ceil_log2,
    make_delta_plus_one_instance,
    make_random_lists_instance,
)
from repro.core.validation import (
    verify_partial_list_coloring,
    verify_proper_coloring,
    verify_proper_list_coloring,
)
from repro.engine.rounds import RoundLedger
from repro.graphs import generators as gen


class TestCeilLog2:
    def test_values(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(8) == 3
        assert ceil_log2(9) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestInstances:
    def test_delta_plus_one_lists(self):
        g = gen.star_graph(5)
        inst = make_delta_plus_one_instance(g)
        assert inst.color_space == 5
        assert list(inst.lists[0]) == [0, 1, 2, 3, 4]
        assert list(inst.lists[1]) == [0, 1]

    def test_rejects_short_lists(self):
        g = gen.path_graph(3)
        with pytest.raises(ValueError):
            ListColoringInstance(g, 4, [[0], [1], [2]])  # middle node deg 2

    def test_rejects_out_of_space_colors(self):
        g = gen.path_graph(2)
        with pytest.raises(ValueError):
            ListColoringInstance(g, 2, [[0, 5], [0, 1]])

    def test_random_lists_instance_valid(self):
        g = gen.random_regular_graph(16, 3, seed=0)
        inst = make_random_lists_instance(g, 24, np.random.default_rng(0), slack=2)
        inst.validate()
        assert (inst.list_sizes() == 6).all()

    def test_random_lists_rejects_tight_space(self):
        g = gen.complete_graph(5)
        with pytest.raises(ValueError):
            make_random_lists_instance(g, 4, np.random.default_rng(0))

    def test_color_bits(self):
        g = gen.path_graph(2)
        assert ListColoringInstance(g, 2, [[0, 1], [0, 1]]).color_bits == 1
        assert ListColoringInstance(g, 5, [[0, 4], [1, 3]]).color_bits == 3


class TestValidators:
    def test_proper_coloring_pass_and_fail(self):
        g = gen.path_graph(3)
        verify_proper_coloring(g, np.array([0, 1, 0]))
        with pytest.raises(AssertionError):
            verify_proper_coloring(g, np.array([0, 0, 1]))

    def test_list_coloring_checks_membership(self):
        g = gen.path_graph(2)
        inst = ListColoringInstance(g, 4, [[0, 1], [2, 3]])
        verify_proper_list_coloring(inst, np.array([0, 2]))
        with pytest.raises(AssertionError):
            verify_proper_list_coloring(inst, np.array([0, 1]))  # 1 not in L(1)

    def test_partial_validator_allows_uncolored(self):
        g = gen.path_graph(3)
        inst = make_delta_plus_one_instance(g)
        verify_partial_list_coloring(inst, np.array([0, -1, 0]))
        with pytest.raises(AssertionError):
            verify_partial_list_coloring(inst, np.array([0, 0, -1]))


class TestRoundLedger:
    def test_charges_accumulate(self):
        ledger = RoundLedger()
        ledger.charge("a", 3)
        ledger.charge("a", 2)
        ledger.charge("b", 1)
        assert ledger.total == 6
        assert ledger.breakdown() == {"a": 5, "b": 1}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("x", -1)
