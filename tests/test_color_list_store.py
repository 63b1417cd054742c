"""The CSR ColorListStore: contract, edge cases, and batched operations."""

import numpy as np
import pytest

from repro.core.instances import (
    ColorListStore,
    ListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_ops import (
    prune_lists_after_coloring,
    prune_lists_against_colored,
)
from repro.graphs import generators as gen
from repro.graphs.graph import Graph


class TestConstruction:
    def test_from_lists_sorts_and_dedups(self):
        store = ColorListStore.from_lists([[3, 1, 3, 0], [7], [5, 5, 5]])
        assert store.n == 3
        assert list(store[0]) == [0, 1, 3]
        assert list(store[1]) == [7]
        assert list(store[2]) == [5]
        np.testing.assert_array_equal(store.sizes, [3, 1, 1])
        np.testing.assert_array_equal(store.offsets, [0, 3, 4, 5])

    def test_from_lists_matches_per_list_unique(self):
        rng = np.random.default_rng(0)
        lists = [rng.integers(0, 50, size=rng.integers(1, 12)) for _ in range(40)]
        store = ColorListStore.from_lists(lists)
        for v, lst in enumerate(lists):
            np.testing.assert_array_equal(store[v], np.unique(lst))

    def test_from_store_copies(self):
        store = ColorListStore.from_lists([[0, 1], [2]])
        clone = ColorListStore.from_lists(store)
        assert clone is not store
        np.testing.assert_array_equal(clone.values, store.values)
        with pytest.raises(ValueError):
            ColorListStore.from_lists(store, n=5)

    def test_empty_store(self):
        store = ColorListStore.from_lists([])
        assert store.n == 0
        assert store.total == 0
        assert list(store.sizes) == []

    def test_views_are_read_only(self):
        store = ColorListStore.from_lists([[0, 1], [2]])
        with pytest.raises(ValueError):
            store.values[0] = 99
        with pytest.raises(ValueError):
            store[0][0] = 99

    def test_node_ids(self):
        store = ColorListStore.from_lists([[0, 1], [], [2, 3, 4]])
        np.testing.assert_array_equal(store.node_ids(), [0, 0, 2, 2, 2])

    def test_validate_segments_sorted_rejects_unsorted(self):
        store = ColorListStore(
            np.array([1, 0], dtype=np.int64), np.array([0, 2], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="node 0"):
            store.validate_segments_sorted()
        # Duplicates inside a segment are equally malformed.
        dup = ColorListStore(
            np.array([0, 1, 1], dtype=np.int64),
            np.array([0, 3], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            dup.validate_segments_sorted()

    def test_validate_segments_sorted_accepts_boundaries(self):
        # Adjacent segments may "decrease" across the boundary.
        store = ColorListStore.from_lists([[5, 9], [0, 1], [0]])
        store.validate_segments_sorted()


class TestBatchedOps:
    def test_subset_slicing(self):
        store = ColorListStore.from_lists([[0, 1], [2, 3], [4], [5, 6, 7]])
        sub = store.subset(np.array([1, 3]))
        assert sub.n == 2
        assert list(sub[0]) == [2, 3]
        assert list(sub[1]) == [5, 6, 7]

    def test_subset_with_repeats_and_order(self):
        store = ColorListStore.from_lists([[0], [1, 2], [3]])
        sub = store.subset(np.array([2, 1, 1]))
        assert list(sub[0]) == [3]
        assert list(sub[1]) == [1, 2]
        assert list(sub[2]) == [1, 2]

    def test_subset_empty_residual(self):
        store = ColorListStore.from_lists([[0, 1], [2]])
        sub = store.subset(np.empty(0, dtype=np.int64))
        assert sub.n == 0
        assert sub.total == 0

    def test_select_mask(self):
        store = ColorListStore.from_lists([[0, 1, 2], [3, 4]])
        kept = store.select(np.array([True, False, True, False, True]))
        assert list(kept[0]) == [0, 2]
        assert list(kept[1]) == [4]

    def test_select_can_empty_a_segment(self):
        store = ColorListStore.from_lists([[0, 1], [2]])
        kept = store.select(np.array([True, True, False]))
        np.testing.assert_array_equal(kept.sizes, [2, 0])

    def test_delete_pairs(self):
        store = ColorListStore.from_lists([[0, 1, 2], [1, 3], [4]])
        store.delete_pairs(
            np.array([0, 1, 1, 2]), np.array([1, 3, 3, 9])
        )  # repeated and missing pairs are no-ops
        assert list(store[0]) == [0, 2]
        assert list(store[1]) == [1]
        assert list(store[2]) == [4]

    def test_delete_pairs_empty_inputs(self):
        store = ColorListStore.from_lists([[0, 1]])
        store.delete_pairs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert list(store[0]) == [0, 1]

    def test_delete_pairs_empties_node_then_subset_slices_across(self):
        # A mid-batch deletion that empties node 1's whole list must leave a
        # well-formed CSR (zero-width segment), and a subsequent subset that
        # slices ACROSS the emptied node must renumber cleanly around it.
        store = ColorListStore.from_lists([[0, 1], [4, 6], [2], [3, 5]])
        store.delete_pairs(np.array([1, 1, 3]), np.array([4, 6, 5]))
        np.testing.assert_array_equal(store.sizes, [2, 0, 1, 1])
        store.validate_segments_sorted()
        sub = store.subset(np.array([0, 1, 2, 3]))
        assert list(sub[0]) == [0, 1]
        assert list(sub[1]) == []
        assert list(sub[2]) == [2]
        assert list(sub[3]) == [3]
        # Slices that start, end, or repeat at the emptied node.
        np.testing.assert_array_equal(store.subset(np.array([1, 3])).sizes, [0, 1])
        np.testing.assert_array_equal(store.subset(np.array([2, 1])).sizes, [1, 0])
        np.testing.assert_array_equal(
            store.subset(np.array([1, 1, 1])).sizes, [0, 0, 0]
        )

    def test_delete_then_subset_then_delete_composition(self):
        # The per-pass composition of the batched solver: delete, CSR-slice
        # the residual, delete again on the slice — including a deletion
        # aimed at an already-emptied node (a no-op by contract).
        store = ColorListStore.from_lists([[1, 2, 3], [0], [5, 7], [4, 8]])
        store.delete_pairs(np.array([1]), np.array([0]))  # empties node 1
        sub = store.subset(np.array([3, 1, 0]))  # residual view across it
        np.testing.assert_array_equal(sub.sizes, [2, 0, 3])
        sub.delete_pairs(np.array([1, 2, 0]), np.array([9, 2, 8]))
        assert list(sub[0]) == [4]  # 8 deleted from renumbered node 0
        assert list(sub[1]) == []  # deleting from an empty list: no-op
        assert list(sub[2]) == [1, 3]  # 2 deleted from renumbered node 2
        sub.validate_segments_sorted()
        # The parent store is untouched by mutations of the subset copy.
        assert list(store[0]) == [1, 2, 3]
        assert list(store[3]) == [4, 8]

    def test_delete_pairs_can_empty_every_list(self):
        store = ColorListStore.from_lists([[2], [0, 1]])
        store.delete_pairs(np.array([0, 1, 1]), np.array([2, 0, 1]))
        assert store.total == 0
        np.testing.assert_array_equal(store.sizes, [0, 0])
        # Composition on a fully emptied store stays well-formed.
        sub = store.subset(np.array([1, 0, 1]))
        np.testing.assert_array_equal(sub.sizes, [0, 0, 0])
        sub.delete_pairs(np.array([0]), np.array([5]))
        assert sub.total == 0


class TestInstanceIntegration:
    def test_single_node_graph(self):
        instance = make_delta_plus_one_instance(Graph(1, []))
        assert instance.lists.n == 1
        assert list(instance.lists[0]) == [0]

    def test_size_one_lists(self):
        g = Graph(3, [])  # no edges: deg+1 = 1 per node
        instance = ListColoringInstance(g, 4, [[2], [0], [3]])
        np.testing.assert_array_equal(instance.list_sizes(), [1, 1, 1])
        assert list(instance.lists.values) == [2, 0, 3]

    def test_instance_accepts_store_and_validates(self):
        g = gen.path_graph(2)
        store = ColorListStore.from_lists([[0, 1], [0, 1]])
        instance = ListColoringInstance(g, 2, store)
        assert instance.lists is store
        bad = ColorListStore(
            np.array([1, 0, 0, 1], dtype=np.int64),
            np.array([0, 2, 4], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            ListColoringInstance(g, 2, bad)

    def test_delta_plus_one_csr_direct(self):
        g = gen.star_graph(5)
        instance = make_delta_plus_one_instance(g)
        assert list(instance.lists[0]) == [0, 1, 2, 3, 4]
        for leaf in range(1, 5):
            assert list(instance.lists[leaf]) == [0, 1]

    def test_prune_after_coloring_matches_reference(self):
        g = gen.random_regular_graph(20, 4, seed=5)
        instance = make_delta_plus_one_instance(g)
        store = instance.copy_lists()
        ragged = instance.lists.to_lists()
        colors = np.full(g.n, -1, dtype=np.int64)
        newly = np.array([0, 3, 7])
        colors[newly] = [1, 0, 2]
        prune_lists_after_coloring(g, store, colors, newly)
        for w in newly:
            for u in g.neighbors(w):
                if colors[u] == -1:
                    ragged[int(u)] = ragged[int(u)][
                        ragged[int(u)] != colors[int(w)]
                    ]
        for v in range(g.n):
            np.testing.assert_array_equal(store[v], ragged[v])

    def test_prune_against_colored_matches_reference(self):
        g = gen.grid_graph(4, 4)
        instance = make_delta_plus_one_instance(g)
        store = instance.copy_lists()
        colors = np.full(g.n, -1, dtype=np.int64)
        colors[[0, 5, 10]] = [2, 1, 0]
        nodes = np.flatnonzero(colors == -1)
        ragged = instance.lists.to_lists()
        prune_lists_against_colored(g, store, colors, nodes)
        for v in nodes:
            taken = {int(colors[u]) for u in g.neighbors(v) if colors[u] != -1}
            expect = np.array(
                [c for c in ragged[int(v)] if int(c) not in taken], dtype=np.int64
            )
            np.testing.assert_array_equal(store[int(v)], expect)
