"""The sort-based ``unique`` primitive and the sorts it replaced in ``src/``.

Why it exists, measured with numpy 2.4.6 on 10k distinct int64 values
(2-core host):

* plain ``np.unique`` takes numpy's hash path: 1.25–1.33 ms, against
  56–62 µs for ``np.sort`` (27.8 ms against 0.73 ms at 100k);
* ``np.unique(return_index=True)`` and ``argsort(kind="stable")`` take
  0.70 ms, against 0.16 ms for the default (unstable) argsort;
* a two-key ``np.lexsort`` takes 1.28 ms, against 73 µs for one
  ``np.sort`` of a packed int64 key.

So every dedup in ``src/`` goes through :func:`repro.graphs.sorting.unique`,
and the decomposition orders by one sort of a packed key.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graphs.sorting import unique

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FLAGS = list(itertools.product([False, True], repeat=3))


def assert_like_np_unique(a, flags):
    got = unique(a, *flags)
    want = np.unique(a, *flags)
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    assert isinstance(got, tuple) and len(got) == len(want)
    for mine, theirs in zip(got, want):
        np.testing.assert_array_equal(mine, theirs, strict=True)


def int_arrays():
    """1-D int64 / int32 arrays: empty ones, negative values, all-equal
    runs, and heavy duplication (a few values over many slots)."""
    dtype = st.sampled_from([np.int64, np.int32])
    wide = dtype.flatmap(
        lambda dt: hnp.arrays(dt, st.integers(0, 60), elements=hnp.from_dtype(np.dtype(dt)))
    )
    dupes = dtype.flatmap(
        lambda dt: hnp.arrays(dt, st.integers(0, 200), elements=st.integers(-3, 3))
    )
    flat = st.tuples(dtype, st.integers(-(2**31), 2**31 - 1), st.integers(0, 40)).map(
        lambda t: np.full(t[2], t[1], dtype=t[0])
    )
    return st.one_of(wide, dupes, flat)


class TestUnique:
    @given(int_arrays(), st.sampled_from(FLAGS))
    @settings(max_examples=300, deadline=None)
    def test_matches_np_unique(self, a, flags):
        assert_like_np_unique(a, flags)

    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize(
        "a",
        [
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.array([7]),
            np.full(9, -4, dtype=np.int32),
            np.array([3, -1, 3, 3, -1, 0, 2**62, -(2**62)]),
            np.random.default_rng(0).permutation(10_000),
        ],
        ids=["empty64", "empty32", "one", "all-equal", "extremes", "distinct-10k"],
    )
    def test_edge_cases(self, a, flags):
        assert_like_np_unique(a, flags)

    def test_first_occurrence_under_an_unstable_sort(self):
        """Long runs of equal values, where an unstable argsort permutes
        each run: the index is still each value's first position."""
        a = np.random.default_rng(1).integers(0, 5, size=5_000)
        _, index = unique(a, return_index=True)
        np.testing.assert_array_equal(
            index, [int(np.argmax(a == v)) for v in range(5)]
        )

    def test_rejects_what_it_does_not_cover(self):
        with pytest.raises(ValueError):
            unique(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(TypeError):
            unique(np.array([0.5, 0.5]))


def calls_in(paths):
    """``(file:line, callee, keywords)`` of every call in ``paths``."""
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield (
                    f"{path.relative_to(SRC)}:{node.lineno}",
                    ast.unparse(node.func),
                    {kw.arg: ast.unparse(kw.value) for kw in node.keywords},
                )


class TestNoSlowSorts:
    """numpy's hash unique, stable sorts and lexsorts stay out of the paths
    that ``unique`` and the packed keys replaced."""

    def test_no_np_unique_outside_the_helper(self):
        paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "sorting.py"]
        found = [where for where, func, _ in calls_in(paths) if func == "np.unique"]
        assert found == []

    def test_decomposition_has_no_lexsort_or_stable_sort(self):
        paths = sorted((SRC / "decomposition").rglob("*.py"))
        found = [
            f"{where} {func}"
            for where, func, keywords in calls_in(paths)
            if func == "np.lexsort" or keywords.get("kind") in ("'stable'", "'mergesort'")
        ]
        assert found == []
