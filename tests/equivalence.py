"""Canonical byte-identity assertions for solver artifacts.

The repo's load-bearing contract is that every execution strategy —
sequential, batched, shared-seed fused, sharded multiprocess — and the
plain reference paths of :mod:`reference` produce *byte-identical*
observable outputs: colorings, :class:`~repro.core.derandomize.SeedChoice`
tuples and the :class:`~repro.core.derandomize.SeedColumns` they are built
from, round ledgers (category totals AND the per-event charge stream)
and potential traces.
These helpers compare those artifacts exactly (floats are ``==``, never
approx) and fail with a path into the structure plus the first diverging
values, so a broken equivalence pinpoints the artifact instead of dumping
two trees.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "assert_arrays_equal",
    "assert_batch_results_equal",
    "assert_coloring_results_equal",
    "assert_ledgers_equal",
    "assert_outcomes_equal",
    "assert_prefix_results_equal",
    "assert_seed_choices_equal",
    "assert_seed_columns_equal",
    "assert_traces_equal",
    "member_columns",
]


def _fail(path: str, message: str) -> None:
    raise AssertionError(f"{path}: {message}")


def assert_scalars_equal(a, b, path: str) -> None:
    """Exact scalar equality (ints, floats, strings, tuples)."""
    if a != b or (isinstance(a, float) != isinstance(b, float)):
        _fail(path, f"{a!r} != {b!r}")


def assert_arrays_equal(a, b, path: str) -> None:
    """Exact array equality with the first mismatching index in the diff."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        _fail(path, f"shape {a.shape} != {b.shape}")
    if a.size and not np.array_equal(a, b):
        mismatch = np.flatnonzero(a.ravel() != b.ravel())
        i = int(mismatch[0])
        _fail(
            path,
            f"{len(mismatch)}/{a.size} entries differ; first at flat index "
            f"{i}: {a.ravel()[i]!r} != {b.ravel()[i]!r}",
        )


def assert_traces_equal(a, b, path: str) -> None:
    """Exact (float-``==``) equality of two numeric traces."""
    if len(a) != len(b):
        _fail(path, f"length {len(a)} != {len(b)}")
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            _fail(f"{path}[{i}]", f"{x!r} != {y!r}")


def assert_ledgers_equal(a, b, path: str = "ledger") -> None:
    """Category totals AND the ordered per-event charge stream must match.

    Either side may be None (e.g. optional per-instance ledgers); then both
    must be.
    """
    if (a is None) != (b is None):
        _fail(path, f"one ledger is None: {a!r} vs {b!r}")
    if a is None:
        return
    if a.breakdown() != b.breakdown():
        keys = sorted(set(a.categories) | set(b.categories))
        diffs = [
            f"{key}: {a.categories.get(key)} != {b.categories.get(key)}"
            for key in keys
            if a.categories.get(key) != b.categories.get(key)
        ]
        _fail(f"{path}.breakdown", "; ".join(diffs))
    if a.events != b.events:
        for i, (ea, eb) in enumerate(zip(a.events, b.events)):
            if ea != eb:
                _fail(f"{path}.events[{i}]", f"{ea!r} != {eb!r}")
        _fail(f"{path}.events", f"length {len(a.events)} != {len(b.events)}")


def assert_seed_choices_equal(a, b, path: str = "seed") -> None:
    """Full :class:`SeedChoice` identity: seeds, bit widths, expectations
    and the Eq. (7) conditional trace."""
    if (a is None) != (b is None):
        _fail(path, f"one choice is None: {a!r} vs {b!r}")
    if a is None:
        return
    assert_scalars_equal(a.s1, b.s1, f"{path}.s1")
    assert_scalars_equal(a.sigma, b.sigma, f"{path}.sigma")
    assert_scalars_equal(a.s1_bits, b.s1_bits, f"{path}.s1_bits")
    assert_scalars_equal(a.sigma_bits, b.sigma_bits, f"{path}.sigma_bits")
    assert_scalars_equal(
        a.initial_expectation, b.initial_expectation,
        f"{path}.initial_expectation",
    )
    assert_scalars_equal(a.final_value, b.final_value, f"{path}.final_value")
    assert_traces_equal(
        a.conditional_trace, b.conditional_trace, f"{path}.conditional_trace"
    )


def assert_seed_columns_equal(a, b, path: str = "seed") -> None:
    """Full :class:`SeedColumns` identity: every column's dtype, shape and
    bytes."""
    for name, x, y in zip(a._fields, a, b):
        if x.dtype != y.dtype:
            _fail(f"{path}.{name}", f"dtype {x.dtype} != {y.dtype}")
        assert_arrays_equal(x, y, f"{path}.{name}")
        if x.tobytes() != y.tobytes():
            _fail(f"{path}.{name}", "bytes differ")


def member_columns(columns, j: int):
    """Member ``j``'s row of a group's :class:`SeedColumns`, as the columns
    of a group of one."""
    return type(columns)(*(column[j:j + 1] for column in columns))


def assert_prefix_results_equal(a, b, path: str = "prefix") -> None:
    """Candidates, conflict graph, potential trace and every per-phase
    record including its :class:`SeedChoice`."""
    assert_arrays_equal(a.candidates, b.candidates, f"{path}.candidates")
    assert_arrays_equal(
        a.conflict_degrees, b.conflict_degrees, f"{path}.conflict_degrees"
    )
    assert_arrays_equal(
        a.conflict_edges_u, b.conflict_edges_u, f"{path}.conflict_edges_u"
    )
    assert_arrays_equal(
        a.conflict_edges_v, b.conflict_edges_v, f"{path}.conflict_edges_v"
    )
    assert_traces_equal(
        a.potential_trace, b.potential_trace, f"{path}.potential_trace"
    )
    assert_scalars_equal(
        a.total_seed_bits, b.total_seed_bits, f"{path}.total_seed_bits"
    )
    if len(a.phases) != len(b.phases):
        _fail(f"{path}.phases", f"length {len(a.phases)} != {len(b.phases)}")
    for i, (pa, pb) in enumerate(zip(a.phases, b.phases)):
        at = f"{path}.phases[{i}]"
        assert_scalars_equal(pa.r, pb.r, f"{at}.r")
        assert_scalars_equal(pa.b, pb.b, f"{at}.b")
        assert_scalars_equal(pa.seed_bits, pb.seed_bits, f"{at}.seed_bits")
        assert_scalars_equal(
            pa.potential_after, pb.potential_after, f"{at}.potential_after"
        )
        assert_scalars_equal(pa.alive_edges, pb.alive_edges, f"{at}.alive_edges")
        if pa.seed is not None or pb.seed is not None:
            assert_seed_choices_equal(pa.seed, pb.seed, f"{at}.seed")
            assert_scalars_equal(
                pa.initial_expectation, pb.initial_expectation,
                f"{at}.initial_expectation",
            )
            assert_scalars_equal(
                pa.final_value, pb.final_value, f"{at}.final_value"
            )


def assert_outcomes_equal(a, b, path: str = "outcome") -> None:
    """Full :class:`PartialColoringOutcome` identity (one Lemma 2.1 pass)."""
    assert_arrays_equal(a.colors, b.colors, f"{path}.colors")
    assert_scalars_equal(a.colored_count, b.colored_count, f"{path}.colored_count")
    assert_scalars_equal(a.fraction, b.fraction, f"{path}.fraction")
    assert_scalars_equal(a.mis_rounds, b.mis_rounds, f"{path}.mis_rounds")
    assert_scalars_equal(
        a.eligible_count, b.eligible_count, f"{path}.eligible_count"
    )
    assert_prefix_results_equal(a.prefix, b.prefix, f"{path}.prefix")


def assert_coloring_results_equal(a, b, path: str = "result") -> None:
    """Full :class:`ColoringResult` identity (one Theorem 1.1 solve):
    colors, ledger (totals + events), Linial/BFS metadata and per-pass
    statistics with their potential traces."""
    assert_arrays_equal(a.colors, b.colors, f"{path}.colors")
    assert_ledgers_equal(a.rounds, b.rounds, f"{path}.rounds")
    assert_scalars_equal(
        a.input_coloring_size, b.input_coloring_size,
        f"{path}.input_coloring_size",
    )
    assert_scalars_equal(
        a.linial_iterations, b.linial_iterations, f"{path}.linial_iterations"
    )
    assert_scalars_equal(a.comm_depth, b.comm_depth, f"{path}.comm_depth")
    if len(a.passes) != len(b.passes):
        _fail(f"{path}.passes", f"length {len(a.passes)} != {len(b.passes)}")
    for i, (pa, pb) in enumerate(zip(a.passes, b.passes)):
        at = f"{path}.passes[{i}]"
        assert_scalars_equal(pa.active_before, pb.active_before, f"{at}.active_before")
        assert_scalars_equal(pa.colored, pb.colored, f"{at}.colored")
        assert_scalars_equal(pa.fraction, pb.fraction, f"{at}.fraction")
        assert_scalars_equal(pa.seed_bits, pb.seed_bits, f"{at}.seed_bits")
        assert_scalars_equal(pa.phases, pb.phases, f"{at}.phases")
        assert_traces_equal(
            pa.potential_trace, pb.potential_trace, f"{at}.potential_trace"
        )


def assert_batch_results_equal(a, b, path: str = "batch") -> None:
    """Per-instance :func:`assert_coloring_results_equal` over two
    :class:`BatchColoringResult`\\ s."""
    if a.num_instances != b.num_instances:
        _fail(path, f"num_instances {a.num_instances} != {b.num_instances}")
    for i, (ra, rb) in enumerate(zip(a.results, b.results)):
        assert_coloring_results_equal(ra, rb, f"{path}[{i}]")
