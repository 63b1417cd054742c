"""Linial's color reduction (engine): properness, O(Δ²) colors, log* rounds.

The step takes each edge's collisions from the roots of its difference
polynomial (t ≤ 2) or from evaluating it at every point (t ≥ 3); both are
pinned to the evaluate-and-compare oracle ``linial_collisions_reference``
and to the CONGEST node program's per-node scan.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference import linial_collisions_reference
from repro.congest.coloring_program import _linial_new_color
from repro.core.validation import verify_proper_coloring
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.substrates.linial import (
    _choose_field,
    _collisions,
    _digits,
    linial_coloring,
    linial_schedule,
    linial_step,
    next_prime,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def log_star(x: float) -> int:
    count = 0
    while x > 1:
        x = math.log2(x)
        count += 1
    return count


class TestPrimes:
    def test_next_prime(self):
        assert next_prime(2) == 2
        assert next_prime(8) == 11
        assert next_prime(14) == 17


class TestLinialStep:
    def test_single_step_is_proper(self):
        graph = gen.random_regular_graph(32, 4, seed=1)
        colors = np.arange(32, dtype=np.int64)
        new_colors, new_k = linial_step(graph, colors, 32)
        verify_proper_coloring(graph, new_colors)
        assert new_colors.max() < new_k

    def test_step_requires_proper_input_to_stay_proper(self):
        # From a proper coloring the step always returns a proper coloring.
        graph = gen.grid_graph(5, 5)
        colors = np.arange(25, dtype=np.int64)
        for _ in range(3):
            colors, k = linial_step(graph, colors, int(colors.max()) + 1)
            verify_proper_coloring(graph, colors)


class TestLinialColoring:
    @pytest.mark.parametrize(
        "graph",
        [
            gen.cycle_graph(64),
            gen.path_graph(50),
            gen.random_regular_graph(128, 4, seed=2),
            gen.random_tree(80, seed=3),
        ],
        ids=["cycle", "path", "regular", "tree"],
    )
    def test_proper_and_delta_squared_colors(self, graph):
        result = linial_coloring(graph)
        verify_proper_coloring(graph, result.colors)
        delta = max(1, graph.max_degree)
        # Final color count is q² for the first prime q > Δ·t with t = 1,
        # which is at most (2(Δ+2))² by Bertrand's postulate.
        assert result.num_colors <= (2 * (delta + 2)) ** 2

    def test_iteration_count_is_log_star_like(self):
        graph = gen.cycle_graph(256)
        result = linial_coloring(graph)
        assert result.iterations <= log_star(256) + 3

    def test_larger_graph_does_not_need_more_colors(self):
        small = linial_coloring(gen.cycle_graph(32)).num_colors
        large = linial_coloring(gen.cycle_graph(512)).num_colors
        assert large <= small * 2  # both O(Δ²) = O(1) for cycles

    def test_respects_given_initial_coloring(self):
        graph = gen.cycle_graph(16)
        initial = np.array([v % 4 + (v % 2) * 4 for v in range(16)])
        initial = np.arange(16, dtype=np.int64)  # ids
        result = linial_coloring(graph, initial, 16)
        verify_proper_coloring(graph, result.colors)

    def test_isolated_nodes(self):
        from repro.graphs.graph import Graph

        graph = Graph(5, [])
        result = linial_coloring(graph)
        verify_proper_coloring(graph, result.colors)

    @pytest.mark.parametrize("n,degree", [(2, 1), (64, 3), (300, 4), (1000, 12)])
    def test_runs_the_schedule(self, n, degree):
        graph = gen.random_regular_graph(n, degree, seed=n)
        schedule = linial_schedule(n, degree)
        result = linial_coloring(graph)
        assert result.iterations == len(schedule)
        assert result.num_colors == (schedule[-1][0] ** 2 if schedule else n)


class TestOneSchedule:
    """Linial's (q, t) rule lives in ``substrates/linial.py`` only: every
    other module takes its steps from :func:`linial_schedule`."""

    def test_no_choose_field_call_outside_linial(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            if path == SRC / "substrates" / "linial.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                    "_choose_field"
                ):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert found == []


def step_collisions(graph, colors, num_colors):
    """The engine's collision matrix for one step on ``colors``."""
    q, t = _choose_field(num_colors, graph.max_degree)
    return _collisions(graph, _digits(np.asarray(colors, dtype=np.int64), q, t), q)


def assert_matches_reference(graph, colors, num_colors):
    ref_collision, ref_colors = linial_collisions_reference(graph, colors, num_colors)
    np.testing.assert_array_equal(step_collisions(graph, colors, num_colors), ref_collision)
    new_colors, _ = linial_step(graph, colors, num_colors)
    np.testing.assert_array_equal(new_colors, ref_colors)


#: (graph, K) pairs whose field choice takes each path: (q, t) below.
PATHS = {
    "linear": (gen.cycle_graph(12), 25),  # (5, 1)
    "quadratic": (gen.cycle_graph(12), 125),  # (5, 2)
    "compare": (gen.cycle_graph(12), 625),  # (7, 3)
}


def path_case(name):
    graph, k = PATHS[name]
    q, t = _choose_field(k, graph.max_degree)
    assert (name == "linear") == (t == 1)
    assert (name == "quadratic") == (t == 2)
    assert (name == "compare") == (t >= 3)
    return graph, k


class TestInputCheck:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_negative_color_raises(self, path):
        graph, k = path_case(path)
        colors = np.arange(graph.n, dtype=np.int64)
        colors[3] = -1
        with pytest.raises(ValueError, match="color -1 at node 3"):
            linial_step(graph, colors, k)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_color_at_least_num_colors_raises(self, path):
        graph, k = path_case(path)
        q, t = _choose_field(k, graph.max_degree)
        colors = np.arange(graph.n, dtype=np.int64)
        # q^(t+1) is past K and would be cut to t + 1 zero digits.
        colors[5] = q ** (t + 1)
        with pytest.raises(ValueError, match=f"at node 5, outside \\[0, {k}\\)"):
            linial_step(graph, colors, k)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_improper_coloring_raises_the_compare_error(self, path):
        graph, k = path_case(path)
        colors = np.arange(graph.n, dtype=np.int64)
        colors[7] = colors[6]  # 6 and 7 are adjacent on the cycle
        with pytest.raises(AssertionError) as ref:
            linial_collisions_reference(graph, colors, k)
        with pytest.raises(AssertionError) as got:
            linial_step(graph, colors, k)
        assert str(got.value) == str(ref.value)
        assert "no free evaluation point at node 6" in str(got.value)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_each_path_matches_reference(self, path):
        graph, k = path_case(path)
        rng = np.random.default_rng(5)
        colors = rng.choice(k, size=graph.n, replace=False)
        assert_matches_reference(graph, colors, k)


# ---------------------------------------------------------------- root path

ROOT_CASES = ("zero_leading", "zero_discriminant", "non_residue", "random")


def root_field(max_degree: int, t: int) -> tuple[int, int]:
    """(q, K = q^(t+1)) whose field choice is (q, t): q is the first prime
    ≥ Δ + 2 above Δ·t, and every smaller candidate needs more digits."""
    delta = max(1, max_degree)
    q = next_prime(max(delta + 2, delta * t + 1))
    k = q ** (t + 1)
    assert _choose_field(k, max_degree) == (q, t)
    return q, k


def difference_for(case: str, q: int, t: int, rng) -> np.ndarray:
    """Coefficients (c0, ..., ct) of a nonzero difference polynomial of
    the given kind over GF(q)."""
    c = rng.integers(0, q, size=t + 1)
    k = int(rng.integers(1, q))
    if case == "zero_leading":
        c[t] = 0
    elif case == "zero_discriminant" and t == 2:
        r = int(rng.integers(0, q))  # k·(a − r)²
        c[:] = [k * r * r % q, -2 * k * r % q, k]
    elif case == "non_residue" and t == 2:
        squares = {x * x % q for x in range(q)}
        nr = min(x for x in range(1, q) if x not in squares)
        c[:] = [-k * nr % q, 0, k]  # disc = 4k²·nr
    if not c.any():
        c[0] = 1
    return c


def engineered_coloring(graph: Graph, q: int, t: int, case: str, rng) -> np.ndarray:
    """A proper coloring in [q^(t+1)] whose first edge's difference is of
    the given kind; the other nodes take random colors, bumped greedily
    past their already-colored neighbors."""
    k = q ** (t + 1)
    u, v = int(graph.edges_u[0]), int(graph.edges_v[0])
    place = q ** np.arange(t + 1)
    dv = rng.integers(0, q, size=t + 1)
    du = (dv + difference_for(case, q, t, rng)) % q
    colors = np.full(graph.n, -1, dtype=np.int64)
    colors[u], colors[v] = int(du @ place), int(dv @ place)
    for w in rng.permutation(graph.n).tolist():
        if colors[w] >= 0:
            continue
        taken = set(colors[graph.neighbors(w)].tolist())
        c = int(rng.integers(0, k))
        while c in taken:
            c = (c + 1) % k
        colors[w] = c
    verify_proper_coloring(graph, colors)
    return colors


def root_kind(graph: Graph, colors, q: int, t: int) -> str:
    """Which root case the first edge's difference polynomial falls in."""
    digits = _digits(colors, q, t)
    c = (digits[:, graph.edges_u[0]] - digits[:, graph.edges_v[0]]) % q
    if c[t] == 0:
        return "zero_leading"
    if t == 1:
        return "random"
    disc = int(c[1] * c[1] - 4 * c[2] * c[0]) % q
    if disc == 0:
        return "zero_discriminant"
    if disc not in {x * x % q for x in range(q)}:
        return "non_residue"
    return "random"


def cases_for(t: int) -> tuple:
    """The root cases a degree-t difference can fall in."""
    return ROOT_CASES if t == 2 else ("zero_leading", "random")


@st.composite
def root_path_instances(draw):
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=3 * n,
        )
    )
    edges = [(a, b) for a, b in pairs if a != b] or [(0, 1)]
    graph = Graph(n, edges)
    t = draw(st.sampled_from((1, 2)))
    case = draw(st.sampled_from(cases_for(t)))
    seed = draw(st.integers(0, 2**32 - 1))
    return root_instance(graph, t, case, seed)


def root_instance(graph: Graph, t: int, case: str, seed: int) -> tuple:
    """(graph, colors, K, q, t, case): a proper coloring whose first edge's
    difference polynomial is of the given kind."""
    q, k = root_field(graph.max_degree, t)
    colors = engineered_coloring(graph, q, t, case, np.random.default_rng(seed))
    return graph, colors, k, q, t, case


def fixed_root_instance(t: int, case: str) -> tuple:
    return root_instance(gen.gnp_graph(10, 0.4, seed=3), t, case, seed=3)


class TestRootPath:
    # Every case the formula branches on is pinned by an explicit example,
    # whatever hypothesis draws.
    @example(fixed_root_instance(1, "zero_leading"))
    @example(fixed_root_instance(2, "zero_leading"))
    @example(fixed_root_instance(2, "zero_discriminant"))
    @example(fixed_root_instance(2, "non_residue"))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(root_path_instances())
    def test_roots_match_evaluate_and_compare(self, inst):
        graph, colors, k, q, t, case = inst
        assert case == "random" or root_kind(graph, colors, q, t) == case
        assert_matches_reference(graph, colors, k)


# ----------------------------------------------------- cross-layer check


class TestMatchesCongestNodeProgram:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", (25, 200, 5_000, 10**6))  # t from 1 to 4
    def test_colors_equal_per_node_scan(self, seed, k):
        # The node program scans the points in order at each node, reading
        # only its neighbors' colors: an independent model of the step.
        graph = gen.gnp_graph(24, 0.15, seed=seed)
        k = max(k, graph.n)
        rng = np.random.default_rng(seed)
        colors = rng.choice(k, size=graph.n, replace=False)
        q, t = _choose_field(k, graph.max_degree)
        new_colors, _ = linial_step(graph, colors, k)
        expected = [
            _linial_new_color(int(colors[v]), colors[graph.neighbors(v)].tolist(), q, t)
            for v in range(graph.n)
        ]
        assert new_colors.tolist() == expected

    def test_node_program_rejects_a_neighbor_of_its_own_color(self):
        # Equal colors collide at every point, so there is no free one.
        with pytest.raises(AssertionError, match="no free evaluation point"):
            _linial_new_color(5, [5, 7], 11, 1)

    def test_improper_path_raises_in_both_layers(self):
        # Path 0-1-2 colored 7, 5, 5: the engine rejects the coloring, and
        # the node program rejects it at exactly the edge's two endpoints.
        graph = gen.path_graph(3)
        colors = np.array([7, 5, 5], dtype=np.int64)
        k = 8
        q, t = _choose_field(k, graph.max_degree)
        with pytest.raises(AssertionError, match="at node 1"):
            linial_step(graph, colors, k)
        rejected = []
        for v in range(graph.n):
            try:
                _linial_new_color(
                    int(colors[v]), colors[graph.neighbors(v)].tolist(), q, t
                )
            except AssertionError:
                rejected.append(v)
        assert rejected == [1, 2]
