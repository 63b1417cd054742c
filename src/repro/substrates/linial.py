"""Linial's deterministic color reduction (engine version).

Theorem 1.1's proof starts from a K = O(Δ²) coloring computed with Linial's
algorithm [Lin92] in O(log* n) rounds.  We implement the classic
polynomial-based construction: a proper K-coloring is viewed as assigning
each node a distinct-from-neighbors polynomial of degree t over GF(q)
(its color's base-q digits, t = ⌈log_q K⌉ - 1).  Two distinct degree-t
polynomials agree on at most t points, so if q > Δ·t every node finds an
evaluation point a where it differs from all neighbors; the pair
(a, p_u(a)) ∈ [q²] is the new color.  Iterating shrinks K to O(Δ²) in
O(log* K) one-round steps (each step only needs the neighbors' current
colors, which fit in CONGEST messages).

The step uses that bound directly.  p_u and p_v agree exactly at the roots
of their difference c = p_u − p_v, so each undirected edge contributes its
≤ t roots, once, as a collision point of both endpoints:

- t = 1: the root −c0 / c1;
- t = 2: the quadratic formula (q is an odd prime), with inverse and
  square-root tables of size q (cached per q) — two roots, a double root,
  or none when the discriminant is a non-residue;
- a zero leading coefficient drops to the lower degree.

For t ≥ 3 each edge's c is evaluated at all q points instead, and its zeros are the roots; the key
producer is the only part that depends on the degree.  Either way the
collision matrix is exactly the one an evaluate-every-point-and-compare
step builds, so every node keeps the same first free point and the output
colors cannot change; only the new color's value is evaluated, at that one
point.  An all-zero difference means two neighbors share a color: the
input is improper, and the step fails as the compare would, at the
smallest node left with no free point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "linial_step",
    "linial_schedule",
    "linial_coloring",
    "LinialResult",
    "next_prime",
]


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(x: int) -> int:
    """Smallest prime >= x."""
    candidate = max(2, int(x))
    while not _is_prime(candidate):
        candidate += 1
    return candidate


@lru_cache(maxsize=4096)
def _choose_field(num_colors: int, max_degree: int) -> tuple[int, int]:
    """Smallest prime q with q > Δ·t where t = ⌈log_q K⌉ - 1 digits suffice.

    q starts at ``next_prime(Δ + 2)`` ≥ 3, so it is always an odd prime.
    """
    delta = max(1, max_degree)
    q = next_prime(delta + 2)
    while True:
        # Number of base-q digits needed for colors in [num_colors].
        digits = 1
        capacity = q
        while capacity < num_colors:
            capacity *= q
            digits += 1
        t = digits - 1
        if t == 0:
            # Colors already fit into [q]; no reduction possible at this q.
            return q, 0
        if q > delta * t:
            return q, t
        q = next_prime(q + 1)


@lru_cache(maxsize=256)
def _field_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GF(q) tables of size q: ``inv[x]`` (``inv[0] = 0``), ``inv2[x]`` the
    inverse of 2x, and ``sqrt[x]``, one root of x or -1 for a non-residue.

    Indexed by x ∈ (-q, q), a negative x reads entry q + x ≡ x (mod q), so
    unreduced digit differences index the tables directly.
    """
    y = np.arange(q, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = [pow(x, -1, q) for x in range(1, q)]
    sqrt = np.full(q, -1, dtype=np.int64)
    sqrt[y * y % q] = y
    return inv, inv[2 * y % q], sqrt


def _linear_roots(c0: np.ndarray, c1: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(edge, root) pairs of c0 + c1·a: one root −c0 / c1 where c1 ≠ 0."""
    inv = _field_tables(q)[0]
    edges = np.flatnonzero(c1)
    return edges, -c0[edges] * inv[c1[edges]] % q


def _quadratic_roots(
    c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """(edge, root) pairs of c0 + c1·a + c2·a² over GF(q)."""
    _, inv2, sqrt = _field_tables(q)
    quad = np.flatnonzero(c2)
    a0, a1, a2 = c0[quad], c1[quad], c2[quad]
    s = sqrt[(a1 * a1 - 4 * a2 * a0) % q]
    # A zero discriminant is a double root, a non-residue gives none.
    one, two = np.flatnonzero(s >= 0), np.flatnonzero(s > 0)
    plus = (s[one] - a1[one]) * inv2[a2[one]] % q
    minus = (-s[two] - a1[two]) * inv2[a2[two]] % q
    flat = np.flatnonzero(c2 == 0)
    lin_edges, lin_roots = _linear_roots(c0[flat], c1[flat], q)
    edges = np.concatenate((quad[one], quad[two], flat[lin_edges]))
    return edges, np.concatenate((plus, minus, lin_roots))


def _evaluated_roots(coeffs: list, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(edge, root) pairs found by evaluating each edge's difference at all
    q points.  Chunked so the (edges, q) temporaries stay bounded."""
    points = np.arange(q, dtype=np.int64)
    edges, roots = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    chunk = max(1, (1 << 22) // q)
    for start in range(0, len(coeffs[0]), chunk):
        block = [c[start:start + chunk, None] for c in coeffs]
        values = np.zeros((len(block[0]), q), dtype=np.int64)
        for c in reversed(block):
            values = (values * points + c) % q
        e, a = np.nonzero(values == 0)
        edges.append(e + start)
        roots.append(a)
    return np.concatenate(edges), np.concatenate(roots)


def _digits(colors: np.ndarray, q: int, t: int) -> np.ndarray:
    """(t + 1, n) base-q digits: row i holds the i-th digit of every color."""
    digits = np.empty((t + 1, len(colors)), dtype=np.int64)
    rem = colors
    for i in range(t + 1):
        rem, digits[i] = np.divmod(rem, q)
    return digits


def _collisions(graph: Graph, digits: np.ndarray, q: int) -> np.ndarray:
    """(n, q) collision matrix: v collides at a iff some neighbor's
    polynomial agrees with p_v(a).  The input coloring must be proper.

    Each edge's difference polynomial is formed once (coefficients left
    unreduced in (-q, q)), its roots are a collision point of both
    endpoints, and one ``np.bincount`` over ``node·q + root`` keys fills
    the matrix.
    """
    t = len(digits) - 1
    eu, ev = graph.edges_u, graph.edges_v
    coeffs = [row[eu] - row[ev] for row in digits]
    if t == 1:
        edges, roots = _linear_roots(*coeffs, q)
    elif t == 2:
        edges, roots = _quadratic_roots(*coeffs, q)
    else:
        edges, roots = _evaluated_roots(coeffs, q)
    keys = np.concatenate((eu[edges] * q + roots, ev[edges] * q + roots))
    return np.bincount(keys, minlength=graph.n * q).reshape(graph.n, q) > 0


def linial_step(
    graph: Graph, colors: np.ndarray, num_colors: int
) -> tuple[np.ndarray, int]:
    """One Linial reduction round: [K] colors -> [q²] colors.

    Returns ``(new_colors, q*q)``.  Requires the input coloring to be proper
    (else ``AssertionError``) with every color in ``[0, num_colors)`` (else
    ``ValueError``).  The step is a single CONGEST round (each node learns
    neighbors' colors).
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size and (colors.min() < 0 or colors.max() >= num_colors):
        bad = int(np.flatnonzero((colors < 0) | (colors >= num_colors))[0])
        raise ValueError(
            f"Linial step got color {int(colors[bad])} at node {bad}, "
            f"outside [0, {num_colors})"
        )
    q, t = _choose_field(num_colors, graph.max_degree)
    if t == 0:
        return colors.copy(), num_colors
    same = colors[graph.edges_u] == colors[graph.edges_v]
    if same.any():
        # Both endpoints collide at every point.  A node whose edges are
        # all proper meets at most Δ·t < q roots, so the first node with
        # no free point is the smallest endpoint of an improper edge.
        v = int(graph.edges_u[same].min())
        raise AssertionError(
            f"Linial step found no free evaluation point at node {v}"
        )
    digits = _digits(colors, q, t)
    collision = _collisions(graph, digits, q)
    # Each node keeps its first collision-free evaluation point; q > Δ·t
    # guarantees one.
    a = np.argmax(~collision, axis=1)
    value = digits[t]
    for i in range(t - 1, -1, -1):
        value = (value * a + digits[i]) % q
    return a * q + value, q * q


@dataclass
class LinialResult:
    """Outcome of the iterated Linial reduction."""

    colors: np.ndarray
    num_colors: int
    iterations: int  #: communication rounds consumed (one per step)


def linial_schedule(num_colors: int, max_degree: int) -> list:
    """The deterministic ``(q, t, K)`` sequence of Linial steps from K colors.

    A step maps [K] to [q²] with ``(q, t) = _choose_field(K, Δ)``; the
    schedule stops once t = 0 or q² ≥ K, where the next step would not
    shrink K.  Every node can compute it locally from (K, Δ), so no
    coordination is needed to agree on the number of reduction rounds.
    """
    schedule = []
    k = num_colors
    while True:
        q, t = _choose_field(k, max_degree)
        if t == 0 or q * q >= k:
            return schedule
        schedule.append((q, t, k))
        k = q * q


def linial_coloring(
    graph: Graph, initial_colors: np.ndarray | None = None, num_colors: int | None = None
) -> LinialResult:
    """Run the steps of :func:`linial_schedule`: K -> O(Δ²).

    With no ``initial_colors``, node ids are used (the paper's identifier
    coloring, K = n).  The iteration count is O(log* K).
    """
    if initial_colors is None:
        colors = np.arange(graph.n, dtype=np.int64)
        num_colors = max(1, graph.n)
    else:
        colors = np.asarray(initial_colors, dtype=np.int64)
        if num_colors is None:
            num_colors = int(colors.max(initial=0)) + 1
    schedule = linial_schedule(num_colors, graph.max_degree)
    for _q, _t, k in schedule:
        colors, num_colors = linial_step(graph, colors, k)
    return LinialResult(colors=colors, num_colors=num_colors, iterations=len(schedule))
