"""Full Theorem 1.1 algorithm as a CONGEST node program.

This is the message-level twin of :mod:`repro.core.list_coloring`: every
node runs the generator below, exchanging *only* tagged O(log n)-bit
messages, and the simulator enforces the bandwidth.  The pipeline per pass
(Lemma 2.1):

1. control aggregation over the BFS tree: number of uncolored nodes and the
   residual maximum degree (fixes the phase parameters b, d for everyone);
2. per prefix bit (⌈log C⌉ phases): neighbor exchange of (k0, k1), then one
   convergecast + broadcast per seed bit — the root fixes the bit that
   minimizes the aggregated conditional expectation (Lemma 2.6);
3. announcement of the chosen bucket to neighbors (conflict-graph update);
4. MIS stage on the ≤3-conflict nodes: eligibility exchange, Linial color
   reduction steps, color-class iteration; winners announce their permanent
   color, neighbors prune their lists.

Every node evaluates its conditional expectations *locally* (local
computation is free in CONGEST) by enumerating its own value as a function
of the (s1, σ) seed — which is feasible precisely because the paper's seed
is only O(log Δ + log log C) bits long.  Intended for small graphs; the
reference engine covers large ones.  Tests assert the two implementations
agree on the mathematics and that this one respects the model.
"""

from __future__ import annotations

import numpy as np

from repro.congest.programs import MessageBuffer, convergecast, exchange
from repro.core.instances import ListColoringInstance, ceil_log2
from repro.core.potential import accuracy_bits
from repro.hashing.coins import bucket_thresholds
from repro.hashing.pairwise import PairwiseFamily
from repro.substrates.linial import linial_schedule

__all__ = ["congest_coloring_program", "CongestColoringRun"]


def _poly_value(color: int, q: int, t: int, point: int) -> int:
    digits = []
    rem = color
    for _ in range(t + 1):
        digits.append(rem % q)
        rem //= q
    value = 0
    for d in reversed(digits):
        value = (value * point + d) % q
    return value


def _linial_new_color(my_color: int, neighbor_colors: list, q: int, t: int) -> int:
    """One node's Linial step: ``a·q + value`` at the first point ``a``
    where its polynomial differs from every neighbor's.

    A neighbor of the node's own color collides at every point, so an
    improper input raises ``AssertionError`` here just as it does in
    :func:`~repro.substrates.linial.linial_step`.
    """
    for a in range(q):
        mine = _poly_value(my_color, q, t, a)
        if all(_poly_value(c, q, t, a) != mine for c in neighbor_colors):
            return a * q + mine
    raise AssertionError(
        f"Linial step found no free evaluation point for color {my_color}"
    )


class CongestColoringRun:
    """Shared immutable inputs of one simulation run."""

    def __init__(self, instance: ListColoringInstance, psi: np.ndarray, num_input_colors: int):
        self.instance = instance
        self.psi = np.asarray(psi, dtype=np.int64)
        self.num_input_colors = int(num_input_colors)
        self.a_bits = max(1, ceil_log2(max(2, self.num_input_colors)))
        self.color_bits = instance.color_bits


def _node_seed_values(
    family: PairwiseFamily,
    b: int,
    my_psi: int,
    my_counts: np.ndarray,
    neighbor_psi: dict,
    neighbor_counts: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """Node-local value of Φ(u) as a function of the full (s1, σ) seed.

    Returns ``(values, my_buckets)`` of shape (2^m, 2^b): values[s1, σ] is
    Σ_v 1[bucket_u = bucket_v]/k_{w_u}(u), exactly what the node aggregates
    during the method of conditional expectations.
    """
    order = family.field.order
    scale = 1 << b
    sigmas = np.arange(scale, dtype=np.int64)
    s1s = np.arange(order, dtype=np.int64)

    def bucket_matrix(psi_value: int, counts: np.ndarray) -> np.ndarray:
        thresholds = bucket_thresholds(counts[None, :], b)[0]
        g = family.g_values_many(s1s, np.array([psi_value], dtype=np.int64))[:, 0]
        y = g[:, None] ^ sigmas[None, :]
        buckets = np.searchsorted(thresholds, y.ravel(), side="right") - 1
        return np.clip(buckets, 0, len(counts) - 1).reshape(order, scale)

    mine = bucket_matrix(my_psi, my_counts)
    with np.errstate(divide="ignore"):
        inv = np.where(my_counts > 0, 1.0 / my_counts, 0.0)
    values = np.zeros((order, scale), dtype=np.float64)
    for v, counts_v in neighbor_counts.items():
        theirs = bucket_matrix(neighbor_psi[v], np.asarray(counts_v, dtype=np.int64))
        values += np.where(mine == theirs, inv[mine], 0.0)
    return values, mine


def congest_coloring_program(run: CongestColoringRun, root: int, tree: dict):
    """Program factory for the full coloring pipeline.

    ``tree`` maps node -> (parent, depth, children) from a BFS-tree run.
    Results are written to ``ctx.shared['colors'][node]``.
    """

    def algo(ctx):
        me = ctx.node
        instance = run.instance
        graph = instance.graph
        parent, _depth, children = tree[me]
        parent = None if parent == -1 else parent
        buffer = MessageBuffer()
        seq = 0

        my_list = instance.lists[me].copy()
        my_color = -1
        uncolored_neighbors = set(ctx.neighbors)
        colors_out = ctx.shared.setdefault("colors", {})
        pass_index = 0
        # The MIS-stage Linial schedule depends only on (K, Δ ≤ 3): every
        # node derives it locally, once, and reuses it in every pass.
        mis_schedule = linial_schedule(run.num_input_colors, 3)
        mis_classes = (
            mis_schedule[-1][0] ** 2 if mis_schedule else run.num_input_colors
        )

        while True:
            # ---- pass control: count uncolored, residual max degree ----
            my_deg = len(uncolored_neighbors) if my_color == -1 else 0
            value = (1 if my_color == -1 else 0, 0, my_deg)
            decision = yield from convergecast(
                buffer, seq, parent, list(children), value,
                combine=lambda a_, b_: (a_[0] + b_[0], 0, max(a_[2], b_[2])),
                decide=lambda total: (total[0], total[2]),
            )
            seq += 1
            remaining, residual_delta = decision
            if remaining == 0:
                colors_out[me] = int(my_color)
                return

            active = my_color == -1
            b = accuracy_bits(residual_delta, run.color_bits, r=1)
            family = PairwiseFamily(run.a_bits, b)
            d_bits = family.m + b
            cand = my_list.copy()
            alive = set(u for u in uncolored_neighbors) if active else set()

            # ---- prefix-extension phases (one bit per phase) ----
            for phase in range(run.color_bits):
                shift = run.color_bits - 1 - phase
                if active:
                    counts = np.bincount((cand >> shift) & 1, minlength=2)
                    payload = (int(counts[0]), int(counts[1]), int(run.psi[me]))
                else:
                    counts = np.array([1, 0], dtype=np.int64)
                    payload = (1, 0, int(run.psi[me]))
                got = yield from exchange(
                    buffer, seq, sorted(ctx.neighbors), payload
                )
                seq += 1
                if active:
                    neighbor_psi = {v: got[v][2] for v in alive}
                    neighbor_counts = {
                        v: np.array([got[v][0], got[v][1]], dtype=np.int64)
                        for v in alive
                    }
                    values, my_buckets = _node_seed_values(
                        family, b, int(run.psi[me]), counts,
                        neighbor_psi, neighbor_counts,
                    )
                else:
                    values = np.zeros((family.field.order, 1 << b))
                    my_buckets = np.zeros_like(values, dtype=np.int64)

                # Fix the d seed bits, one tree aggregation each (Lemma 2.6).
                flat = values.reshape(-1)  # index = s1 · 2^b + σ, MSB-first
                lo, size = 0, len(flat)
                for _bit in range(d_bits):
                    half = size // 2
                    x0 = float(flat[lo:lo + half].sum())
                    x1 = float(flat[lo + half:lo + size].sum())
                    chosen = yield from convergecast(
                        buffer, seq, parent, list(children), (x0, x1, 0),
                        combine=lambda a_, b_: (a_[0] + b_[0], a_[1] + b_[1], 0),
                        decide=lambda total: 1 if total[1] < total[0] else 0,
                    )
                    seq += 1
                    if chosen:
                        lo += half
                    size = half
                seed_index = lo
                sigma = seed_index & ((1 << b) - 1)
                s1 = seed_index >> b

                # Everyone now knows the seed; pick the bucket, tell peers.
                my_bucket = int(
                    my_buckets[s1, sigma]
                    if active
                    else 0
                )
                if active:
                    cand = cand[((cand >> shift) & 1) == my_bucket]
                    assert len(cand) > 0, "candidate list became empty"
                got = yield from exchange(
                    buffer, seq, sorted(ctx.neighbors), my_bucket
                )
                seq += 1
                if active:
                    alive = {v for v in alive if got[v] == my_bucket}

            # ---- MIS stage on the conflict graph (degree ≤ 3) ----
            candidate = int(cand[0]) if active else -1
            conflict_deg = len(alive)
            eligible = active and conflict_deg <= 3
            got = yield from exchange(
                buffer, seq, sorted(ctx.neighbors), 1 if eligible else 0
            )
            seq += 1
            conflict_peers = sorted(v for v in alive if got[v] == 1) if eligible else []

            # Linial reduction of ψ on the conflict subgraph (Δ ≤ 3).
            linial_color = int(run.psi[me])
            for q, t, _k in mis_schedule:
                got = yield from exchange(
                    buffer, seq, sorted(ctx.neighbors), linial_color
                )
                seq += 1
                if eligible:
                    linial_color = _linial_new_color(
                        linial_color, [got[v] for v in conflict_peers], q, t
                    )

            in_mis = False
            blocked = False
            for cls in range(mis_classes):
                joining = eligible and not blocked and linial_color == cls
                if joining:
                    in_mis = True
                got = yield from exchange(
                    buffer, seq, sorted(ctx.neighbors), 1 if joining else 0
                )
                seq += 1
                if eligible and any(got[v] == 1 for v in conflict_peers):
                    blocked = True

            if in_mis:
                my_color = candidate
            got = yield from exchange(
                buffer, seq, sorted(ctx.neighbors), int(my_color)
            )
            seq += 1
            for v, their_color in got.items():
                if their_color != -1 and v in uncolored_neighbors:
                    uncolored_neighbors.discard(v)
                    if my_color == -1:
                        idx = np.searchsorted(my_list, their_color)
                        if idx < len(my_list) and my_list[idx] == their_color:
                            my_list = np.delete(my_list, idx)
            pass_index += 1

    return algo
