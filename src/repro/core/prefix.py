"""The bitwise prefix-extension process (Section 2.1, Algorithm 1).

Each color is a ⌈log C⌉-bit string.  The process runs phases; in each phase
every node extends the prefix of its eventual candidate color by r bits
(r = 1 is Algorithm 1; r > 1 is the multi-bit acceleration of Theorems
1.3/1.4; r = ⌈log C⌉ picks whole colors as in Lemma 4.2).  The candidate
list L_ℓ(u) shrinks to the colors consistent with the prefix and the
conflict graph G_ℓ keeps only edges whose endpoints share a prefix.

The extension bits come either from the derandomized seed of Lemma 2.6
(default) or from a uniformly random seed (the randomized processes of
Lemmas 2.2/2.3, kept as a baseline and for statistical tests).

The engine is *batched*: :func:`extend_prefixes_batch` runs the phase loop
over every instance of a :class:`BatchedListColoringInstance` at once.  The
per-instance phase geometry (r, b, m, bits left, phase index) is kept as
int64 columns and broadcast to the nodes with one ``np.repeat``; the data
plane (bucket counting, threshold selection, list shrinking) operates on
the flat union arrays — one ``np.bincount`` over instance-aware
``node·W + bucket`` keys, one boolean mask over the flat values.  Seed
derandomization groups instances by their seed space ``(m, b, 2^r)``:
Theorem 2.4's reduced seed (s1, σ) ranges over GF(2^m) × [2^b] with
m = max(a, b), so instances whose ψ-domain bits a differ but whose m
agrees share one 2^m seed enumeration
(:func:`~repro.core.derandomize.derandomize_phase_group`).  Each group is
one :class:`~repro.core.potential.PhaseEstimator`, gathered straight from
the union arrays by masks over the node and edge instance ids, and its
chosen buckets come back as one flat array written to the group's nodes
in one assignment.  A phase's Lemma 2.6 outcome is columns over its live
instances (s1, σ, initial and final expectation, Eq. (7) trace): each
group's :class:`~repro.core.derandomize.SeedColumns` are written to their
rows, and a live instance without alive edges (Φ ≡ 0) builds no
estimator and keeps the zero row, which is what Lemma 2.6 gives it.  The
budget and realized-potential checks are array comparisons over those
columns, and the :class:`PhaseRecord` / :class:`SeedChoice` objects are
built once, when the results are assembled.  Each per-instance outcome is
numerically identical to a standalone :func:`extend_prefixes` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.derandomize import SeedChoice, derandomize_phase_group
from repro.core.instances import (
    BatchedListColoringInstance,
    ListColoringInstance,
    ceil_log2,
)
from repro.core.potential import (
    PhaseEstimator,
    accuracy_bits,
    buckets_for_seed_grouped,
    potential_sums,
)
from repro.graphs.sorting import unique
from repro.hashing.pairwise import PairwiseFamily

__all__ = [
    "PrefixResult",
    "PhaseRecord",
    "extend_prefixes",
    "extend_prefixes_batch",
    "full_width_schedule",
]


def full_width_schedule(phase_index: int, bits_left: int) -> int:
    """Fix the whole remaining candidate color in one phase (Lemma 4.2)."""
    return bits_left


@dataclass
class PhaseRecord:
    """Bookkeeping for one extension phase."""

    r: int  #: prefix bits fixed this phase
    b: int  #: coin accuracy bits
    seed_bits: int  #: m + b
    initial_expectation: float
    final_value: float
    potential_after: float
    alive_edges: int
    seed: SeedChoice | None = None


@dataclass
class PrefixResult:
    """Outcome of the full ⌈log C⌉-bit prefix extension."""

    candidates: np.ndarray  #: the selected candidate color per node
    conflict_degrees: np.ndarray  #: same-candidate neighbor counts
    conflict_edges_u: np.ndarray
    conflict_edges_v: np.ndarray
    potential_trace: list = field(default_factory=list)  #: ΣΦ_ℓ, ℓ = 0..last
    phases: list = field(default_factory=list)  #: list[PhaseRecord]
    total_seed_bits: int = 0


def _bucket_counts(
    node_ids: np.ndarray, flat_buckets: np.ndarray, n: int, r: int
) -> np.ndarray:
    """k_w(v): per node, candidate colors whose next r bits equal w.

    One ``np.bincount`` over the combined ``node · 2^r + bucket`` keys of
    the flat CSR values — no per-node loop.  In the batched loop ``n`` is
    the union node count, so the key is instance-aware through the node
    partition.
    """
    width = 1 << r
    return np.bincount(
        node_ids * width + flat_buckets, minlength=n * width
    ).reshape(n, width)


def _phase_budget(phi_prev, num_edges, b, r):
    """Rigorous upper bound on the expected potential increase of a phase,
    elementwise over arrays of instances.

    From the Lemma 2.3 calculation generalized to 2^r buckets with interval
    rounding error ε = 2^-b per threshold (see DESIGN.md §2.3), summing the
    per-edge error terms:

        E[ΣΦ] - ΣΦ_prev ≤ ε·2^r·ΣΦ_prev + 2ε·|E| + 2ε²·2^r·|E| .
    """
    eps = 2.0 ** -b
    width = 2.0 ** r
    return eps * width * phi_prev + 2.0 * eps * num_edges * (1.0 + eps * width)


def extend_prefixes(
    instance: ListColoringInstance,
    psi: np.ndarray,
    num_input_colors: int,
    r_schedule=None,
    strengthen: int = 1,
    strict: bool = True,
    rng: np.random.Generator | None = None,
    accuracy_override: int | None = None,
) -> PrefixResult:
    """Run the full prefix extension on one ``instance``.

    Single-instance view of :func:`extend_prefixes_batch` (a batch of one).

    Parameters
    ----------
    psi, num_input_colors:
        Proper input K-coloring for the coin construction (Lemma 2.5).
    r_schedule:
        Callable ``(phase_index, bits_remaining) -> r``; default fixes one
        bit per phase (Algorithm 1).
    strengthen:
        Accuracy multiplier; the "avoid MIS" variant of Section 4 passes
        Δ+1 so the final potential stays below n (instead of 2n).
    strict:
        Assert every paper invariant along the way.
    rng:
        If given, phases use uniformly random seeds instead of the method of
        conditional expectations (the randomized processes of Lemmas
        2.2/2.3).
    accuracy_override:
        Force the coin accuracy to this many bits instead of the Lemma 2.6
        choice — used by the ablation experiments to show what breaks when
        the coins are too coarse.  Implies ``strict`` budget checks off for
        the potential (correctness checks stay on).
    """
    batch = BatchedListColoringInstance.from_instances([instance])
    return extend_prefixes_batch(
        batch,
        psi,
        [num_input_colors],
        r_schedule=r_schedule,
        strengthens=[strengthen],
        strict=strict,
        rng=rng,
        accuracy_override=accuracy_override,
    )[0]


def extend_prefixes_batch(
    batch: BatchedListColoringInstance,
    psis: np.ndarray,
    nums_input_colors,
    r_schedule=None,
    strengthens=1,
    strict: bool = True,
    rng: np.random.Generator | None = None,
    accuracy_override: int | None = None,
) -> list[PrefixResult]:
    """Run the full prefix extension on every instance of ``batch`` at once.

    ``psis`` is the concatenated per-instance input colorings, indexed by
    union node id; ``nums_input_colors`` and ``strengthens`` are
    per-instance (``strengthens`` may be a scalar).  Returns one
    :class:`PrefixResult` per instance, each identical to what
    :func:`extend_prefixes` would produce on that instance alone.  With
    ``rng``, random seeds are drawn per phase in instance order.
    """
    k = batch.num_instances
    if k == 0:
        return []
    graph = batch.graph
    n_total = graph.n
    offs = batch.instance_offsets
    psis = np.asarray(psis, dtype=np.int64)
    if graph.m and (psis[graph.edges_u] == psis[graph.edges_v]).any():
        raise ValueError("input coloring psi must be proper")
    if np.isscalar(strengthens):
        strengthens = [strengthens] * k
    if len(nums_input_colors) != k or len(strengthens) != k:
        raise ValueError("need one num_input_colors / strengthen per instance")

    slices = [batch.instance_slice(i) for i in range(k)]
    sizes_n = batch.instance_sizes
    # Per-instance constants and phase geometry are int64 columns.
    total_bits = np.array(
        [max(1, ceil_log2(int(c))) for c in batch.color_spaces], dtype=np.int64
    )
    deltas = graph.block_max_degrees(offs)
    a_bits = np.array(
        [max(1, ceil_log2(max(2, int(c)))) for c in nums_input_colors],
        dtype=np.int64,
    )
    strengthens = np.array([int(s) for s in strengthens], dtype=np.int64)
    # accuracy_bits per distinct (Δ, ⌈log C⌉, r, strengthen).
    accuracies: dict[tuple, int] = {}

    cand = batch.copy_lists()
    edges_u = graph.edges_u.copy()
    edges_v = graph.edges_v.copy()
    edge_inst = batch.edge_instance_ids()
    node_inst = batch.node_instance_ids()

    def edge_bounds() -> np.ndarray:
        """Per-instance [start, stop) boundaries into the sorted edge
        arrays (``edge_inst`` is non-decreasing under every filter)."""
        return np.searchsorted(edge_inst, np.arange(k + 1, dtype=np.int64))

    def conflict_degrees() -> np.ndarray:
        if not len(edges_u):
            return np.zeros(n_total, dtype=np.int64)
        return np.bincount(edges_u, minlength=n_total) + np.bincount(
            edges_v, minlength=n_total
        )

    bounds = edge_bounds()
    deg = conflict_degrees()
    sizes = cand.sizes
    phi = potential_sums(deg, sizes, node_inst, k)
    if strict:
        over = np.flatnonzero(phi >= sizes_n + 1e-9)
        if len(over):
            i = int(over[0])
            raise AssertionError(
                f"initial potential {phi[i]} is not < n = {int(sizes_n[i])} "
                f"(instance {i})"
            )
    # One row per live instance and phase, phases in order:
    # (instance, r, b, m, s1, σ, initial, final, ΣΦ after, alive edges).
    log: list[tuple] = []
    trace_rows: list[list] = []  # the rows' Eq. (7) traces, zero-padded
    initial_phi = phi.tolist()
    bits_left = total_bits.copy()
    phase_index = np.zeros(k, dtype=np.int64)

    while True:
        live = np.flatnonzero(bits_left > 0)
        if not len(live):
            break

        # Phase geometry of the live instances: r, b and m = max(a, b).
        left = bits_left[live]
        if r_schedule is None:
            r = np.ones(len(live), dtype=np.int64)
        else:
            r = np.array(
                [
                    int(r_schedule(int(p), int(q)))
                    for p, q in zip(phase_index[live], left)
                ],
                dtype=np.int64,
            )
        r = np.clip(r, 1, left)
        if accuracy_override is not None:
            b = np.full(len(live), max(1, int(accuracy_override)), dtype=np.int64)
        else:
            keys = list(
                zip(
                    deltas[live].tolist(),
                    total_bits[live].tolist(),
                    r.tolist(),
                    strengthens[live].tolist(),
                )
            )
            for key in set(keys).difference(accuracies):
                accuracies[key] = accuracy_bits(*key)
            b = np.array([accuracies[key] for key in keys], dtype=np.int64)
        m = np.maximum(a_bits[live], b)
        edges_before = np.diff(bounds)[live]

        # Broadcast to per-node arrays so the bucket extraction is one
        # vectorized pass over the flat values; finished instances get
        # shift 0 and mask 0.
        live_inst = np.zeros(k, dtype=bool)
        live_inst[live] = True
        shift = np.zeros(k, dtype=np.int64)
        shift[live] = left - r
        mask = np.zeros(k, dtype=np.int64)
        mask[live] = np.left_shift(1, r) - 1
        live_node = np.repeat(live_inst, sizes_n)
        node_ids = cand.node_ids()
        flat_live = live_node[node_ids]
        flat_buckets = (cand.values >> np.repeat(shift, sizes_n)[node_ids]) & (
            np.repeat(mask, sizes_n)[node_ids]
        )
        # One instance-aware bincount at the widest live bucket count; rows
        # of narrower instances keep zero tail columns and are sliced back
        # to their own width below.  (A schedule mixing very different r
        # values in one batch would over-allocate here — all shipped
        # schedules use a uniform r per phase.)
        counts = _bucket_counts(node_ids, flat_buckets, n_total, int(r.max()))

        # The phase's Lemma 2.6 outcome is columns over the live instances.
        # A live instance without alive edges has Φ ≡ 0: its derandomized
        # row is the zero default (seed (0, 0), expectations 0.0, an
        # all-zero trace) and y = 0 picks every node's lowest nonempty
        # bucket, so it builds no estimator.  Random seeds are drawn for
        # every live instance, in instance order, and have no expectations.
        buckets_node = np.argmax(counts > 0, axis=1)
        s1 = np.zeros(len(live), dtype=np.int64)
        sigma = np.zeros(len(live), dtype=np.int64)
        initial = np.full(len(live), 0.0 if rng is None else np.nan)
        final = initial.copy()
        trace = np.zeros((len(live), int((m + b).max())))
        if rng is None:
            fused = np.flatnonzero(edges_before > 0)
        else:
            fused = np.arange(len(live))
            for j, (mj, bj) in enumerate(zip(m.tolist(), b.tolist())):
                s1[j] = rng.integers(0, 1 << mj)
                sigma[j] = rng.integers(0, 1 << bj)

        # Instances sharing the seed space (m, b, 2^r) — GF(2^m), the coin
        # accuracy and the bucket count — are fused whatever their ψ-domain
        # bits: they form one PhaseEstimator, gathered from the union
        # arrays, their 2^m seed enumerations run as one, and each member
        # fixes its own seed bits.  The key packs (m, b, r), each < 2^16.
        seed_space = ((m << 32) | (b << 16) | r)[fused]
        for key in unique(seed_space).tolist():
            mj, bj, rj = key >> 32, (key >> 16) & 0xFFFF, key & 0xFFFF
            rows = fused[seed_space == key]
            selected = np.zeros(k, dtype=bool)
            selected[live[rows]] = True
            group = PhaseEstimator.build_group(
                PairwiseFamily(mj, bj),
                selected,
                node_inst,
                edge_inst,
                psis,
                counts[:, :1 << rj],
                edges_u,
                edges_v,
            )
            if rng is None:
                chosen = derandomize_phase_group(group, strict=strict)
                s1[rows] = chosen.s1
                sigma[rows] = chosen.sigma
                initial[rows] = chosen.initial
                final[rows] = chosen.final
                trace[rows, :mj + bj] = chosen.trace
            buckets_node[selected[node_inst]] = buckets_for_seed_grouped(
                group, s1[rows], sigma[rows]
            )

        # Shrink candidate lists to the chosen bucket: one boolean mask on
        # the flat values array; never empty.  Finished instances keep
        # their (size-1) lists untouched.
        cand = cand.select((flat_buckets == buckets_node[node_ids]) | ~flat_live)
        sizes = cand.sizes
        empty = np.flatnonzero((sizes == 0) & live_node)
        if len(empty):
            v = int(empty[0])
            i = int(node_inst[v])
            raise AssertionError(
                f"candidate list of node {v - int(offs[i])} became empty "
                f"(instance {i}, phase {int(phase_index[i])})"
            )

        # Conflict edges survive only when both endpoints chose the bucket;
        # edges of finished instances are frozen.
        if len(edges_u):
            alive = (buckets_node[edges_u] == buckets_node[edges_v]) | ~live_node[
                edges_u
            ]
            edges_u = edges_u[alive]
            edges_v = edges_v[alive]
            edge_inst = edge_inst[alive]
        bounds = edge_bounds()
        edges_after = np.diff(bounds)[live]

        deg = conflict_degrees()
        phi_before = phi[live]
        phi[live] = potential_sums(deg, sizes, node_inst, k)[live]
        if strict and rng is None:
            # The budget is Lemma 2.6's for the default accuracy only.
            if accuracy_override is None:
                budget = _phase_budget(phi_before, edges_before, b, r)
                tolerance = 1e-6 * np.maximum(1.0, phi_before)
                over = np.flatnonzero(initial > phi_before + budget + tolerance)
                if len(over):
                    j = int(over[0])
                    raise AssertionError(
                        f"instance {int(live[j])}, phase "
                        f"{int(phase_index[live[j]])}: E[Φ] = {initial[j]} "
                        f"exceeds Φ_prev + budget = {phi_before[j]} + {budget[j]}"
                    )
            # Both are Σ_k D_k / k, k ascending, over the same exact
            # integers, so they agree bit for bit.
            off = np.flatnonzero(final != phi[live])
            if len(off):
                j = int(off[0])
                raise AssertionError(
                    f"instance {int(live[j])}, phase "
                    f"{int(phase_index[live[j]])}: estimator value {final[j]} "
                    f"does not match realized potential {phi[live[j]]}"
                )
        log.append((live, r, b, m, s1, sigma, initial, final, phi[live], edges_after))
        trace_rows.extend(trace.tolist())
        bits_left[live] -= r
        phase_index[live] += 1

    sizes = cand.sizes
    if strict:
        if (sizes != 1).any():
            raise AssertionError("a candidate list has size != 1 after all phases")
        if rng is None and accuracy_override is None:
            bound = np.where(strengthens > 1, sizes_n, 2 * sizes_n)
            over = np.flatnonzero(phi > bound + 1e-6)
            if len(over):
                i = int(over[0])
                raise AssertionError(
                    f"final potential {phi[i]} exceeds the Lemma 2.1 bound "
                    f"{int(bound[i])} (instance {i})"
                )

    # The per-phase records are built here, once, from the phase rows.
    potential_traces = [[value] for value in initial_phi]
    records: list[list] = [[] for _ in range(k)]
    columns = (np.concatenate(column).tolist() for column in zip(*log))
    for i, r, b, m, s1, sigma, initial, final, after, alive, trace in zip(
        *columns, trace_rows
    ):
        seed = None
        if rng is None:
            seed = SeedChoice(
                s1=s1,
                sigma=sigma,
                s1_bits=m,
                sigma_bits=b,
                initial_expectation=initial,
                final_value=final,
                conditional_trace=trace[:m + b],
            )
        records[i].append(
            PhaseRecord(
                r=r,
                b=b,
                seed_bits=m + b,
                initial_expectation=initial,
                final_value=final,
                potential_after=after,
                alive_edges=alive,
                seed=seed,
            )
        )
        potential_traces[i].append(after)

    results = []
    for i in range(k):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        vlo = int(cand.offsets[offs[i]])
        vhi = int(cand.offsets[offs[i + 1]])
        results.append(
            PrefixResult(
                # Every segment has size 1, so the flat values ARE the
                # candidates.
                candidates=cand.values[vlo:vhi].copy(),
                conflict_degrees=deg[slices[i]].copy(),
                conflict_edges_u=edges_u[lo:hi] - offs[i],
                conflict_edges_v=edges_v[lo:hi] - offs[i],
                potential_trace=potential_traces[i],
                phases=records[i],
                total_seed_bits=sum(rec.seed_bits for rec in records[i]),
            )
        )
    return results
