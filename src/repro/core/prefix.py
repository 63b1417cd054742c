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
data plane (bucket counting, threshold selection, list shrinking) operates
on the flat union arrays — one ``np.bincount`` over instance-aware
``node·W + bucket`` keys, one boolean mask over the flat values — while
seed derandomization groups instances sharing the ``(a, b)`` family
parameters so one 2^m seed enumeration is amortized across the group
(:func:`~repro.core.derandomize.derandomize_phase_group`).  Instances with
differing ψ domains or accuracies still derandomize independently; each
per-instance outcome is numerically identical to a standalone
:func:`extend_prefixes` call.
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
    potential_sum,
)
from repro.hashing.pairwise import PairwiseFamily

__all__ = [
    "PrefixResult",
    "PhaseRecord",
    "extend_prefixes",
    "extend_prefixes_batch",
    "full_width_schedule",
]


def full_width_schedule(phase_index: int, bits_left: int) -> int:
    """Fix the whole remaining candidate color in one phase (Lemma 4.2).

    A module-level named schedule (rather than a lambda at the call site)
    so it survives pickling into the process backend's workers.
    """
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


def _phase_budget(phi_prev: float, num_edges: int, b: int, r: int) -> float:
    """Rigorous upper bound on the expected potential increase of a phase.

    From the Lemma 2.3 calculation generalized to 2^r buckets with interval
    rounding error ε = 2^-b per threshold (see DESIGN.md §2.3), summing the
    per-edge error terms:

        E[ΣΦ] - ΣΦ_prev ≤ ε·2^r·ΣΦ_prev + 2ε·|E| + 2ε²·2^r·|E| .
    """
    eps = 2.0 ** (-b)
    width = float(1 << r)
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
    total_bits = [
        max(1, ceil_log2(int(batch.color_spaces[i]))) for i in range(k)
    ]
    deltas = [
        int(graph.degrees[slices[i]].max()) if sizes_n[i] else 0 for i in range(k)
    ]
    a_bits = [
        max(1, ceil_log2(max(2, int(nums_input_colors[i])))) for i in range(k)
    ]

    cand = batch.copy_lists()
    edges_u = graph.edges_u.copy()
    edges_v = graph.edges_v.copy()
    edge_inst = batch.edge_instance_ids()

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
    m_init = np.diff(bounds)
    deg = conflict_degrees()
    sizes = cand.sizes
    phi = [0.0] * k
    traces: list[list] = [[] for _ in range(k)]
    records: list[list] = [[] for _ in range(k)]
    seed_bits_total = [0] * k
    bits_left = list(total_bits)
    phase_index = [0] * k
    for i in range(k):
        phi[i] = potential_sum(deg[slices[i]], sizes[slices[i]])
        traces[i].append(phi[i])
        if strict and phi[i] >= int(sizes_n[i]) + 1e-9:
            raise AssertionError(
                f"initial potential {phi[i]} is not < n = {int(sizes_n[i])}"
            )

    while True:
        live = [i for i in range(k) if bits_left[i] > 0]
        if not live:
            break

        # Per-instance phase geometry, broadcast to per-node arrays so the
        # bucket extraction is one vectorized pass over the flat values.
        phase_r: dict[int, int] = {}
        phase_b: dict[int, int] = {}
        families: dict[int, PairwiseFamily] = {}
        shift_node = np.zeros(n_total, dtype=np.int64)
        mask_node = np.zeros(n_total, dtype=np.int64)
        live_node = np.zeros(n_total, dtype=bool)
        width_max = 1
        for i in live:
            r = 1 if r_schedule is None else int(r_schedule(phase_index[i], bits_left[i]))
            r = max(1, min(r, bits_left[i]))
            phase_r[i] = r
            shift_node[slices[i]] = bits_left[i] - r
            mask_node[slices[i]] = (1 << r) - 1
            live_node[slices[i]] = True
            width_max = max(width_max, 1 << r)
            if accuracy_override is not None:
                phase_b[i] = max(1, int(accuracy_override))
            else:
                phase_b[i] = accuracy_bits(
                    deltas[i], total_bits[i], r=r, strengthen=strengthens[i]
                )
            families[i] = PairwiseFamily(a_bits[i], phase_b[i])

        node_ids = cand.node_ids()
        flat_live = live_node[node_ids]
        flat_buckets = (cand.values >> shift_node[node_ids]) & mask_node[node_ids]
        # One instance-aware bincount at the widest live bucket count; rows
        # of narrower instances keep zero tail columns and are sliced back
        # to their own width below.  (A schedule mixing very different r
        # values in one batch would over-allocate here — all shipped
        # schedules use a uniform r per phase.)
        counts = np.bincount(
            node_ids * width_max + flat_buckets, minlength=n_total * width_max
        ).reshape(n_total, width_max)

        # Instances sharing (a, b, 2^r) evaluate the same seed space: their
        # estimators are built together and their seed enumerations fused.
        groups: dict[tuple, list[int]] = {}
        for i in live:
            key = (a_bits[i], phase_b[i], 1 << phase_r[i])
            groups.setdefault(key, []).append(i)

        estimators: dict[int, PhaseEstimator] = {}
        for members in groups.values():
            built = PhaseEstimator.build_group(
                families[members[0]],
                [
                    (
                        psis[slices[i]],
                        counts[slices[i], : 1 << phase_r[i]],
                        edges_u[int(bounds[i]):int(bounds[i + 1])] - offs[i],
                        edges_v[int(bounds[i]):int(bounds[i + 1])] - offs[i],
                    )
                    for i in members
                ],
            )
            for i, estimator in zip(members, built):
                estimators[i] = estimator

        # Seed selection: fuse the 2^m enumeration across instances whose
        # seed spaces coincide; fix each instance's bits independently.
        seeds: dict[int, tuple[int, int]] = {}
        choices: dict[int, SeedChoice | None] = {}
        if rng is None:
            for members in groups.values():
                group_choices = derandomize_phase_group(
                    [estimators[i] for i in members],
                    strict=strict,
                )
                for i, choice in zip(members, group_choices):
                    choices[i] = choice
                    seeds[i] = (choice.s1, choice.sigma)
        else:
            for i in live:
                seeds[i] = (
                    int(rng.integers(0, families[i].field.order)),
                    int(rng.integers(0, 1 << phase_b[i])),
                )
                choices[i] = None

        buckets_node = np.zeros(n_total, dtype=np.int64)
        for members in groups.values():
            member_buckets = buckets_for_seed_grouped(
                [estimators[i] for i in members], [seeds[i] for i in members]
            )
            for i, buckets in zip(members, member_buckets):
                buckets_node[slices[i]] = buckets

        # Shrink candidate lists to the chosen bucket: one boolean mask on
        # the flat values array; never empty.  Finished instances keep
        # their (size-1) lists untouched.
        cand = cand.select((flat_buckets == buckets_node[node_ids]) | ~flat_live)
        sizes = cand.sizes
        for i in live:
            empty = sizes[slices[i]] == 0
            if empty.any():
                v = int(np.argmax(empty))
                raise AssertionError(
                    f"candidate list of node {v} became empty "
                    f"(instance {i}, phase {phase_index[i]})"
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

        deg = conflict_degrees()
        for i in live:
            new_phi = potential_sum(deg[slices[i]], sizes[slices[i]])
            choice = choices[i]
            if strict and choice is not None and accuracy_override is None:
                edges_before = (
                    int(records[i][-1].alive_edges) if records[i] else m_init[i]
                )
                budget = _phase_budget(phi[i], edges_before, phase_b[i], phase_r[i])
                tolerance = 1e-6 * max(1.0, phi[i])
                if choice.initial_expectation > phi[i] + budget + tolerance:
                    raise AssertionError(
                        f"phase {phase_index[i]}: E[Φ] = "
                        f"{choice.initial_expectation} exceeds "
                        f"Φ_prev + budget = {phi[i]} + {budget}"
                    )
                if abs(choice.final_value - new_phi) > 1e-6 * max(1.0, new_phi):
                    raise AssertionError(
                        f"phase {phase_index[i]}: estimator value "
                        f"{choice.final_value} does not match realized "
                        f"potential {new_phi}"
                    )

            lo, hi = int(bounds[i]), int(bounds[i + 1])
            records[i].append(
                PhaseRecord(
                    r=phase_r[i],
                    b=phase_b[i],
                    seed_bits=families[i].m + phase_b[i],
                    initial_expectation=(
                        choice.initial_expectation if choice else float("nan")
                    ),
                    final_value=choice.final_value if choice else float("nan"),
                    potential_after=new_phi,
                    alive_edges=hi - lo,
                    seed=choice,
                )
            )
            seed_bits_total[i] += families[i].m + phase_b[i]
            traces[i].append(new_phi)
            phi[i] = new_phi
            bits_left[i] -= phase_r[i]
            phase_index[i] += 1

    sizes = cand.sizes
    if strict:
        for i in range(k):
            if (sizes[slices[i]] != 1).any():
                raise AssertionError(
                    "a candidate list has size != 1 after all phases"
                )
            bound = int(sizes_n[i]) if strengthens[i] > 1 else 2 * int(sizes_n[i])
            if rng is None and accuracy_override is None and phi[i] > bound + 1e-6:
                raise AssertionError(
                    f"final potential {phi[i]} exceeds the Lemma 2.1 bound {bound}"
                )

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
                potential_trace=traces[i],
                phases=records[i],
                total_seed_bits=seed_bits_total[i],
            )
        )
    return results
