"""The potential function Φ and the pessimistic edge estimator (Section 2).

For node u at the end of phase ℓ the paper defines

    Φ_ℓ(u) = deg_ℓ(u) / |L_ℓ(u)|

(deg_ℓ = degree in the remaining conflict graph G_ℓ, L_ℓ = candidate colors
consistent with the chosen prefix) and rewrites the sum of potentials
edge-wise:

    Σ_u Φ_ℓ(u) = Σ_{e = {u,v} ∈ E_ℓ} X_e,
    X_e = 1_{e ∈ E_ℓ} (1/|L_ℓ(u)| + 1/|L_ℓ(v)|).

:class:`PhaseEstimator` evaluates, for one r-bit prefix-extension phase,

* ``expected_by_s1``  — E[Σ_e X_e | s1] for every multiplicative seed s1
  (expectation over the uniform additive seed σ), via count tables filled
  by the exact counting DP of :mod:`repro.core.counting`;
* ``exact_by_sigma``  — the exact value of Σ_e X_e for every σ once s1 is
  fixed.

These two arrays are all the method of conditional expectations needs: the
conditional expectation after fixing any prefix of seed bits is the mean of
the corresponding block (Lemma 2.6 / Eq. (7)).

**Unique-column compression.**  The seed sweeps only ever evaluate the
hash on per-edge keys ``(ψ_u ⊕ ψ_v, thresholds(u), thresholds(v))`` (for
the E[·|s1] sweep) and per-node keys ``(s1, ψ_v, thresholds(v))`` (for the
σ sweep): everything a column of the candidate matrix contributes is a
function of that key, and real instances collapse to a handful of distinct
keys.  :class:`SeedSweepWorkspace` and the σ-side kernels therefore
deduplicate columns with one encoded-key ``np.unique`` and run the GF(2^m)
multiply on unique columns only.  The counting DP runs on even fewer
inputs: :class:`SweepCountKernel` deduplicates the columns' threshold rows
once more, fills one count table per distinct row over every hash
difference d ∈ [0, 2^b), and turns each (seed, column) count into one
gather from that table.  The E[·|s1] sweep
never scatters back: it weights the unique count columns through exact
int64 sums per (estimator, list size k) and divides by k only at the end,
so each ``val1`` entry is a fixed function of exact integers that do not
depend on how the columns were deduplicated.  The σ sweep scatters its
*integer* bucket indices back through the inverse index before any float
enters, so every float operation sees the same operands in the same order
as the uncompressed evaluation.  Either way the compressed sweeps are
bit-for-bit identical — compression, like the GF(2^m) log tables it
composes with, is a speed knob that can never change a seed choice,
ledger, or coloring.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.counting import count_xor_below, count_xor_in_intervals
from repro.hashing.coins import bucket_thresholds
from repro.hashing.pairwise import PairwiseFamily

#: Entry budgets of the two σ-sweep summation loops — a coupled pair.
#:
#: ``_SIGMA_CHUNK_ENTRIES`` bounds one edge-summation block of
#: :meth:`PhaseEstimator.exact_by_sigma` (edges × 2^b entries per block).
#: ``_SIGMA_FUSE_BUDGET_ENTRIES`` bounds one fused sub-batch of
#: :func:`exact_by_sigma_grouped` ((nodes + edges) × 2^b entries).
#:
#: Byte-identity coupling: the fused sweep is bit-identical to the
#: per-estimator method only because every fusable member (one with at most
#: ``_SIGMA_CHUNK_ENTRIES // 2^b`` edges) has its edge contributions summed
#: in a single block either way — members above that bound fall back to the
#: sequential chunked method, since different chunk boundaries would reorder
#: float additions.  Keep ``_SIGMA_FUSE_BUDGET_ENTRIES >=
#: _SIGMA_CHUNK_ENTRIES`` so a lone fusable member always fits one
#: sub-batch, and change the two budgets together.
_SIGMA_CHUNK_ENTRIES = 1 << 22
_SIGMA_FUSE_BUDGET_ENTRIES = 2 * _SIGMA_CHUNK_ENTRIES

#: Every integer sum the seed-sweep weighting forms must stay below this:
#: int64 then cannot wrap and the conversion to float64 is exact.
_EXACT_INT_LIMIT = 1 << 53

#: Entry budget of one row block of the count-table build: the counting DP
#: runs on (rows × 2^b) int64 temporaries of at most this many entries.
_TABLE_BLOCK_ENTRIES = 1 << 18

__all__ = [
    "PhaseEstimator",
    "SeedSweepWorkspace",
    "SweepCountKernel",
    "buckets_for_seed_grouped",
    "exact_by_sigma_grouped",
    "expected_by_s1_grouped",
    "potential_sum",
    "accuracy_bits",
]


def potential_sum(conflict_degrees: np.ndarray, list_sizes: np.ndarray) -> float:
    """Σ_u deg(u)/|L(u)| over all nodes (vectorized, exact in float64)."""
    sizes = np.asarray(list_sizes, dtype=np.float64)
    if (sizes <= 0).any():
        raise ValueError("list sizes must be positive")
    return float((np.asarray(conflict_degrees, dtype=np.float64) / sizes).sum())


def accuracy_bits(
    max_degree: int, color_bits: int, r: int = 1, strengthen: int = 1
) -> int:
    """The coin accuracy b of Lemma 2.6, generalized to r-bit extensions.

    For r = 1 this is exactly the paper's ``b = ⌈log(10·Δ·⌈log C⌉)⌉``
    (per-phase potential increase 10εΔn ≤ n/⌈log C⌉).  For an r-bit
    extension the generalized Lemma 2.3 calculation (DESIGN.md §2.3) bounds
    the per-phase slack by ε·(2^r·Φ + 2|E| + 2ε·2^r·|E|) ≤ ε·n·(2^r + 2Δ)
    for ε·2^r ≤ 1, so ε ≤ r / ((2^r + 2Δ)·⌈log C⌉) keeps the total increase
    over all ⌈log C⌉/r phases below n.

    ``strengthen`` multiplies the required accuracy: the "how to avoid MIS"
    variant (Section 4) passes Δ+1 so the *total* increase stays below
    n/(Δ+1) and the final potential below n.
    """
    delta = max(1, int(max_degree))
    bits = max(1, int(color_bits))
    strengthen = max(1, int(strengthen))
    if r == 1 and strengthen == 1:
        return int(10 * delta * bits - 1).bit_length()
    need = ((1 << r) + 2 * delta) * bits * strengthen / r
    return max(1, math.ceil(math.log2(need)) + 1)


class SweepCountKernel:
    """The pure-integer half of the ``E[Σ_e X_e | s1]`` seed sweep.

    Everything the 2^m enumeration computes *before* the first float is a
    function of the (possibly unique-column-compressed) per-edge keys alone
    and produces exact int64 counts.  Every count column ``c`` asks for one
    ``N(d, ·)`` of :mod:`repro.core.counting` with ``d = top_b(s1 ⊙ δ_c)``
    and a *threshold row* that does not depend on the seed: ``(t_u, t_v)``
    of bucket 0 for 2-bucket (r = 1) phases, the interval quadruple
    ``(lo_u, hi_u, lo_v, hi_v)`` of the column's bucket otherwise.  A phase
    has few distinct threshold rows but 2^m × count_width cells, so the
    kernel runs the counting DP once per (distinct row, d ∈ [0, 2^b)) into
    an int32 count table and answers every cell with one gather:

        counts[s1, c] = table[row(c), g_values_many(s1, δ)[c]].

    The table is derived state like the family: built lazily on the first
    :meth:`count_rows` call (in row blocks of at most
    ``_TABLE_BLOCK_ENTRIES`` DP entries), never pickled, never part of the
    fingerprint.  It holds ``rows × 2^b ≤ count_width × 2^m`` entries, so at
    4 bytes each it is at most half of the full int64 count matrix.  The
    count matrix can be produced

    * **chunk-boundary-stably**: ``count_rows`` over any partition of the
      seed range concatenates to the same integers as one full-range call,
      because no operation crosses seed rows — the property the seed-axis
      parallel backend relies on to let many workers each produce one
      contiguous seed chunk of a shared ``val1`` count buffer; and
    * **picklably**: the kernel carries only the small unique-column arrays
      plus the family parameters ``(a, b)``; the
      :class:`~repro.hashing.pairwise.PairwiseFamily` (whose GF(2^m) log
      tables are process-cached) and the count table are rebuilt lazily on
      the receiving side.

    ``count_width`` is the number of integer columns per seed row:
    the (unique) edge-column count for 2-bucket (r = 1) phases, or the
    total of per-bucket alive column counts for r > 1, laid out block by
    block in bucket order; ``bucket_columns[w]`` is ``(alive, start)`` for
    bucket w's block (``alive`` masks the edge columns whose bucket-w
    interval is nonempty at both endpoints) or None when no column is
    alive.  :attr:`fingerprint` identifies the kernel's exact inputs (a
    stable sha256 over the family parameters and column arrays) — the key
    of the sweep-result cache (:mod:`repro.core.sweep_cache`) as well as
    the label worker-side caches and telemetry use.  Same fingerprint ⇒
    same inputs ⇒ the same integer count matrix, which is why cached counts
    can be reused verbatim while the weighting is always re-applied fresh.
    """

    def __init__(
        self,
        a: int,
        b: int,
        num_buckets: int,
        psi_diff: np.ndarray,
        thr_u: np.ndarray,
        thr_v: np.ndarray,
    ):
        self.a = int(a)
        self.b = int(b)
        self.num_buckets = int(num_buckets)
        self.psi_diff = psi_diff
        self.thr_u = thr_u
        self.thr_v = thr_v
        self._family = None
        self._fingerprint: str | None = None
        self._lookup = None
        if self.num_buckets == 2:
            self.bucket_columns = None
            self.count_width = len(psi_diff)
        else:
            # One contiguous column block per bucket; buckets empty at some
            # endpoint of every edge contribute no columns.
            self.bucket_columns = []
            col = 0
            for w in range(self.num_buckets):
                alive = (thr_u[:, w + 1] > thr_u[:, w]) & (
                    thr_v[:, w + 1] > thr_v[:, w]
                )
                if not alive.any():
                    self.bucket_columns.append(None)
                    continue
                self.bucket_columns.append((alive, col))
                col += int(alive.sum())
            self.count_width = col

    @property
    def family(self):
        """The pairwise family, rebuilt lazily after unpickling (the GF
        field behind it is ``lru_cache``d per process, so this is one dict
        lookup after the first call in a worker)."""
        if self._family is None:
            from repro.hashing.pairwise import PairwiseFamily

            self._family = PairwiseFamily(self.a, self.b)
        return self._family

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the kernel's defining inputs."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(
                np.array(
                    [self.a, self.b, self.num_buckets], dtype=np.int64
                ).tobytes()
            )
            for arr in (self.psi_diff, self.thr_u, self.thr_v):
                digest.update(repr(arr.shape).encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __getstate__(self):
        state = self.__dict__.copy()
        # Rebuilt lazily: GF tables and the count table are never pickled.
        state["_family"] = None
        state["_lookup"] = None
        return state

    def count_nbytes(self, order: int) -> int:
        """Bytes of the full int64 count matrix for ``order`` seed rows —
        the size a sweep-result cache must budget for before admitting
        this kernel (see :mod:`repro.core.sweep_cache`)."""
        return 8 * int(order) * self.count_width

    def _threshold_rows(self) -> tuple:
        """Per count column: its edge column (None for the identity) and
        its threshold row, as ``(source, rows)``."""
        if self.bucket_columns is None:
            return None, np.stack([self.thr_u[:, 1], self.thr_v[:, 1]], axis=1)
        sources, rows = [], []
        for w, block in enumerate(self.bucket_columns):
            if block is None:
                continue
            alive = block[0]
            sources.append(np.flatnonzero(alive))
            rows.append(
                np.stack(
                    [
                        self.thr_u[alive, w],
                        self.thr_u[alive, w + 1],
                        self.thr_v[alive, w],
                        self.thr_v[alive, w + 1],
                    ],
                    axis=1,
                )
            )
        return np.concatenate(sources), np.concatenate(rows)

    def _count_table(self) -> tuple:
        """``(table, offsets, source)``: the flat int32 count table over
        (distinct threshold row, d), each count column's row offset into
        it, and the column → edge column map (None for r = 1)."""
        if self._lookup is None:
            source, rows = self._threshold_rows()
            keys, row_of_col = np.unique(rows, axis=0, return_inverse=True)
            size = 1 << self.b
            table = np.empty((len(keys), size), dtype=np.int32)
            d = np.arange(size, dtype=np.int64)[None, :]
            step = max(1, _TABLE_BLOCK_ENTRIES >> self.b)
            for lo in range(0, len(keys), step):
                bounds = [col[:, None] for col in keys[lo:lo + step].T]
                if self.bucket_columns is None:
                    block = count_xor_below(d, *bounds, self.b)
                else:
                    block = count_xor_in_intervals(d, *bounds, self.b)
                table[lo:lo + step] = block
            offsets = row_of_col.reshape(-1).astype(np.int64) << self.b
            self._lookup = (table.reshape(-1), offsets, source)
        return self._lookup

    def count_rows(
        self, s1_values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Integer count matrix for the given seeds; shape
        ``(len(s1_values), count_width)``.

        One GF multiply per (seed, edge column) and one count-table gather
        per (seed, count column).  Row ``i`` depends only on
        ``s1_values[i]``, so calls over any chunking of the seed range
        produce bitwise-identical rows.
        """
        s1_values = np.asarray(s1_values, dtype=np.int64)
        shape = (len(s1_values), self.count_width)
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        elif out.shape != shape or out.dtype != np.int64:
            raise ValueError(
                f"out must be int64 of shape {shape}, got {out.dtype} {out.shape}"
            )
        if self.count_width == 0 or not len(s1_values):
            return out
        table, offsets, source = self._count_table()
        d = self.family.g_values_many(s1_values, self.psi_diff)
        if source is not None:
            d = np.take(d, source, axis=1)
        d += offsets
        out[...] = np.take(table, d)
        return out


class SeedSweepWorkspace:
    """Seed-independent state for the fused ``E[Σ_e X_e | s1]`` sweep.

    This is the shared-seed phase fusion of the batched solver: all
    estimators must share the family parameters ``(a, b)`` and the bucket
    count (i.e. they evaluate the same seed space), but may carry different
    conflict graphs and input colorings ψ.  The dominant
    (candidates × edges) work — the GF(2^m) multiply of ``g_values_many``
    and the count-table gather — runs ONCE over the concatenated edge
    arrays of all estimators, and the weighting recovers every estimator's
    expectation from exact per-(estimator, list size) integer sums.

    Constructing the workspace once per phase hoists everything that does
    not depend on the s1 candidates out of the chunked 2^m enumeration:

    * the concatenated per-edge arrays (ψ-differences, endpoint threshold
      rows) are built once instead of once per chunk;
    * with ``compress=True`` (the default), edge columns are deduplicated
      by the key ``(ψ_u ⊕ ψ_v, thresholds(u), thresholds(v))`` via one
      ``np.unique``, and the GF multiply and count gather run on unique
      columns only;
    * the weighting plan: every edge endpoint x of estimator j contributes
      ``n_w / k_w(x)`` for each bucket w, where ``n_w`` is the number of σ
      putting both endpoints in bucket w.  Grouping endpoints by
      ``(j, k = k_w(x))`` gives

          2^b · E[Σ_e X_e | s1] = Σ_k S[s1, j, k] / k,
          S[s1, j, k] = Σ_c counts[s1, c] · mult[c, j, k] (+ const[j, k]),

      an int64 sum over the count columns.  The multiplicities are kept as
      a sparse (column, group, multiplicity) list sorted by group, so fused
      groups of hundreds of estimators never materialize a dense
      (columns × groups) matrix.  For r = 1 the bucket-1 count follows by
      inclusion-exclusion, ``n_both1 = 2^b − t_u − t_v + n_both0``, so
      bucket-1 endpoints add multiplicity to the ``n_both0`` column and
      their ``2^b − t_u − t_v`` to ``const``.

    The exactness guard checks once, from 2^b and the multiplicities, that
    no ``S`` can reach 2^53: below that int64 cannot wrap and every ``S``
    converts to float64 exactly, so each ``val1`` entry is a fixed
    function of exact integers of its own seed row.
    """

    def __init__(self, estimators, compress: bool = True):
        self.estimators = list(estimators)
        self.compress = bool(compress)
        self._buffers: dict = {}
        #: The picklable pure-integer count kernel (None when no estimator
        #: has edges); its ``fingerprint`` identifies this workspace's sweep.
        self.kernel: SweepCountKernel | None = None
        if self.estimators:
            _check_group(self.estimators)
        live = [est for est in self.estimators if est.num_edges]
        self.live = live
        if not live:
            return
        first = live[0]
        self.family = first.family
        self.b = first.b
        self.scale = first.scale
        self.num_buckets = first.num_buckets
        self.psi_diff = np.concatenate([est.psi_diff for est in live])
        self.thr_u = np.concatenate(
            [est.thresholds[est.edges_u] for est in live]
        )
        self.thr_v = np.concatenate(
            [est.thresholds[est.edges_v] for est in live]
        )
        if self.compress:
            key = np.concatenate(
                [self.psi_diff[:, None], self.thr_u, self.thr_v], axis=1
            )
            uniq, inverse = np.unique(key, axis=0, return_inverse=True)
            width = self.thr_u.shape[1]
            self.inverse = inverse.reshape(-1)
            self.uniq_psi_diff = np.ascontiguousarray(uniq[:, 0])
            self.uniq_thr_u = np.ascontiguousarray(uniq[:, 1:1 + width])
            self.uniq_thr_v = np.ascontiguousarray(uniq[:, 1 + width:])
            self.kernel = SweepCountKernel(
                self.family.a,
                self.b,
                self.num_buckets,
                self.uniq_psi_diff,
                self.uniq_thr_u,
                self.uniq_thr_v,
            )
        else:
            self.inverse = None
            self.kernel = SweepCountKernel(
                self.family.a,
                self.b,
                self.num_buckets,
                self.psi_diff,
                self.thr_u,
                self.thr_v,
            )
        self._plan_weighting()

    def _plan_weighting(self) -> None:
        """Build the sparse (column, group, multiplicity) weighting plan.

        Each incidence is one (edge endpoint, bucket) pair with a nonempty
        bucket (empty buckets carry weight 0); it adds multiplicity 1 to
        the count column holding that edge's bucket count, in the group
        ``(estimator, k)``.  Groups are numbered in (estimator, ascending
        k) order; entries are sorted by group, then column.
        """
        live = self.live
        scale = int(self.scale)
        est_id = np.repeat(
            np.arange(len(live), dtype=np.int64),
            [est.num_edges for est in live],
        )
        k_u = np.concatenate([est.counts[est.edges_u] for est in live])
        k_v = np.concatenate([est.counts[est.edges_v] for est in live])
        column = (
            self.inverse
            if self.inverse is not None
            else np.arange(len(est_id), dtype=np.int64)
        )
        cols, ests, ks = [], [], []
        if self.num_buckets == 2:
            # Both buckets weight the n_both0 column; bucket 1 also adds
            # its inclusion-exclusion constant 2^b - t_u - t_v.
            const = scale - self.thr_u[:, 1] - self.thr_v[:, 1]
            zero = np.zeros_like(const)
            consts = [zero, zero, const, const]
            for w in (0, 1):
                for k in (k_u[:, w], k_v[:, w]):
                    cols.append(column)
                    ests.append(est_id)
                    ks.append(k)
        else:
            consts = None
            for w, block in enumerate(self.kernel.bucket_columns):
                if block is None:
                    continue
                alive, start = block
                position = start + np.cumsum(alive) - 1
                alive_edge = alive[column]
                for k in (k_u[alive_edge, w], k_v[alive_edge, w]):
                    cols.append(position[column[alive_edge]])
                    ests.append(est_id[alive_edge])
                    ks.append(k)
        inc_col = np.concatenate(cols)
        inc_est = np.concatenate(ests)
        inc_k = np.concatenate(ks)
        keep = inc_k > 0
        span = int(inc_k.max(initial=0)) + 1
        groups, inc_group = np.unique(
            (inc_est * span + inc_k)[keep], return_inverse=True
        )
        num_groups = len(groups)
        width = max(1, self.kernel.count_width)
        entries, mult = np.unique(
            inc_group * width + inc_col[keep], return_counts=True
        )
        entry_group = entries // width
        self._entry_col = entries % width
        self._entry_mult = mult.astype(np.int64)
        self._group_start = np.searchsorted(
            entry_group, np.arange(num_groups)
        )
        group_est = groups // span
        self._group_k = (groups % span).astype(np.float64)
        self._group_const = None
        if consts is not None:
            self._group_const = np.zeros(num_groups, dtype=np.int64)
            np.add.at(
                self._group_const, inc_group, np.concatenate(consts)[keep]
            )
        # Exactness guard: every incidence's count lies in [0, 2^b] and
        # each r = 1 constant term in [-2^b, 2^b], so |S| and every partial
        # sum are at most 2^b times the group's number of incidences.
        per_group = np.bincount(inc_group, minlength=num_groups)
        self.sum_bound = scale * int(per_group.max(initial=0))
        if self.sum_bound >= _EXACT_INT_LIMIT:
            raise ValueError(
                f"seed-sweep sums may reach {self.sum_bound} >= 2^53: "
                "the integer weighting would not be exact"
            )
        # Sequential ascending-k summation order: slot p of estimator j
        # holds its p-th smallest k; missing slots point at a zero column.
        first_group = np.searchsorted(group_est, np.arange(len(live)))
        slot = np.arange(num_groups) - first_group[group_est]
        self._slots = np.full(
            (len(live), int(slot.max(initial=0)) + 1), num_groups, dtype=np.int64
        )
        self._slots[group_est, slot] = np.arange(num_groups)
        self._live_rows = np.array(
            [i for i, est in enumerate(self.estimators) if est.num_edges],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def _buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    def count_rows(
        self, s1_candidates: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Integer count rows for the candidates (see
        :meth:`SweepCountKernel.count_rows`); reuses a workspace buffer
        when ``out`` is not given."""
        s1_candidates = np.asarray(s1_candidates, dtype=np.int64)
        if out is None:
            out = self._buf(
                "counts",
                (len(s1_candidates), self.kernel.count_width),
                np.int64,
            )
        return self.kernel.count_rows(s1_candidates, out=out)

    def weight_rows(
        self, counts: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The weighting step: count rows → expectation columns.

        ``counts`` is any contiguous block of seed rows as produced by
        :meth:`count_rows` (equivalently, by the kernel in a worker
        process); returns the (num estimators, num rows) expectation
        matrix for that block.  Per row it forms the exact int64 sums
        ``S[j, k]``, then ``(Σ_k S[j, k] / k) / 2^b`` with k ascending, so
        every entry is a fixed function of exact integers of its own seed
        row: the result is bit-identical for any chunking of the seed
        range, any worker count, any cache state, and with compression on
        or off (the sums do not depend on how columns were deduplicated).
        """
        counts = np.asarray(counts)
        shape = (len(self.estimators), counts.shape[0])
        if out is None:
            out = np.empty(shape, dtype=np.float64)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(
                f"out must be float64 of shape {shape}, got "
                f"{out.dtype} {out.shape}"
            )
        if not self.live:
            out[...] = 0.0
            return out
        if counts.shape[1] != self.kernel.count_width or counts.dtype != np.int64:
            raise ValueError(
                f"counts must be int64 with {self.kernel.count_width} "
                f"columns, got {counts.dtype} {counts.shape}"
            )
        out[...] = 0.0
        num_groups = len(self._group_k)
        if not num_groups or not len(counts):
            return out
        terms = np.take(counts, self._entry_col, axis=1)
        terms *= self._entry_mult
        sums = np.add.reduceat(terms, self._group_start, axis=1)
        if self._group_const is not None:
            sums += self._group_const
        # One float per (row, group): S / k, plus a zero column that the
        # padding slots of estimators with fewer distinct k point at.
        quotients = np.zeros((len(counts), num_groups + 1), dtype=np.float64)
        np.divide(sums, self._group_k, out=quotients[:, :num_groups])
        total = quotients[:, self._slots[:, 0]]
        for p in range(1, self._slots.shape[1]):
            total += quotients[:, self._slots[:, p]]
        total /= float(self.scale)
        out[self._live_rows, :] = total.T
        return out

    def expected_rows(
        self, s1_candidates: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``E[Σ_e X_e | s1]`` as a (num estimators, num candidates) matrix.

        Row j is exactly ``estimators[j].expected_by_s1(s1_candidates)``;
        ``out``, when given, is filled in place (float64, matching shape).
        Composition of the integer :meth:`count_rows` kernel and the
        :meth:`weight_rows` step (exact integer sums, then one division per
        list size) — the seam the seed-axis parallel backend splits across
        processes.
        """
        s1_candidates = np.asarray(s1_candidates, dtype=np.int64)
        shape = (len(self.estimators), len(s1_candidates))
        if out is None:
            out = np.empty(shape, dtype=np.float64)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(
                f"out must be float64 of shape {shape}, got "
                f"{out.dtype} {out.shape}"
            )
        if not self.live:
            out[...] = 0.0
            return out
        return self.weight_rows(self.count_rows(s1_candidates), out=out)


def expected_by_s1_grouped(
    estimators, s1_candidates: np.ndarray, compress: bool = True
) -> list:
    """``E[Σ_e X_e | s1]`` per estimator, with the seed sweep fused.

    One-shot convenience wrapper around :class:`SeedSweepWorkspace`; callers
    enumerating the seed space in chunks should build the workspace once
    and call :meth:`SeedSweepWorkspace.expected_rows` per chunk instead.
    ``compress=False`` forces the uncompressed reference evaluation (used
    by the property tests and the benchmark guard — results are identical).

    Returns a list of float64 arrays, one per estimator, each of length
    ``len(s1_candidates)``.
    """
    estimators = list(estimators)
    if not estimators:
        return []
    rows = SeedSweepWorkspace(estimators, compress=compress).expected_rows(
        np.asarray(s1_candidates, dtype=np.int64)
    )
    return [rows[j] for j in range(len(estimators))]


def _check_group(estimators) -> tuple:
    first = estimators[0]
    key = (first.family.a, first.family.b, first.num_buckets)
    for est in estimators[1:]:
        if (est.family.a, est.family.b, est.num_buckets) != key:
            raise ValueError(
                "grouped estimators must share (a, b, num_buckets); got "
                f"{(est.family.a, est.family.b, est.num_buckets)} vs {key}"
            )
    return key


def _bucket_sigma_matrix(
    first, s1_node, psi, thresholds, sigmas, compress
) -> np.ndarray:
    """(nodes × 2^b) bucket-per-σ matrix, optionally via unique-row keys.

    A node's bucket row is a function of ``(s1, ψ_v, thresholds(v))``
    alone, so with ``compress`` the GF multiply and the 2^r threshold
    comparisons run on the distinct keys only and the *integer* bucket
    indices are scattered back through the inverse index — bit-identical
    because no float is involved yet.  The matrix uses the narrowest
    unsigned dtype holding ``num_buckets - 1`` (uint8 up to 256 buckets),
    which keeps the per-edge gathers and comparisons of the σ sweep small.
    """
    if compress and len(psi) > 1:
        key = np.concatenate(
            [s1_node[:, None], psi[:, None], thresholds], axis=1
        )
        uniq, inverse = np.unique(key, axis=0, return_inverse=True)
        s1_node = np.ascontiguousarray(uniq[:, 0])
        psi = np.ascontiguousarray(uniq[:, 1])
        thresholds = uniq[:, 2:]
    else:
        inverse = None
    g = first.family.field.mul_vec(s1_node, psi) >> (first.family.m - first.b)
    y = g[:, None] ^ sigmas[None, :]
    dtype = np.uint8 if first.num_buckets <= 256 else np.uint16
    buckets = np.zeros((len(psi), len(sigmas)), dtype=dtype)
    # At most num_buckets - 1 interior thresholds can lie at or below y.
    for w in range(1, first.num_buckets):
        buckets += thresholds[:, w, None] <= y
    if inverse is not None:
        buckets = buckets[inverse.reshape(-1)]
    return buckets


def exact_by_sigma_grouped(estimators, s1_values, compress: bool = True) -> list:
    """Per estimator, exact Σ_e X_e for every σ given its own s1 — fused.

    The per-node hash evaluation (one GF(2^m) multiply with a per-node s1),
    the (nodes × 2^b) bucket matrix and the per-edge contributions are
    computed once over the concatenated node/edge arrays of the group;
    per-estimator totals are per-instance row-segment sums.  Numerically
    identical to calling :meth:`PhaseEstimator.exact_by_sigma` per
    estimator.  Members whose edge count exceeds the sequential summation
    chunk fall back to their own method (different chunk boundaries would
    reorder float additions); memory is bounded by processing the group in
    sub-batches.

    With ``compress`` (the default) the bucket-matrix rows are computed
    on nodes deduplicated by ``(s1, ψ_v, thresholds(v))`` and the integer
    bucket indices scattered back through the inverse index before the
    float contribution step, which leaves every float operation — and hence
    the result — bit-for-bit unchanged.
    """
    estimators = list(estimators)
    if not estimators:
        return []
    _check_group(estimators)
    first = estimators[0]
    scale = int(first.scale)
    chunk = max(1, _SIGMA_CHUNK_ENTRIES // scale)

    out: list = [None] * len(estimators)
    fusable = []
    for j, est in enumerate(estimators):
        if est.num_edges == 0:
            out[j] = np.zeros(scale, dtype=np.float64)
        elif est.num_edges > chunk:
            out[j] = est.exact_by_sigma(int(s1_values[j]), compress=compress)
        else:
            fusable.append(j)

    # Sub-batch so the (rows × 2^b) work arrays stay bounded.
    budget = max(scale, _SIGMA_FUSE_BUDGET_ENTRIES)
    start = 0
    while start < len(fusable):
        stop = start
        rows = 0
        while stop < len(fusable):
            j = fusable[stop]
            need = len(estimators[j].psi) + estimators[j].num_edges
            if stop > start and (rows + need) * scale > budget:
                break
            rows += need
            stop += 1
        members = [estimators[j] for j in fusable[start:stop]]

        sizes = np.array([len(est.psi) for est in members], dtype=np.int64)
        node_offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(sizes, out=node_offsets[1:])
        psi = np.concatenate([est.psi for est in members])
        s1_node = np.repeat(
            np.array(
                [int(s1_values[j]) for j in fusable[start:stop]],
                dtype=np.int64,
            ),
            sizes,
        )
        sigmas = np.arange(scale, dtype=np.int64)
        thresholds = np.concatenate([est.thresholds for est in members])
        buckets = _bucket_sigma_matrix(
            first, s1_node, psi, thresholds, sigmas, compress
        )
        inv = np.concatenate([est._inv_counts for est in members])
        inv_sel = inv[np.arange(len(psi))[:, None], buckets]

        eu = np.concatenate(
            [est.edges_u + node_offsets[i] for i, est in enumerate(members)]
        )
        ev = np.concatenate(
            [est.edges_v + node_offsets[i] for i, est in enumerate(members)]
        )
        same = buckets[eu] == buckets[ev]
        contrib = np.where(same, inv_sel[eu] + inv_sel[ev], 0.0)
        edge_offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([est.num_edges for est in members], out=edge_offsets[1:])
        for i, j in enumerate(fusable[start:stop]):
            lo, hi = int(edge_offsets[i]), int(edge_offsets[i + 1])
            out[j] = contrib[lo:hi].sum(axis=0)
        start = stop
    return out


def buckets_for_seed_grouped(estimators, seeds) -> list:
    """Per estimator, the bucket chosen by each node under its own seed.

    One GF multiply with per-node ``s1`` and one broadcast threshold
    comparison over the concatenated nodes replace the per-estimator calls;
    identical to :meth:`PhaseEstimator.buckets_for_seed` per estimator.
    """
    estimators = list(estimators)
    if not estimators:
        return []
    _check_group(estimators)
    first = estimators[0]
    sizes = np.array([len(est.psi) for est in estimators], dtype=np.int64)
    psi = np.concatenate([est.psi for est in estimators])
    s1_node = np.repeat(
        np.array([int(seed[0]) for seed in seeds], dtype=np.int64), sizes
    )
    sigma_node = np.repeat(
        np.array([int(seed[1]) for seed in seeds], dtype=np.int64), sizes
    )
    g = first.family.field.mul_vec(s1_node, psi) >> (first.family.m - first.b)
    y = g ^ sigma_node
    thresholds = np.concatenate([est.thresholds for est in estimators])
    # T[:, 2^r] = 2^b > y never counts, so buckets < num_buckets.
    buckets = (thresholds[:, 1:] <= y[:, None]).sum(axis=1, dtype=np.int64)
    counts = np.concatenate([est.counts for est in estimators])
    chosen = counts[np.arange(len(psi)), buckets]
    if (chosen <= 0).any():
        raise AssertionError(
            "selected an empty bucket: threshold construction is broken"
        )
    offsets = np.zeros(len(estimators) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return [
        buckets[int(offsets[i]):int(offsets[i + 1])]
        for i in range(len(estimators))
    ]


class PhaseEstimator:
    """Exact survival/potential arithmetic for one r-bit extension phase.

    Parameters
    ----------
    family:
        Pairwise-independent family over the input-coloring domain.
    psi:
        Proper input coloring (the K-coloring of Lemma 2.1); adjacent nodes
        must have distinct values.
    bucket_counts:
        ``(n, 2^r)`` — candidate colors of each node per r-bit bucket.
    edges_u, edges_v:
        Endpoints of the *alive* conflict edges E_{ℓ-1}.
    """

    def __init__(
        self,
        family: PairwiseFamily,
        psi: np.ndarray,
        bucket_counts: np.ndarray,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        _thresholds: np.ndarray | None = None,
        _inv_counts: np.ndarray | None = None,
    ):
        self.family = family
        self.b = family.b
        self.scale = np.int64(1) << self.b
        self.psi = np.asarray(psi, dtype=np.int64)
        self.counts = np.asarray(bucket_counts, dtype=np.int64)
        self.num_buckets = self.counts.shape[1]
        self.thresholds = (
            bucket_thresholds(self.counts, self.b)
            if _thresholds is None
            else _thresholds
        )
        self.edges_u = np.asarray(edges_u, dtype=np.int64)
        self.edges_v = np.asarray(edges_v, dtype=np.int64)
        if len(self.edges_u):
            diff = self.psi[self.edges_u] ^ self.psi[self.edges_v]
            if (diff == 0).any():
                raise ValueError(
                    "input coloring is not proper on the conflict graph"
                )
            self.psi_diff = diff
        else:
            self.psi_diff = np.empty(0, dtype=np.int64)
        if _inv_counts is None:
            # 1/k_w with empty buckets mapped to 0 (probability 0).
            inv = np.zeros(self.counts.shape, dtype=np.float64)
            np.divide(1.0, self.counts, out=inv, where=self.counts > 0)
            self._inv_counts = inv
        else:
            self._inv_counts = _inv_counts

    @classmethod
    def build_group(
        cls, family: PairwiseFamily, members
    ) -> list["PhaseEstimator"]:
        """Construct estimators for many instances sharing one family.

        ``members`` is a sequence of ``(psi, bucket_counts, edges_u,
        edges_v)`` tuples whose count matrices share a width.  The integer
        threshold construction and the 1/k_w table — the row-independent
        parts of ``__init__`` — run once on the stacked count rows and are
        sliced back per member, so each estimator is identical to a direct
        construction.
        """
        members = list(members)
        if not members:
            return []
        counts = np.concatenate(
            [np.asarray(m[1], dtype=np.int64) for m in members]
        )
        thresholds = bucket_thresholds(counts, family.b)
        inv = np.zeros(counts.shape, dtype=np.float64)
        np.divide(1.0, counts, out=inv, where=counts > 0)
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([len(m[0]) for m in members], out=offsets[1:])
        return [
            cls(
                family,
                psi,
                counts[offsets[i]:offsets[i + 1]],
                eu,
                ev,
                _thresholds=thresholds[offsets[i]:offsets[i + 1]],
                _inv_counts=inv[offsets[i]:offsets[i + 1]],
            )
            for i, (psi, _counts, eu, ev) in enumerate(members)
        ]

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges_u)

    def edge_weight(self, w: int) -> np.ndarray:
        """(1/k_w(u) + 1/k_w(v)) per alive edge."""
        return (
            self._inv_counts[self.edges_u, w] + self._inv_counts[self.edges_v, w]
        )

    # ------------------------------------------------------------------
    def expected_by_s1(self, s1_candidates: np.ndarray) -> np.ndarray:
        """E[Σ_e X_e | s1] for each candidate s1 (expectation over σ)."""
        return expected_by_s1_grouped([self], s1_candidates)[0]

    def _edge_thresholds(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Per alive edge, both endpoints' thresholds for column ``w``."""
        return self.thresholds[self.edges_u, w], self.thresholds[self.edges_v, w]

    # ------------------------------------------------------------------
    def buckets_for_sigma_matrix(
        self, s1: int, compress: bool = True
    ) -> np.ndarray:
        """Bucket selected by every node for every σ; shape (n, 2^b).

        The per-node ``searchsorted`` is replaced by broadcast comparisons
        against the (n, 2^r+1) threshold matrix: the bucket index is the
        number of interior thresholds ≤ y (T[:, 0] = 0 always counts, and
        T[:, 2^r] = 2^b never does since y < 2^b).  The loop is over the
        2^r bucket columns — a constant — not over nodes; with ``compress``
        it runs on nodes deduplicated by ``(ψ_v, thresholds(v))`` and the
        integer rows are scattered back (bit-identical either way).  The
        dtype is the narrowest unsigned one holding ``num_buckets - 1``:
        uint8 up to 256 buckets, uint16 above.
        """
        self.family.field._check(int(s1))
        s1_node = np.full(len(self.psi), int(s1), dtype=np.int64)
        sigmas = np.arange(self.scale, dtype=np.int64)
        return _bucket_sigma_matrix(
            self, s1_node, self.psi, self.thresholds, sigmas, compress
        )

    def exact_by_sigma(self, s1: int, compress: bool = True) -> np.ndarray:
        """Exact Σ_e X_e for every additive seed σ once s1 is fixed."""
        if self.num_edges == 0:
            return np.zeros(int(self.scale), dtype=np.float64)
        buckets = self.buckets_for_sigma_matrix(s1, compress=compress)
        n = len(self.psi)
        inv_sel = self._inv_counts[np.arange(n)[:, None], buckets]
        total = np.zeros(int(self.scale), dtype=np.float64)
        chunk = max(1, _SIGMA_CHUNK_ENTRIES // int(self.scale))
        for start in range(0, self.num_edges, chunk):
            eu = self.edges_u[start:start + chunk]
            ev = self.edges_v[start:start + chunk]
            same = buckets[eu] == buckets[ev]
            contrib = np.where(same, inv_sel[eu] + inv_sel[ev], 0.0)
            total += contrib.sum(axis=0)
        return total

    def buckets_for_seed(self, s1: int, sigma: int) -> np.ndarray:
        """Bucket chosen by each node under the (deterministic) seed.

        One broadcast comparison of every node's y value against its row of
        the threshold matrix replaces the per-node ``searchsorted`` loop;
        T[:, 2^r] = 2^b > y never counts, so every index is a bucket.
        """
        g = self.family.g_values(s1, self.psi)
        y = g ^ np.int64(sigma)
        buckets = (self.thresholds[:, 1:] <= y[:, None]).sum(
            axis=1, dtype=np.int64
        )
        chosen = self.counts[np.arange(len(self.psi)), buckets]
        if (chosen <= 0).any():
            raise AssertionError(
                "selected an empty bucket: threshold construction is broken"
            )
        return buckets
