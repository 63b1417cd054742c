"""The potential function Φ and the pessimistic edge estimator (Section 2).

For node u at the end of phase ℓ the paper defines

    Φ_ℓ(u) = deg_ℓ(u) / |L_ℓ(u)|

(deg_ℓ = degree in the remaining conflict graph G_ℓ, L_ℓ = candidate colors
consistent with the chosen prefix) and rewrites the sum of potentials
edge-wise:

    Σ_u Φ_ℓ(u) = Σ_{e = {u,v} ∈ E_ℓ} X_e,
    X_e = 1_{e ∈ E_ℓ} (1/|L_ℓ(u)| + 1/|L_ℓ(v)|).

For one r-bit prefix-extension phase the method of conditional
expectations (Lemma 2.6 / Eq. (7)) needs two things:

* ``E[Σ_e X_e | s1]`` for every multiplicative seed s1 (expectation over
  the uniform additive seed σ) — the ``val1`` array the s1 bits are fixed
  from by greedy block means.  :class:`SeedSweepWorkspace` produces it
  from count tables filled by the exact counting DP of
  :mod:`repro.core.counting`;
* once s1 is fixed, the conditional expectation of every dyadic block of
  σ values, one level per σ bit.  :func:`exact_by_sigma_grouped` fixes σ
  bit by bit from exact counts on the block (see its docstring) and never
  builds a per-σ array.

**Exact-integer weighting.**  Both halves reduce to integer counts ``n_w``
— the number of seeds in a block that put both endpoints of an edge in
bucket w — weighted by the endpoints' ``1/k_w``.  :class:`_WeightPlan`
sums the counts into exact int64 ``S`` per (estimator, list size k) and
only then forms ``(Σ_k S_k / k, k ascending) / block size``.  Every value
is therefore a fixed function of exact integers: compression, chunking
and worker count cannot change a bit, and the σ descent's root (the
whole σ range) equals ``val1[s1]`` exactly.

**Unique-column compression.**  The s1 sweep only ever evaluates the hash
on per-edge keys ``(ψ_u ⊕ ψ_v, thresholds(u), thresholds(v))``;
everything a column contributes is a function of that key, and real
instances collapse to a handful of distinct keys.
:class:`SeedSweepWorkspace` deduplicates columns and runs the GF(2^m)
multiply on unique columns only.  The counting DP runs on even fewer
inputs: :class:`SweepCountKernel` deduplicates the columns' threshold rows
once more, fills one count table per distinct row over every hash
difference d ∈ [0, 2^b), and turns each (seed, column) count into one
gather from that table.  Both dedups pack each row into one int64
lexicographic rank (:func:`_unique_rows`): every non-constant key column,
most significant first, becomes one mixed-radix digit (its value minus the
column minimum, or its dense rank when its span exceeds the row count),
and one 1-D ``np.unique`` of the ranks gives the distinct rows.  Ranks
compare exactly as the rows compare lexicographically, so the unique
columns come out in the order of a row-wise ``np.unique`` (``axis=0``),
and the column layout, the kernel fingerprint and every value are those of
that order.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.counting import count_xor_below, count_xor_in_intervals
from repro.hashing.coins import bucket_thresholds
from repro.hashing.pairwise import PairwiseFamily

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


def _unique_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``np.stack(columns, axis=1)`` and the inverse,
    as a row-wise ``np.unique`` gives them, from one packed int64 key per
    row.

    ``columns`` is a sequence of equal-length 1-D int64 arrays, most
    significant first.  Returns ``(index, inverse)``: ``rows[index]`` are
    the distinct rows in ascending lexicographic order (the first
    occurrence of each) and ``rows[index][inverse] == rows``.

    The columns fold into one rank, ``rank = rank · span + (col − min)``,
    which is a mixed-radix number whose digits are the row's column values
    shifted to start at 0, so comparing ranks compares rows
    lexicographically, exactly as a row-wise ``np.unique`` orders them.
    Constant columns are skipped (they order nothing).  A column whose
    span exceeds the row count is first replaced by its dense 1-D
    ``np.unique`` rank, and the running rank is densified the same way
    before a multiply that could reach 2^62; both maps are monotone, so
    the order is kept, and the rank never overflows.
    """
    n = len(columns[0])
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rank = np.zeros(n, dtype=np.int64)
    bound = 1  # every rank lies in [0, bound)
    for col in columns:
        lo, hi = int(col.min()), int(col.max())
        span = hi - lo + 1
        if span == 1:
            continue
        if span > n:
            _, digit = np.unique(col, return_inverse=True)
            span = int(digit.max()) + 1
        else:
            digit = col - lo
        if bound * span >= 1 << 62:
            _, rank = np.unique(rank, return_inverse=True)
            bound = int(rank.max()) + 1
        rank *= span
        rank += digit
        bound *= span
    _, index, inverse = np.unique(rank, return_index=True, return_inverse=True)
    return index, inverse


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
      because no operation crosses seed rows — the property the chunked
      2^m enumeration of :func:`~repro.core.derandomize.derandomize_phase_group`
      relies on when it counts the seed rows block by block; and
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
    stable sha256 over the family parameters and column arrays): same
    fingerprint ⇒ same inputs ⇒ the same integer count matrix.
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

    def _threshold_rows(self) -> tuple:
        """Per count column: its edge column (None for the identity) and
        its threshold row, as ``(source, columns)`` with one 1-D array per
        threshold (``columns[i][c]`` is entry i of column c's row)."""
        if self.bucket_columns is None:
            return None, [self.thr_u[:, 1], self.thr_v[:, 1]]
        sources, parts = [], []
        for w, block in enumerate(self.bucket_columns):
            if block is None:
                continue
            alive = block[0]
            sources.append(np.flatnonzero(alive))
            parts.append(
                (
                    self.thr_u[alive, w],
                    self.thr_u[alive, w + 1],
                    self.thr_v[alive, w],
                    self.thr_v[alive, w + 1],
                )
            )
        return np.concatenate(sources), [np.concatenate(c) for c in zip(*parts)]

    def _count_table(self) -> tuple:
        """``(table, offsets, source)``: the flat int32 count table over
        (distinct threshold row, d), each count column's row offset into
        it, and the column → edge column map (None for r = 1)."""
        if self._lookup is None:
            source, columns = self._threshold_rows()
            index, row_of_col = _unique_rows(columns)
            keys = [col[index] for col in columns]
            size = 1 << self.b
            table = np.empty((len(index), size), dtype=np.int32)
            d = np.arange(size, dtype=np.int64)[None, :]
            step = max(1, _TABLE_BLOCK_ENTRIES >> self.b)
            for lo in range(0, len(index), step):
                bounds = [col[lo:lo + step, None] for col in keys]
                if self.bucket_columns is None:
                    block = count_xor_below(d, *bounds, self.b)
                else:
                    block = count_xor_in_intervals(d, *bounds, self.b)
                table[lo:lo + step] = block
            offsets = row_of_col.astype(np.int64) << self.b
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


class _WeightPlan:
    """The exact-integer weighting shared by the s1 sweep and the σ descent.

    An *incidence* is one (edge endpoint x, bucket w) pair of estimator j:
    it adds the count in integer column ``col`` (the number of seeds of a
    block putting both endpoints in bucket w) to the group ``(j, k)`` with
    ``k = k_w(x)``; k = 0 carries weight 0 and is dropped.  Groups are
    numbered in (estimator, ascending k) order, and the plan keeps a sparse
    (column, group, multiplicity) list sorted by group, so fused groups of
    hundreds of estimators never build a dense (columns × groups) matrix.

    :meth:`sums` forms the int64 sums ``S`` per group (plus an optional
    integer constant per incidence); :meth:`values` turns them into
    ``(Σ_k S_k / k, k ascending) / scale`` per estimator.  Groups whose
    ``S`` is 0 add an exact 0.0, so two plans over the same nonzero sums
    give the same floats.  The exactness guard checks once that no ``S``
    can reach 2^53 when every count lies in [0, ``scale``] (and every
    constant in [−``scale``, ``scale``]): below that int64 cannot wrap and
    every ``S`` converts to float64 exactly.
    """

    def __init__(
        self,
        inc_col: np.ndarray,
        inc_est: np.ndarray,
        inc_k: np.ndarray,
        num_est: int,
        width: int,
        scale: int,
        inc_const: np.ndarray | None = None,
    ):
        keep = inc_k > 0
        span = int(inc_k.max(initial=0)) + 1
        # Groups are the present keys in ascending order, numbered by rank:
        # the same numbering as a sorted unique, without the sort.
        key = (inc_est * span + inc_k)[keep]
        present = np.bincount(key) > 0
        groups = np.flatnonzero(present)
        inc_group = (np.cumsum(present) - 1)[key]
        num_groups = len(groups)
        width = max(1, int(width))
        entries, mult = np.unique(
            inc_group * width + inc_col[keep], return_counts=True
        )
        self.entry_col = entries % width
        self.entry_mult = mult.astype(np.int64)
        self.group_start = np.searchsorted(
            entries // width, np.arange(num_groups)
        )
        self.group_est = groups // span
        self.group_k = (groups % span).astype(np.float64)
        self.const = None
        if inc_const is not None:
            self.const = np.zeros(num_groups, dtype=np.int64)
            np.add.at(self.const, inc_group, inc_const[keep])
        # |S| and every partial sum are at most scale times the group's
        # number of incidences.
        per_group = np.bincount(inc_group, minlength=num_groups)
        self.sum_bound = int(scale) * int(per_group.max(initial=0))
        if self.sum_bound >= _EXACT_INT_LIMIT:
            raise ValueError(
                f"seed-sweep sums may reach {self.sum_bound} >= 2^53: "
                "the integer weighting would not be exact"
            )
        # Sequential ascending-k summation order: slot p of estimator j
        # holds its p-th smallest k; missing slots point at a zero column.
        first_group = np.searchsorted(self.group_est, np.arange(num_est))
        slot = np.arange(num_groups) - first_group[self.group_est]
        self.slots = np.full(
            (num_est, int(slot.max(initial=0)) + 1), num_groups, dtype=np.int64
        )
        self.slots[self.group_est, slot] = np.arange(num_groups)

    def sums(self, counts: np.ndarray) -> np.ndarray:
        """(rows × groups) int64 sums ``S`` of a (rows × width) count block."""
        if not len(self.group_k):
            return np.zeros((len(counts), 0), dtype=np.int64)
        terms = np.take(counts, self.entry_col, axis=1)
        terms *= self.entry_mult
        sums = np.add.reduceat(terms, self.group_start, axis=1)
        if self.const is not None:
            sums += self.const
        return sums

    def values(self, sums: np.ndarray, scale: int) -> np.ndarray:
        """(rows × estimators) ``(Σ_k S_k / k, k ascending) / scale``."""
        num_groups = len(self.group_k)
        # One float per (row, group): S / k, plus a zero column that the
        # padding slots of estimators with fewer distinct k point at.
        quotients = np.zeros((len(sums), num_groups + 1), dtype=np.float64)
        np.divide(sums, self.group_k, out=quotients[:, :num_groups])
        total = quotients[:, self.slots[:, 0]]
        for p in range(1, self.slots.shape[1]):
            total += quotients[:, self.slots[:, p]]
        total /= float(scale)
        return total


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
      by the key ``(ψ_u ⊕ ψ_v, thresholds(u), thresholds(v))``, and the GF
      multiply and count gather run on unique columns only.  The key's
      1 + 2·(2^r + 1) columns are packed, most significant first, into one
      int64 mixed-radix rank per edge (:func:`_unique_rows`; for r = 1 the
      constant threshold columns 0 and 2^b drop out), and one 1-D
      ``np.unique`` of the ranks yields the unique columns and ``inverse``.
      A rank compares as its row compares lexicographically, so the
      unique columns are in a row-wise ``np.unique``'s order: sorted by
      ψ-difference, then by the thresholds of u, then by those of v;
    * the weighting plan: every edge endpoint x of estimator j contributes
      ``n_w / k_w(x)`` for each bucket w, where ``n_w`` is the number of σ
      putting both endpoints in bucket w.  Grouping endpoints by
      ``(j, k = k_w(x))`` gives

          2^b · E[Σ_e X_e | s1] = Σ_k S[s1, j, k] / k,
          S[s1, j, k] = Σ_c counts[s1, c] · mult[c, j, k] (+ const[j, k]),

      an int64 sum over the count columns, kept as a :class:`_WeightPlan`.
      For r = 1 the bucket-1 count follows by inclusion-exclusion,
      ``n_both1 = 2^b − t_u − t_v + n_both0``, so bucket-1 endpoints add
      multiplicity to the ``n_both0`` column and their ``2^b − t_u − t_v``
      to ``const``.

    The plan's exactness guard checks once that no ``S`` can reach 2^53,
    so each ``val1`` entry is a fixed function of exact integers of its
    own seed row.
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
            index, self.inverse = _unique_rows(
                [self.psi_diff, *self.thr_u.T, *self.thr_v.T]
            )
            self.uniq_psi_diff = self.psi_diff[index]
            self.uniq_thr_u = self.thr_u[index]
            self.uniq_thr_v = self.thr_v[index]
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
        """Build the weighting plan over the count columns.

        Each incidence is one (edge endpoint, bucket) pair; it reads the
        count column holding that edge's bucket count (for r = 1 the
        ``n_both0`` column, plus the constant ``2^b − t_u − t_v`` for
        bucket 1).
        """
        live = self.live
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
        consts = None
        if self.num_buckets == 2:
            # Both buckets weight the n_both0 column; bucket 1 also adds
            # its inclusion-exclusion constant 2^b - t_u - t_v.
            const = int(self.scale) - self.thr_u[:, 1] - self.thr_v[:, 1]
            zero = np.zeros_like(const)
            consts = np.concatenate([zero, zero, const, const])
            for w in (0, 1):
                for k in (k_u[:, w], k_v[:, w]):
                    cols.append(column)
                    ests.append(est_id)
                    ks.append(k)
        else:
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
        self.plan = _WeightPlan(
            np.concatenate(cols),
            np.concatenate(ests),
            np.concatenate(ks),
            len(live),
            self.kernel.count_width,
            int(self.scale),
            consts,
        )
        self.sum_bound = self.plan.sum_bound
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
        range, any worker count, and with compression on or off (the sums
        do not depend on how columns were deduplicated).
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
        if len(counts):
            total = self.plan.values(self.plan.sums(counts), int(self.scale))
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
        list size).
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


def _count_below_block(
    d: np.ndarray, t1: np.ndarray, t2: np.ndarray, width: int
) -> np.ndarray:
    """``N(d, t1, t2)`` on a block of 2^width values, thresholds in
    [0, 2^width]; the digit DP runs only where both thresholds fall
    strictly inside.  Elsewhere N(d, 0, ·) = N(d, ·, 0) = 0 and
    N(d, 2^width, t) = N(d, t, 2^width) = t (z ↦ z ⊕ d is a bijection)."""
    full = 1 << width
    out = np.where(t1 == full, t2, np.where(t2 == full, t1, 0))
    inner = np.flatnonzero((t1 > 0) & (t1 < full) & (t2 > 0) & (t2 < full))
    if len(inner):
        out[inner] = count_xor_below(d[inner], t1[inner], t2[inner], width)
    return out


class _SigmaDescent:
    """Per-level exact counts of a fused group's σ descent (see
    :func:`exact_by_sigma_grouped`).  Holds the alive edges of every member
    with edges: hash values under the member's own s1, thresholds and the
    weighting plan, all O(edges · 2^r)."""

    def __init__(self, members, s1_values: np.ndarray):
        first = members[0]
        sizes = np.array([len(est.psi) for est in members], dtype=np.int64)
        node_offsets = np.zeros(len(members), dtype=np.int64)
        np.cumsum(sizes[:-1], out=node_offsets[1:])
        num_edges = [est.num_edges for est in members]
        edge_est = np.repeat(np.arange(len(members), dtype=np.int64), num_edges)
        eu = np.concatenate([est.edges_u for est in members])
        ev = np.concatenate([est.edges_v for est in members])
        eu += node_offsets[edge_est]
        ev += node_offsets[edge_est]
        psi = np.concatenate([est.psi for est in members])
        g = first.family.field.mul_vec(np.repeat(s1_values, sizes), psi) >> (
            first.family.m - first.b
        )
        thresholds = np.concatenate([est.thresholds for est in members])
        counts = np.concatenate([est.counts for est in members])
        if first.num_buckets == 2:
            # Items are edges; the level counts are [n_both0 | n_both1].
            item_edge = np.arange(len(eu), dtype=np.int64)
            num_cols = 2 * len(eu)
            self.bounds = (thresholds[eu, 1], thresholds[ev, 1])
            inc_col = np.concatenate(
                [item_edge, item_edge, item_edge + len(eu), item_edge + len(eu)]
            )
            ends = [(eu, 0), (ev, 0), (eu, 1), (ev, 1)]
        else:
            # Items are the (edge, bucket) pairs whose bucket interval is
            # nonempty at both endpoints; the level counts are per item.
            width = np.diff(thresholds, axis=1) > 0
            item_edge, item_w = np.nonzero(width[eu] & width[ev])
            iu, iv = eu[item_edge], ev[item_edge]
            self.bounds = (
                thresholds[iu, item_w],
                thresholds[iu, item_w + 1],
                thresholds[iv, item_w],
                thresholds[iv, item_w + 1],
            )
            num_cols = len(item_edge)
            idx = np.arange(num_cols, dtype=np.int64)
            inc_col = np.concatenate([idx, idx])
            ends = [(iu, item_w), (iv, item_w)]
        self.item_est = edge_est[item_edge]
        self.g_u = g[eu[item_edge]]
        self.g_v = g[ev[item_edge]]
        self.d = self.g_u ^ self.g_v
        self.plan = _WeightPlan(
            inc_col,
            np.tile(self.item_est, len(ends)),
            np.concatenate([counts[x, w] for x, w in ends]),
            len(members),
            num_cols,
            int(first.scale),
        )

    def block_sums(self, width: int, prefix: np.ndarray) -> np.ndarray:
        """int64 sums ``S`` per group over the σ block of each member whose
        top ``b − width`` bits are its ``prefix``.

        On that block y_x = g_x ⊕ σ sweeps one dyadic block of 2^width
        values from ``base_x`` while y_u and y_v differ by ``d`` in their
        low bits, so ``y_x < t`` becomes ``z < clip(t − base_x)`` for the
        low-bit counter z of :func:`_count_below_block`.
        """
        full = 1 << width
        q = prefix[self.item_est]
        base_u = ((self.g_u >> width) ^ q) << width
        base_v = ((self.g_v >> width) ^ q) << width
        d = self.d & (full - 1)
        if len(self.bounds) == 2:
            t_u, t_v = self.bounds
            a_u = np.clip(t_u - base_u, 0, full)
            a_v = np.clip(t_v - base_v, 0, full)
            n0 = _count_below_block(d, a_u, a_v, width)
            counts = np.concatenate([n0, full - a_u - a_v + n0])
        else:
            lo_u, hi_u, lo_v, hi_v = (
                np.clip(t - base, 0, full)
                for t, base in zip(self.bounds, (base_u, base_u, base_v, base_v))
            )
            n = _count_below_block(
                np.tile(d, 4),
                np.concatenate([hi_u, lo_u, hi_u, lo_u]),
                np.concatenate([hi_v, hi_v, lo_v, lo_v]),
                width,
            ).reshape(4, -1)
            counts = n[0] - n[1] - n[2] + n[3]
        return self.plan.sums(counts[None, :])[0]


def exact_by_sigma_grouped(estimators, s1_values) -> list:
    """Fix σ bit by bit for every member of a fused group (Lemma 2.6).

    Once s1 is fixed, Eq. (7) fixes σ's b bits most significant first:
    with the prefix p of i bits fixed, each child ``c`` is the dyadic
    block of 2^L values of σ with top bits ``(p << 1) | c``, L = b − i − 1,
    and its conditional expectation is the mean of Σ_e X_e over the block.
    XOR by ``g_x`` maps the block onto a dyadic block of y_x = g_x ⊕ σ, so
    the number of block values putting both endpoints in bucket w is one
    counting DP on width L with clipped thresholds
    (:meth:`_SigmaDescent.block_sums`; for r = 1 the bucket-1 count follows
    by inclusion-exclusion).  Per level the c = 0 child's counts are summed
    into exact int64 ``S`` per (member, list size k); the c = 1 child is
    the parent's ``S`` minus that, exactly; each child's value is
    ``(Σ_k S_k / k, k ascending) / 2^L`` (:meth:`_WeightPlan.values`, the
    formula of ``val1``); and ``v1 < v0`` picks bit 1, so an exact tie
    keeps the 0 branch.  Every level runs once over the whole group, and
    no array indexed by σ is built: memory is O(edges · 2^r) per level.

    Keeps the name the derandomizer calls once per group for σ.  Returns,
    per estimator, ``(sigma, trace, final, root)``: the chosen σ, the
    chosen child's value after each bit (Eq. (7) trace), the value of the
    single σ left (the exact potential at (s1, σ)), and the value of the
    whole σ range — the same function of the same integers as
    ``val1[s1]``, so the two agree bit for bit.  Members without edges get
    σ = 0 and all-zero values.  Raises ``ValueError`` for an s1 outside
    GF(2^m).
    """
    estimators = list(estimators)
    if not estimators:
        return []
    _check_group(estimators)
    first = estimators[0]
    b = first.b
    s1_values = np.asarray(s1_values, dtype=np.int64).reshape(-1)
    if len(s1_values) != len(estimators):
        raise ValueError(
            f"need one s1 per estimator, got {len(s1_values)} for "
            f"{len(estimators)}"
        )
    outside = (s1_values < 0) | (s1_values >= first.family.field.order)
    if outside.any():
        first.family.field._check(int(s1_values[outside][0]))
    results = [(0, [0.0] * b, 0.0, 0.0) for _ in estimators]
    live = [j for j, est in enumerate(estimators) if est.num_edges]
    if not live:
        return results
    descent = _SigmaDescent([estimators[j] for j in live], s1_values[live])
    plan = descent.plan
    prefix = np.zeros(len(live), dtype=np.int64)
    parent = descent.block_sums(b, prefix)
    root = plan.values(parent[None, :], 1 << b)[0]
    chosen = []
    for width in range(b - 1, -1, -1):
        zero = descent.block_sums(width, prefix << 1)
        values = plan.values(np.stack([zero, parent - zero]), 1 << width)
        take1 = values[1] < values[0]
        prefix = (prefix << 1) | take1
        parent = np.where(take1[plan.group_est], parent - zero, zero)
        chosen.append(np.where(take1, values[1], values[0]))
    traces = (
        np.stack(chosen, axis=1).tolist() if chosen else [[] for _ in live]
    )
    finals = chosen[-1] if chosen else root
    for i, j in enumerate(live):
        results[j] = (int(prefix[i]), traces[i], float(finals[i]), float(root[i]))
    return results


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

    @classmethod
    def build_group(
        cls, family: PairwiseFamily, members
    ) -> list["PhaseEstimator"]:
        """Construct estimators for many instances sharing one family.

        ``members`` is a sequence of ``(psi, bucket_counts, edges_u,
        edges_v)`` tuples whose count matrices share a width.  The integer
        threshold construction — the row-independent part of ``__init__`` —
        runs once on the stacked count rows and is sliced back per member,
        so each estimator is identical to a direct construction.
        """
        members = list(members)
        if not members:
            return []
        counts = np.concatenate(
            [np.asarray(m[1], dtype=np.int64) for m in members]
        )
        thresholds = bucket_thresholds(counts, family.b)
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
            )
            for i, (psi, _counts, eu, ev) in enumerate(members)
        ]

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges_u)

    # ------------------------------------------------------------------
    def expected_by_s1(self, s1_candidates: np.ndarray) -> np.ndarray:
        """E[Σ_e X_e | s1] for each candidate s1 (expectation over σ)."""
        return expected_by_s1_grouped([self], s1_candidates)[0]

    # ------------------------------------------------------------------
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
