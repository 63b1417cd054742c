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
  in discrete-log order of s1 from exact count tables filled by
  :func:`~repro.core.counting.count_xor_table`;
* once s1 is fixed, the conditional expectation of every dyadic block of
  σ values, one level per σ bit.  :func:`exact_by_sigma_grouped` fixes σ
  bit by bit from exact counts on the block (see its docstring) and never
  builds a per-σ array.

**One count table for both halves.**  The doubling fill builds the counts
of every width L on its way to width b, and the sweep's
:class:`SweepCountKernel` keeps them all, once per phase: the s1 sweep
reads the full width, and the σ descent reads width L at level L, where
every count that is not a closed form is one of that level's entries.
There is no second counting algorithm, and the descent's root reads the
sweep's own table entries.

**One object per fusion group.**  The batched solver fuses the instances
that share a seed space ``(m, b, 2^r)`` into one derandomization, and a
:class:`PhaseEstimator` describes that whole group: flat ψ, bucket counts
and thresholds over the members' nodes, the alive edges in group-local
node ids with their ψ-differences, and ``node_offsets`` / ``edge_offsets``
(length members + 1) that cut them into members.  The single-instance
constructor is a group of one.  Every consumer reads the flat arrays and
maps an edge to its member through ``edge_member``; each member's values
are functions of its own integers, so they equal those of its group of
one.  A member without edges has no incidences and gets exactly 0.0
everywhere, which the tie rules turn into seed (0, 0).

**Exact-integer weighting.**  Both halves reduce to integer counts ``n_w``
— the number of seeds in a block that put both endpoints of an edge in
bucket w — weighted by the endpoints' ``1/k_w``.  One :class:`_Weighting`
per phase numbers the (member, list size k) groups, and both halves sum
the counts into exact ``S`` per group — integers below 2^53, held in
float64, where every partial sum of nonnegative integers is exact in any
order — and only then form ``(Σ_k S_k / k, k ascending) / block size``.
Every value is therefore a fixed function of exact integers: blocking
the seed range cannot change a bit, the σ descent's root (the whole σ
range: the same table counts, summed by one ``np.bincount`` instead of
the sweep's matrix product) equals ``val1[s1]`` exactly, and its final
value equals the realized potential :func:`potential_sums` forms from the
same integers.

**Unique-column compression.**  The s1 sweep only ever evaluates the hash
on per-edge keys ``(ψ_u ⊕ ψ_v, thresholds(u), thresholds(v))``;
everything a column contributes is a function of that key, and real
instances collapse to a handful of distinct keys.
:class:`SeedSweepWorkspace` deduplicates columns and counts unique
columns only.  The counts need even fewer inputs: :class:`SweepCountKernel`
deduplicates the columns' threshold rows once more and fills one count
table per distinct row over every hash difference d ∈ [0, 2^b) by top-bit
doubling (O(2^b) per row).  Both dedups pack each row
into one int64 lexicographic rank (:func:`_unique_rows`): every
non-constant key column, most significant first, becomes one mixed-radix
digit (its value minus the column minimum, or its dense rank when its
span exceeds the row count), and one 1-D sort-based
:func:`~repro.graphs.sorting.unique` of the ranks gives the distinct rows.
Ranks compare exactly as the rows compare lexicographically, so the unique
columns come out in the order of a row-wise ``np.unique`` (``axis=0``), and
the column layout and every value are those of that order.

**Discrete-log order.**  GF(2^m)^* is cyclic: with s1 = g^i,
s1 ⊙ δ = g^(i + log δ), so multiplying by s1 is a shift of the exponent.
The sweep enumerates s1 = 0 and then g^0, g^1, …, g^(2^m − 2), and the
counts of a column over consecutive exponents are one contiguous window
of a per-threshold-row sequence built once from its count table: no GF
multiply and no per-cell table index runs per seed (when those sequences
would outgrow the count table, m ≫ b, the windows are cut from the one
sequence ``top_b(g^j)`` and gathered from the table instead).  The
weighting is dense per block of members, so each block of seeds is
contracted by one matrix product (:meth:`SeedSweepWorkspace.weight_rows`),
and each seed's values are written back to its own index of ``val1``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counting import count_xor_table
from repro.graphs.sorting import unique
from repro.hashing.coins import bucket_thresholds, select_buckets
from repro.hashing.pairwise import PairwiseFamily

#: Every integer sum the seed-sweep weighting forms must stay below this:
#: int64 then cannot wrap and the conversion to float64 is exact.
_EXACT_INT_LIMIT = 1 << 53

#: Entry budget of one row block of the count-table build: the doubling
#: fill's per-level int64 temporaries hold at most this many entries.
_TABLE_BLOCK_ENTRIES = 1 << 18

__all__ = [
    "PhaseEstimator",
    "SeedSweepWorkspace",
    "SweepCountKernel",
    "buckets_for_seed_grouped",
    "exact_by_sigma_grouped",
    "potential_sums",
    "accuracy_bits",
]


def potential_sums(
    conflict_degrees: np.ndarray,
    list_sizes: np.ndarray,
    node_instance: np.ndarray,
    num_instances: int,
) -> np.ndarray:
    """Σ_u deg(u)/|L(u)| per instance, in one pass over every node.

    ``node_instance[u]`` is the instance of node u.  Per instance the sum is
    ``Σ_k D_k / k`` with k ascending, where ``D_k`` is the exact integer sum
    of conflict degrees over its nodes with list size k, formed by the same
    :class:`_AscendingKSum` as :meth:`_Weighting.values`: it equals the σ
    descent's final value bit for bit.
    """
    sizes = np.asarray(list_sizes, dtype=np.int64)
    if (sizes <= 0).any():
        raise ValueError("list sizes must be positive")
    degrees = np.asarray(conflict_degrees, dtype=np.int64)
    has = degrees > 0
    span = int(sizes.max(initial=0)) + 1
    key = np.asarray(node_instance, dtype=np.int64)[has] * span + sizes[has]
    keys, inverse = unique(key, return_inverse=True)
    # Float sums of integers are exact while every partial sum stays below
    # 2^53, which a sum of degrees does.
    d_sums = np.bincount(inverse, weights=degrees[has], minlength=len(keys))
    return _AscendingKSum(keys, span, num_instances)(d_sums[:, None])[:, 0]


class _AscendingKSum:
    """``Σ_k S_k / k`` per owner, k ascending, over (owner, k) terms.

    ``keys`` are the terms' ``owner · span + k``, ascending, so each
    owner's terms are one run in ascending k.  Slot p of an owner holds
    its p-th smallest k, and a missing slot reads an exact 0.0; the sum
    adds slot after slot, so its term order is fixed by the keys alone and
    equal exact ``S`` give equal sums, bit for bit.
    """

    def __init__(self, keys: np.ndarray, span: int, num_owners: int):
        self.owner = keys // span
        self.k = (keys % span).astype(np.float64)
        slot = np.arange(len(keys)) - np.searchsorted(self.owner, self.owner)
        self.slots = np.full(
            (num_owners, int(slot.max(initial=0)) + 1), len(keys), dtype=np.int64
        )
        self.slots[self.owner, slot] = np.arange(len(keys))

    def __call__(self, sums: np.ndarray) -> np.ndarray:
        """(owners × rows) ``Σ_k S_k / k`` of the (terms × rows) exact
        sums ``S``."""
        # One float per (term, row): S / k, plus a zero row for the padding
        # slots.
        quotients = np.zeros((len(self.k) + 1, sums.shape[1]), dtype=np.float64)
        np.divide(sums, self.k[:, None], out=quotients[:-1])
        total = quotients[self.slots[:, 0]]
        for p in range(1, self.slots.shape[1]):
            total += quotients[self.slots[:, p]]
        return total


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
    span exceeds the row count is first replaced by its dense rank (the
    inverse of a 1-D :func:`~repro.graphs.sorting.unique`), and the
    running rank is densified the same way
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
            _, digit = unique(col, return_inverse=True)
            span = int(digit.max()) + 1
        else:
            digit = col - lo
        if bound * span >= 1 << 62:
            _, rank = unique(rank, return_inverse=True)
            bound = int(rank.max()) + 1
        rank *= span
        rank += digit
        bound *= span
    _, index, inverse = unique(rank, return_index=True, return_inverse=True)
    return index, inverse


class SweepCountKernel:
    """The pure-integer half of the ``E[Σ_e X_e | s1]`` seed sweep, in
    discrete-log order.

    Everything the 2^m enumeration computes *before* the first float is a
    function of the per-edge keys alone (the workspace passes its unique
    columns) and produces exact integer counts.  Every count column ``c``
    asks for one ``N(d, ·)`` of :mod:`repro.core.counting` with
    ``d = top_b(s1 ⊙ δ_c)`` and a *threshold row* ρ(c) that does not depend
    on the seed: ``(t_u, t_v)`` of bucket 0 for 2-bucket (r = 1) phases,
    the interval quadruple ``(lo_u, hi_u, lo_v, hi_v)`` of the column's
    bucket otherwise.  A phase has few distinct threshold rows, so the
    kernel fills ``N(d, ·)`` once per (distinct row, d ∈ [0, 2^b)) into a
    count table T (:func:`~repro.core.counting.count_xor_table`; an
    interval row by inclusion–exclusion over four prefix rows).  The fill
    runs once, at construction, and the kernel keeps every level of it in
    :attr:`dtype`: :attr:`levels` (per distinct prefix row) and
    :attr:`column_rows` (each count column's prefix rows) are what the σ
    descent of :func:`exact_by_sigma_grouped` reads.

    The seeds are enumerated in discrete-log order (:attr:`s1_order`):
    position 0 is s1 = 0 and position 1 + i is s1 = g^i, g the generator of
    the cyclic group GF(2^m)^*.  Since g^i ⊙ δ_c = g^(i + log δ_c), the
    counts of column c over log indices [i0, i0 + B) are one contiguous
    window, starting at (i0 + log δ_c) mod (2^m − 1), of its row's sequence

        U[ρ, j] = T[ρ, top_b(g^(j mod (2^m − 1)))],

    and s1 = 0 reads ``T[ρ, 0]`` (0 ⊙ δ = 0).  U is built once per kernel,
    on the first :meth:`count_rows` call, with length 2^m − 1 + B − 1 for
    the largest block B asked for so far, in :attr:`dtype`, the narrowest
    unsigned type that holds 2^b.  Each count is then a copy: no GF
    multiply and no per-cell table index runs per seed.

    U is kept only while it takes no more bytes than T would as int64 (or
    than one ``_TABLE_BLOCK_ENTRIES`` block of int64 when that is larger):
    when the ψ-domain bits a exceed b, m = a and U's length 2^m outgrows
    T's 2^b columns.  Past that bound
    the kernel keeps T and the sequence ``top_b(g^j)`` alone, and a block's
    counts are T gathered at the windows of that sequence — still log
    order and no GF multiply, one table index per cell — so the sweep's
    memory stays that of the tables (T and its levels, O(rows · 2^b))
    plus one O(2^m) sequence.  ``count_rows`` over any partition of the
    positions concatenates to the same integers as one full-range call,
    because no operation crosses seed rows — the property the blocked
    enumeration of :meth:`SeedSweepWorkspace.val1` relies on.

    ``count_width`` is the number of integer columns per seed row:
    the (unique) edge-column count for 2-bucket (r = 1) phases, or the
    total of per-bucket alive column counts for r > 1, laid out block by
    block in bucket order; ``bucket_columns[w]`` is ``(alive, start)`` for
    bucket w's block (``alive`` masks the edge columns whose bucket-w
    interval is nonempty at both endpoints) or None when no column is
    alive.  ψ-differences must be nonzero: a zero one is an improper input
    coloring and has no discrete log.
    """

    def __init__(
        self,
        family: PairwiseFamily,
        num_buckets: int,
        psi_diff: np.ndarray,
        thr_u: np.ndarray,
        thr_v: np.ndarray,
    ):
        self.family = family
        self.b = family.b
        self.num_buckets = int(num_buckets)
        self.psi_diff = psi_diff
        self.thr_u = thr_u
        self.thr_v = thr_v
        if (psi_diff == 0).any():
            raise ValueError("ψ-differences must be nonzero (proper input coloring)")
        #: dtype of the counts: the narrowest unsigned type holding 2^b.
        self.dtype = np.min_scalar_type(1 << self.b)
        exp, log = family.field.power_tables()
        #: The s1 at each position of the enumeration: 0, then g^i.
        self.s1_order = np.concatenate([np.zeros(1, dtype=np.int64), exp])
        self._log_delta = log[psi_diff]
        self._windows = None
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
        self._count_table()

    def _threshold_rows(self) -> tuple:
        """Per count column: its edge column (None for the identity) and
        its threshold row, as ``(source, columns)`` with one 1-D array per
        threshold (``columns[i][c]`` is entry i of column c's row)."""
        if self.bucket_columns is None:
            return None, [self.thr_u[:, 1], self.thr_v[:, 1]]
        empty = np.empty(0, dtype=np.int64)
        sources, parts = [empty], [(empty,) * 4]
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

    def _count_table(self) -> None:
        """Fill the phase's count tables once, in :attr:`dtype`.

        Sets :attr:`levels`, every width of the doubling fill of each
        distinct *prefix row* ``(t1, t2)``; :attr:`table`, the count table
        T over (distinct threshold row, d ∈ [0, 2^b)); :attr:`row_of_col`,
        each count column's row of T; :attr:`column_rows`, each count
        column's rows of the levels; and each count column's log-order
        offset ``log δ``.  For r = 1 a threshold row is a prefix
        row, T is the top level and ``column_rows`` is ``row_of_col`` (one
        row).  An interval row ``(lo_u, hi_u, lo_v, hi_v)`` counts by
        inclusion–exclusion over its four prefix rows (hi_u, hi_v),
        (lo_u, hi_v), (hi_u, lo_v) and (lo_u, lo_v), which ``column_rows``
        lists in that order; adjacent buckets share bounds, so the prefix
        rows are deduplicated once more and each distinct one is filled
        once."""
        source, columns = self._threshold_rows()
        index, self.row_of_col = _unique_rows(columns)
        self._start = self._log_delta if source is None else self._log_delta[source]
        keys = [col[index] for col in columns]
        if self.bucket_columns is None:
            self.levels = self._fill(*keys)
            self.table = self.levels[-1]
            self.column_rows = self.row_of_col[None]
            return
        lo_u, hi_u, lo_v, hi_v = keys
        t1 = np.concatenate([hi_u, lo_u, hi_u, lo_u])
        t2 = np.concatenate([hi_v, hi_v, lo_v, lo_v])
        prefix_index, prefix_of = _unique_rows([t1, t2])
        self.levels = self._fill(t1[prefix_index], t2[prefix_index])
        corners = prefix_of.reshape(4, -1)
        top = self.levels[-1]
        # Unsigned sums wrap only on the way to a count in [0, 2^b], which
        # the dtype holds: the result is exact.
        self.table = top[corners[0]] - top[corners[1]]
        self.table -= top[corners[2]]
        self.table += top[corners[3]]
        self.column_rows = corners[:, self.row_of_col]

    def _fill(self, t1: np.ndarray, t2: np.ndarray) -> list:
        """Every level of :func:`count_xor_table` of the rows
        ``(t1[i], t2[i])``, in :attr:`dtype`, filled in row blocks whose
        levels hold at most ``_TABLE_BLOCK_ENTRIES`` entries."""
        levels = [
            np.empty((len(t1), 1 << width), dtype=self.dtype)
            for width in range(self.b + 1)
        ]
        step = max(1, _TABLE_BLOCK_ENTRIES >> (self.b + 1))
        for lo in range(0, len(t1), step):
            block = count_xor_table(t1[lo:lo + step], t2[lo:lo + step], self.b)
            for level, part in zip(levels, block):
                level[lo:lo + step] = part
        return levels

    def _build_windows(self, span: int) -> np.ndarray:
        """The sequences long enough for blocks of up to ``span``
        positions: the per-row sequences U (2-D), or the top-bit sequence
        ``top_b(g^j)`` alone (1-D) when U would outgrow its bound."""
        cycle = len(self.s1_order) - 1
        length = cycle + min(span, cycle) - 1
        if self._windows is None or self._windows.shape[-1] < length:
            top = np.resize(self.s1_order[1:], length) >> (self.family.m - self.b)
            top = top.astype(np.min_scalar_type((1 << self.b) - 1))
            table = self.table
            bound = 8 * max(table.size, _TABLE_BLOCK_ENTRIES)
            if len(table) * length * table.itemsize <= bound:
                self._windows = np.take(table, top, axis=1)
            else:
                self._windows = top
        return self._windows

    def count_rows(self, lo: int, hi: int) -> np.ndarray:
        """Integer count matrix of the seeds at positions ``[lo, hi)`` of
        :attr:`s1_order`; shape ``(hi − lo, count_width)``, :attr:`dtype`.

        One sliding-window gather: column c's counts are its row's window
        at ``(i0 + log δ_c) mod (2^m − 1)`` for the block's first log index
        i0 (T gathered at that window of ``top_b(g^j)`` when U is not
        kept), preceded by ``T[ρ(c), 0]`` when the block holds s1 = 0.  The
        result is the transpose of a C-contiguous (columns × seeds) block,
        the layout :meth:`SeedSweepWorkspace.weight_rows` contracts.  Row
        ``i`` depends only on its own seed, so calls over any partition of
        the positions produce bitwise-identical rows.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo < hi <= len(self.s1_order):
            raise ValueError(
                f"positions [{lo}, {hi}) outside [0, {len(self.s1_order)})"
            )
        if self.count_width == 0:
            return np.zeros((hi - lo, 0), dtype=self.dtype)
        sequences = self._build_windows(hi - lo)
        table, row = self.table, self.row_of_col
        first = max(lo, 1)  # the position of the block's first g^i
        windows = np.lib.stride_tricks.sliding_window_view(
            sequences, hi - first, axis=-1
        )
        offset = (self._start + (first - 1)) % (len(self.s1_order) - 1)
        if sequences.ndim == 2:
            block = windows[row, offset]
        else:
            block = table[row[:, None], windows[offset]]
        if lo == 0:
            block = np.concatenate([table[row, 0][:, None], block], axis=1)
        return block.T


class _Weighting:
    """The exact-integer weighting of one fusion group's phase, shared by
    the s1 sweep and the σ descent: one (member, list size) grouping per
    phase.

    An *item* is one (edge, bucket w) pair whose count enters the
    weighting: for r = 1 every (edge, w), w ∈ {0, 1}, bucket-major (item
    ``w·E + e``); for r > 1 the pairs whose bucket-w interval is nonempty
    at both endpoints, edge-major.  Each item has two *incidences*, its
    endpoints x, which add the item's count — the number of seeds of a
    block putting both endpoints in bucket w — to the group ``(j, k)`` of
    its member j with ``k = k_w(x)``; k = 0 carries weight 0 and is
    dropped.  Groups are numbered in (member, ascending k) order
    (``group_offsets`` cuts them into members), and ``inc_item`` /
    ``inc_group`` list the incidences.

    :meth:`sums` forms the exact sums ``S`` per group of one row of item
    counts; :meth:`values` turns ``S`` into ``(Σ_k S_k / k, k ascending) /
    scale`` per member; a member without incidences gets exactly 0.0.
    Groups whose ``S`` is 0 add an exact 0.0.  The exactness guard checks
    once that no ``S`` can reach 2^53 when every count lies in [0,
    ``scale``] (and every constant in [−``scale``, ``scale``]): below that
    every partial sum of nonnegative integers is an integer that float64
    holds exactly, in any summation order.
    """

    def __init__(self, group: PhaseEstimator):
        eu, ev = group.edges_u, group.edges_v
        if group.num_buckets == 2:
            self.item_edge = np.tile(np.arange(len(eu), dtype=np.int64), 2)
            self.item_w = np.repeat(np.arange(2, dtype=np.int64), len(eu))
        else:
            width = np.diff(group.thresholds, axis=1) > 0
            self.item_edge, self.item_w = np.nonzero(width[eu] & width[ev])
        ie, iw = self.item_edge, self.item_w
        item_member = group.edge_member[ie]
        ks = np.concatenate([group.counts[eu[ie], iw], group.counts[ev[ie], iw]])
        keep = ks > 0
        self.inc_item = np.tile(np.arange(len(ie), dtype=np.int64), 2)[keep]
        span = int(ks.max(initial=0)) + 1
        key = np.tile(item_member, 2)[keep] * span + ks[keep]
        # Groups are the present keys in ascending order, numbered by rank:
        # the same numbering as a sorted unique, without the sort.
        present = np.bincount(key) > 0
        groups = np.flatnonzero(present)
        self.inc_group = (np.cumsum(present) - 1)[key]
        num_groups = len(groups)
        self.ascending_k = _AscendingKSum(groups, span, group.num_members)
        self.group_member = self.ascending_k.owner
        self.group_k = self.ascending_k.k
        self.group_offsets = np.searchsorted(
            self.group_member, np.arange(group.num_members + 1)
        )
        # |S| and every partial sum are at most scale times the group's
        # number of incidences.
        per_group = np.bincount(self.inc_group, minlength=num_groups)
        self.sum_bound = int(group.scale) * int(per_group.max(initial=0))
        if self.sum_bound >= _EXACT_INT_LIMIT:
            raise ValueError(
                f"seed-sweep sums may reach {self.sum_bound} >= 2^53: "
                "the integer weighting would not be exact"
            )

    def sums(self, item_counts: np.ndarray) -> np.ndarray:
        """float64 ``S`` per group of one row of nonnegative item counts,
        exact (see the class docstring)."""
        return np.bincount(
            self.inc_group,
            weights=item_counts[self.inc_item],
            minlength=len(self.group_k),
        )

    def values(self, sums: np.ndarray, scale: int) -> np.ndarray:
        """(members × rows) ``(Σ_k S_k / k, k ascending) / scale`` of the
        (groups × rows) exact sums ``S``."""
        total = self.ascending_k(sums)
        total /= float(scale)
        return total


class SeedSweepWorkspace:
    """Seed-independent state for the ``E[Σ_e X_e | s1]`` sweep of one
    fusion group.

    ``group`` is a :class:`PhaseEstimator`.  Its members share the seed
    space ``(m, b, num_buckets)`` — the field GF(2^m), m = max(a, b), the
    coin accuracy and the bucket count — but carry their own conflict
    graphs, input colorings ψ and ψ-domain bits a.  Each member's counts
    and weighting are functions of its own integers, so its rows equal
    those of a group of one.  The dominant (seeds × columns) work — the
    count windows and their contraction — runs ONCE over the group's flat
    edge arrays.

    Constructing the workspace once per phase hoists everything that does
    not depend on the seeds out of the blocked 2^m enumeration
    (:meth:`val1`):

    * the per-edge arrays (ψ-differences, endpoint threshold rows) are
      read from the group once instead of once per block;
    * edge columns are deduplicated by the key ``(ψ_u ⊕ ψ_v,
      thresholds(u), thresholds(v))``, and the count windows are cut for
      unique columns only.  The key's
      1 + 2·(2^r + 1) columns are packed, most significant first, into one
      int64 mixed-radix rank per edge (:func:`_unique_rows`; for r = 1 the
      constant threshold columns 0 and 2^b drop out), and one 1-D
      :func:`~repro.graphs.sorting.unique` of the ranks yields the unique
      columns and ``inverse``.
      A rank compares as its row compares lexicographically, so the
      unique columns are in a row-wise ``np.unique``'s order: sorted by
      ψ-difference, then by the thresholds of u, then by those of v;
    * the weighting (:class:`_Weighting`, kept as ``weighting`` for the σ
      descent): every edge endpoint x of member j contributes
      ``n_w / k_w(x)`` for each bucket w, where ``n_w`` is the number of σ
      putting both endpoints in bucket w.  Grouping endpoints by
      ``(j, k = k_w(x))`` gives

          2^b · E[Σ_e X_e | s1] = Σ_k S[s1, j, k] / k,
          S[s1, j, k] = Σ_c mult[(j, k), c] · counts[s1, c] (+ const[j, k]).

      For r = 1 the bucket-1 count follows by inclusion-exclusion,
      ``n_both1 = 2^b − t_u − t_v + n_both0``, so bucket-1 endpoints add
      multiplicity to the ``n_both0`` column and their ``2^b − t_u − t_v``
      to ``const``.  ``mult`` is kept dense, as float64 (groups × count
      columns) matrices, one per *member block*: the members are cut into
      consecutive blocks of at most ``_TABLE_BLOCK_ENTRIES`` (groups ×
      columns) entries, a block's columns being the ones its members read
      (a one-member block is always allowed).  :meth:`weight_rows` forms
      each block's ``S`` as one matrix product with the count windows.

    The weighting's exactness guard checks once that no ``S`` can reach
    2^53; every partial sum of the product is a nonnegative integer below
    that, so the product is exact in any summation order, and each
    ``val1`` entry is a fixed function of exact integers of its own seed
    row.  A member without edges has no incidences, so its rows are
    exactly 0.0.
    """

    def __init__(self, group: PhaseEstimator):
        self.group = group
        self.family = group.family
        self.b = group.b
        self.scale = group.scale
        self.num_buckets = group.num_buckets
        #: Whether any member has an edge (every row is 0.0 otherwise).
        self.live = group.num_edges > 0
        self.psi_diff = group.psi_diff
        self.thr_u = group.thresholds[group.edges_u]
        self.thr_v = group.thresholds[group.edges_v]
        index, self.inverse = _unique_rows(
            [self.psi_diff, *self.thr_u.T, *self.thr_v.T]
        )
        self.uniq_psi_diff = self.psi_diff[index]
        self.uniq_thr_u = self.thr_u[index]
        self.uniq_thr_v = self.thr_v[index]
        #: The pure-integer count kernel.
        self.kernel = SweepCountKernel(
            self.family,
            self.num_buckets,
            self.uniq_psi_diff,
            self.uniq_thr_u,
            self.uniq_thr_v,
        )
        self.weighting = _Weighting(group)
        self.sum_bound = self.weighting.sum_bound
        self._plan_contraction()

    def _plan_contraction(self) -> None:
        """The dense multiplicity matrices, one per member block, and the
        r = 1 constants.

        Each item reads the count column holding its edge's bucket count
        (for r = 1 the ``n_both0`` column, plus the constant ``2^b − t_u −
        t_v`` for bucket 1)."""
        weighting = self.weighting
        edge_col = self.inverse[weighting.item_edge]
        num_groups = len(weighting.group_k)
        self.const = None
        if self.num_buckets == 2:
            item_col = edge_col
            edge = weighting.item_edge
            item_const = np.where(
                weighting.item_w == 1,
                int(self.scale) - self.thr_u[edge, 1] - self.thr_v[edge, 1],
                0,
            )
            self.const = np.bincount(
                weighting.inc_group,
                weights=item_const[weighting.inc_item],
                minlength=num_groups,
            )[:, None]
        else:
            col_of = np.zeros(
                (self.num_buckets, len(self.uniq_psi_diff)), dtype=np.int64
            )
            for w, block in enumerate(self.kernel.bucket_columns):
                if block is not None:
                    alive, start = block
                    col_of[w] = start + np.cumsum(alive) - 1
            item_col = col_of[weighting.item_w, edge_col]
        #: The count column of each weighting item.
        self.item_col = item_col
        inc_col = item_col[weighting.inc_item]
        inc_group = weighting.inc_group
        width = self.kernel.count_width
        if num_groups * width <= _TABLE_BLOCK_ENTRIES:
            bounds = [0, self.group.num_members]
        else:
            bounds = self._member_blocks(inc_group, inc_col)
        #: ``(first group, end group, columns or None for all, matrix)``.
        self.blocks = []
        offsets = weighting.group_offsets
        for lo, hi in zip(bounds, bounds[1:]):
            g0, g1 = int(offsets[lo]), int(offsets[hi])
            if g0 == g1:
                continue
            if len(bounds) == 2:
                cols, local, group_ids = None, inc_col, inc_group
            else:
                mine = (inc_group >= g0) & (inc_group < g1)
                cols, local = unique(inc_col[mine], return_inverse=True)
                group_ids = inc_group[mine] - g0
            num_cols = width if cols is None else len(cols)
            matrix = np.bincount(
                group_ids * num_cols + local, minlength=(g1 - g0) * num_cols
            ).reshape(g1 - g0, num_cols)
            self.blocks.append((g0, g1, cols, matrix.astype(np.float64)))

    def _member_blocks(self, inc_group, inc_col) -> list:
        """Member bounds of consecutive blocks whose groups times the sum of
        their members' distinct columns (at least the block's columns) stay
        within ``_TABLE_BLOCK_ENTRIES``; a block holds at least one member."""
        weighting = self.weighting
        num_members = self.group.num_members
        width = max(1, self.kernel.count_width)
        member = weighting.group_member[inc_group]
        pairs = unique(member * width + inc_col)
        cols = np.zeros(num_members + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // width, minlength=num_members), out=cols[1:])
        groups = weighting.group_offsets
        bounds = [0]
        while bounds[-1] < num_members:
            lo = bounds[-1]
            entries = (groups[lo + 1:] - groups[lo]) * (cols[lo + 1:] - cols[lo])
            fit = int(np.searchsorted(entries, _TABLE_BLOCK_ENTRIES, side="right"))
            bounds.append(lo + max(1, fit))
        return bounds

    def weight_rows(self, counts: np.ndarray) -> np.ndarray:
        """The weighting step: count rows → expectation columns.

        ``counts`` is any block of seed rows as produced by
        :meth:`SweepCountKernel.count_rows` (any integer dtype); returns the
        (num members, num rows) expectation matrix for that block.  Each
        member block's exact sums ``S`` are one float64 matrix product of
        its multiplicity matrix with the block's count columns, the r = 1
        constants are added after it, and each entry is then ``(Σ_k S[j, k]
        / k) / 2^b`` with k ascending — a fixed function of exact integers
        of its own seed row, so the result is bit-identical for any
        blocking of the seeds, and the sums do not depend on how columns
        were deduplicated.

        The product is ``np.einsum``, numpy's own single-threaded loops,
        not a BLAS ``matmul``: BLAS is faster alone but splits products
        of this size over threads, and on a 2-core host with one other
        busy process its calls stalled 10–30× waiting for a core.
        """
        counts = np.asarray(counts)
        if counts.shape[1] != self.kernel.count_width or not np.issubdtype(
            counts.dtype, np.integer
        ):
            raise ValueError(
                f"counts must be integers with {self.kernel.count_width} "
                f"columns, got {counts.dtype} {counts.shape}"
            )
        weighting = self.weighting
        sums = np.empty((len(weighting.group_k), counts.shape[0]), dtype=np.float64)
        columns = counts.T.astype(np.float64)
        for g0, g1, cols, matrix in self.blocks:
            np.einsum(
                "gc,cb->gb",
                matrix,
                columns if cols is None else columns[cols],
                out=sums[g0:g1],
            )
        if self.const is not None:
            sums += self.const
        return weighting.values(sums, int(self.scale))

    def val1(self, block: int) -> np.ndarray:
        """``E[Σ_e X_e | s1]`` for every s1 ∈ GF(2^m), as a (num members,
        2^m) matrix indexed by s1.

        The seeds are counted in blocks of ``block`` consecutive positions
        of the kernel's discrete-log order (:meth:`SweepCountKernel.count_rows`
        then :meth:`weight_rows`), and each block's columns are written to
        the seeds' own indices.
        """
        order = len(self.kernel.s1_order)
        val1 = np.empty((self.group.num_members, order), dtype=np.float64)
        for lo in range(0, order, block):
            hi = min(order, lo + block)
            val1[:, self.kernel.s1_order[lo:hi]] = self.weight_rows(
                self.kernel.count_rows(lo, hi)
            )
        return val1


class _SigmaDescent:
    """Per-level exact counts of a fusion group's σ descent (see
    :func:`exact_by_sigma_grouped`), read from the phase's count tables.

    Holds the group's weighted items — hash values under each member's own
    s1, thresholds, and each item's rows of the sweep kernel's
    :attr:`~SweepCountKernel.levels` (one row for r = 1, where the items
    are the edges and their count column is the workspace's ``inverse``;
    the four prefix rows of its count column for r > 1) — and the phase's
    :class:`_Weighting`, all O(edges · 2^r).
    """

    def __init__(
        self, group: PhaseEstimator, s1_values: np.ndarray, sweep: SeedSweepWorkspace
    ):
        eu, ev = group.edges_u, group.edges_v
        s1_node = np.repeat(s1_values, np.diff(group.node_offsets))
        g = group.family.field.mul_vec(s1_node, group.psi) >> (
            group.family.m - group.b
        )
        weighting = sweep.weighting
        if group.num_buckets == 2:
            # The level counts are per edge, [n_both0 | n_both1]: the
            # weighting's bucket-major items.
            item_edge = np.arange(len(eu), dtype=np.int64)
            self.bounds = (sweep.thr_u[:, 1], sweep.thr_v[:, 1])
            columns = sweep.inverse
        else:
            # The level counts are per item.
            item_edge, item_w = weighting.item_edge, weighting.item_w
            self.bounds = (
                sweep.thr_u[item_edge, item_w],
                sweep.thr_u[item_edge, item_w + 1],
                sweep.thr_v[item_edge, item_w],
                sweep.thr_v[item_edge, item_w + 1],
            )
            columns = sweep.item_col
        self.rows = sweep.kernel.column_rows[:, columns].ravel()
        self.levels = sweep.kernel.levels
        self.item_est = group.edge_member[item_edge]
        self.g_u = g[eu[item_edge]]
        self.g_v = g[ev[item_edge]]
        self.d = self.g_u ^ self.g_v
        self.weighting = weighting

    def _count_below(self, width, d, t1, t2) -> np.ndarray:
        """``N(d, t1, t2)`` on a block of 2^width values, thresholds in
        [0, 2^width], for the items' rows in order.  Where both thresholds
        fall strictly inside the block they are the rows' thresholds mod
        2^width, so the count is the row's level-``width`` entry at d.
        Elsewhere N(d, 0, ·) = N(d, ·, 0) = 0 and N(d, 2^width, t) =
        N(d, t, 2^width) = t (z ↦ z ⊕ d is a bijection)."""
        full = 1 << width
        out = np.where(t1 == full, t2, np.where(t2 == full, t1, 0))
        inner = np.flatnonzero((t1 > 0) & (t1 < full) & (t2 > 0) & (t2 < full))
        out[inner] = self.levels[width][self.rows[inner], d[inner]]
        return out

    def block_sums(self, width: int, prefix: np.ndarray) -> np.ndarray:
        """Exact float64 sums ``S`` per group over the σ block of each
        member whose top ``b − width`` bits are its ``prefix``.

        On that block y_x = g_x ⊕ σ sweeps one dyadic block of 2^width
        values from ``base_x`` while y_u and y_v differ by ``d`` in their
        low bits, so ``y_x < t`` becomes ``z < clip(t − base_x)`` for the
        low-bit counter z of :meth:`_count_below`.
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
            n0 = self._count_below(width, d, a_u, a_v)
            counts = np.concatenate([n0, full - a_u - a_v + n0])
        else:
            lo_u, hi_u, lo_v, hi_v = (
                np.clip(t - base, 0, full)
                for t, base in zip(self.bounds, (base_u, base_u, base_v, base_v))
            )
            n = self._count_below(
                width,
                np.tile(d, 4),
                np.concatenate([hi_u, lo_u, hi_u, lo_u]),
                np.concatenate([hi_v, hi_v, lo_v, lo_v]),
            ).reshape(4, -1)
            counts = n[0] - n[1] - n[2] + n[3]
        return self.weighting.sums(counts)


def exact_by_sigma_grouped(
    group: PhaseEstimator, s1_values, sweep: SeedSweepWorkspace | None = None
) -> tuple:
    """Fix σ bit by bit for every member of a fusion group (Lemma 2.6).

    Once s1 is fixed, Eq. (7) fixes σ's b bits most significant first:
    with the prefix p of i bits fixed, each child ``c`` is the dyadic
    block of 2^L values of σ with top bits ``(p << 1) | c``, L = b − i − 1,
    and its conditional expectation is the mean of Σ_e X_e over the block.
    XOR by ``g_x`` maps the block onto a dyadic block of y_x = g_x ⊕ σ, so
    the number of block values putting both endpoints in bucket w is a
    count on width L with thresholds clipped to the block
    (:meth:`_SigmaDescent.block_sums`; for r = 1 the bucket-1 count follows
    by inclusion-exclusion, for r > 1 each bucket's count is four prefix
    counts).  When a clipped threshold is 0 or 2^L the count has a closed
    form; otherwise both cut the block strictly inside, each is its
    threshold mod 2^L, and the count is one gather from level L of the
    sweep's count tables (:attr:`SweepCountKernel.levels`).  So the σ
    descent counts nothing of its own, and at the root (L = b) it reads the
    s1 sweep's own ``T[row, d]``.  Per level the c = 0 child's counts are
    summed into exact ``S`` per (member, list size k); the c = 1 child is
    the parent's ``S`` minus that, exactly; each child's value is
    ``(Σ_k S_k / k, k ascending) / 2^L`` (:meth:`_Weighting.values`, the
    formula of ``val1``); and ``v1 < v0`` picks bit 1, so an exact tie
    keeps the 0 branch.  Every level runs once over the whole group, and
    no array indexed by σ is built: memory is O(edges · 2^r) per level.

    ``s1_values`` holds one s1 per member.  ``sweep`` is the phase's
    :class:`SeedSweepWorkspace`, whose count tables, column map and
    (member, k) grouping the descent reads; it is built from ``group``
    when not given.  Returns the arrays ``(sigma, traces, finals,
    roots)``, one row per member: the chosen σ, the chosen child's value
    after each bit (the Eq. (7) trace, members × b), the value of the
    single σ left (the exact potential at (s1, σ)), and the value of the
    whole σ range — the same function of the same table counts as
    ``val1[s1]``, so the two agree bit for bit.  A member without edges
    gets σ = 0 and all-zero values.  Raises ``ValueError`` for an s1
    outside GF(2^m).
    """
    b = group.b
    s1_values = np.asarray(s1_values, dtype=np.int64).reshape(-1)
    if len(s1_values) != group.num_members:
        raise ValueError(
            f"need one s1 per member, got {len(s1_values)} for "
            f"{group.num_members}"
        )
    outside = (s1_values < 0) | (s1_values >= group.family.field.order)
    if outside.any():
        group.family.field._check(int(s1_values[outside][0]))
    if sweep is None:
        sweep = SeedSweepWorkspace(group)
    weighting = sweep.weighting
    descent = _SigmaDescent(group, s1_values, sweep)
    prefix = np.zeros(group.num_members, dtype=np.int64)
    parent = descent.block_sums(b, prefix)
    root = weighting.values(parent[:, None], 1 << b)[:, 0]
    chosen = []
    for width in range(b - 1, -1, -1):
        zero = descent.block_sums(width, prefix << 1)
        values = weighting.values(np.stack([zero, parent - zero], axis=1), 1 << width)
        take1 = values[:, 1] < values[:, 0]
        prefix = (prefix << 1) | take1
        parent = np.where(take1[weighting.group_member], parent - zero, zero)
        chosen.append(np.where(take1, values[:, 1], values[:, 0]))
    return prefix, np.stack(chosen, axis=1), chosen[-1], root


def buckets_for_seed_grouped(
    group: PhaseEstimator, s1_values, sigma_values
) -> np.ndarray:
    """The bucket each node of a fusion group chooses under its member's
    seed ``(s1_values[j], sigma_values[j])``, flat in the group's node
    order.

    One GF multiply with per-node ``s1`` and one broadcast comparison of
    every node's y value against its row of the threshold matrix serve the
    whole group.
    """
    sizes = np.diff(group.node_offsets)
    s1_node = np.repeat(np.asarray(s1_values, dtype=np.int64), sizes)
    sigma_node = np.repeat(np.asarray(sigma_values, dtype=np.int64), sizes)
    g = group.family.field.mul_vec(s1_node, group.psi) >> (
        group.family.m - group.b
    )
    buckets = select_buckets(group.thresholds, g ^ sigma_node)
    if (group.counts[np.arange(len(buckets)), buckets] <= 0).any():
        raise AssertionError(
            "selected an empty bucket: threshold construction is broken"
        )
    return buckets


def _segment_offsets(owner: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Where each member's run starts in the sorted ``owner`` ids, then
    ``len(owner)``: the member offsets, length members + 1."""
    return np.append(np.searchsorted(owner, members), len(owner))


class PhaseEstimator:
    """Exact survival/potential arithmetic of one r-bit extension phase,
    for one fusion group: instances that share the seed space
    ``(m, b, 2^r)``.

    The members' arrays are flat, member after member:

    * ``psi``, ``counts`` (the ``(n, 2^r)`` bucket counts k_w) and
      ``thresholds`` (:func:`~repro.hashing.coins.bucket_thresholds`) are
      per node;
    * ``edges_u`` / ``edges_v`` are the alive conflict edges E_{ℓ-1} in
      group-local node ids, and ``psi_diff`` is ψ_u ⊕ ψ_v per edge;
    * member j owns nodes ``node_offsets[j]:node_offsets[j + 1]`` and edges
      ``edge_offsets[j]:edge_offsets[j + 1]`` (both arrays have length
      members + 1).

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

    The constructor builds a group of one; :meth:`build_group` gathers a
    group from a batch's union arrays.
    """

    def __init__(
        self,
        family: PairwiseFamily,
        psi: np.ndarray,
        bucket_counts: np.ndarray,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
    ):
        self.family = family
        self.b = family.b
        self.scale = np.int64(1) << self.b
        self.psi = np.asarray(psi, dtype=np.int64)
        self.counts = np.asarray(bucket_counts, dtype=np.int64)
        self.num_buckets = self.counts.shape[1]
        self.thresholds = bucket_thresholds(self.counts, self.b)
        self.edges_u = np.asarray(edges_u, dtype=np.int64)
        self.edges_v = np.asarray(edges_v, dtype=np.int64)
        self.psi_diff = self.psi[self.edges_u] ^ self.psi[self.edges_v]
        if (self.psi_diff == 0).any():
            raise ValueError("input coloring is not proper on the conflict graph")
        self.node_offsets = np.array([0, len(self.psi)], dtype=np.int64)
        self.edge_offsets = np.array([0, len(self.edges_u)], dtype=np.int64)

    @classmethod
    def build_group(
        cls,
        family: PairwiseFamily,
        selected: np.ndarray,
        node_inst: np.ndarray,
        edge_inst: np.ndarray,
        psi: np.ndarray,
        bucket_counts: np.ndarray,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
    ) -> "PhaseEstimator":
        """The fusion group of the batch instances flagged in ``selected``
        (one bool per instance), gathered from the batch's union arrays.

        ``psi`` and ``bucket_counts`` are per union node, ``edges_u`` /
        ``edges_v`` are the alive edges in union node ids, and
        ``node_inst`` / ``edge_inst`` give the instance of every node and
        edge (non-decreasing, as in the union layout).  The masks
        ``selected[node_inst]`` and ``selected[edge_inst]`` pick the
        members' nodes and edges, already in member order; the edges are
        renumbered to group-local ids, and the thresholds and
        ψ-differences are computed once for the whole group.
        """
        selected = np.asarray(selected, dtype=bool)
        members = np.flatnonzero(selected)
        nodes = selected[node_inst]
        edges = selected[edge_inst]
        # The group-local id of each selected union node.
        local = np.cumsum(nodes) - 1
        group = cls(
            family,
            np.asarray(psi)[nodes],
            np.asarray(bucket_counts)[nodes],
            local[edges_u[edges]],
            local[edges_v[edges]],
        )
        group.node_offsets = _segment_offsets(node_inst[nodes], members)
        group.edge_offsets = _segment_offsets(edge_inst[edges], members)
        return group

    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges_u)

    @property
    def edge_member(self) -> np.ndarray:
        """The member of each edge."""
        return np.repeat(
            np.arange(self.num_members, dtype=np.int64), np.diff(self.edge_offsets)
        )
