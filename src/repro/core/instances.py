"""(degree+1)-list-coloring instances (Section 2, Observation 4.1).

An instance is a graph together with a color space ``[C] = {0, .., C-1}``
and, per node v, a color list ``L(v) ⊆ [C]`` with ``|L(v)| ≥ deg(v) + 1``.
The paper assumes ``C = poly(n)`` so a color fits in O(1) CONGEST messages;
the constructors here enforce that and the solvers check it.

Color lists live in a :class:`ColorListStore` — a CSR-style flat layout
(sorted ``values`` + ``offsets``) mirroring the graph's adjacency arrays —
so every per-phase list operation (bucket counting, shrinking, subset
extraction, batched deletion) is a flat segmented array op instead of a
Python loop over nodes.

``make_delta_plus_one_instance`` implements Observation 4.1: the classic
(Δ+1)-coloring problem reduces to (degree+1)-list coloring by giving node v
the list ``{0, .., deg(v)}`` over the color space ``[Δ+1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.sorting import unique

__all__ = [
    "BatchedListColoringInstance",
    "ColorListStore",
    "ListColoringInstance",
    "make_delta_plus_one_instance",
    "make_random_lists_instance",
]


def ceil_log2(x: int) -> int:
    """⌈log2 x⌉ for x >= 1 (0 for x = 1)."""
    if x < 1:
        raise ValueError(f"ceil_log2 requires x >= 1, got {x}")
    return int(x - 1).bit_length()


class ColorListStore:
    """CSR-style store of per-node color lists.

    The contract (mirroring ``Graph``'s adjacency arrays):

    * ``values`` — one flat int64 array holding every list back to back,
      strictly increasing within each node's segment (sorted, deduped);
    * ``offsets`` — int64 array of length n+1; node v's list is
      ``values[offsets[v]:offsets[v+1]]`` and its size is the offset diff.

    Both arrays are read-only; every mutation (:meth:`select`,
    :meth:`delete_pairs`) swaps in freshly built arrays, so views handed out
    by :meth:`__getitem__` are never silently invalidated in place.
    """

    __slots__ = ("values", "offsets")

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        values.flags.writeable = False
        offsets.flags.writeable = False
        self.values = values
        self.offsets = offsets

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(cls, lists, n: int | None = None) -> "ColorListStore":
        """Build a store from ragged per-node lists (sort + dedup, batched).

        Accepts any iterable of per-node sequences.  Sorting and dedup run
        as one vectorized pass over the concatenated values (one sort-based
        ``unique`` of encoded keys), not per node.
        """
        if isinstance(lists, ColorListStore):
            if n is not None and n != lists.n:
                raise ValueError(f"store has {lists.n} nodes, expected {n}")
            return lists.copy()
        lists = [np.asarray(lst, dtype=np.int64).ravel() for lst in lists]
        if n is None:
            n = len(lists)
        raw_sizes = np.array([len(lst) for lst in lists], dtype=np.int64)
        total = int(raw_sizes.sum())
        if total == 0:
            return cls(
                np.empty(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
            )
        flat = np.concatenate(lists) if len(lists) > 1 else lists[0].copy()
        node_ids = np.repeat(np.arange(n, dtype=np.int64), raw_sizes)
        vmax = int(flat.max(initial=0))
        vmin = int(flat.min(initial=0))
        if vmin >= 0 and (vmax + 1) * n < np.iinfo(np.int64).max:
            # Encode (node, value) as one scalar: one unique sorts every
            # segment and dedups within it simultaneously.
            base = np.int64(vmax + 1)
            keys = unique(node_ids * base + flat)
            values = keys % base
            owners = keys // base
        else:  # negative values are rejected later; keep them to report
            order = np.lexsort((flat, node_ids))
            node_s, flat_s = node_ids[order], flat[order]
            keep = np.empty(len(flat_s), dtype=bool)
            keep[0] = True
            np.logical_or(
                node_s[1:] != node_s[:-1], flat_s[1:] != flat_s[:-1], out=keep[1:]
            )
            values = flat_s[keep]
            owners = node_s[keep]
        sizes = np.bincount(owners, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(values, offsets)

    def copy(self) -> "ColorListStore":
        return ColorListStore(self.values.copy(), self.offsets.copy())

    def __reduce__(self):
        """Pickle as the two flat arrays (the worker-dispatch path of the
        process backend); ``__init__`` re-applies the read-only flags on the
        receiving side, which default array pickling would drop."""
        return (ColorListStore, (self.values, self.offsets))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @property
    def total(self) -> int:
        """Total number of stored list entries."""
        return len(self.values)

    @property
    def sizes(self) -> np.ndarray:
        """Per-node list sizes ``|L(v)|`` (offset diffs)."""
        return np.diff(self.offsets)

    def node_ids(self) -> np.ndarray:
        """Owner node of every flat value: ``np.repeat(arange(n), sizes)``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.sizes)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int) -> np.ndarray:
        """Read-only view of node v's sorted color list."""
        return self.values[self.offsets[v]:self.offsets[v + 1]]

    def __iter__(self):
        for v in range(self.n):
            yield self[v]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColorListStore(n={self.n}, total={self.total})"

    def to_lists(self) -> list:
        """Materialize ragged per-node copies (tests / slow paths only)."""
        return [self[v].copy() for v in range(self.n)]

    def _keys(self, base: np.int64) -> np.ndarray:
        """Encoded (node, value) scalars — globally sorted and unique."""
        return self.node_ids() * base + self.values

    # ------------------------------------------------------------------
    # Batched operations (the per-phase hot path)
    # ------------------------------------------------------------------
    def subset(self, nodes: np.ndarray) -> "ColorListStore":
        """CSR slice: the lists of ``nodes``, renumbered to
        0..len(nodes)-1 in the given order.  Fully vectorized gather;
        ``nodes`` may repeat (each occurrence gets its own segment)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.offsets[nodes]
        counts = self.offsets[nodes + 1] - starts
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return ColorListStore(np.empty(0, dtype=np.int64), offsets)
        cum_excl = offsets[:-1]
        idx = np.repeat(starts - cum_excl, counts) + np.arange(total)
        return ColorListStore(self.values[idx], offsets)

    def select(self, keep: np.ndarray) -> "ColorListStore":
        """New store keeping only the flat values where ``keep`` is True.

        ``keep`` is a boolean mask over ``values``; segment order (hence
        sortedness) is preserved.  This is the one-mask list shrink of the
        prefix-extension phases.
        """
        keep = np.asarray(keep, dtype=bool)
        kept = np.bincount(self.node_ids()[keep], minlength=self.n)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(kept, out=offsets[1:])
        return ColorListStore(self.values[keep], offsets)

    def delete_pairs(self, nodes: np.ndarray, colors: np.ndarray) -> None:
        """Delete color ``colors[i]`` from node ``nodes[i]``'s list, in place
        (arrays are swapped).  Pairs may repeat; missing pairs are no-ops.

        One ``np.searchsorted`` over the encoded (node, value) keys replaces
        the per-node ``np.isin`` loop of the ragged implementation.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        colors = np.asarray(colors, dtype=np.int64)
        if nodes.size == 0 or self.total == 0:
            return
        base = np.int64(
            max(int(self.values.max(initial=0)), int(colors.max(initial=0))) + 1
        )
        keys = self._keys(base)
        del_keys = nodes * base + colors
        pos = np.searchsorted(keys, del_keys)
        in_range = pos < len(keys)
        cand = pos[in_range]
        hits = cand[keys[cand] == del_keys[in_range]]
        if hits.size == 0:
            return
        keep = np.ones(len(keys), dtype=bool)
        keep[hits] = False
        store = self.select(keep)
        self.values = store.values
        self.offsets = store.offsets

    def validate_segments_sorted(self) -> None:
        """Raise unless every segment is strictly increasing (the CSR
        contract); vectorized over all boundaries at once."""
        if self.total < 2:
            return
        inner = np.diff(self.values) > 0
        # Boundaries between consecutive segments are exempt.
        boundary = np.zeros(self.total - 1, dtype=bool)
        cuts = self.offsets[1:-1]
        boundary[cuts[(cuts > 0) & (cuts < self.total)] - 1] = True
        if not (inner | boundary).all():
            bad = int(np.argmin(inner | boundary))
            owner = int(np.searchsorted(self.offsets, bad, side="right")) - 1
            raise ValueError(
                f"node {owner}: color list is not strictly increasing"
            )


def _validate_lists(
    graph: Graph, lists: ColorListStore, color_space: int | np.ndarray
) -> None:
    """Raise ``ValueError`` unless ``lists`` holds one list per node of
    ``graph``, each of size ≥ deg + 1 with its colors in ``[0, space)``;
    ``color_space`` is one space for every node or an array of per-node
    spaces."""
    if lists.n != graph.n:
        raise ValueError(f"expected {graph.n} color lists, got {lists.n}")
    if graph.n == 0:
        return
    sizes = lists.sizes
    short = sizes < graph.degrees + 1
    if short.any():
        v = int(np.argmax(short))
        raise ValueError(
            f"node {v}: list size {int(sizes[v])} < deg+1 = {graph.degree(v) + 1}"
        )
    # Segments are sorted, so first/last entries bound each whole list;
    # sizes ≥ 1 here, so offsets index real segment ends.
    lo = lists.values[lists.offsets[:-1]]
    hi = lists.values[lists.offsets[1:] - 1]
    space = np.broadcast_to(color_space, sizes.shape)
    bad = (lo < 0) | (hi >= space)
    if bad.any():
        v = int(np.argmax(bad))
        raise ValueError(
            f"node {v}: colors outside the color space [{int(space[v])}]"
        )


@dataclass
class ListColoringInstance:
    """A (degree+1)-list-coloring instance.

    Attributes
    ----------
    graph:
        The communication graph G = (V, E).
    color_space:
        The size C of the global color space [C].
    lists:
        A :class:`ColorListStore`; ``lists[v]`` is a read-only sorted int64
        view of L(v).  The constructor also accepts ragged per-node
        sequences and normalizes them into a store.
    """

    graph: Graph
    color_space: int
    lists: ColorListStore = field(repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.lists, ColorListStore):
            self.lists.validate_segments_sorted()
        else:
            if len(self.lists) != self.graph.n:
                raise ValueError(
                    f"expected {self.graph.n} color lists, got {len(self.lists)}"
                )
            self.lists = ColorListStore.from_lists(self.lists, self.graph.n)
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` unless the instance is well-formed."""
        if self.color_space < 1:
            raise ValueError(f"color space must be >= 1, got {self.color_space}")
        _validate_lists(self.graph, self.lists, self.color_space)

    # ------------------------------------------------------------------
    @property
    def color_bits(self) -> int:
        """⌈log C⌉ — the number of prefix-extension phases."""
        return max(1, ceil_log2(self.color_space))

    @property
    def n(self) -> int:
        return self.graph.n

    def list_sizes(self) -> np.ndarray:
        return self.lists.sizes

    def copy_lists(self) -> ColorListStore:
        return self.lists.copy()


def _concatenate_blocks(graphs, stores):
    """Union graph + flat store from per-block ``(graph, store)`` pairs.

    Block j's node ids shift by the cumulative node count; each block's
    canonical edge arrays land in a contiguous stretch of the union arrays
    (so the union stays canonical and takes the ``Graph.from_arrays`` fast
    path), and the list offsets are re-based the same way.  The shared
    kernel of :meth:`BatchedListColoringInstance.from_instances` (blocks =
    instances) and :meth:`BatchedListColoringInstance.merge` (blocks =
    shards); returns ``(graph, lists, node_base)`` with ``node_base`` the
    per-block node offsets (length ``len(graphs) + 1``).
    """
    node_base = np.zeros(len(graphs) + 1, dtype=np.int64)
    for j, graph in enumerate(graphs):
        node_base[j + 1] = node_base[j] + graph.n
    total_n = int(node_base[-1])
    if graphs:
        edges_u = np.concatenate(
            [graph.edges_u + node_base[j] for j, graph in enumerate(graphs)]
        )
        edges_v = np.concatenate(
            [graph.edges_v + node_base[j] for j, graph in enumerate(graphs)]
        )
        values = np.concatenate([store.values for store in stores])
    else:
        edges_u = np.empty(0, dtype=np.int64)
        edges_v = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.int64)
    list_offsets = np.zeros(total_n + 1, dtype=np.int64)
    base = 0
    for j, store in enumerate(stores):
        pos = int(node_base[j])
        list_offsets[pos + 1:pos + store.n + 1] = store.offsets[1:] + base
        base += store.total
    return (
        Graph.from_arrays(total_n, edges_u, edges_v),
        ColorListStore(values, list_offsets),
        node_base,
    )


@dataclass
class BatchedListColoringInstance:
    """A batch of vertex-disjoint list-coloring instances as one array program.

    Instance ``i`` occupies the contiguous global node range
    ``[instance_offsets[i], instance_offsets[i+1])`` of a block-diagonal
    union graph; all color lists live in ONE flat :class:`ColorListStore`
    over the union nodes, mirroring how ``values``/``offsets`` already make a
    single instance's ragged lists one array pair.  Because the blocks are
    disjoint and contiguous, every per-phase operation of the prefix
    extension (bucket counting, threshold selection, list shrinking) runs on
    the union arrays unchanged, and per-instance views are plain slices.

    Attributes
    ----------
    graph:
        The union graph; every edge stays within one instance block.
    instance_offsets:
        int64 array of length ``k+1``; the node partition.
    color_spaces:
        int64 array of length ``k``; instance i's colors live in
        ``[color_spaces[i]]``.
    lists:
        One flat :class:`ColorListStore` over all union nodes.
    """

    graph: Graph
    instance_offsets: np.ndarray
    color_spaces: np.ndarray
    lists: ColorListStore = field(repr=False)
    #: Per-instance graphs, cached by :meth:`from_instances` so ``split``
    #: round-trips without recomputation (rebuilt from edge slices if absent).
    instance_graphs: list | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.instance_offsets = np.ascontiguousarray(
            self.instance_offsets, dtype=np.int64
        )
        self.color_spaces = np.ascontiguousarray(self.color_spaces, dtype=np.int64)
        if not isinstance(self.lists, ColorListStore):
            self.lists = ColorListStore.from_lists(self.lists, self.graph.n)
        self.validate()

    # ------------------------------------------------------------------
    # Construction / round-trips
    # ------------------------------------------------------------------
    @classmethod
    def from_instances(cls, instances) -> "BatchedListColoringInstance":
        """Concatenate validated instances into one batch (zero recompute).

        Node ids of instance i are shifted by ``instance_offsets[i]``; each
        instance's canonical edge arrays land in a contiguous block of the
        union arrays, so the union stays canonical and goes through the
        ``Graph.from_arrays`` fast path.
        """
        instances = list(instances)
        graph, lists, node_base = _concatenate_blocks(
            [inst.graph for inst in instances],
            [inst.lists for inst in instances],
        )
        return cls(
            graph=graph,
            instance_offsets=node_base,
            color_spaces=np.array(
                [inst.color_space for inst in instances], dtype=np.int64
            ),
            lists=lists,
            instance_graphs=[inst.graph for inst in instances],
        )

    def split(self) -> list:
        """Per-instance :class:`ListColoringInstance` views (the inverse of
        :meth:`from_instances`: graphs, color spaces and lists round-trip
        exactly)."""
        return [
            ListColoringInstance(
                self.instance_graph(i),
                int(self.color_spaces[i]),
                self.instance_lists(i),
            )
            for i in range(self.num_instances)
        ]

    def shard(self, bounds) -> list:
        """Slice the batch into contiguous instance-range shards.

        ``bounds`` is a non-decreasing sequence of instance indices starting
        at 0 and ending at ``num_instances``; shard j covers instances
        ``[bounds[j], bounds[j+1])``.  Every union array (edges, color
        spaces, list values/offsets) is sliced, not recomputed — the edge
        arrays are lexsorted so each block is one ``np.searchsorted`` range
        and shard graphs go through the trusted ``Graph.from_arrays`` path.
        :meth:`merge` is the exact inverse.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != self.num_instances:
            raise ValueError(
                f"shard bounds must run from 0 to {self.num_instances}, "
                f"got {bounds.tolist()}"
            )
        if (np.diff(bounds) < 0).any():
            raise ValueError("shard bounds must be non-decreasing")
        shards = []
        for lo_i, hi_i in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            lo = int(self.instance_offsets[lo_i])
            hi = int(self.instance_offsets[hi_i])
            start = int(np.searchsorted(self.graph.edges_u, lo, side="left"))
            stop = int(np.searchsorted(self.graph.edges_u, hi, side="left"))
            vlo = int(self.lists.offsets[lo])
            vhi = int(self.lists.offsets[hi])
            shards.append(
                BatchedListColoringInstance(
                    graph=Graph.from_arrays(
                        hi - lo,
                        self.graph.edges_u[start:stop] - lo,
                        self.graph.edges_v[start:stop] - lo,
                    ),
                    instance_offsets=self.instance_offsets[lo_i:hi_i + 1] - lo,
                    color_spaces=self.color_spaces[lo_i:hi_i],
                    lists=ColorListStore(
                        self.lists.values[vlo:vhi],
                        self.lists.offsets[lo:hi + 1] - vlo,
                    ),
                    instance_graphs=(
                        None
                        if self.instance_graphs is None
                        else self.instance_graphs[lo_i:hi_i]
                    ),
                )
            )
        return shards

    @classmethod
    def merge(cls, shards) -> "BatchedListColoringInstance":
        """Concatenate shard batches back into one batch (the inverse of
        :meth:`shard`; also accepts any vertex-disjoint batches).  Instance
        order is shard order; node ids shift by the cumulative node counts,
        exactly like :meth:`from_instances` at the batch level."""
        shards = list(shards)
        graph, lists, node_base = _concatenate_blocks(
            [shard.graph for shard in shards],
            [shard.lists for shard in shards],
        )
        instance_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [
                shard.instance_offsets[1:] + node_base[j]
                for j, shard in enumerate(shards)
            ]
        )
        color_spaces = (
            np.concatenate([shard.color_spaces for shard in shards])
            if shards
            else np.empty(0, dtype=np.int64)
        )
        cached = [shard.instance_graphs for shard in shards]
        return cls(
            graph=graph,
            instance_offsets=instance_offsets,
            color_spaces=color_spaces,
            lists=lists,
            instance_graphs=(
                None
                if any(c is None for c in cached)
                else [g for c in cached for g in c]
            ),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        return len(self.instance_offsets) - 1

    @property
    def n(self) -> int:
        """Total union node count."""
        return self.graph.n

    @property
    def instance_sizes(self) -> np.ndarray:
        return np.diff(self.instance_offsets)

    def instance_slice(self, i: int) -> slice:
        return slice(int(self.instance_offsets[i]), int(self.instance_offsets[i + 1]))

    def node_instance_ids(self) -> np.ndarray:
        """Owning instance of every union node (the instance-aware key)."""
        return np.repeat(
            np.arange(self.num_instances, dtype=np.int64), self.instance_sizes
        )

    def edge_instance_ids(self) -> np.ndarray:
        """Owning instance of every union edge (edges never cross blocks)."""
        return (
            np.searchsorted(self.instance_offsets, self.graph.edges_u, side="right")
            - 1
        )

    def instance_graph(self, i: int) -> Graph:
        """Instance i's graph with local ids 0..n_i-1."""
        if self.instance_graphs is not None:
            return self.instance_graphs[i]
        lo, hi = int(self.instance_offsets[i]), int(self.instance_offsets[i + 1])
        start = np.searchsorted(self.graph.edges_u, lo, side="left")
        stop = np.searchsorted(self.graph.edges_u, hi, side="left")
        return Graph.from_arrays(
            hi - lo,
            self.graph.edges_u[start:stop] - lo,
            self.graph.edges_v[start:stop] - lo,
        )

    def instance_lists(self, i: int) -> ColorListStore:
        """Instance i's color lists as a standalone CSR slice."""
        lo, hi = int(self.instance_offsets[i]), int(self.instance_offsets[i + 1])
        vlo, vhi = int(self.lists.offsets[lo]), int(self.lists.offsets[hi])
        return ColorListStore(
            self.lists.values[vlo:vhi].copy(),
            self.lists.offsets[lo:hi + 1] - vlo,
        )

    def copy_lists(self) -> ColorListStore:
        return self.lists.copy()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` unless the batch is well-formed."""
        offs = self.instance_offsets
        if len(offs) < 1 or offs[0] != 0:
            raise ValueError("instance_offsets must start at 0")
        if (np.diff(offs) < 0).any():
            raise ValueError("instance_offsets must be non-decreasing")
        if int(offs[-1]) != self.graph.n:
            raise ValueError(
                f"instance_offsets cover {int(offs[-1])} nodes, "
                f"graph has {self.graph.n}"
            )
        if len(self.color_spaces) != self.num_instances:
            raise ValueError(
                f"expected {self.num_instances} color spaces, "
                f"got {len(self.color_spaces)}"
            )
        if (self.color_spaces < 1).any():
            raise ValueError("every color space must be >= 1")
        if self.graph.m:
            edge_inst = self.edge_instance_ids()
            inst_v = (
                np.searchsorted(offs, self.graph.edges_v, side="right") - 1
            )
            cross = edge_inst != inst_v
            if cross.any():
                e = int(np.argmax(cross))
                raise ValueError(
                    f"edge ({int(self.graph.edges_u[e])}, "
                    f"{int(self.graph.edges_v[e])}) crosses instance blocks"
                )
        self.lists.validate_segments_sorted()
        _validate_lists(
            self.graph, self.lists, self.color_spaces[self.node_instance_ids()]
        )


def make_delta_plus_one_instance(graph: Graph) -> ListColoringInstance:
    """Observation 4.1: reduce (Δ+1)-coloring to (degree+1)-list coloring.

    The store is assembled directly in CSR form: node v's segment is
    ``0..deg(v)``, i.e. one ranged arange per segment, built with the same
    cumulative-offset trick as ``gather_neighbors``.
    """
    delta = graph.max_degree
    sizes = graph.degrees + 1
    offsets = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    values = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], sizes)
    store = ColorListStore(values, offsets)
    return ListColoringInstance(graph, delta + 1, store)


def make_random_lists_instance(
    graph: Graph,
    color_space: int,
    rng: np.random.Generator,
    slack: int = 0,
) -> ListColoringInstance:
    """Random (degree+1+slack)-size lists drawn from ``[color_space]``.

    Used by tests and benchmarks to build adversarial-ish list-coloring
    workloads; the list-size lower bound ``deg(v)+1`` is always respected.
    The per-node ``rng.choice`` draws are kept sequential in node order so
    the generated instances are stable under a fixed seed.
    """
    lists = []
    for v in range(graph.n):
        size = graph.degree(v) + 1 + slack
        if size > color_space:
            raise ValueError(
                f"node {v} needs {size} colors but the space has only {color_space}"
            )
        lists.append(rng.choice(color_space, size=size, replace=False))
    return ListColoringInstance(graph, color_space, lists)
