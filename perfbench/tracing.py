"""Span recorder that times the program's layers from outside.

:meth:`Tracer.install` replaces each layer's public functions at the name
its caller looks up (a module global, or a method on its class) with a
wrapper that records one span per call; :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` changes.  A span is
``(id, name, start, end, parent, rid, counts)``: ``parent`` is the span
open on the same thread when the call began, ``rid`` the operation (solve
or request) it belongs to.  Spans stay in memory until :meth:`dump`.
Calls made in forked pool workers are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "counts")

    def __init__(self, id, name, start, parent, rid):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.counts = None

    def count(self, key: str, value) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "counts": self.counts or {},
        }


def _cells_count(span, kernel, result):
    span.count("cells", len(result) * kernel.count_width)


def _cells_weight(span, workspace, result):
    if workspace.live:
        span.count("cells", result.shape[1] * len(workspace.psi_diff))


def _clusters(span, batch, result):
    span.count("clusters", batch.num_instances)


def _workspace_widths(span, workspace, result):
    if workspace.kernel is not None:
        span.count("count_width", workspace.kernel.count_width)
        span.count("edge_cols", len(workspace.psi_diff))


#: (module, attribute path, span name, counter).  A counter receives the
#: span, the call's first argument and its result.  Functions are wrapped in
#: the module that calls them, because that module bound the name at
#: import time; methods are wrapped on their class.
TARGETS = (
    ("repro.decomposition.decomposed_coloring", "decompose", "decomposition.decompose", None),
    ("repro.decomposition.decomposed_coloring", "solve_list_coloring_batch", "decomposition.class_batch", _clusters),
    ("repro.graphs.graph", "Graph.induced_subgraph", "graphs.induced_subgraph", None),
    ("repro.core.list_coloring", "linial_coloring", "substrates.linial", None),
    ("repro.substrates.mis", "linial_coloring", "substrates.linial", None),
    ("repro.core.potential", "PhaseEstimator.build_group", "potential.estimators", None),
    ("repro.core.potential", "SeedSweepWorkspace.__init__", "potential.workspace", _workspace_widths),
    ("repro.core.potential", "SweepCountKernel.count_rows", "potential.count", _cells_count),
    ("repro.core.potential", "SeedSweepWorkspace.weight_rows", "potential.weight", _cells_weight),
    ("repro.core.derandomize", "exact_by_sigma_grouped", "potential.sigma", None),
    ("repro.core.derandomize", "fix_bits_greedily_many", "derandomize.fix_bits", None),
    ("repro.core.prefix", "derandomize_phase_group", "derandomize.phase", None),
    ("repro.core.list_coloring", "partial_coloring_pass_batch", "partial_coloring.pass", None),
    ("repro.cliquemodel.coloring", "partial_coloring_pass", "partial_coloring.pass", None),
    ("repro.core.list_coloring", "prune_lists_after_coloring", "list_ops.prune", None),
    ("repro.cliquemodel.coloring", "prune_lists_after_coloring", "list_ops.prune", None),
    ("repro.core.list_coloring", "verify_proper_list_coloring", "validation.verify", None),
    ("repro.cliquemodel.coloring", "verify_proper_list_coloring", "validation.verify", None),
    ("repro.parallel.backend", "plan_shards", "parallel.plan", None),
    ("repro.core.sweep_cache", "SweepResultCache.load", "sweep_cache.load", None),
    ("repro.core.sweep_cache", "SweepResultCache.store", "sweep_cache.store", None),
)


class Tracer:
    """In-memory span recorder; see the module docstring.

    ``enabled`` gates recording, so a traced run can alternate traced and
    untraced operations with the wrappers installed throughout.  Once
    ``alternate`` is set, the service's batches do that themselves: see
    :meth:`_wrap_batch`.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.alternate = False
        #: One entry per batch solved while ``alternate`` was set, in
        #: dispatch order: (start, traced, ids of its request instances).
        self.batches: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.id if parent is not None else None,
            rid,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def record(self, name, start, end, rid=None, parent=None) -> Span:
        """Add a span timed elsewhere (a request's queue wait, say)."""
        span = Span(next(self._ids), name, start, parent, rid)
        span.end = end
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, rid=None, **kwargs):
        """Run ``fn`` inside a root span (the benchmark's own engine call)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self.open(name, rid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(span, args[0], result)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_stream(self, fn, name):
        """Wrap a function returning an iterator: the span covers the
        call and the caller draining it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                yield from fn(*args, **kwargs)
                return
            span = tracer.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_batch(self, fn):
        """Wrap ``ColoringService._solve_group``.  While ``alternate`` is
        set, each signature's batches are traced and untraced in turn, so
        both kinds see the same request mix and cache state; a traced
        batch runs under a ``serving.batch`` root span with recording on.
        Batches run one at a time on the service's dispatch thread."""
        tracer = self
        per_signature: dict = {}

        @functools.wraps(fn)
        def wrapper(service, group):
            if not tracer.alternate:
                return fn(service, group)
            signature = group[0].signature
            seen = per_signature.get(signature, 0)
            per_signature[signature] = seen + 1
            traced = seen % 2 == 0
            tracer.batches.append(
                (time.perf_counter(), traced, [id(r.instance) for r in group])
            )
            if not traced:
                return fn(service, group)
            tracer.enabled = True
            span = tracer.open("serving.batch", rid=f"b{len(tracer.batches) - 1}")
            try:
                return fn(service, group)
            finally:
                tracer.close(span)
                tracer.enabled = False

        return wrapper

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        for module_name, path, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
            else:
                self._patch(owner, attr, self._wrap(raw, name, counter))
        from repro.parallel.backend import ProcessBackend
        from repro.serving.service import ColoringService

        self._patch(
            ProcessBackend,
            "solve_batch_iter",
            self._wrap_stream(ProcessBackend.__dict__["solve_batch_iter"], "parallel.dispatch"),
        )
        self._patch(
            ColoringService,
            "_solve_group",
            self._wrap_batch(ColoringService.__dict__["_solve_group"]),
        )
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def aggregate(spans) -> dict:
    """Span name -> {"busy_s", "self_s", "calls", counts...} totals."""
    selfs = self_times(spans)
    table: dict = {}
    for span in spans:
        row = table.setdefault(span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["busy_s"] += span.end - span.start
        row["self_s"] += selfs[span.id]
        row["calls"] += 1
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table
