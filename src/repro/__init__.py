"""Reproduction of *Efficient Deterministic Distributed Coloring with Small
Bandwidth* (Bamberger, Kuhn, Maus; PODC 2020).

Public API
----------
Instances
    :class:`~repro.core.instances.ListColoringInstance`,
    :class:`~repro.core.instances.BatchedListColoringInstance`
    (k vertex-disjoint instances as one array program),
    :func:`~repro.core.instances.make_delta_plus_one_instance`,
    :func:`~repro.core.instances.make_random_lists_instance`
Solvers
    :func:`~repro.core.list_coloring.solve_list_coloring_congest`
    (Theorem 1.1),
    :func:`~repro.core.list_coloring.solve_list_coloring_batch`
    (Theorem 1.1 over a whole batch, shared-seed phase fusion),
    :func:`~repro.decomposition.decomposed_coloring.solve_list_coloring_polylog`
    (Corollary 1.2),
    :func:`~repro.cliquemodel.coloring.solve_list_coloring_clique`
    (Theorem 1.3),
    :func:`~repro.mpc.coloring.solve_list_coloring_mpc`
    (Theorems 1.4/1.5)
Backends
    :class:`~repro.parallel.backend.SerialBackend` (default) and
    :class:`~repro.parallel.backend.ProcessBackend` (sharded worker pool,
    byte-identical outputs), resolved by
    :func:`~repro.parallel.backend.resolve_backend` and accepted by the
    ``backend=`` parameter of the batched solvers and engines.
Serving
    :class:`~repro.serving.service.ColoringService` — async batch intake
    with a fusion-keyed request coalescer (group by ``(⌈log C⌉, Δ)``,
    solve as one fused batch) and streaming per-shard resolution; every
    response byte-identical to the standalone solver call.
Validation
    :func:`~repro.core.validation.verify_proper_list_coloring`
Graphs
    :class:`~repro.graphs.graph.Graph` and the generators in
    :mod:`repro.graphs.generators`.
"""

from repro.core.instances import (
    BatchedListColoringInstance,
    ListColoringInstance,
    make_delta_plus_one_instance,
    make_random_lists_instance,
)
from repro.core.list_coloring import (
    BatchColoringResult,
    ColoringResult,
    solve_list_coloring_batch,
    solve_list_coloring_congest,
)
from repro.core.validation import (
    verify_proper_coloring,
    verify_proper_list_coloring,
)
from repro.graphs.graph import Graph
from repro.parallel import (
    Backend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.serving import ColoringService

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "ColoringService",
    "Graph",
    "ProcessBackend",
    "SerialBackend",
    "BatchedListColoringInstance",
    "ListColoringInstance",
    "BatchColoringResult",
    "ColoringResult",
    "make_delta_plus_one_instance",
    "make_random_lists_instance",
    "resolve_backend",
    "solve_list_coloring_batch",
    "solve_list_coloring_congest",
    "verify_proper_coloring",
    "verify_proper_list_coloring",
    "__version__",
]
