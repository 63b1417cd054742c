"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``color``    color a generated graph with a chosen solver and print stats
``compare``  run all solvers on one instance and print the round table
``decompose`` build and summarize a network decomposition

``color`` and ``compare`` accept ``--json`` to emit a machine-readable
record (solver, graph parameters, seed, round totals and per-category
breakdown, and a sha256 of the coloring) so benchmark scripts can consume
results without scraping tables.  ``--seed`` is threaded through graph
generation and echoed in the JSON output.

Examples::

    python -m repro color --family cycle --n 64 --solver congest
    python -m repro color --family regular --n 64 --seed 3 --json
    python -m repro compare --family regular --n 64 --degree 4 --json
    python -m repro decompose --family grid --n 100
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from repro.analysis.tables import Table
from repro.core.instances import make_delta_plus_one_instance
from repro.core.validation import verify_proper_list_coloring
from repro.graphs import generators


def _build_graph(family: str, n: int, degree: int, seed: int):
    if family == "cycle":
        return generators.cycle_graph(n)
    if family == "path":
        return generators.path_graph(n)
    if family == "grid":
        side = max(2, int(round(n ** 0.5)))
        return generators.grid_graph(side, side)
    if family == "regular":
        if (n * degree) % 2:
            n += 1
        return generators.random_regular_graph(n, degree, seed=seed)
    if family == "tree":
        return generators.random_tree(n, seed=seed)
    if family == "star":
        return generators.star_graph(n)
    raise SystemExit(f"unknown family {family!r}")


def _solve(instance, solver: str):
    if solver == "congest":
        from repro.core.list_coloring import solve_list_coloring_congest

        return solve_list_coloring_congest(instance)
    if solver == "polylog":
        from repro.decomposition.decomposed_coloring import (
            solve_list_coloring_polylog,
        )

        return solve_list_coloring_polylog(instance)
    if solver == "clique":
        from repro.cliquemodel.coloring import solve_list_coloring_clique

        return solve_list_coloring_clique(instance)
    if solver in ("mpc-linear", "mpc-sublinear"):
        from repro.mpc.coloring import solve_list_coloring_mpc

        return solve_list_coloring_mpc(instance, regime=solver.split("-", 1)[1])
    raise SystemExit(f"unknown solver {solver!r}")


def _solver_record(args, graph, solver: str, result) -> dict:
    """Machine-readable summary of one solver run (the ``--json`` payload)."""
    return {
        "solver": solver,
        "family": args.family,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "seed": args.seed,
        "rounds_total": result.rounds.total,
        "rounds_breakdown": result.rounds.breakdown(),
        "num_passes": getattr(result, "num_passes", None),
        "colors_sha256": hashlib.sha256(
            np.ascontiguousarray(result.colors, dtype=np.int64).tobytes()
        ).hexdigest(),
    }


def cmd_color(args) -> int:
    graph = _build_graph(args.family, args.n, args.degree, args.seed)
    instance = make_delta_plus_one_instance(graph)
    result = _solve(instance, args.solver)
    verify_proper_list_coloring(instance, result.colors)
    if args.json:
        print(json.dumps(_solver_record(args, graph, args.solver, result)))
        return 0
    print(
        f"{args.solver}: colored n={graph.n} (Δ={graph.max_degree}) in "
        f"{result.rounds.total} simulated rounds"
    )
    for category, rounds in sorted(result.rounds.breakdown().items()):
        print(f"  {category:>20}: {rounds}")
    return 0


def cmd_compare(args) -> int:
    graph = _build_graph(args.family, args.n, args.degree, args.seed)
    instance = make_delta_plus_one_instance(graph)
    solvers = ("congest", "polylog", "clique", "mpc-linear", "mpc-sublinear")
    records = []
    for solver in solvers:
        result = _solve(instance, solver)
        verify_proper_list_coloring(instance, result.colors)
        records.append(_solver_record(args, graph, solver, result))
    if args.json:
        print(json.dumps(records))
        return 0
    table = Table(
        f"solvers on {args.family} n={graph.n} Δ={graph.max_degree}",
        ["solver", "rounds"],
    )
    for record in records:
        table.add_row(record["solver"], record["rounds_total"])
    table.show()
    return 0


def cmd_decompose(args) -> int:
    from repro.decomposition.rozhon_ghaffari import decompose

    graph = _build_graph(args.family, args.n, args.degree, args.seed)
    decomposition = decompose(graph)
    print(
        f"decomposition of {args.family} n={graph.n}: "
        f"{decomposition.num_colors} colors, "
        f"{len(decomposition.clusters)} clusters, "
        f"weak diameter {decomposition.weak_diameter()}, "
        f"congestion {decomposition.congestion()}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("color", cmd_color), ("compare", cmd_compare),
                     ("decompose", cmd_decompose)):
        p = sub.add_parser(name)
        p.add_argument("--family", default="regular")
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--degree", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        if name in ("color", "compare"):
            p.add_argument("--json", action="store_true")
        if name == "color":
            p.add_argument("--solver", default="congest")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
