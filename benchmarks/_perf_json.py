"""Shared ``--json`` emission for the guarded micro-benchmarks.

Every guarded benchmark writes one ``BENCH_<name>.json`` record at the
repository root when invoked with ``--json`` (optionally ``--json PATH``).
The records are committed alongside the code so the perf trajectory of
each optimization survives in history — `git log -p BENCH_x.json` is the
trend line.  Format (documented in ROADMAP.md):

``bench``
    Benchmark name (matches ``benchmarks/bench_<name>.py``).
``params``
    The argparse knobs the run used (workload size, workers, ...).
``timings_seconds``
    Named wall-clock timings, best-of-N, seconds.  The reference
    (pre-optimization) timing comes first by convention.
``speedup`` / ``min_speedup``
    Measured ratio and the guard threshold.
``guard``
    ``"ok"`` (threshold met), ``"skip"`` (host cannot run the guard,
    e.g. too few cores — identity checks still enforced), ``"fail"``;
    ``None`` (with ``speedup`` / ``min_speedup``) when the benchmark
    records timings without guarding them.
``skip_reason``
    Present exactly when ``guard`` is ``"skip"``: the human-readable
    reason the guard could not run (e.g. ``"cpu_count 1 < 4 workers"``),
    so a committed skip record explains itself without digging through
    the benchmark's source.
``identity``
    Result of the byte-identity assertions (``"ok"`` when they ran and
    passed, else absent/None).  Benchmarks assert identity *before*
    timing, so a record with ``guard: "skip"`` and ``identity: "ok"``
    still proves correctness on hosts where the speedup guard cannot run
    — without this field a 1-core host's record looked like nothing was
    verified at all.
``host``
    ``cpu_count`` / ``python`` / ``platform`` / ``numpy`` — the context
    needed to compare records across machines honestly (numpy's version
    decides, for one, whether ``np.unique`` hashes or sorts).
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

__all__ = ["add_json_arg", "default_json_path", "write_perf_json"]

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def default_json_path(bench: str) -> str:
    return os.path.join(_REPO_ROOT, f"BENCH_{bench}.json")


def add_json_arg(parser, bench: str) -> None:
    """Register ``--json [PATH]`` (const = the canonical committed path)."""
    parser.add_argument(
        "--json",
        nargs="?",
        const=default_json_path(bench),
        default=None,
        metavar="PATH",
        help=f"write a perf record (default path: BENCH_{bench}.json)",
    )


def write_perf_json(
    path: str,
    bench: str,
    params: dict,
    timings_seconds: dict,
    speedup: float | None = None,
    min_speedup: float | None = None,
    guard: str | None = None,
    identity: str | None = None,
    skip_reason: str | None = None,
) -> None:
    if (guard == "skip") != (skip_reason is not None):
        raise ValueError(
            "skip_reason must be given exactly when guard == 'skip', got "
            f"guard={guard!r}, skip_reason={skip_reason!r}"
        )
    record = {
        "bench": bench,
        "params": params,
        "timings_seconds": timings_seconds,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "guard": guard,
        "identity": identity,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": sys.platform,
            "numpy": np.__version__,
        },
    }
    if skip_reason is not None:
        record["skip_reason"] = skip_reason
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
