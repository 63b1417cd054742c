"""Benchmark entry point: run workloads in child interpreters, print results.

Run from the repository root::

    python3 perfbench/run.py --workload congest-r1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, both modes, as a report

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Without it, every workload runs untraced and traced and
the report prints each end-to-end metric and a per-layer table.  The exit
code is 0 only when every output passed the correctness gate and no
process or shared-memory segment outlived its workload.

Each workload runs in its own child interpreter and process group, with
a hard timeout that kills the whole group; this program returns only after
every process it started has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spec  # noqa: E402

#: Seconds a child may run before its process group is killed.
CHILD_TIMEOUT = 165.0


class _Terminated(Exception):
    pass


def _on_sigterm(signum, frame):
    raise _Terminated()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _reap_group(pgid: int) -> bool:
    """Kill what is left of a process group and wait for it to go.
    Returns True when something was left."""
    if not _group_alive(pgid):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return True
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return True


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a fresh interpreter; its payload, or None."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT:.0f} s; killed",
              file=sys.stderr)
        _reap_group(proc.pid)
        proc.wait()
        return None
    finally:
        if proc.poll() is None:
            _reap_group(proc.pid)
            proc.wait()
    leftover = _reap_group(proc.pid)

    payload = None
    for line in out.splitlines():
        if line.startswith(spec.RESULT_TAG):
            payload = json.loads(line[len(spec.RESULT_TAG):])
        else:
            print(line, file=sys.stderr)
    if payload is None:
        print(f"perfbench: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    if leftover:
        print(f"perfbench: {workload} left processes behind; killed",
              file=sys.stderr)
        payload["correct"] = False
    if proc.returncode != 0:
        payload["correct"] = False
    return payload


def result_line(payload: dict, trace: int) -> dict:
    units = spec.per_layer() if trace else {
        name: unit for name, (unit, *_rest) in spec.END_TO_END.items()
    }
    return {
        "correct": bool(payload["correct"]),
        "attempted": int(payload["attempted"]),
        "failed": int(payload["failed"]),
        "metrics": {
            name: {"value": payload["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_report(workload: str, plain: dict, traced: dict | None) -> None:
    extra = plain["extra"]
    op = "request" if workload == "serve-burst" else "solve"
    print(f"\n== {workload} ==  {spec.WORKLOADS[workload][0]}")
    failed_frac = plain["failed"] / plain["attempted"]
    print(f"  correct={plain['correct']}  attempted={plain['attempted']}  "
          f"failed={plain['failed']}  failed_frac={failed_frac:.4f}")
    for name, (unit, better, bound, _doc) in spec.END_TO_END.items():
        note = ""
        if name == "latency_p50_ms":
            note = f"  (n={extra['samples']} {op}s)"
        print(f"  {name:<20} {plain['metrics'][name]:>14.4f} {unit:<9} "
              f"{better} is better, bound {bound:.2f}{note}")
    print(f"  measured, unscaled: latency_p50_ms {extra['raw_latency_p50_ms']:.4f}, "
          f"setup_s {extra['raw_setup_s']:.4f}; reference loop "
          f"{extra['probe_ms']:.3f} ms (scaled to {hostspeed.REFERENCE_MS} ms)")
    if extra.get("latency_p90_ms") is not None:
        print(f"  {'latency_p90_ms':<20} {extra['latency_p90_ms']:>14.4f} ms"
              f"        ({extra['samples']} requests)")
    if traced is None:
        return
    layers = traced["metrics"]
    wall = layers[f"{extra['root']}.busy_s"] or 1.0
    print(f"  per layer, per {op}; share of {extra['root']} wall "
          f"(traced run, overhead {layers['trace.overhead_frac']:+.3f}):")
    print(f"    {'layer':<28} {'busy_s':>10} {'self_s':>10} {'share':>7} {'calls':>9}")
    for span in spec.SPANS:
        calls = layers[f"{span}.calls"]
        if not calls:
            continue
        busy = layers[f"{span}.busy_s"]
        print(f"    {span:<28} {busy:>10.5f} {layers[f'{span}.self_s']:>10.5f} "
              f"{busy / wall:>7.3f} {calls:>9.1f}")
    for name in spec.LAYER_EXTRAS:
        if layers[name] and name != "trace.overhead_frac":
            print(f"    {name:<40} {layers[name]:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        if args.workload is not None:
            payload = run_child(args.workload, args.seed, args.seconds, args.trace)
            if payload is None:
                return 1
            print(json.dumps(result_line(payload, args.trace)), flush=True)
            return 0 if payload["correct"] else 1

        ok = True
        for workload in spec.WORKLOADS:
            plain = run_child(workload, args.seed, args.seconds, 0)
            traced = run_child(workload, args.seed, args.seconds, 1)
            if plain is None:
                ok = False
                print(f"\n== {workload} ==  FAILED: no result")
                continue
            ok = ok and plain["correct"] and traced is not None and traced["correct"]
            print_report(workload, plain, traced)
        return 0 if ok else 1
    except (_Terminated, KeyboardInterrupt):
        return 1


if __name__ == "__main__":
    sys.exit(main())
