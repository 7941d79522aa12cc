"""Measure compile, execute and serve end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME[,NAME...]] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out FILE]

Each workload prints every metric by name with its unit and checks its
outputs against the interpreter (or a serial compile).  The run writes a
JSON result under ``bench/out/`` and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

(with several workloads, ``metrics`` holds one block per workload).

Untraced runs report the end-to-end metrics; ``--trace`` adds a traced
half-run and reports the per-layer metrics, writing one Chrome trace per
workload.  ``--out FILE`` appends the run to a result set that
``bench/compare.py`` reads.  The exit code is non-zero on any output
mismatch.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCHEMA = "repro-bench/1"
DEFAULT_SECONDS = 15.0
SMOKE_SECONDS = 2.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", "--workloads", dest="workloads", action="append",
                   default=[], metavar="NAMES",
                   help="comma-separated workloads (repeatable); default: all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measured seconds per workload (default {DEFAULT_SECONDS:g}, "
                   f"{SMOKE_SECONDS:g} with --smoke)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="traced run: per-layer metrics and Chrome traces")
    p.add_argument("--smoke", action="store_true",
                   help="short run on the same code paths (tests)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="append this run to a result set for bench/compare.py")
    args = p.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def hermetic_env() -> List[str]:
    """Drop every ``REPRO_*`` variable (ambient store, memo switch, chaos
    mode) so the run measures the defaults; returns what was removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def import_workloads() -> Any:
    """Put this checkout's ``src`` first on the path and import the
    workloads; a checkout without the program cannot be measured."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"bench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import workloads

    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {src}")
    return workloads


def git_commit() -> str:
    """The checkout's commit; ``unknown`` when the checkout itself is not
    a git repository (git may not look above it)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def stamp(args: argparse.Namespace, seconds: float, removed_env: List[str]) -> Dict[str, Any]:
    import networkx
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpuCount": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "gitCommit": git_commit(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "removedEnv": removed_env,
        "startedAt": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def print_metrics(name: str, title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(f"{name}  {title}")
    for metric, value in values.items():
        print(f"  {metric:<32} {value:>14.6g} {units[metric]}")


def write_result(path: str, run: Dict[str, Any], append: bool) -> None:
    doc: Dict[str, Any] = {"schema": SCHEMA, "runs": []}
    if append and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"bench: {path} is not a {SCHEMA} result set")
    doc["runs"].append(run)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    removed_env = hermetic_env()
    wl = import_workloads()

    names = [n.strip() for arg in args.workloads for n in arg.split(",") if n.strip()]
    names = names or list(wl.WORKLOADS)
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; known: {list(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    cfg = wl.RunConfig(seed=args.seed, seconds=seconds, trace=bool(args.trace), smoke=args.smoke)
    run: Dict[str, Any] = {"stamp": stamp(args, seconds, removed_env), "workloads": {}}
    summary: Dict[str, Dict[str, Any]] = {}
    for name in names:
        t0 = time.perf_counter()
        outcome = wl.WORKLOADS[name](cfg)
        wall_s = time.perf_counter() - t0
        print_metrics(name, "end to end" + (" (untraced half)" if args.trace else ""),
                      outcome.e2e, wl.UNITS)
        lat = outcome.info["latency"]
        print(f"  over {lat['samples']} operations: p50 {lat['p50Ms']:.6g} ms, "
              f"p{lat['tailPercentile'] * 100:g} {lat['tailMs']:.6g} ms")
        trace_path = None
        if args.trace:
            print_metrics(name, "per layer", outcome.layers, wl.UNITS)
            trace_path = os.path.join(wl.OUT_DIR, f"trace-{name}-seed{args.seed}.json")
            outcome.recorder.write_chrome(trace_path, {"workload": name, "seed": args.seed})
        for line in outcome.errors[:20]:
            print(f"  FAILED {line}")
        for line in outcome.mismatches[:20]:
            print(f"  MISMATCH {line}")
        print(f"  attempted={outcome.attempted} failed={outcome.failed} "
              f"wall={wall_s:.1f}s")
        run["workloads"][name] = {
            "endToEnd": metric_block(outcome.e2e, wl.UNITS),
            "perLayer": metric_block(outcome.layers, wl.UNITS),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "errorRatio": outcome.failed / max(1, outcome.attempted),
            "errors": outcome.errors[:100],
            "mismatches": outcome.mismatches[:100],
            "spans": outcome.recorder.totals() if outcome.recorder else None,
            "trace": os.path.relpath(trace_path, ROOT) if trace_path else None,
            "info": outcome.info,
            "wallS": wall_s,
        }
        summary[name] = {
            "correct": not outcome.mismatches,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metric_block(outcome.layers if args.trace else outcome.e2e, wl.UNITS),
        }

    tag = names[0] if len(names) == 1 else "set"
    default_path = os.path.join(wl.OUT_DIR, f"last-{tag}-trace{args.trace}.json")
    write_result(args.out or default_path, run, append=args.out is not None)
    correct = all(s["correct"] for s in summary.values())
    final = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": (
            summary[names[0]]["metrics"] if len(names) == 1
            else {n: s["metrics"] for n, s in summary.items()}
        ),
    }
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
