"""Compare two benchmark result sets, metric by metric.

Usage (from the repository root)::

    python3 bench/compare.py BASE.json CHANGE.json

Each file is a result set written by ``bench/run.py --out FILE`` (one
run appended per invocation).  For every workload x end-to-end metric
the medians and quartiles of the untraced runs are compared under the
bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- either side's run-to-run spread (quartile distance
  over median) is wider than the bound, unless every CHANGE run reads
  better than every BASE run (then ``better``);
* ``worse`` -- the CHANGE median is worse than the BASE median by more
  than the bound;
* ``better`` -- the CHANGE median is better by more than BASE's own
  spread and CHANGE wins at least nine tenths of the runs paired in
  order (ties count for neither);
* ``same`` -- otherwise.

A workload whose CHANGE runs fail more operations than its BASE runs is
reported ``worse`` on ``failed``.  Every ratio is printed with its base.
The exit code is 1 when anything is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """The verdict for one metric on one workload (module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    change_spread = (c3 - c1) / abs(cm) if cm else 0.0
    worsening = sign * (cm - bm) / abs(bm) if bm else 0.0
    every_better = all(sign * (c - b) < 0 for b in base for c in change)
    if max(base_spread, change_spread) > bound:
        return "better" if every_better else "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if -worsening > base_spread and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs of a result set, grouped by workload."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    grouped: Dict[str, List[dict]] = {}
    for run in doc.get("runs", []):
        if run["stamp"].get("trace"):
            continue
        for name, result in run["workloads"].items():
            grouped.setdefault(name, []).append(result)
    return grouped


def compare(base_path: str, change_path: str, spec: dict) -> List[Tuple[str, str, str, str]]:
    """Rows of ``(workload, metric, detail, verdict)``."""
    base, change = load_runs(base_path), load_runs(change_path)
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if not base.get(name) or not change.get(name):
            rows.append((name, "*", "missing from one side", "unresolved"))
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a = [r["endToEnd"][m]["value"] for r in base[name]]
            b = [r["endToEnd"][m]["value"] for r in change[name]]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            unit = metric["unit"]
            detail = (
                f"base {am:.4g} {unit} [{a1:.4g}, {a3:.4g}] n={len(a)} -> "
                f"change {bm:.4g} {unit} [{b1:.4g}, {b3:.4g}] n={len(b)}; "
                f"change/base = {bm / am:.3f} (base {am:.4g} {unit}, bound {metric['bound']})"
            )
            rows.append((name, m, detail, verdict(a, b, metric["bound"], metric["better"])))
        failed_a = statistics.median(r["failed"] for r in base[name])
        failed_b = statistics.median(r["failed"] for r in change[name])
        rows.append((
            name, "failed", f"base median {failed_a:g} -> change median {failed_b:g}",
            "worse" if failed_b > failed_a else "same",
        ))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description="Compare two bench/run.py result sets.")
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(args.base, args.change, spec)
    for workload, metric, detail, word in rows:
        print(f"{workload:<12} {metric:<18} {word:<10} {detail}")
    return 1 if any(word in ("worse", "unresolved") for *_, word in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
