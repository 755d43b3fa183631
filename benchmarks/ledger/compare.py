#!/usr/bin/env python3
"""Compare two sets of ledger runs against the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``ledger_run_*.json``
written by ``run.py``, or a directory of them (several runs of one side:
more seeds, repeats).  One row per (workload, end-to-end metric): both
medians, the ratio B/A, and

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — A's own run-to-run spread (quartile distance over
  median) is wider than the bound, and not every run of B reads better
  than every run of A: the runs cannot tell.

Exits 1 on any ``regressed`` row, on a ``sim_fingerprint`` mismatch
(the simulated results differ) or on a higher ``failed_frac``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent.parent


def load_side(path: Path) -> Dict[str, List[dict]]:
    """``workload -> [report, ...]`` over the run files of one side."""
    files = sorted(path.glob("ledger_run_*.json")) if path.is_dir() \
        else [path]
    if not files:
        sys.exit(f"compare.py: no ledger_run_*.json under {path}")
    side: Dict[str, List[dict]] = {}
    for file in files:
        with open(file, encoding="utf-8") as handle:
            for name, report in json.load(handle)["workloads"].items():
                side.setdefault(name, []).append(report)
    return side


def judge(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / base
    spread = 0.0
    if len(a) >= 2:
        quartiles = statistics.quantiles(a, n=4)
        spread = (quartiles[2] - quartiles[0]) / base
    if spread > bound:
        all_better = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        return "ok" if all_better else "unresolved"
    return "regressed" if worsening > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    side_a, side_b = (load_side(Path(arg)) for arg in argv)
    bad = 0
    print(f"{'workload':<16} {'metric':<14} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for name in (w["name"] for w in contract["workloads"]):
        runs_a, runs_b = side_a.get(name), side_b.get(name)
        if not runs_a or not runs_b:
            continue

        def column(runs, metric):
            return [r["end_to_end"][metric]["value"] for r in runs]

        for metric in contract["end_to_end"]:
            a = column(runs_a, metric["name"])
            b = column(runs_b, metric["name"])
            verdict = judge(a, b, metric["better"], metric["bound"])
            bad += verdict == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{name:<16} {metric['name']:<14} {med_a:>14.4f} "
                  f"{med_b:>14.4f} {med_b / med_a:>8.4f} "
                  f"{metric['bound']:>6.3f}  {verdict}")
        # failed_frac is absolute: any rise is a regression.
        fail_a = max(column(runs_a, "failed_frac"))
        fail_b = max(column(runs_b, "failed_frac"))
        verdict = "regressed" if fail_b > fail_a else "ok"
        bad += verdict == "regressed"
        print(f"{name:<16} {'failed_frac':<14} {fail_a:>14.4f} "
              f"{fail_b:>14.4f} {'-':>8} {0:>6.3f}  {verdict}")
        prints = {r["sim_fingerprint"] for r in runs_a + runs_b}
        verdict = "ok" if len(prints) == 1 else "MISMATCH"
        bad += verdict != "ok"
        print(f"{name:<16} {'sim_fingerprint':<14} "
              f"{runs_a[0]['sim_fingerprint'][:14]:>14} "
              f"{runs_b[0]['sim_fingerprint'][:14]:>14} {'-':>8} "
              f"{'exact':>6}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
