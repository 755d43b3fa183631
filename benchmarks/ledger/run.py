#!/usr/bin/env python3
"""The performance ledger: four workloads, nine end-to-end metrics, a trace.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--scale full|quick]
    python3 benchmarks/ledger/run.py --selftest

Runs every workload (or one), checks every output, and prints every
metric by name with its unit.  Without ``--trace`` the end-to-end
metrics are measured with no wrapper installed; ``--trace`` measures a
third of the time untraced for reference, a third with the benchmark's
own wrappers around each layer, then prints the per-layer metrics and
writes ``trace_<workload>.json``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: The untraced run sets up this many times and reports the median.
SETUP_REPEATS = 3


def _import_program():
    """Import the program under test; returns the seconds it took."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # noqa: F401 - pulls in repro.* and numpy
    return time.perf_counter() - t0


def _host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


def _mutate_summary(summary: dict) -> dict:
    summary["cycles"] += 1
    return summary


def run_workload(name: str, seed: int, seconds: float, scale: str,
                 trace: bool, out_dir: Path, import_s: float,
                 inject: str = None) -> dict:
    """Set up, measure, check and tear down one workload."""
    import measure
    import tracing
    from workloads import WORKLOADS

    checker = measure.Checker()
    tracer = tracing.Tracer() if trace else None
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    kwargs = {}
    if inject == "run_failure" and name == "lab_quick_sweep":
        kwargs["inject_run_failure"] = True
    workload = WORKLOADS[name](seed, scale, workdir, checker, **kwargs)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "scale": scale, "op": workload.op,
              "tail_pct": workload.tail_pct}
    try:
        setups = []
        try:
            for repeat in range(1 if trace else SETUP_REPEATS):
                if repeat:
                    workload.teardown()
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            if inject == "summary":
                checker.mutate = _mutate_summary
            if trace:
                reference = measure.run_rounds(workload.run_round,
                                               seconds / 3)
                undo = tracing.install(tracer, workload.layers)
                workload.tracer = tracer  # ops open spans from here on
                try:
                    rounds = measure.run_rounds(
                        workload.run_round, seconds / 3,
                        first_index=len(reference))
                finally:
                    workload.tracer = None
                    tracing.uninstall(undo)
                direct = tracing.direct_timings(workload)
                all_rounds = reference + rounds
            else:
                all_rounds = rounds = measure.run_rounds(workload.run_round,
                                                         seconds)
        finally:
            workload.teardown()
        setup_s = import_s + statistics.median(setups)
        metrics = measure.end_to_end(all_rounds, workload.tail_pct, setup_s,
                                     checker.sim_cycles)
        metrics["peak_rss_mb"] = measure.peak_rss_mb()
        report.update(
            attempted=sum(len(rnd.ops) for rnd in all_rounds),
            failed=measure.failed_ops(all_rounds),
            rounds=len(all_rounds),
            # Raw material, so another estimator can be tried offline.
            round_data=[{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                         "instrs": sum(op.instrs for op in r.ops),
                         "latencies_ms": [op.latency_s * 1e3 for op in r.ops]}
                        for r in all_rounds],
            sim_fingerprint=checker.sim_fingerprint,
            fixed_specs=len(checker.fixed),
            notes=checker.notes,
            end_to_end={k: {"value": v, "unit": measure.END_TO_END_UNITS[k]}
                        for k, v in metrics.items()},
        )
        if trace:
            layers = tracing.layer_metrics(tracer, rounds, reference,
                                           workload, direct)
            report["per_layer"] = {
                k: {"value": v, "unit": tracing.LAYER_UNITS[k]}
                for k, v in layers.items()}
            # Every aggregate of the sim layers nests under sim.gpu.run,
            # so its span's self time plus theirs is its total, exactly.
            totals = tracer.totals()
            run_ns = totals.get("sim.gpu.run", (0, 0, 0))
            trace_file = out_dir / f"trace_{name}.json"
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(trace_file, "w", encoding="utf-8") as handle:
                json.dump({"workload": name, "seed": seed,
                           "traced_rounds": len(rounds),
                           "trace_overhead": layers["trace_overhead"],
                           "sim_gpu_run_ns": run_ns[1],
                           "self_ns_under_sim_gpu_run": run_ns[2] + sum(
                               entry[2] for entry in tracer.agg.values())
                           if workload.layers == "sim" else 0,
                           **tracer.to_json()}, handle)
            report["trace_file"] = str(trace_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()  # unless another run is using it
    report["correct"] = report["failed"] == 0
    return report


def print_report(report: dict, trace: bool) -> None:
    """Human-readable metrics, then the one-line JSON result."""
    name = report["workload"]
    print(f"== {name}  seed={report['seed']} scale={report['scale']} "
          f"seconds={report['seconds']:g} rounds={report['rounds']} "
          f"ops={report['attempted']} failed={report['failed']}")
    print(f"  op: {report['op']}")
    # A traced run's end-to-end numbers carry the wrappers' cost; only
    # the untraced run reports them.
    for key, entry in ({} if trace else report["end_to_end"]).items():
        note = ""
        if key in ("op_ms_p50", "op_ms_tail"):
            pct = 50 if key == "op_ms_p50" else report["tail_pct"]
            note = (f"  (p{pct:g} of a round's "
                    f"{report['attempted'] // report['rounds']} ops, lower "
                    f"quartile of {report['rounds']} rounds)")
        print(f"  {key:<34} {entry['value']:>16.6f} {entry['unit']}{note}")
    print(f"  {'sim_fingerprint':<34} {report['sim_fingerprint']}  "
          f"({report['fixed_specs']} fixed specs)")
    for key, entry in report.get("per_layer", {}).items():
        print(f"  {key:<34} {entry['value']:>16.6f} {entry['unit']}")
    for note in report["notes"]:
        print(f"  ! {note}")
    section = "per_layer" if trace else "end_to_end"
    # failed_frac is carried by attempted/failed; its healthy value, 0,
    # cannot be bounded as a share of the parent's median.
    metrics = {k: v for k, v in report[section].items() if k != "failed_frac"}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}),
          flush=True)


def _raise_interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="timed section per workload; whole rounds run "
                             "until it is spent (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where ledger_*.json and trace_*.json go")
    parser.add_argument("--scale", choices=("full", "quick"), default="full",
                        help="'quick' shrinks the simulator workloads for "
                             "smoke runs; recorded numbers are 'full'")
    parser.add_argument("--selftest", action="store_true",
                        help="run selftest.py instead (<60 s)")
    parser.add_argument("--inject", choices=("summary", "run_failure"),
                        default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()

    import_s = _import_program()
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    reports = {}
    try:
        for name in [args.workload] if args.workload else names:
            report = run_workload(name, args.seed, args.seconds, args.scale,
                                  bool(args.trace), args.out, import_s,
                                  args.inject)
            reports[name] = report
            print_report(report, bool(args.trace))
    except KeyboardInterrupt:
        print("run.py: interrupted; temporary files removed",
              file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    args.out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "run"
    out_file = (args.out /
                f"ledger_{kind}_{args.workload or 'all'}_seed{args.seed}.json")
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump({"schema": 1, "host": _host(), "workloads": reports},
                  handle, indent=1)
    print(f"wrote {out_file}", file=sys.stderr)
    return 0 if all(r["correct"] for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
