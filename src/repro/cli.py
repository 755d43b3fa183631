"""Command-line interface: regenerate paper artifacts and run kernels.

Usage::

    python -m repro list                      # what can run
    python -m repro experiment fig9           # regenerate Figure 9
    python -m repro experiment tab1 --scale quick
    python -m repro experiment fig10 --workers 8      # parallel + cached
    python -m repro run ht --scheduler gto --bows adaptive
    python -m repro run ht --param n_buckets=8 --param n_threads=512
    python -m repro run atm --watchdog 100000 --progress-epoch 5000
    python -m repro profile ht --bows adaptive --json profile.json
    python -m repro profile ht --quick --trace trace.json
    python -m repro fuzz ht --seeds 16 --budget-cycles 50000
    python -m repro bench --out BENCH_hotloop.json --min-speedup 2.0
    python -m repro sweep --kernel ht --kernel tsp --bows none,1000,adaptive
    python -m repro sweep --kernel ht --journal sweep.jsonl
    python -m repro sweep --resume sweep.jsonl    # finish a killed sweep
    python -m repro cache stats
    python -m repro cache verify [--repair]       # per-entry integrity
    python -m repro cache clear [--stale-only]
    python -m repro serve /tmp/repro.sock         # start the job daemon
    python -m repro serve /tmp/repro.sock --status
    python -m repro sweep --kernel ht --server /tmp/repro.sock
    python -m repro run ht --server /tmp/repro.sock

Exit codes distinguish failure classes so CI and the fuzzer can react
without parsing output: 0 success, 1 generic failure, 2 usage error,
3 hang (deadlock/livelock/cycle-cap timeout), 4 validation mismatch,
5 transient/infrastructure error (worth retrying), 130 interrupted
(a drained SIGINT/SIGTERM; see docs/robustness.md).

``experiment`` and ``sweep`` execute through :mod:`repro.lab`: runs fan
out over a process pool and completed simulations land in the on-disk
result cache (``.lab_cache/`` by default), so regenerating a figure
twice — or regenerating Figures 10-13, which share one delay sweep — is
a cache hit instead of hours of re-simulation.

``serve`` starts the resident job daemon (:mod:`repro.serve`); ``run``,
``sweep``, ``fuzz``, and ``bench`` all take ``--server ADDRESS`` to
submit their work to it instead of simulating in-process — one shared
worker pool, one shared cache, concurrent duplicate submissions deduped
to a single simulation (see docs/serve.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.api import simulate
from repro.harness.experiments import ALL_EXPERIMENTS, run_delay_sweep
from repro.harness.reporting import format_table
from repro.kernels import build as build_workload, kernel_names
from repro.kernels.base import WorkloadError
from repro.lab import ResultCache, Runner, Sweep, use_runner
from repro.lab.core import RunTimeout, TransientRunError
from repro.sim.config import GPUConfig
from repro.sim.progress import SimulationHang

#: Exit codes for machine consumers (CI, the fuzzer's repro command).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_HANG = 3
EXIT_VALIDATION = 4
EXIT_TRANSIENT = 5
EXIT_INTERRUPTED = 130


def _parse_params(items: List[str]) -> dict:
    params = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        params[name] = int(value)
    return params


def _cmd_list(_args) -> int:
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("kernels:    ", ", ".join(kernel_names()))
    return 0


def _make_lab_runner(args) -> Runner:
    """Build a lab runner from the shared --workers/--no-cache flags."""
    import os

    workers = args.workers
    if workers is None or workers <= 0:
        workers = os.cpu_count() or 1
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = print if getattr(args, "progress", False) else None
    return Runner(workers=workers, cache=cache, progress=progress,
                  checkpoint_dir=getattr(args, "checkpoint_dir", None))


def _add_lab_options(parser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: .lab_cache)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-run progress lines")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="autocheckpoint running simulations to DIR; "
                             "killed/timed-out runs resume mid-simulation")


def _cmd_experiment(args) -> int:
    name = args.name
    if name not in ALL_EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {name!r}; try: "
            f"{', '.join(sorted(ALL_EXPERIMENTS))}"
        )
    func = ALL_EXPERIMENTS[name]
    start = time.time()
    runner = _make_lab_runner(args)
    with use_runner(runner):
        if name in ("fig10", "fig11", "fig12", "fig13"):
            sweep = run_delay_sweep(scale=args.scale)
            result = func(sweep=sweep)
        elif name == "tab3":
            result = func()
        else:
            result = func(scale=args.scale)
    print(result.render())
    report = runner.last_report
    detail = ""
    if report is not None:
        detail = (f"; {report.total} runs, {report.cache_hits} cached, "
                  f"{report.executed} simulated")
    print(f"\n[{name} regenerated in {time.time() - start:.1f}s{detail}]")
    return 0


def _parse_bows_axis(values: List[str]) -> List[object]:
    axis: List[object] = []
    for chunk in values:
        for item in chunk.split(","):
            item = item.strip()
            if item in ("none", "off", ""):
                axis.append(None)
            elif item == "adaptive":
                axis.append("adaptive")
            else:
                try:
                    axis.append(int(item))
                except ValueError:
                    raise SystemExit(
                        f"--bows expects 'none', 'adaptive', or an integer "
                        f"delay in cycles, got {item!r}") from None
    return axis or [None]


def _cmd_sweep(args) -> int:
    if args.resume:
        return _cmd_sweep_resume(args)
    kernels = args.kernel or ["ht"]
    schedulers = [s for chunk in (args.scheduler or ["gto"])
                  for s in chunk.split(",")]
    sweep = Sweep(
        args.name,
        kernel=kernels,
        scheduler=schedulers,
        bows=_parse_bows_axis(args.bows or []),
    )
    sweep.axis("preset", [args.preset])
    sweep.axis("scale", [args.scale])
    if args.obs:
        sweep.axis("obs", [True])
    for item in args.param:
        if "=" not in item:
            raise SystemExit(f"--param expects name=value[,value...], "
                             f"got {item!r}")
        name, values = item.split("=", 1)
        try:
            sweep.axis(name, [int(v) for v in values.split(",")])
        except ValueError:
            raise SystemExit(f"--param {name} values must be integers, "
                             f"got {values!r}") from None
    start = time.time()
    if args.server:
        result = sweep.run(journal=args.journal, server=args.server)
    else:
        result = sweep.run(runner=_make_lab_runner(args),
                           journal=args.journal)
    rows = [
        {k: v for k, v in row.items() if k not in ("preset", "scale")}
        for row in result.rows()
    ]
    print(format_table(rows, title=f"sweep {args.name!r} "
                                   f"({len(rows)} runs, {args.scale} scale)"))
    report = result.report
    print(f"\n[{report.total} runs: {report.cache_hits} cached, "
          f"{report.executed} simulated, {len(report.failures)} failed "
          f"in {time.time() - start:.1f}s]")
    if args.journal:
        print(f"[journal at {args.journal}; finish a killed sweep with "
              f"'repro sweep --resume {args.journal}']")
    if args.manifest:
        result.write_manifest(args.manifest)
        print(f"[manifest written to {args.manifest}]")
    if report.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_FAILURE if report.failures else EXIT_OK


def _cmd_sweep_resume(args) -> int:
    """Complete a crashed/killed sweep from its journal."""
    from repro.lab import resume_sweep
    from repro.lab.journal import JournalError, load_journal

    try:
        state = load_journal(args.resume)
    except JournalError as exc:
        raise SystemExit(f"sweep --resume: {exc}")
    print(f"[resuming {args.resume}: {len(state.specs)} spec(s), "
          f"{len(state.done)} already done, {len(state.pending)} pending]")
    start = time.time()
    report = resume_sweep(args.resume, runner=_make_lab_runner(args))
    print(f"[{report.total} runs: {report.cache_hits} cached, "
          f"{report.executed} simulated, {len(report.failures)} failed "
          f"in {time.time() - start:.1f}s]")
    if report.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_FAILURE if report.failures else EXIT_OK


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        print(cache.stats().render())
        return 0
    if args.cache_command == "verify":
        report = cache.verify(repair=args.repair)
        print(report.render(verbose=True))
        if report.quarantined:
            print(f"[{len(report.quarantined)} corrupt entr(ies) moved to "
                  f"quarantine; they will be recomputed on next use]")
        # Corrupt entries left in place are an error; after --repair the
        # store is clean again (the defects are preserved in quarantine).
        if report.corrupt and not args.repair:
            return EXIT_FAILURE
        return EXIT_OK
    if args.cache_command == "clear":
        removed = cache.clear(stale_only=args.stale_only)
        what = "stale " if args.stale_only else ""
        print(f"removed {removed} {what}cached result(s) "
              f"from {cache.directory}")
        return 0
    raise SystemExit(2)


def _watchdog_overrides(args) -> dict:
    """Config overrides from the shared --watchdog family of flags."""
    overrides = {}
    if getattr(args, "max_cycles", None) is not None:
        overrides["max_cycles"] = args.max_cycles
    if getattr(args, "watchdog", None) is not None:
        overrides["no_progress_window"] = args.watchdog
    if getattr(args, "progress_epoch", None) is not None:
        overrides["progress_epoch"] = args.progress_epoch
    if getattr(args, "invariants", False):
        overrides["invariant_checks"] = True
    return overrides


def _add_watchdog_options(parser) -> None:
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="hard simulated-cycle budget")
    parser.add_argument("--watchdog", type=int, default=None,
                        help="no-progress window in cycles before the run "
                             "is classified as hung (0 disables)")
    parser.add_argument("--progress-epoch", type=int, default=None,
                        help="cycles between progress-monitor samples")
    parser.add_argument("--invariants", action="store_true",
                        help="enable per-epoch microarchitectural "
                             "invariant checks (debug)")


def _failure_exit_code(failure) -> int:
    """Map a lab :class:`~repro.lab.results.RunFailure` to the CLI's
    exit-code contract (hang=3, validation=4, transient=5)."""
    if failure.hung or failure.error_type in (
            "SimulationLivelock", "SimulationDeadlock", "SimulationTimeout"):
        return EXIT_HANG
    if failure.error_type == "WorkloadError":
        return EXIT_VALIDATION
    if failure.transient:
        return EXIT_TRANSIENT
    return EXIT_FAILURE


def _cmd_run_server(args, config, params) -> int:
    """``repro run --server``: submit the run to a serve daemon."""
    from repro.lab.spec import RunSpec
    from repro.serve import ServeError
    from repro.submit import submit

    spec = RunSpec(kernel=args.kernel, config=config, params=params,
                   engine=args.engine, label=args.kernel)
    start = time.time()
    try:
        handle = submit(spec, backend="server", server=args.server,
                        client_name="run")
        for record in handle.stream():
            if args.progress_stream:
                print(f"  [{record.get('kind')}] "
                      + " ".join(f"{k}={v}" for k, v in record.items()
                                 if k != "kind"))
        outcome = handle.outcome()
    except (OSError, ServeError) as exc:
        print(f"kernel {args.kernel}: daemon unreachable "
              f"({type(exc).__name__}): {exc}")
        return EXIT_TRANSIENT
    elapsed = time.time() - start
    if not outcome.ok:
        print(f"kernel {args.kernel}: FAILED ({outcome.error_type})")
        print(outcome.describe())
        return _failure_exit_code(outcome)
    how = "cached" if outcome.from_cache else "simulated"
    print(f"kernel {args.kernel}: {outcome.cycles} cycles "
          f"({how} via {args.server}, {elapsed:.1f}s wall)")
    for key, value in outcome.stats.summary().items():
        print(f"  {key:28s}{value}")
    if config.ddos is not None:
        print(f"  detected SIBs: {sorted(outcome.predicted_sibs)}")
    print("  validation: OK")
    return EXIT_OK


def _cmd_run(args) -> int:
    bows: object = None
    if args.bows == "adaptive":
        bows = True
    elif args.bows is not None:
        bows = int(args.bows)
    config = GPUConfig.preset(
        args.preset,
        scheduler=args.scheduler,
        bows=bows,
        ddos=None if not args.no_ddos else False,
    )
    overrides = _watchdog_overrides(args)
    if overrides:
        config = config.replace(**overrides)
    params = _parse_params(args.param)
    if args.server:
        return _cmd_run_server(args, config, params)
    workload = build_workload(args.kernel, **params)
    start = time.time()
    try:
        result = simulate(workload, config=config, engine=args.engine)
    except SimulationHang as exc:
        print(f"kernel {args.kernel}: HANG ({type(exc).__name__})")
        print(exc.args[0] if exc.args else str(exc))
        return EXIT_HANG
    except WorkloadError as exc:
        print(f"kernel {args.kernel}: VALIDATION FAILED")
        print(str(exc))
        return EXIT_VALIDATION
    except (OSError, RunTimeout, TransientRunError) as exc:
        print(f"kernel {args.kernel}: transient error "
              f"({type(exc).__name__}): {exc}")
        return EXIT_TRANSIENT
    elapsed = time.time() - start
    stats = result.stats
    print(f"kernel {args.kernel}: {result.cycles} cycles "
          f"({elapsed:.1f}s wall)")
    for key, value in stats.summary().items():
        print(f"  {key:28s}{value}")
    if result.ddos_engines:
        print(f"  detected SIBs: {sorted(result.predicted_sibs())} "
              f"(truth: {sorted(workload.launch.program.true_sibs())})")
    print("  validation: OK")
    return EXIT_OK


def _cmd_profile(args) -> int:
    """Run one kernel with full observability and emit a profile report."""
    from repro.obs import ObsConfig, Observability
    from repro.obs.profile import build_profile
    from repro.sim.trace import Tracer

    bows: object = None
    if args.bows == "adaptive":
        bows = True
    elif args.bows is not None:
        bows = int(args.bows)
    config = GPUConfig.preset(
        args.preset,
        scheduler=args.scheduler,
        bows=bows,
        ddos=None if not args.no_ddos else False,
    )
    overrides = _watchdog_overrides(args)
    if overrides:
        config = config.replace(**overrides)
    params = _parse_params(args.param)
    if args.quick and not params:
        from repro.harness.params import QUICK_PARAMS

        params = dict(QUICK_PARAMS.get(args.kernel, {}))
    workload = build_workload(args.kernel, **params)
    obs = Observability(ObsConfig(
        event_capacity=args.event_capacity,
        sample_interval=args.sample_interval,
    ))
    tracer = Tracer(capacity=args.trace_capacity)
    start = time.time()
    try:
        result = simulate(workload, config=config, engine=args.engine,
                          tracer=tracer, obs=obs)
    except SimulationHang as exc:
        print(f"kernel {args.kernel}: HANG ({type(exc).__name__})")
        print(exc.args[0] if exc.args else str(exc))
        return EXIT_HANG
    except WorkloadError as exc:
        print(f"kernel {args.kernel}: VALIDATION FAILED")
        print(str(exc))
        return EXIT_VALIDATION
    except (OSError, RunTimeout, TransientRunError) as exc:
        print(f"kernel {args.kernel}: transient error "
              f"({type(exc).__name__}): {exc}")
        return EXIT_TRANSIENT
    elapsed = time.time() - start
    report = build_profile(result, tracer, workload=args.kernel,
                           scheduler=args.scheduler, engine=args.engine)
    text = report.to_markdown()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[profile report written to {args.out}]")
    else:
        print(text)
    if args.json:
        report.to_json(args.json)
        print(f"[profile JSON written to {args.json}]")
    if args.trace:
        written = tracer.export_chrome_trace(args.trace, counters=obs.series)
        print(f"[chrome trace ({written} issue events + counter tracks) "
              f"written to {args.trace}]")
    print(f"\n[{args.kernel} profiled in {elapsed:.1f}s: "
          f"{result.cycles} cycles, {obs.bus.total_events} events, "
          f"{len(obs.series.rows) if obs.series else 0} sample intervals]")
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    from repro.fuzz import ScheduleFuzzer

    bows: object = None
    if args.bows == "adaptive":
        bows = True
    elif args.bows is not None:
        bows = int(args.bows)
    config = GPUConfig.preset(
        args.preset,
        scheduler=args.scheduler,
        bows=bows,
    )
    overrides = _watchdog_overrides(args)
    if overrides:
        config = config.replace(**overrides)
    params = _parse_params(args.param) or None
    fuzzer = ScheduleFuzzer(
        args.kernel,
        params=params,
        base_config=config,
        budget_cycles=args.budget_cycles,
        watchdog=args.watchdog,
        progress_epoch=args.progress_epoch,
        sched_jitter=args.jitter,
        mem_jitter_cycles=args.mem_jitter,
        rotation_period=args.rotation,
        scale=args.scale,
        sanitize=args.sanitize,
    )
    workers = args.workers
    if workers is None or workers <= 0:
        workers = 1
    runner = None if args.server else Runner(
        workers=workers, cache=None,
        progress=print if args.progress else None,
    )
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    journal = args.resume or args.journal
    report = fuzzer.run(seeds, runner=runner, shrink=not args.no_shrink,
                        journal=journal, resume=bool(args.resume),
                        server=args.server)
    if args.json:
        report.write(args.json)
        print(f"[fuzz report written to {args.json}]")
    print(report.summary())
    if report.hangs:
        return EXIT_HANG
    if report.validation_failures or report.races:
        return EXIT_VALIDATION
    if any(f.kind == "infra" for f in report.findings):
        return EXIT_TRANSIENT
    return EXIT_OK


def _cmd_lint(args) -> int:
    import json as json_mod

    from repro.analysis.lint import lint_all, lint_kernel

    if args.all == (args.kernel is not None):
        print("lint: specify exactly one of KERNEL or --all",
              file=sys.stderr)
        return 2
    params = _parse_params(args.param) or None
    if args.all:
        reports = lint_all(
            {name: params for name in kernel_names()} if params else None
        )
    else:
        reports = {args.kernel: lint_kernel(args.kernel, params)}

    failed = any(not rep.ok for rep in reports.values())
    if args.format == "json":
        payload = {
            "ok": not failed,
            "kernels": {name: rep.to_dict() for name, rep in
                        sorted(reports.items())},
        }
        text = json_mod.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(rep.render() for _, rep in sorted(reports.items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[lint report written to {args.out}]")
    else:
        print(text)
    return EXIT_FAILURE if failed else EXIT_OK


def _cmd_bench(args) -> int:
    from repro.bench import (BenchError, load_benchmark, run_benchmark,
                             write_benchmark)

    try:
        payload = run_benchmark(quick=args.quick, reps=args.reps,
                                progress=print, server=args.server)
    except BenchError as exc:
        print(f"bench: EQUIVALENCE FAILURE: {exc}")
        return EXIT_VALIDATION
    summary = payload["summary"]
    print(f"\nspeedup: min {summary['min_speedup']:.2f}x, "
          f"geomean {summary['geomean_speedup']:.2f}x, "
          f"max {summary['max_speedup']:.2f}x "
          f"(peak RSS {summary['peak_rss_mb']:.0f} MiB)")
    if args.baseline:
        committed = load_benchmark(args.baseline)
        if committed is None:
            print(f"bench: no compatible baseline at {args.baseline}")
        else:
            by_key = {(e["kernel"], e["mode"]): e
                      for e in committed["entries"]}
            for entry in payload["entries"]:
                ref = by_key.get((entry["kernel"], entry["mode"]))
                if ref is None:
                    continue
                delta = entry["speedup"] / ref["speedup"] - 1.0
                print(f"  vs baseline {entry['kernel']}/{entry['mode']}: "
                      f"{ref['speedup']:.2f}x -> {entry['speedup']:.2f}x "
                      f"({delta:+.0%})")
    if args.out:
        write_benchmark(payload, args.out)
        print(f"[benchmark record written to {args.out}]")
    if (args.min_speedup is not None
            and summary["min_speedup"] < args.min_speedup):
        print(f"bench: FAILED — min speedup {summary['min_speedup']:.2f}x "
              f"< required {args.min_speedup:.2f}x")
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_serve(args) -> int:
    """Start (or query / stop) the resident simulation daemon."""
    import json as json_mod
    import os

    from repro.serve import ServeClient, ServeDaemon, ServeError

    if args.status or args.stop:
        try:
            with ServeClient(args.address, name="cli") as client:
                if args.status:
                    status = client.status()
                    status.pop("type", None)
                    print(json_mod.dumps(status, indent=2, sort_keys=True))
                if args.stop:
                    client.shutdown_daemon(drain=not args.abort)
                    print(f"[daemon at {args.address} asked to "
                          f"{'abort' if args.abort else 'drain'}]")
        except (OSError, ServeError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return EXIT_TRANSIENT
        return EXIT_OK

    workers = args.workers
    if workers is None or workers <= 0:
        workers = os.cpu_count() or 1
    daemon = ServeDaemon(
        args.address,
        workers=workers,
        mode=args.mode,
        cache=False if args.no_cache else ResultCache(args.cache_dir),
        journal=args.journal,
        timeout_s=args.timeout_s,
        retries=args.retries,
        grace_s=args.grace_s,
        max_inflight_per_client=args.max_inflight,
        checkpoint_dir=args.checkpoint_dir,
        progress=None if args.quiet else print,
    )
    return daemon.serve_forever()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOWS/DDOS reproduction (HPCA 2018) — cycle-level "
                    "SIMT GPU simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and kernels")

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("name", help="fig1..fig16 / tab1 / tab3")
    exp.add_argument("--scale", choices=("full", "quick"), default="full")
    _add_lab_options(exp)

    swp = sub.add_parser(
        "sweep",
        help="run a cartesian (kernel x scheduler x bows) sweep",
    )
    swp.add_argument("--name", default="cli-sweep",
                     help="sweep name (manifest/reporting)")
    swp.add_argument("--kernel", action="append", default=[],
                     choices=kernel_names(), metavar="KERNEL",
                     help="kernel to include (repeatable; default: ht)")
    swp.add_argument("--scheduler", action="append", default=[],
                     metavar="POLICY[,POLICY...]",
                     help="base scheduler axis (default: gto)")
    swp.add_argument("--bows", action="append", default=[],
                     metavar="LIMIT[,LIMIT...]",
                     help="BOWS axis: 'none', a delay limit, or 'adaptive'")
    swp.add_argument("--preset", choices=("fermi", "pascal"),
                     default="fermi")
    swp.add_argument("--scale", choices=("full", "quick"), default="quick")
    swp.add_argument("--param", action="append", default=[],
                     metavar="NAME=VALUE[,VALUE...]",
                     help="workload parameter axis (repeatable)")
    swp.add_argument("--manifest", default=None,
                     help="write the sweep manifest JSON to this path")
    swp.add_argument("--journal", default=None, metavar="PATH",
                     help="append specs and outcomes to a durable JSONL "
                          "journal, making the sweep resumable")
    swp.add_argument("--resume", default=None, metavar="PATH",
                     help="complete a killed sweep from its journal "
                          "(finished specs come back as cache hits)")
    swp.add_argument("--server", default=None, metavar="ADDRESS",
                     help="submit the sweep to a 'repro serve' daemon at "
                          "ADDRESS (socket path or host:port) instead of "
                          "simulating in-process")
    swp.add_argument("--obs", action="store_true",
                     help="collect observability (time series + events) "
                          "on every run; with --server the samples "
                          "stream back live")
    _add_lab_options(swp)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="entry counts and sizes")
    verify = cache_sub.add_parser(
        "verify",
        help="per-entry size + integrity scan (exit 1 on corrupt entries "
             "unless --repair quarantines them)",
    )
    verify.add_argument("--repair", action="store_true",
                        help="move corrupt entries to quarantine/ so they "
                             "are recomputed on next use")
    clear = cache_sub.add_parser("clear", help="delete cached results")
    clear.add_argument("--stale-only", action="store_true",
                       help="only drop entries from old code fingerprints")
    for sub_parser in (stats, verify, clear):
        sub_parser.add_argument("--cache-dir", default=None,
                                help="cache directory (default: .lab_cache)")

    run = sub.add_parser("run", help="simulate one kernel")
    run.add_argument("kernel", choices=kernel_names())
    run.add_argument("--scheduler", choices=("lrr", "gto", "cawa"),
                     default="gto")
    run.add_argument("--bows", default=None,
                     help="'adaptive' or a fixed delay limit in cycles")
    run.add_argument("--no-ddos", action="store_true",
                     help="use static !sib annotations instead of DDOS")
    run.add_argument("--preset", choices=("fermi", "pascal"),
                     default="fermi")
    run.add_argument("--param", action="append", default=[],
                     metavar="NAME=VALUE",
                     help="workload parameter override (repeatable)")
    run.add_argument("--engine", choices=("fast", "reference"),
                     default="fast",
                     help="execution engine (both are bitwise-equivalent; "
                          "'reference' is the seed implementation)")
    run.add_argument("--server", default=None, metavar="ADDRESS",
                     help="submit the run to a 'repro serve' daemon at "
                          "ADDRESS instead of simulating in-process")
    run.add_argument("--progress-stream", action="store_true",
                     help="with --server, print streamed progress records "
                          "(lifecycle marks, obs samples) as they arrive")
    _add_watchdog_options(run)

    prof = sub.add_parser(
        "profile",
        help="simulate one kernel with full observability and report "
             "hot spots, back-off timelines, and DDOS decisions",
    )
    prof.add_argument("kernel", choices=kernel_names())
    prof.add_argument("--scheduler", choices=("lrr", "gto", "cawa"),
                      default="gto")
    prof.add_argument("--bows", default=None,
                      help="'adaptive' or a fixed delay limit in cycles")
    prof.add_argument("--no-ddos", action="store_true",
                      help="use static !sib annotations instead of DDOS")
    prof.add_argument("--preset", choices=("fermi", "pascal"),
                      default="fermi")
    prof.add_argument("--param", action="append", default=[],
                      metavar="NAME=VALUE",
                      help="workload parameter override (repeatable)")
    prof.add_argument("--engine", choices=("fast", "reference"),
                      default="fast")
    prof.add_argument("--quick", action="store_true",
                      help="use the quick-scale harness parameters "
                           "(CI smoke size)")
    prof.add_argument("--sample-interval", type=int, default=500,
                      help="cycles between time-series samples")
    prof.add_argument("--event-capacity", type=int, default=200_000,
                      help="event ring-log capacity")
    prof.add_argument("--trace-capacity", type=int, default=200_000,
                      help="issue-tracer ring-buffer capacity")
    prof.add_argument("--out", default=None, metavar="PATH",
                      help="write the markdown report to PATH "
                           "(default: stdout)")
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="write the profile JSON to PATH")
    prof.add_argument("--trace", default=None, metavar="PATH",
                      help="write Chrome trace JSON (issue timeline + "
                           "sampled counter tracks) to PATH")
    _add_watchdog_options(prof)

    bench = sub.add_parser(
        "bench",
        help="measure fast-engine speedup on the fixed kernel matrix",
    )
    bench.add_argument("--quick", action="store_true",
                       help="shrunk matrix for CI smoke runs")
    bench.add_argument("--reps", type=int, default=3,
                       help="repetitions per engine (min wall time kept)")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="write the versioned benchmark JSON to PATH")
    bench.add_argument("--min-speedup", type=float, default=None,
                       metavar="X",
                       help="fail (exit 1) if any entry's speedup < X")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="committed BENCH_hotloop.json to compare "
                            "against (prints per-entry deltas)")
    bench.add_argument("--server", default=None, metavar="ADDRESS",
                       help="route runs through a 'repro serve' daemon "
                            "(smoke only: the daemon dedupes reps, so "
                            "wall timings are not comparable)")

    fuzz = sub.add_parser(
        "fuzz",
        help="hunt for schedule-dependent hangs with seeded perturbations",
    )
    fuzz.add_argument("kernel", choices=kernel_names())
    fuzz.add_argument("--seeds", type=int, default=16,
                      help="number of perturbation seeds to try")
    fuzz.add_argument("--seed-base", type=int, default=0,
                      help="first seed (seeds are seed-base..seed-base+N-1)")
    fuzz.add_argument("--budget-cycles", type=int, default=100_000,
                      help="per-seed simulated-cycle budget")
    fuzz.add_argument("--jitter", type=float, default=0.1,
                      help="scheduler tie-break jitter probability [0,1]")
    fuzz.add_argument("--mem-jitter", type=int, default=16,
                      help="max extra memory latency in cycles")
    fuzz.add_argument("--rotation", type=int, default=401,
                      help="warp-priority rotation period (0 disables)")
    fuzz.add_argument("--scheduler", choices=("lrr", "gto", "cawa"),
                      default="gto")
    fuzz.add_argument("--bows", default=None,
                      help="'adaptive' or a fixed delay limit in cycles")
    fuzz.add_argument("--preset", choices=("fermi", "pascal"),
                      default="fermi")
    fuzz.add_argument("--scale", choices=("full", "quick"), default="quick")
    fuzz.add_argument("--param", action="append", default=[],
                      metavar="NAME=VALUE",
                      help="workload parameter override (repeatable)")
    fuzz.add_argument("--workers", type=int, default=None,
                      help="parallel worker processes (default: 1)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip shrinking the first hang")
    fuzz.add_argument("--json", default=None, metavar="PATH",
                      help="write the full fuzz report JSON to PATH")
    fuzz.add_argument("--progress", action="store_true",
                      help="print per-run progress lines")
    fuzz.add_argument("--watchdog", type=int, default=None,
                      help="no-progress window (default: budget/4)")
    fuzz.add_argument("--progress-epoch", type=int, default=None,
                      help="progress-monitor sample period")
    fuzz.add_argument("--invariants", action="store_true",
                      help="enable invariant checks during fuzz runs")
    fuzz.add_argument("--sanitize", action="store_true",
                      help="attach the dynamic sanitizer to every seed; "
                           "completed-but-racy schedules become 'race' "
                           "findings (exit 4)")
    fuzz.add_argument("--journal", default=None, metavar="PATH",
                      help="append per-seed outcomes to a durable JSONL "
                           "journal, making the campaign resumable")
    fuzz.add_argument("--resume", default=None, metavar="PATH",
                      help="continue a killed campaign from its journal, "
                           "skipping seeds with a recorded outcome")
    fuzz.add_argument("--server", default=None, metavar="ADDRESS",
                      help="submit every seed to a 'repro serve' daemon "
                           "at ADDRESS instead of a local worker pool")

    lint = sub.add_parser(
        "lint",
        help="static kernel lint: spin/SIB classification, lock "
             "discipline, divergent barriers, dataflow checks",
    )
    lint.add_argument("kernel", nargs="?", choices=kernel_names(),
                      default=None,
                      help="kernel to lint (omit with --all)")
    lint.add_argument("--all", action="store_true",
                      help="lint every registered kernel")
    lint.add_argument("--param", action="append", default=[],
                      metavar="NAME=VALUE",
                      help="workload parameter override (repeatable)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (json is the Table I "
                           "static-oracle source; see EXPERIMENTS.md)")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="write the report to PATH instead of stdout")

    serve = sub.add_parser(
        "serve",
        help="run the resident simulation daemon: shared worker pool, "
             "cache dedup, streamed progress (see docs/serve.md)",
    )
    serve.add_argument("address",
                       help="listen address: a Unix-socket path or "
                            "host:port")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker pool size (default: CPU count)")
    serve.add_argument("--mode", choices=("process", "thread"),
                       default="process",
                       help="worker pool kind (process isolates "
                            "simulations; thread is for tests)")
    serve.add_argument("--no-cache", action="store_true",
                       help="skip the shared on-disk result cache")
    serve.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: .lab_cache)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append every submission and outcome to a "
                            "durable JSONL journal (resumable via "
                            "'repro sweep --resume PATH')")
    serve.add_argument("--timeout-s", type=float, default=None,
                       help="per-run wall-clock timeout in seconds")
    serve.add_argument("--retries", type=int, default=1,
                       help="retry budget for transient failures")
    serve.add_argument("--grace-s", type=float, default=30.0,
                       help="drain grace for in-flight runs on "
                            "SIGTERM/SIGINT")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="fairness budget: at most N of any one "
                            "client's jobs on workers at once")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="autocheckpoint running simulations to DIR")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    serve.add_argument("--status", action="store_true",
                       help="print a running daemon's status JSON and exit")
    serve.add_argument("--stop", action="store_true",
                       help="ask a running daemon to drain and stop")
    serve.add_argument("--abort", action="store_true",
                       help="with --stop: abort without draining")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise SystemExit(2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
