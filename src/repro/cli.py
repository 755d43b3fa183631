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
without parsing output: 0 success, 1 generic failure, 2 usage error
(a bad flag value included), 3 hang (deadlock/livelock/cycle-cap
timeout), 4 validation mismatch, 5 transient/infrastructure error
(worth retrying; an unreachable ``--server`` daemon is one), 130
interrupted (a drained SIGINT/SIGTERM; see docs/robustness.md), 141
stdout closed by its reader (128 + SIGPIPE).

``experiment`` and ``sweep`` execute through :mod:`repro.lab`: runs fan
out over a process pool and completed simulations land in the on-disk
result cache (``.lab_cache/`` by default), so regenerating a figure
twice — or regenerating Figures 10-13, which share one delay sweep — is
a cache hit instead of hours of re-simulation.

``serve`` starts the resident job daemon (:mod:`repro.serve`); ``run``,
``sweep`` (``--resume`` included) and ``fuzz`` all take ``--server
ADDRESS`` to submit their work to it instead of simulating in-process —
one shared worker pool, one shared cache, concurrent duplicate
submissions deduped to a single simulation (see docs/serve.md).
``run`` prints the same block either way, and each of the three answers
a daemon that is not there with one ``daemon unreachable`` line and
exit 5.  Every command simulates on the one engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.harness.experiments import ALL_EXPERIMENTS, run_delay_sweep
from repro.harness.reporting import format_table
from repro.harness.sweep import Sweep, resume_sweep
from repro.kernels import build as build_workload, kernel_names
from repro.kernels.base import WorkloadError
from repro.lab import (JournalError, ResultCache, RunFailure, Runner, RunSpec,
                       load_journal, use_runner)
from repro.serve.client import ServeError
from repro.sim.config import GPUConfig
from repro.sim.progress import SimulationHang
from repro.sim.run import simulate
from repro.submit import submit

#: Exit codes for machine consumers (CI, the fuzzer's repro command).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_HANG = 3
EXIT_VALIDATION = 4
EXIT_TRANSIENT = 5
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


def _usage_error(message: str):
    """A flag value that does not parse: the message, exit 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _parse_params(items: List[str], axes: bool = False) -> dict:
    """``--param NAME=VALUE`` items as ``{name: value}``; ``axes`` (sweep's
    ``NAME=VALUE[,VALUE...]`` spelling) keeps ``{name: [values]}``."""
    params = {}
    for item in items:
        name, equals, values = item.partition("=")
        if not equals:
            _usage_error(f"--param expects name=value[,value...], "
                         f"got {item!r}")
        try:
            values = [int(v) for v in values.split(",")]
        except ValueError:
            _usage_error(f"--param {name} values must be integers, "
                         f"got {values!r}")
        if not axes and len(values) != 1:
            _usage_error(f"--param {name} takes one value here (only "
                         f"'repro sweep' takes a list), got {values}")
        params[name] = values if axes else values[0]
    return params


def _parse_bows(item: Optional[str]) -> object:
    if item in (None, "none", "off", ""):
        return None
    if item == "adaptive":
        return "adaptive"
    try:
        return int(item)
    except ValueError:
        _usage_error(f"--bows expects 'none', 'adaptive', or an integer "
                     f"delay in cycles, got {item!r}")


def _add_scale_option(parser, default: str) -> None:
    parser.add_argument("--scale", choices=("full", "quick"),
                        default=default)


def _add_workers_option(parser, default: int = 0) -> None:
    parser.add_argument("--workers", type=int, default=default,
                        help=f"parallel worker processes "
                             f"(default: {default or 'CPU count'})")


def _add_progress_option(parser) -> None:
    parser.add_argument("--progress", action="store_true",
                        help="print per-run progress lines")


def _add_cache_dir_option(parser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: .lab_cache)")


def _add_store_options(parser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache")
    _add_cache_dir_option(parser)
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="autocheckpoint running simulations to DIR; "
                             "killed/timed-out runs resume mid-simulation")


def _add_lab_options(parser) -> None:
    _add_workers_option(parser)
    _add_store_options(parser)
    _add_progress_option(parser)


def _add_server_option(parser, what: str) -> None:
    parser.add_argument("--server", default=None, metavar="ADDRESS",
                        help=f"submit {what} to a 'repro serve' daemon at "
                             f"ADDRESS (socket path or host:port) instead "
                             "of simulating in-process")


def _add_preset_option(parser) -> None:
    parser.add_argument("--preset", choices=("fermi", "pascal"),
                        default="fermi")


def _add_param_option(parser) -> None:
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="workload parameter override (repeatable)")


def _add_machine_options(parser) -> None:
    """One kernel on one machine: ``run``, ``profile`` and ``fuzz``."""
    parser.add_argument("kernel", choices=kernel_names())
    parser.add_argument("--scheduler", choices=("lrr", "gto", "cawa"),
                        default="gto")
    parser.add_argument("--bows", default=None,
                        help="'adaptive' or a fixed delay limit in cycles")
    _add_preset_option(parser)
    _add_param_option(parser)
    parser.add_argument("--watchdog", type=int, default=None,
                        help="no-progress window in cycles before the run "
                             "is classified as hung (0 disables; fuzz "
                             "default: budget/4)")
    parser.add_argument("--progress-epoch", type=int, default=None,
                        help="cycles between progress-monitor samples")
    parser.add_argument("--invariants", action="store_true",
                        help="enable per-epoch microarchitectural "
                             "invariant checks (debug)")


def _add_simulate_options(parser) -> None:
    """One complete simulation: ``run`` and ``profile``."""
    _add_machine_options(parser)
    parser.add_argument("--no-ddos", action="store_true",
                        help="use static !sib annotations instead of DDOS")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="hard simulated-cycle budget")


def _workers(args) -> int:
    return args.workers if args.workers > 0 else os.cpu_count() or 1


def _make_runner(args) -> Runner:
    """Build a lab runner from the shared --workers/--no-cache/--progress
    flags (``fuzz`` has no cache flags: a campaign is never cached)."""
    cache = (None if getattr(args, "no_cache", True)
             else ResultCache(args.cache_dir))
    return Runner(workers=_workers(args), cache=cache,
                  progress=print if args.progress else None,
                  checkpoint_dir=getattr(args, "checkpoint_dir", None))


def _make_config(args) -> GPUConfig:
    """The machine the ``_add_machine_options`` flags describe."""
    overrides = {}
    if getattr(args, "max_cycles", None) is not None:
        overrides["max_cycles"] = args.max_cycles
    if args.watchdog is not None:
        overrides["no_progress_window"] = args.watchdog
    if args.progress_epoch is not None:
        overrides["progress_epoch"] = args.progress_epoch
    if args.invariants:
        overrides["invariant_checks"] = True
    return GPUConfig.preset(
        args.preset,
        scheduler=args.scheduler,
        bows=_parse_bows(args.bows),
        ddos=False if getattr(args, "no_ddos", False) else None,
        **overrides,
    )


def _report_failure(kernel: str, failure: RunFailure) -> int:
    """Print a failed run and map it to the exit-code contract
    (hang=3, validation=4, transient=5)."""
    kind = failure.error_type
    if failure.hung or kind in (
            "SimulationLivelock", "SimulationDeadlock", "SimulationTimeout"):
        verdict, code = f"HANG ({kind})", EXIT_HANG
    elif kind == "WorkloadError":
        verdict, code = "VALIDATION FAILED", EXIT_VALIDATION
    elif failure.transient:
        verdict, code = f"transient error ({kind})", EXIT_TRANSIENT
    else:
        verdict, code = f"FAILED ({kind})", EXIT_FAILURE
    print(f"kernel {kernel}: {verdict}")
    print(failure.message)
    return code


def _report_batch(batch, start: float) -> int:
    """Print a batch's one-line tally and map it to an exit code."""
    failures = batch.failures
    print(f"\n[{batch.total} runs: {batch.cache_hits} cached, "
          f"{batch.executed} simulated, {len(failures)} failed "
          f"in {time.time() - start:.1f}s]")
    if batch.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_FAILURE if failures else EXIT_OK


def _cmd_list(_args) -> int:
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("kernels:    ", ", ".join(kernel_names()))
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    func = ALL_EXPERIMENTS[name]
    start = time.time()
    runner = _make_runner(args)
    with use_runner(runner):
        if name in ("fig10", "fig11", "fig12", "fig13"):
            sweep = run_delay_sweep(scale=args.scale)
            result = func(sweep=sweep)
        elif name == "tab3":
            result = func()
        else:
            result = func(scale=args.scale)
    print(result.render())
    totals = runner.totals
    detail = (f"; {totals['runs']} runs, {totals['cache_hits']} cached, "
              f"{totals['executed']} simulated" if totals else "")
    print(f"\n[{name} regenerated in {time.time() - start:.1f}s{detail}]")
    return 0


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
        bows=[_parse_bows(item.strip()) for chunk in args.bows
              for item in chunk.split(",")] or [None],
    )
    sweep.axis("preset", [args.preset])
    sweep.axis("scale", [args.scale])
    if args.obs:
        sweep.axis("obs", [True])
    for name, values in _parse_params(args.param, axes=True).items():
        sweep.axis(name, values)
    start = time.time()
    result = sweep.run(runner=_make_runner(args), journal=args.journal,
                       server=args.server)
    rows = [
        {k: v for k, v in row.items() if k not in ("preset", "scale")}
        for row in result.rows()
    ]
    print(format_table(rows, title=f"sweep {args.name!r} "
                                   f"({len(rows)} runs, {args.scale} scale)"))
    code = _report_batch(result.batch, start)
    if args.journal:
        print(f"[journal at {args.journal}; finish a killed sweep with "
              f"'repro sweep --resume {args.journal}']")
    return code


def _cmd_sweep_resume(args) -> int:
    """Complete a crashed/killed sweep from its journal."""
    try:
        state = load_journal(args.resume)
    except JournalError as exc:
        raise SystemExit(f"sweep --resume: {exc}")
    print(f"[resuming {args.resume}: {len(state.specs)} spec(s), "
          f"{len(state.done)} already done, {len(state.pending)} pending]")
    start = time.time()
    return _report_batch(
        resume_sweep(args.resume, runner=_make_runner(args),
                     server=args.server), start)


def _cmd_cache_stats(args) -> int:
    print(ResultCache(args.cache_dir).stats().render())
    return EXIT_OK


def _cmd_cache_verify(args) -> int:
    report = ResultCache(args.cache_dir).verify(repair=args.repair)
    print(report.render(verbose=True))
    if report.quarantined:
        print(f"[{len(report.quarantined)} corrupt entr(ies) moved to "
              f"quarantine; they will be recomputed on next use]")
    # Corrupt entries left in place are an error; after --repair the
    # store is clean again (the defects are preserved in quarantine).
    if report.corrupt and not args.repair:
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_cache_clear(args) -> int:
    cache = ResultCache(args.cache_dir)
    removed = cache.clear(stale_only=args.stale_only)
    what = "stale " if args.stale_only else ""
    print(f"removed {removed} {what}cached result(s) "
          f"from {cache.directory}")
    return EXIT_OK


def _cmd_run(args) -> int:
    """Simulate one kernel, in-process or in the ``--server`` daemon."""
    config = _make_config(args)
    spec = RunSpec(kernel=args.kernel, config=config,
                   params=_parse_params(args.param), label=args.kernel)
    start = time.time()
    handle = submit(spec, server=args.server, client_name="run",
                    stream=args.progress_stream)
    if args.progress_stream:
        for record in handle.stream():
            print(f"  [{record.get('kind')}] "
                  + " ".join(f"{k}={v}" for k, v in record.items()
                             if k not in ("v", "kind")))
    outcome = handle.outcome()
    if not outcome.ok:
        return _report_failure(args.kernel, outcome)
    how = "cached" if outcome.from_cache else "simulated"
    print(f"kernel {args.kernel}: {outcome.cycles} cycles "
          f"({how}, {time.time() - start:.1f}s wall)")
    for key, value in outcome.stats.summary().items():
        print(f"  {key:28s}{value}")
    if config.ddos is not None:
        print(f"  detected SIBs: {sorted(outcome.predicted_sibs)}")
    print("  validation: OK")
    return EXIT_OK


def _cmd_profile(args) -> int:
    """Run one kernel with full observability and emit a profile report."""
    from repro.obs import ObsConfig, Observability
    from repro.obs.profile import build_profile

    config = _make_config(args)
    params = _parse_params(args.param)
    if args.quick and not params:
        from repro.harness.params import params_for

        params = params_for(args.kernel, "quick")
    workload = build_workload(args.kernel, **params)
    obs = Observability(ObsConfig(
        event_capacity=args.event_capacity,
        sample_interval=args.sample_interval,
    ), issue_capacity=args.trace_capacity)
    start = time.time()
    try:
        # Direct, not submitted: the report needs the live obs (a
        # RunResult does not carry the issue ring).
        result = simulate(workload, config=config, obs=obs)
    except (SimulationHang, WorkloadError, OSError) as exc:
        return _report_failure(args.kernel, RunFailure(
            spec=None, spec_hash="", error_type=type(exc).__name__,
            message=str(exc), attempts=1,
            transient=isinstance(exc, OSError),
        ))
    elapsed = time.time() - start
    report = build_profile(result, workload=args.kernel,
                           scheduler=args.scheduler, engine="fast")
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
        written = obs.export_chrome_trace(args.trace)
        print(f"[chrome trace ({written} issue events + counter tracks) "
              f"written to {args.trace}]")
    print(f"\n[{args.kernel} profiled in {elapsed:.1f}s: "
          f"{result.cycles} cycles, {obs.bus.total_events} events, "
          f"{len(obs.series.rows) if obs.series else 0} sample intervals]")
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    from repro.fuzz import ScheduleFuzzer

    fuzzer = ScheduleFuzzer(
        args.kernel,
        params=_parse_params(args.param) or None,
        base_config=_make_config(args),
        budget_cycles=args.budget_cycles,
        watchdog=args.watchdog,
        progress_epoch=args.progress_epoch,
        sched_jitter=args.jitter,
        mem_jitter_cycles=args.mem_jitter,
        rotation_period=args.rotation,
        scale=args.scale,
        sanitize=args.sanitize,
    )
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    report = fuzzer.run(seeds, runner=_make_runner(args),
                        shrink=not args.no_shrink,
                        journal=args.resume or args.journal,
                        resume=bool(args.resume), server=args.server)
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
    from repro.analysis.lint import lint_all, lint_kernel

    if args.all == (args.kernel is not None):
        print("lint: specify exactly one of KERNEL or --all",
              file=sys.stderr)
        return EXIT_USAGE
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
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(rep.render() for _, rep in sorted(reports.items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[lint report written to {args.out}]")
    else:
        print(text)
    return EXIT_FAILURE if failed else EXIT_OK


def _cmd_serve(args) -> int:
    """Start (or query / stop) the resident simulation daemon."""
    from repro.serve import ServeClient, ServeDaemon

    if args.status or args.stop:
        with ServeClient(args.address, name="cli") as client:
            if args.status:
                status = client.status()
                status.pop("type", None)
                print(json.dumps(status, indent=2, sort_keys=True))
            if args.stop:
                client.shutdown_daemon(drain=not args.abort)
                print(f"[daemon at {args.address} asked to "
                      f"{'abort' if args.abort else 'drain'}]")
        return EXIT_OK

    if args.timeout_s is not None and not args.timeout_s > 0:
        _usage_error(f"--timeout-s must be > 0, got {args.timeout_s}")
    daemon = ServeDaemon(
        args.address,
        workers=_workers(args),
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

    def command(name, func, into=sub, **kwargs):
        cmd = into.add_parser(name, **kwargs)
        cmd.set_defaults(func=func)
        return cmd

    command("list", _cmd_list, help="list experiments and kernels")

    exp = command("experiment", _cmd_experiment,
                  help="regenerate a paper artifact")
    exp.add_argument("name", choices=sorted(ALL_EXPERIMENTS), metavar="NAME",
                     help="fig1..fig16 / tab1 / tab3")
    _add_scale_option(exp, "full")
    _add_lab_options(exp)

    swp = command("sweep", _cmd_sweep,
                  help="run a cartesian (kernel x scheduler x bows) sweep")
    swp.add_argument("--name", default="cli-sweep",
                     help="sweep name (journal/reporting)")
    swp.add_argument("--kernel", action="append", default=[],
                     choices=kernel_names(), metavar="KERNEL",
                     help="kernel to include (repeatable; default: ht)")
    # The axis-valued spellings of run's --scheduler / --bows / --param.
    swp.add_argument("--scheduler", action="append", default=[],
                     metavar="POLICY[,POLICY...]",
                     help="base scheduler axis (default: gto)")
    swp.add_argument("--bows", action="append", default=[],
                     metavar="LIMIT[,LIMIT...]",
                     help="BOWS axis: 'none', a delay limit, or 'adaptive'")
    swp.add_argument("--param", action="append", default=[],
                     metavar="NAME=VALUE[,VALUE...]",
                     help="workload parameter axis (repeatable)")
    _add_preset_option(swp)
    _add_scale_option(swp, "quick")
    swp.add_argument("--journal", default=None, metavar="PATH",
                     help="record specs, outcomes and notes in a durable "
                          "JSONL journal, making the sweep resumable")
    swp.add_argument("--resume", default=None, metavar="PATH",
                     help="complete a killed sweep from its journal "
                          "(finished specs come back as cache hits)")
    _add_server_option(swp, "the sweep")
    swp.add_argument("--obs", action="store_true",
                     help="collect observability (time series + events) "
                          "on every run; with --server the samples "
                          "stream back live")
    _add_lab_options(swp)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = command("stats", _cmd_cache_stats, into=cache_sub,
                    help="entry counts and sizes")
    verify = command("verify", _cmd_cache_verify, into=cache_sub,
                     help="per-entry size + integrity scan (exit 1 on "
                          "corrupt entries unless --repair quarantines them)")
    verify.add_argument("--repair", action="store_true",
                        help="move corrupt entries to quarantine/ so they "
                             "are recomputed on next use")
    clear = command("clear", _cmd_cache_clear, into=cache_sub,
                    help="delete cached results")
    clear.add_argument("--stale-only", action="store_true",
                       help="only drop entries from old code fingerprints")
    for sub_parser in (stats, verify, clear):
        _add_cache_dir_option(sub_parser)

    run = command("run", _cmd_run, help="simulate one kernel")
    _add_simulate_options(run)
    _add_server_option(run, "the run")
    run.add_argument("--progress-stream", action="store_true",
                     help="print progress records (lifecycle marks, obs "
                          "samples): live with --server, at the end otherwise")

    prof = command("profile", _cmd_profile,
                   help="simulate one kernel with full observability and "
                        "report hot spots, back-off timelines, and DDOS "
                        "decisions")
    _add_simulate_options(prof)
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

    fuzz = command("fuzz", _cmd_fuzz,
                   help="hunt for schedule-dependent hangs with seeded "
                        "perturbations")
    _add_machine_options(fuzz)
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
    _add_scale_option(fuzz, "quick")
    _add_workers_option(fuzz, default=1)
    _add_progress_option(fuzz)
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip shrinking the first hang")
    fuzz.add_argument("--json", default=None, metavar="PATH",
                      help="write the full fuzz report JSON to PATH")
    fuzz.add_argument("--sanitize", action="store_true",
                      help="attach the dynamic sanitizer to every seed; "
                           "completed-but-racy schedules become 'race' "
                           "findings (exit 4)")
    fuzz.add_argument("--journal", default=None, metavar="PATH",
                      help="append per-seed outcomes to a durable JSONL "
                           "journal, making the campaign resumable")
    fuzz.add_argument("--resume", default=None, metavar="PATH",
                      help="continue a killed campaign from its journal: "
                           "seeds that completed count as clean and are not "
                           "re-run (all are under --sanitize); the rest run")
    _add_server_option(fuzz, "every seed")

    lint = command("lint", _cmd_lint,
                   help="static kernel lint: spin/SIB classification, lock "
                        "discipline, divergent barriers, dataflow checks")
    lint.add_argument("kernel", nargs="?", choices=kernel_names(),
                      default=None,
                      help="kernel to lint (omit with --all)")
    lint.add_argument("--all", action="store_true",
                      help="lint every registered kernel")
    _add_param_option(lint)
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (json is the Table I "
                           "static-oracle source; see EXPERIMENTS.md)")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="write the report to PATH instead of stdout")

    serve = command("serve", _cmd_serve,
                    help="run the resident simulation daemon: shared worker "
                         "pool, cache dedup, streamed progress (see "
                         "docs/serve.md)")
    serve.add_argument("address",
                       help="listen address: a Unix-socket path or "
                            "host:port")
    _add_workers_option(serve)
    serve.add_argument("--mode", choices=("process", "thread"),
                       default="process",
                       help="worker pool kind (process isolates "
                            "simulations; thread is for tests)")
    _add_store_options(serve)
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
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    serve.add_argument("--status", action="store_true",
                       help="print a running daemon's status JSON and exit")
    serve.add_argument("--stop", action="store_true",
                       help="ask a running daemon to drain and stop")
    serve.add_argument("--abort", action="store_true",
                       help="with --stop: abort without draining")

    args = parser.parse_args(argv)
    try:
        try:
            status = args.func(args)
        except ServeError as exc:
            # Connect, handshake or a connection lost mid-run: infrastructure.
            print(f"daemon unreachable ({exc})")
            status = EXIT_TRANSIENT
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Nobody reads stdout (`repro run ... | head -4`): exit quietly,
        # with fd 1 on /dev/null so the interpreter's last flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
