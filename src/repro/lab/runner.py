"""Fan-out execution of RunSpecs: parallel, cached, fault-tolerant.

The :class:`Runner` takes a batch of independent :class:`RunSpec`\\ s and
drives each one to a :class:`RunResult` or a structured
:class:`RunFailure` — a crashed or hung simulation never tears down the
rest of the sweep.  ``run_many`` is the shared
:class:`~repro.lab.core.ExecutionCore` pumped on the caller's thread
over a FIFO: retry, worker-loss, straggler and drain policy live there
(one copy, also under ``repro serve``).  The runner adds the batch
shape — results in spec order, a :class:`BatchReport`, the
SIGINT/SIGTERM handlers that start a drain — and three pool modes:

* ``process`` (default when ``workers > 1``) — a
  ``ProcessPoolExecutor``; each worker builds its workload, simulates,
  validates, and ships back only the light-weight result record.
* ``thread`` — a ``ThreadPoolExecutor``; no isolation, but the injected
  ``run_fn`` shares memory with the caller (used by tests).
* ``serial`` — runs on the calling thread (default when
  ``workers == 1``).

Per-run wall-clock timeouts are enforced *inside* the executing process
via ``SIGALRM`` (each pool worker's main thread), so a hung run
surfaces as an ordinary exception and the pool stays healthy.  With
``checkpoint_dir`` set, each run autocheckpoints once per
``progress_epoch`` to ``<dir>/<spec_hash>.ckpt``; a rerun of the same
spec resumes from that file instead of cycle 0, and the file is removed
when the run completes.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.lab.cache import ResultCache
from repro.lab.core import (BACKOFF_BASE_S, ExecutionCore, FifoQueue,
                            RunTimeout, Task)
from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.spec import RunSpec


def execute_run(spec: RunSpec, checkpoint_dir=None,
                tap=None) -> RunResult:
    """Build, simulate, validate, and score one spec (worker entry).

    With ``checkpoint_dir``, the simulation autocheckpoints its complete
    machine state to ``<dir>/<spec_hash>.ckpt`` once per
    ``progress_epoch``; if that file already exists — a previous
    attempt was killed or timed out — the run *resumes* from it instead
    of restarting, and a corrupt checkpoint falls back to a fresh run.
    The file is deleted once the run completes.

    ``tap`` is an optional live consumer (``tap.on_event(event)``,
    ``tap.on_row(row)`` — the serve daemon's progress spool), subscribed
    on the run's :class:`~repro.obs.Observability` once that is built
    *or restored*; a spec without ``obs`` has nothing to tap.  A
    subscriber only reads what the spec asked to collect, so the result
    is the same with or without one.
    """
    # Imported here so pool workers pay the import once and the lab core
    # stays import-cycle-free with the harness/api layers.
    import dataclasses

    from repro.kernels import build as build_workload
    from repro.sim.gpu import GPU

    spec_hash = spec.content_hash()
    ckpt_path: Optional[Path] = None
    resume_ckpt = None
    if checkpoint_dir is not None:
        from repro.sim.checkpoint import CheckpointError, SimCheckpoint

        ckpt_path = Path(checkpoint_dir) / f"{spec_hash}.ckpt"
        if ckpt_path.is_file():
            try:
                resume_ckpt = SimCheckpoint.load(ckpt_path)
            except CheckpointError:
                # Torn write or stale simulator code: recompute fresh.
                try:
                    ckpt_path.unlink()
                except OSError:
                    pass

    start = time.perf_counter()
    workload = build_workload(spec.kernel, **spec.build_params())
    built = time.perf_counter()

    # One road from here: a Simulation — restored, or begun on the
    # fresh build — is tapped, run, validated and scored the same way.
    if resume_ckpt is not None:
        live = resume_ckpt.restore()
    else:
        gpu = GPU(spec.config, memory=workload.memory, engine=spec.engine,
                  obs=spec.obs, sanitizer=spec.sanitize)
        live = gpu.begin(workload.launch)
    obs = live.obs
    # Live consumers are not state (a pickle drops them), so the tap is
    # attached here: after the Observability is built or restored,
    # before anything is published on it.
    if tap is not None and obs is not None:
        obs.subscribe(tap.on_event, tap.on_row)
    if resume_ckpt is not None and obs is not None and obs.bus is not None:
        from repro.obs.events import RunResumed

        obs.bus.publish(RunResumed(
            cycle=live.now, path=str(ckpt_path), spec_hash=spec_hash,
        ))
    sim = live.run(checkpoint_every=True if ckpt_path else None,
                   checkpoint_path=ckpt_path)
    # The workload build is deterministic in (kernel, params, seed), so
    # the fresh build's validator checks a resumed run exactly as it
    # checks an uninterrupted one.
    if spec.validate and not spec.config.magic_locks:
        workload.validate(sim.memory)
    simulated = time.perf_counter()

    ddos_outcome = None
    if spec.config.ddos is not None:
        from repro.harness.ddos_eval import score_result
        ddos_outcome = dataclasses.asdict(score_result(spec.kernel, sim))
    end = time.perf_counter()

    if ckpt_path is not None:
        try:
            ckpt_path.unlink()  # completed: the checkpoint is obsolete
        except OSError:
            pass

    return RunResult(
        spec_hash=spec_hash,
        cycles=sim.cycles,
        stats=sim.stats,
        predicted_sibs=sorted(sim.predicted_sibs()),
        ddos=ddos_outcome,
        elapsed_s=end - start,
        phases={
            "build_s": built - start,
            "simulate_s": simulated - built,
            "score_s": end - simulated,
        },
        # Bounded event log: results travel through pickles and the
        # on-disk cache, so cap the embedded raw log (counts and the
        # time series are complete either way).
        obs=(sim.obs.to_dict(max_events=2_000)
             if sim.obs is not None else None),
        sanitizer=(sim.sanitizer.to_dict()
                   if sim.sanitizer is not None else None),
        label=spec.label,
    )


def _run_with_timeout(run_fn: Callable[[RunSpec], RunResult],
                      spec: RunSpec,
                      timeout_s: Optional[float]) -> RunResult:
    """Run ``run_fn(spec)``, enforcing ``timeout_s`` via SIGALRM.

    The alarm is only available on the main thread of a process (true
    for serial mode and for every process-pool worker); thread-mode
    runs fall back to no hard timeout.  The caller's prior SIGALRM
    handler *and* itimer are saved and restored — a host application's
    own alarm is re-armed (minus the time we consumed) rather than
    silently cleared.
    """
    use_alarm = (
        timeout_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return run_fn(spec)

    def _on_alarm(_signum, _frame):
        raise RunTimeout(
            f"run {spec.display} exceeded {timeout_s:.3f}s wall clock"
        )

    try:
        previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # defensive: signal set refused off-main-thread
        return run_fn(spec)
    armed_at = time.monotonic()
    prev_remaining, prev_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout_s
    )
    try:
        return run_fn(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prev_remaining > 0.0:
            # Re-arm the caller's timer with whatever time it has left;
            # if it should already have fired, fire it immediately.
            elapsed = time.monotonic() - armed_at
            signal.setitimer(
                signal.ITIMER_REAL,
                max(prev_remaining - elapsed, 1e-6),
                prev_interval,
            )


@dataclass
class BatchReport:
    """Manifest of one :meth:`Runner.run_many` batch."""

    results: List[Union[RunResult, RunFailure]]
    elapsed_s: float = 0.0
    retried: int = 0
    #: In-flight specs re-queued for free after a pool worker died.
    worker_losses: int = 0
    #: Pooled runs observed exceeding ``core.STRAGGLER_FACTOR × timeout_s``.
    stragglers: int = 0
    #: The batch was drained early by SIGINT/SIGTERM.
    interrupted: bool = False

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.ok and r.from_cache)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if r.ok and not r.from_cache)

    @property
    def failures(self) -> List[RunFailure]:
        return [r for r in self.results if not r.ok]

    def raise_on_failure(self) -> None:
        failures = self.failures
        if failures:
            details = "\n  ".join(f.describe() for f in failures)
            raise LabError(
                f"{len(failures)}/{self.total} runs failed:\n  {details}"
            )

    def manifest(self) -> Dict[str, Any]:
        """JSON-ready summary (one row per run, headline counters)."""
        rows = []
        for r in self.results:
            if r.ok:
                row = {
                    "label": r.label,
                    "spec_hash": r.spec_hash,
                    "status": "cached" if r.from_cache else "ok",
                    "cycles": r.cycles,
                    "attempts": r.attempts,
                    "elapsed_s": round(r.elapsed_s, 3),
                }
                if r.obs is not None:
                    # Headline observability numbers; the full payload
                    # stays on the RunResult itself.
                    events = r.obs.get("events", {})
                    series = r.obs.get("series") or {}
                    row["obs"] = {
                        "event_total": events.get("total", 0),
                        "event_dropped": events.get("dropped", 0),
                        "series_rows": len(series.get("rows", [])),
                    }
                if r.sanitizer is not None:
                    row["sanitizer"] = {
                        "ok": r.sanitizer.get("ok", True),
                        "findings": len(r.sanitizer.get("diagnostics", [])),
                    }
                rows.append(row)
            else:
                row = {
                    "label": r.spec.label if r.spec else None,
                    "spec_hash": r.spec_hash,
                    "status": "failed",
                    "error": f"{r.error_type}: {r.message}",
                    "attempts": r.attempts,
                    "elapsed_s": round(r.elapsed_s, 3),
                }
                if r.hang is not None:
                    # Inline HangReport JSON: the forensics survive the
                    # manifest even after the worker process is gone.
                    row["hang"] = r.hang
                rows.append(row)
        return {
            "total": self.total,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": len(self.failures),
            "retried": self.retried,
            "worker_losses": self.worker_losses,
            "stragglers": self.stragglers,
            "interrupted": self.interrupted,
            "elapsed_s": round(self.elapsed_s, 3),
            "runs": rows,
        }


class Runner:
    """Executes batches of RunSpecs with caching, retries, and timeouts."""

    def __init__(
        self,
        workers: int = 1,
        mode: Optional[str] = None,
        cache: Optional[Union[ResultCache, str]] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        run_fn: Optional[Callable[[RunSpec], RunResult]] = None,
        progress: Optional[Callable[[str], None]] = None,
        bus=None,
        checkpoint_dir=None,
        backoff_base_s: float = BACKOFF_BASE_S,
        grace_s: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode is None:
            mode = "serial" if workers == 1 else "process"
        if mode not in ("serial", "thread", "process"):
            raise ValueError(f"unknown mode {mode!r}")
        self.workers = workers
        self.mode = mode
        self.cache = (ResultCache(cache) if isinstance(cache, (str, bytes))
                      or hasattr(cache, "__fspath__") else cache)
        self.timeout_s = timeout_s
        self.retries = retries
        #: The function actually executed per spec; injectable for tests
        #: (must be picklable — i.e. module-level — in process mode).
        self.run_fn = run_fn
        self.progress = progress
        #: Optional :class:`repro.obs.EventBus` receiving lab-level
        #: events (worker losses, quarantines).  Shared with the cache.
        self.bus = bus
        if self.bus is not None and self.cache is not None:
            self.cache.bus = self.bus
        self.checkpoint_dir = checkpoint_dir
        self.backoff_base_s = backoff_base_s
        self.grace_s = grace_s
        self.last_report: Optional[BatchReport] = None

    # ------------------------------------------------------------------

    def run_many(self, specs: Sequence[RunSpec],
                 journal=None) -> BatchReport:
        """Drive every spec to a result or failure record, in order.

        ``journal`` is an optional
        :class:`~repro.lab.journal.SweepJournal`: specs and outcomes are
        appended durably as the batch progresses, enabling
        ``repro sweep --resume``.
        """
        specs = list(specs)
        start = time.perf_counter()
        report = BatchReport(results=[None] * len(specs))
        if journal is not None:
            for spec in specs:
                journal.record_spec(spec)
        slots: Dict[Task, int] = {}
        core = ExecutionCore(
            FifoQueue(), self._pool_call,
            partial(self._on_event, report, slots), self._note,
            workers=self.workers, mode=self.mode, cache=self.cache,
            journal=journal, timeout_s=self.timeout_s,
            retries=self.retries, backoff_base_s=self.backoff_base_s,
        )
        for index, spec in enumerate(specs):
            task = Task(spec, client="batch")
            slots[task] = index
            core.submit(task)

        def on_signal(repeat: bool) -> None:
            if repeat:
                raise KeyboardInterrupt
            report.interrupted = True
            self._note("signal received: draining in-flight runs "
                       "(repeat to abort immediately)")

        try:
            with core.drain_on_signal(self.grace_s, on_signal):
                while not core.idle:
                    core.pump()
        finally:
            core.close()
            report.retried = core.retried
            report.worker_losses = core.worker_losses
            report.stragglers = core.stragglers

        if report.interrupted and journal is not None:
            journal.record_note("interrupted",
                                completed=sum(r.ok for r in report.results))
        report.elapsed_s = time.perf_counter() - start
        self.last_report = report
        return report

    def run_map(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Like :meth:`run_many`, but all-or-error: raises on any failure."""
        report = self.run_many(specs)
        report.raise_on_failure()
        return list(report.results)

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run_map([spec])[0]

    # ------------------------------------------------------------------

    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _pool_call(self, task: Task) -> tuple:
        run_fn = self.run_fn or partial(execute_run,
                                        checkpoint_dir=self.checkpoint_dir)
        return (_run_with_timeout, run_fn, task.spec, self.timeout_s)

    def _on_event(self, report: BatchReport, slots: Dict[Task, int],
                  kind: str, task: Task, detail: Any) -> None:
        if kind == "settled":
            report.results[slots[task]] = detail
        elif kind == "worker_lost" and self.bus is not None:
            from repro.obs.events import WorkerLost

            self.bus.publish(WorkerLost(
                cycle=0, spec_hash=task.spec.content_hash(),
                requeued=detail,
            ))
