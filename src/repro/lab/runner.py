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

A runner keeps one core, and so one pool, across back-to-back batches:
a sweep's next batch finds its workers warm (imports done, heap
settled).  The pool retires once it has idled :data:`POOL_LINGER_S`,
and a core that was drained, lost a worker or broke while idle is
replaced, never lent to the next batch.  Process workers see this
process as it was when the pool forked.

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
from repro.lab.journal import note_record, outcome_record, render
from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.spec import RunSpec

#: Seconds an idle pool outlives its last batch.  Back-to-back batches
#: of one caller are a few milliseconds apart (a sweep's next figure, a
#: benchmark's next op), so they reuse the warm pool; a caller that has
#: moved on is left with no worker processes a moment later.
POOL_LINGER_S = 0.1


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
    """The outcomes of one :meth:`Runner.run_many` batch, in spec order."""

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
        #: Receives each line :func:`~repro.lab.journal.render` makes.
        self.progress = progress
        self.checkpoint_dir = checkpoint_dir
        self.backoff_base_s = backoff_base_s
        self.grace_s = grace_s
        self.last_report: Optional[BatchReport] = None
        #: Guards the idle core, the busy flag and the retire timer.
        self._lock = threading.Lock()
        #: The core whose pool waits, warm, for the next batch (``None``
        #: while a batch holds it, or once it has retired).
        self._core: Optional[ExecutionCore] = None
        self._busy = False
        self._retire_timer: Optional[threading.Timer] = None

    # ------------------------------------------------------------------

    def run_many(self, specs: Sequence[RunSpec],
                 journal=None) -> BatchReport:
        """Drive every spec to a result or failure record, in order.

        ``journal`` is an optional
        :class:`~repro.lab.journal.SweepJournal`: specs, outcomes and a
        closing ``batch_end`` note of the batch's counters are appended
        durably, enabling ``repro sweep --resume``.  One runner runs one
        batch at a time; a concurrent call raises :class:`LabError`.
        """
        specs = list(specs)
        start = time.perf_counter()
        report = BatchReport(results=[None] * len(specs))
        slots: Dict[Task, int] = {}
        core = self._take_core()
        # The core outlives the batch; what belongs to the batch is wired
        # in here, and its counters are read as deltas.
        core.journal = journal
        core.listener = partial(self._on_event, report, slots)
        before = (core.retried, core.worker_losses, core.stragglers)
        reusable = False
        try:
            if journal is not None:
                for spec in specs:
                    core.persist(journal.record_spec, spec)
            for index, spec in enumerate(specs):
                task = Task(spec, client="batch")
                slots[task] = index
                core.submit(task)

            def on_signal(repeat: bool) -> None:
                if repeat:
                    raise KeyboardInterrupt
                report.interrupted = True
                self._say(note_record("signal"))

            with core.drain_on_signal(self.grace_s, on_signal):
                while not core.idle:
                    core.pump()
            report.retried = core.retried - before[0]
            report.worker_losses = core.worker_losses - before[1]
            report.stragglers = core.stragglers - before[2]
            if journal is not None:
                core.persist(journal.append, note_record(
                    "batch_end", retried=report.retried,
                    worker_losses=report.worker_losses,
                    stragglers=report.stragglers,
                    interrupted=report.interrupted))
            reusable = not (core.draining or report.worker_losses)
        finally:
            core.journal = None
            self._return_core(core, reusable)
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

    def _take_core(self) -> ExecutionCore:
        """The warm core, or a new one if it retired or broke idle."""
        with self._lock:
            if self._busy:
                raise LabError(
                    "this Runner is already running a batch; run_many "
                    "one batch at a time, or give each thread a Runner")
            if self._retire_timer is not None:
                self._retire_timer.cancel()
                self._retire_timer = None
            core, self._core = self._core, None
            if core is not None and core.pool_broken:
                # A worker died while the pool idled: that says nothing
                # about any spec, so no batch is charged for it.
                core.close()
                core = None
            if core is None:
                core = ExecutionCore(
                    FifoQueue(), self._pool_call, None,  # wired per batch
                    workers=self.workers, mode=self.mode, cache=self.cache,
                    timeout_s=self.timeout_s, retries=self.retries,
                    backoff_base_s=self.backoff_base_s,
                )
            self._busy = True
        return core

    def _return_core(self, core: ExecutionCore, reusable: bool) -> None:
        """Park ``core`` for the next batch, its workers retiring after
        :data:`POOL_LINGER_S` idle, or retire it now."""
        if not reusable:
            core.close()
        with self._lock:
            self._busy = False
            if reusable:
                self._core = core
                if core.pooled:  # an all-cached batch may have none
                    self._retire_timer = threading.Timer(
                        POOL_LINGER_S, self._retire, (core,))
                    self._retire_timer.daemon = True
                    self._retire_timer.start()

    def _retire(self, core: ExecutionCore) -> None:
        # Under the lock, and only while parked: a batch that took the
        # core first keeps it, and never dispatches to a shut-down pool.
        with self._lock:
            if self._core is not core:
                return
            self._core = None
            self._retire_timer = None
        core.close()

    def _say(self, line: Dict[str, Any], task: Optional[Task] = None) -> None:
        if self.progress is not None:
            self.progress(render(line, task and task.spec.display))

    def _pool_call(self, task: Task) -> tuple:
        run_fn = self.run_fn or partial(execute_run,
                                        checkpoint_dir=self.checkpoint_dir)
        return (_run_with_timeout, run_fn, task.spec, self.timeout_s)

    def _on_event(self, report: BatchReport, slots: Dict[Task, int],
                  kind: str, task: Optional[Task], detail: Any) -> None:
        if kind == "settled":
            report.results[slots[task]] = detail
            detail = outcome_record(detail)
        self._say(detail, task)
