"""Fan-out execution of RunSpecs: parallel, cached, fault-tolerant.

The :class:`Runner` takes a batch of independent :class:`RunSpec`\\ s and
drives each one to a :class:`RunResult` or a structured
:class:`RunFailure` — a crashed or hung simulation never tears down the
rest of the sweep.  A runner is the ``repro serve`` daemon's engine
without a socket: ``run_many`` submits the batch, as one client, to an
:class:`~repro.lab.core.ExecutionCore` and pumps it on the caller's
thread, so dedup (identical specs of a batch simulate once), the queue,
retry, worker-loss, straggler and drain policy, the worker entry and its
progress spool are the daemon's.  The runner adds the batch shape —
results in spec order, a :class:`BatchReport`, the SIGINT/SIGTERM
handlers that start a drain — and picks the pool: ``process`` (default
when ``workers > 1``; each worker ships back only the light-weight
result record), ``thread`` (no isolation, but an injected ``run_fn``
shares memory with the caller) or ``serial`` (the caller's thread,
default when ``workers == 1``).

A runner keeps one core, and so one pool, across back-to-back batches:
a sweep's next batch finds its workers warm (imports done, heap
settled).  The pool retires once it has idled :data:`POOL_LINGER_S`,
and a core that was drained, lost a worker or broke while idle is
replaced, never lent to the next batch.  Process workers see this
process as it was when the pool forked.

Per-run wall-clock timeouts are enforced *inside* the executing process
via ``SIGALRM`` (a pool worker's main thread, or the caller's in serial
mode), so a hung run surfaces as an ordinary exception and the pool
stays healthy; with ``checkpoint_dir`` a killed run resumes from its
last autocheckpoint (:mod:`repro.lab.worker`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Union)

from repro.lab.cache import ResultCache
from repro.lab.core import BACKOFF_BASE_S, ExecutionCore
from repro.lab.journal import note_record, render
from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.spec import RunSpec

#: Seconds an idle pool outlives its last batch.  Back-to-back batches
#: of one caller are a few milliseconds apart (a sweep's next figure, a
#: benchmark's next op), so they reuse the warm pool; a caller that has
#: moved on is left with no worker processes a moment later.
POOL_LINGER_S = 0.1


class RunFailedError(LabError):
    """`.result()` was asked for a run that failed; carries the record."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


class RunHandle:
    """One submitted run, whichever road it took: the subscriber to its
    job — fed by the engine of a :class:`Runner` batch, or by the serve
    client's reader — and the caller's thread-safe view of it."""

    def __init__(self, spec: RunSpec, wants_stream: bool = True) -> None:
        self.spec = spec
        #: The caller asked for progress records; a job none of whose
        #: subscribers asks for them at dispatch is not spooled.
        self.wants_stream = wants_stream
        #: The engine's verdict at submission: queued, attached or cached.
        self.status: Optional[str] = None
        self.job_id: Optional[str] = None
        self.spec_hash: Optional[str] = None
        self._records: List[Dict[str, Any]] = []
        #: The outcome, or the exception that lost it (served only).
        self._outcome: Any = None
        self._changed = threading.Condition(threading.Lock())
        #: A :class:`~repro.submit.SubmitBatch` told when this resolves.
        self._batch = None

    # -- the subscriber's side -----------------------------------------

    def accepted(self, job, status: str) -> None:
        self.job_id, self.spec_hash = job.id, job.spec_hash
        self.status = status
        if job.cached is not None:  # cached: settled at submission
            self.send(job, job.cached.result(job.spec.label))

    def send(self, job, item) -> bool:
        """``item``: a progress record (a ``dict``), then the outcome — a
        :class:`RunResult`, a :class:`RunFailure`, or the exception that
        lost it."""
        with self._changed:
            if isinstance(item, dict):
                self._records.append(item)
            elif self._outcome is None:
                # An attached duplicate's outcome is about its own spec.
                if isinstance(item, RunResult) \
                        and item.label != self.spec.label:
                    item = dataclasses.replace(item, label=self.spec.label)
                elif isinstance(item, RunFailure) \
                        and item.spec is not self.spec:
                    item = dataclasses.replace(item, spec=self.spec)
                self._outcome = item
            self._changed.notify_all()
        return True

    # -- the caller's side ---------------------------------------------

    @property
    def done(self) -> bool:
        return self._outcome is not None

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._changed:
            return self._changed.wait_for(lambda: self.done, timeout)

    def stream(self) -> Iterator[Dict[str, Any]]:
        """Yield the run's progress records (v1 host records:
        ``lifecycle`` / ``sample`` / ``event`` / ``event_gap``), from the
        first on every call, until the run is terminal."""
        seen = 0
        while True:
            with self._changed:
                self._changed.wait_for(
                    lambda: self.done or len(self._records) > seen)
                fresh, finished = self._records[seen:], self.done
            seen += len(fresh)
            yield from fresh
            if finished:
                return

    def outcome(self, timeout: Optional[float] = None
                ) -> Union[RunResult, RunFailure]:
        """Block for the terminal record — a result *or* a failure."""
        if not self.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not complete within {timeout}s")
        if isinstance(self._outcome, Exception):
            raise self._outcome
        with self._changed:  # the batch hears of each handle once
            batch, self._batch = self._batch, None
        if batch is not None:
            batch._handle_resolved()
        return self._outcome

    def result(self, timeout: Optional[float] = None) -> RunResult:
        """Block for the :class:`RunResult`; a failed run raises
        :class:`RunFailedError` carrying the failure record."""
        outcome = self.outcome(timeout)
        if isinstance(outcome, RunFailure):
            raise RunFailedError(outcome)
        return outcome


class _Lent(list):
    """A batch's specs with the handles their caller made for them
    (``submit_many``'s, carrying its ``stream`` flag)."""

    def __init__(self, handles: List[RunHandle]) -> None:
        super().__init__(handle.spec for handle in handles)
        self.handles = handles


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
    #: Each spec's :class:`RunHandle`, in spec order (a local batch's).
    handles: List[RunHandle] = field(default_factory=list, repr=False)

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
        #: Guards the core, the busy flag and the retire timer.
        self._lock = threading.Lock()
        #: The engine every batch is pumped through; its pool waits, warm,
        #: for the next batch (``None`` until the first, or once replaced).
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
        start = time.perf_counter()
        # Nobody streams a plain batch's runs, so none is spooled.
        report = BatchReport(results=[], handles=(
            specs.handles if isinstance(specs, _Lent) else
            [RunHandle(spec, wants_stream=False) for spec in specs]))
        core = self._take_core()
        # The core outlives the batch; what belongs to the batch is wired
        # in here, and its counters are read as deltas.
        core.journal, core.run_fn = journal, self.run_fn
        before = (core.retried, core.worker_losses, core.stragglers)
        reusable = False
        try:
            for handle in report.handles:
                core.submit(handle.spec, "batch", handle)

            def on_signal(repeat: bool) -> None:
                if repeat:
                    raise KeyboardInterrupt
                report.interrupted = True
                self._say(note_record("signal"))

            with core.drain_on_signal(self.grace_s, on_signal):
                while not core.idle:
                    core.pump()
            report.results = [handle.outcome() for handle in report.handles]
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
        """The runner's core, warm or new (a pool that broke idle is shut
        down first: that says nothing about any spec, so no batch is
        charged for it)."""
        with self._lock:
            if self._busy:
                raise LabError(
                    "this Runner is already running a batch; run_many "
                    "one batch at a time, or give each thread a Runner")
            if self._retire_timer is not None:
                self._retire_timer.cancel()  # one firing now stands down
                self._retire_timer = None
            if self._core is None:
                self._core = ExecutionCore(
                    workers=self.workers, mode=self.mode, cache=self.cache,
                    timeout_s=self.timeout_s, retries=self.retries,
                    backoff_base_s=self.backoff_base_s,
                    checkpoint_dir=self.checkpoint_dir, narrate=self._say)
            elif self._core.pool_broken:
                self._core.close()
            self._busy = True
            return self._core

    def _return_core(self, core: ExecutionCore, reusable: bool) -> None:
        """Keep ``core`` for the next batch, its workers retiring after
        :data:`POOL_LINGER_S` idle; a drained core, or one that lost a
        worker, is retired now and replaced."""
        with self._lock:
            self._busy = False
            if reusable and core.pooled:
                self._retire_timer = threading.Timer(POOL_LINGER_S,
                                                     self._retire)
                self._retire_timer.daemon = True
                self._retire_timer.start()
            else:  # nothing warm to keep (serial, all cached), or broken
                core.close()
                if not reusable:
                    self._core = None

    def _retire(self) -> None:
        # Only the latest timer, and only while no batch holds the core:
        # a batch never dispatches to a shut-down pool.
        with self._lock:
            if threading.current_thread() is self._retire_timer:
                self._retire_timer = None
                self._core.close()

    def _say(self, line: Dict[str, Any], name: Optional[str] = None) -> None:
        if self.progress is not None:
            self.progress(render(line, name))
