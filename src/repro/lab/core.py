"""The execution engine: one submit path, one pool, one settle-once policy.

Both front ends drive specs through one :class:`ExecutionCore` — a
:class:`~repro.lab.runner.Runner` batch (one client) pumps it on the
caller's thread, the serve daemon on its ``serve-dispatch`` thread
behind a socket — so a run's fate cannot depend on the road it travels
(``docs/robustness.md``, "Execution core"):

* :meth:`ExecutionCore.submit` journals the spec and lets the
  :class:`JobStore` classify it: an identical spec in flight gains a
  subscriber instead of a second simulation, a cached one is answered
  at once, anything else is queued;
* a job leaves the :class:`FairScheduler` only when a worker can take
  it (one more is staged behind the workers, see :meth:`ExecutionCore.
  pump`), so the queue's order is the order runs start in and a job is
  in the queue, in ``running``, in ``delayed`` or settled — the core
  alone says which;
* the cache is re-checked at dispatch; a hit never reaches a worker;
* every attempt runs the one worker entry, :func:`~repro.lab.worker.
  serve_entry`, whose progress spool the pump tails and fans out — a
  job is spooled only if a subscriber present at its dispatch wants
  the stream;
* a fresh result is persisted, then journaled, then announced — after
  the worker it freed has been handed its next job; a failed write (a
  full disk) costs durability, never the outcome (``persist``);
* a failure is classified once by :func:`classify`: a died pool worker
  re-queues the spec for free (once per spec, not an attempt), a
  transient error retries within the ``retries`` budget after a
  :func:`decorrelated_jitter` delay held as a not-before time on the
  job (never a sleep), anything else — and everything once draining —
  is a permanent :class:`RunFailure`;
* draining interrupts queued jobs at once and running ones when the
  grace period expires.

Futures' done-callbacks only enqueue an event; :meth:`ExecutionCore.
pump` is the single place a job is settled, so each job reaches its
terminal record exactly once — a future landing after the drain
deadline already settled its job is ignored.

A subscriber has a ``wants_stream`` attribute, ``accepted(job,
status)`` (called once, by ``submit``) and ``send(job, item) -> bool``
(False: the peer is gone, and is dropped): ``item`` is a spooled
progress record (a ``dict``) or, last, the :class:`RunResult` /
:class:`RunFailure` itself.  A job runs to completion whoever is left.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue
import random
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Tuple,
                    Union)

from repro.lab.cache import CachedRecord
from repro.lab.journal import (note_record, outcome_record, read_records,
                               record)
from repro.lab.results import RunFailure, RunResult
from repro.lab.spec import RunSpec
from repro.lab.worker import RunTimeout, serve_entry
from repro.sim.progress import SimulationHang


class TransientRunError(RuntimeError):
    """An explicitly-transient failure: always worth retrying."""


class RunInterrupted(RuntimeError):
    """The core was drained before this spec completed."""


#: Exception types retried (bounded) instead of failing the run.
TRANSIENT_EXCEPTIONS = (OSError, RunTimeout, TransientRunError,
                        BrokenProcessPool, RunInterrupted)

#: Exception types NEVER retried, even if a subclass ever matched the
#: transient tuple: simulated hangs (deadlock/livelock/cycle-cap
#: timeout) are deterministic functions of the spec, so a retry would
#: burn a worker on the exact same hang.
PERMANENT_EXCEPTIONS = (SimulationHang,)

BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: A run on a worker longer than this multiple of ``timeout_s`` is
#: flagged a straggler (the in-worker alarm should have fired; if it
#: could not, the flag at least makes the stall visible).  The clock is
#: ``Job.started``: time spent queued is not on it.
STRAGGLER_FACTOR = 1.5

REQUEUE, RETRY, FAIL = "requeue", "retry", "fail"


def _is_transient(exc: BaseException) -> bool:
    return (isinstance(exc, TRANSIENT_EXCEPTIONS)
            and not isinstance(exc, PERMANENT_EXCEPTIONS))


def classify(exc: BaseException, attempts: int, retries: int,
             free_requeued: bool, draining: bool) -> str:
    """What happens to a run that raised ``exc`` on attempt ``attempts``.

    ``REQUEUE``: the worker died under the spec, which says nothing
    about the spec — run it again without charging an attempt (granted
    once per spec; a second loss is an ordinary transient failure).
    ``RETRY``: transient and within budget.  ``FAIL``: everything else,
    and everything once draining.
    """
    if draining or isinstance(exc, RunInterrupted):
        return FAIL
    if isinstance(exc, BrokenProcessPool) and not free_requeued:
        return REQUEUE
    if _is_transient(exc) and attempts < retries + 1:
        return RETRY
    return FAIL


def decorrelated_jitter(previous_s: float, base_s: float, cap_s: float,
                        rng: random.Random) -> float:
    """One step of capped exponential backoff with decorrelated jitter.

    ``sleep = min(cap, uniform(base, previous * 3))`` — each delay is
    drawn relative to the *previous* delay rather than the attempt
    number, which decorrelates retry storms across workers while still
    growing geometrically in expectation.
    """
    if base_s <= 0:
        return 0.0
    upper = max(base_s, previous_s * 3.0)
    return min(cap_s, rng.uniform(base_s, upper))


def persist(write: Callable[..., Any], *args: Any,
            **kwargs: Any) -> Optional[Dict[str, Any]]:
    """One cache put or journal append; a failed one (a full disk) costs
    durability, never an outcome: its ``write_failed`` note is returned,
    not raised (``None`` when the write landed)."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        return note_record("write_failed", write=write.__qualname__,
                           error_type=type(exc).__name__, message=str(exc))
    return None


def _workers_of(pool: ProcessPoolExecutor) -> list:
    """A snapshot of the pool's worker processes (none once shut down)."""
    return list((pool._processes or {}).values())


class InlineExecutor(Executor):
    """Serial mode: ``submit`` runs the call on the pumping thread (the
    main thread, where the per-run ``SIGALRM`` timeout works) and
    returns a finished future."""

    def submit(self, fn, *args):
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - classified by the core
            future.set_exception(exc)
        return future


@dataclass(eq=False)  # identity semantics: jobs key the running set
class Job:
    """One spec's passage through the engine, and everyone waiting on it."""

    spec: RunSpec
    #: Fairness key handed back to the queue's ``job_finished``.
    client: str
    id: str
    spec_hash: str
    subscribers: List[Any] = field(default_factory=list)
    #: Set only on a ``"cached"`` submission: the verified record of
    #: the entry that answered it (a consumer that needs a
    #: :class:`RunResult` parses it).
    cached: Optional[CachedRecord] = None
    #: Progress spool the worker writes and the pump tails (``None``
    #: while nobody streams the job).
    progress_path: Optional[str] = None
    #: Bytes of the spool already fanned out to subscribers.
    progress_offset: int = 0
    #: Budgeted attempts started so far (a free re-queue is not one).
    attempts: int = field(default=0, init=False)
    free_requeued: bool = field(default=False, init=False)
    backoff_s: float = field(default=0.0, init=False)
    not_before: float = field(default=0.0, init=False)
    #: The in-flight attempt; ``None`` whenever the job is not running.
    future: Optional[Future] = field(default=None, init=False)
    #: When a worker took the attempt in flight (``perf_counter``).
    started: float = field(default=0.0, init=False)
    straggler: bool = field(default=False, init=False)

    def broadcast(self, item: Any, stream_only: bool = False) -> int:
        """Send ``item`` to live subscribers; returns deliveries.  One
        whose ``send`` returns False (a dead socket) is dropped, never
        disturbing the job or its other subscribers."""
        delivered = 0
        # Iterate a snapshot and remove only the dead: ``JobStore.submit``
        # may attach a subscriber on another thread while a send blocks,
        # and rewriting the list here would drop it.
        for sub in list(self.subscribers):
            if stream_only and not sub.wants_stream:
                continue
            if sub.send(self, item):
                delivered += 1
            else:  # unless a concurrent broadcast dropped it first
                with contextlib.suppress(ValueError):
                    self.subscribers.remove(sub)
        return delivered


class JobStore:
    """Thread-safe dedup index: the jobs in flight, the cache behind them.
    A job is held only until :meth:`finish`, so a resident daemon's
    memory does not grow with the jobs it has served."""

    def __init__(self, cache=None) -> None:
        #: Optional :class:`~repro.lab.cache.ResultCache` consulted at
        #: submission (and re-checked at dispatch by the engine).
        self.cache = cache
        self._lock = threading.Lock()
        #: Jobs submitted and not yet finished, by spec hash.
        self._active_by_hash: Dict[str, Job] = {}
        self._ids = itertools.count(1)

    def submit(self, spec: RunSpec, client: str,
               subscriber: Any = None) -> Tuple[Job, str]:
        """Register one submission; returns ``(job, status)``.

        ``status`` is ``"attached"`` (joined a job in flight),
        ``"cached"`` (``job.cached`` holds the cache entry's verified
        record; terminal), or ``"queued"`` (fresh work for the
        scheduler).  Atomic under the store lock: two concurrent
        submissions of one spec can never both come back ``"queued"``.
        """
        spec_hash = spec.content_hash()
        with self._lock:
            active = self._active_by_hash.get(spec_hash)
            if active is not None:
                if subscriber is not None:
                    active.subscribers.append(subscriber)
                return active, "attached"
            cached = (self.cache.lookup(spec) if self.cache is not None
                      else None)
            job = Job(
                id=f"j{next(self._ids)}-{spec_hash[:8]}",
                spec=spec, spec_hash=spec_hash, client=client,
                cached=cached,
            )
            if subscriber is not None:
                job.subscribers.append(subscriber)
            if cached is not None:
                return job, "cached"
            self._active_by_hash[spec_hash] = job
            return job, "queued"

    def finish(self, job: Job) -> None:
        """``job`` settled: release its spec hash for the next asker."""
        with self._lock:
            if self._active_by_hash.get(job.spec_hash) is job:
                del self._active_by_hash[job.spec_hash]


class FairScheduler:
    """Per-client FIFOs drained by budgeted round-robin: within a client,
    arrival order; across clients, strict rotation (a client arriving
    behind A's backlog waits one turn of A, not the backlog); a client
    at its inflight budget is skipped until one of its runs is done."""

    def __init__(self, max_inflight_per_client: Optional[int] = None) -> None:
        if max_inflight_per_client is not None and max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1")
        self.max_inflight_per_client = max_inflight_per_client
        self._lock = threading.Lock()
        #: client -> its waiting jobs, oldest first.  Only clients with
        #: waiting jobs have an entry, and the mapping's own order is
        #: the rotation: the first client is served next.
        self._queues: Dict[str, Deque[Job]] = {}
        self._inflight: Dict[str, int] = {}

    def push(self, job: Job) -> None:
        with self._lock:
            self._queues.setdefault(job.client, deque()).append(job)

    def pop(self) -> Optional[Job]:
        """Next dispatchable job honoring rotation + budgets, or None.

        Popping counts the job against its client's inflight budget;
        the engine calls :meth:`job_finished` when the run leaves a
        worker (completion, failure, or a free re-queue).
        """
        budget = self.max_inflight_per_client
        with self._lock:
            for client, fifo in self._queues.items():
                inflight = self._inflight.get(client, 0)
                if budget is not None and inflight >= budget:
                    continue
                job = fifo.popleft()
                # To the back of the rotation, or out of it when empty.
                del self._queues[client]
                if fifo:
                    self._queues[client] = fifo
                self._inflight[client] = inflight + 1
                return job
            return None

    def job_finished(self, client: str) -> None:
        """Release one unit of ``client``'s inflight budget."""
        with self._lock:
            count = self._inflight.get(client, 0)
            if count <= 1:
                self._inflight.pop(client, None)
            else:
                self._inflight[client] = count - 1

    def __len__(self) -> int:
        with self._lock:
            return sum(len(fifo) for fifo in self._queues.values())

    def pending_by_client(self) -> Dict[str, int]:
        with self._lock:
            return {client: len(fifo)
                    for client, fifo in self._queues.items()}


class ExecutionCore:
    """Submit → queue → dispatch → classify → persist → journal → fan out.

    ``narrate(line, name)`` hears each settled job's ``done``/``failed``
    record and each ``note`` (``worker_lost``, ``retry``, ``straggler``,
    journaled too; ``write_failed``, never journaled, heard on whichever
    thread wrote, with ``name`` None).  ``journal`` is the open
    :class:`~repro.lab.journal.SweepJournal` submissions and outcomes go
    to, if any.  The counters (``dispatched``, ``completed``, ``failed``,
    dispatch-time ``cache_hits``, ``retried``, ``worker_losses``,
    ``stragglers``, ``interrupted``) only grow.

    :meth:`submit`, :meth:`begin_drain` and :meth:`persist` may be called
    from any thread; everything else belongs to the pumping thread.
    """

    def __init__(self, *, workers: int, mode: str, cache=None,
                 timeout_s: Optional[float] = None, retries: int = 1,
                 backoff_base_s: float = BACKOFF_BASE_S, run_fn=None,
                 checkpoint_dir=None, spool_dir=None,
                 max_inflight_per_client: Optional[int] = None,
                 narrate=None) -> None:
        if timeout_s is not None and not timeout_s > 0:
            # setitimer(..., 0) disarms the alarm; a negative one raises.
            raise ValueError(f"timeout_s must be > 0, got {timeout_s!r}")
        self.store = JobStore(cache)
        self.queue = FairScheduler(max_inflight_per_client)
        self.workers = workers
        self.mode = mode
        self.cache = cache
        self.journal = None
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        #: ``Runner(run_fn=)``: what the worker entry runs instead of
        #: :func:`~repro.lab.worker.execute_run`.
        self.run_fn = run_fn
        self.checkpoint_dir = checkpoint_dir
        #: Where the workers spool progress (their writer makes the given
        #: directory), or one made at the first spooled dispatch and
        #: removed by :meth:`close`.
        self.spool_dir = spool_dir
        self._owns_spool = spool_dir is None
        self.narrate = narrate
        self.draining = False
        self.dispatched = self.completed = self.failed = self.cache_hits = 0
        self.retried = self.worker_losses = 0
        self.stragglers = self.interrupted = 0
        #: Jobs with an attempt in flight (insertion-ordered set).
        self.running: Dict[Job, None] = {}
        #: Jobs waiting out a retry back-off, then queued again.
        self.delayed: list = []
        self._deadline = self._tailed_at = 0.0
        self._events: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pool: Optional[Executor] = None
        self._rng = random.Random(0x5EED)

    # -- any thread ----------------------------------------------------

    def submit(self, spec: RunSpec, client: str,
               subscriber: Any) -> Tuple[Job, str]:
        """One submission; ``(job, status)`` as :meth:`JobStore.submit`.
        The subscriber hears ``accepted`` before the job can be
        dispatched; a cached job is settled here (``job.cached``)."""
        if self.journal is not None:
            self.persist(self.journal.record_spec, spec)
        job, status = self.store.submit(spec, client=client,
                                        subscriber=subscriber)
        if status == "cached":
            self._log(outcome_record(job.cached), job)
        subscriber.accepted(job, status)
        if status == "queued":
            self.queue.push(job)
            self._events.put(None)  # wake the pump
        return job, status

    def begin_drain(self, grace_s: float) -> None:
        """Stop dispatching and retrying; running jobs get ``grace_s``
        (a repeated call can only shorten the deadline)."""
        deadline = time.monotonic() + grace_s
        if self.draining:
            deadline = min(deadline, self._deadline)
        self._deadline = deadline
        self.draining = True
        self._events.put(None)

    def persist(self, write: Callable[..., Any], *args: Any,
                **kwargs: Any) -> None:
        """:func:`persist`, its ``write_failed`` note narrated."""
        failed = persist(write, *args, **kwargs)
        if failed is not None:
            self._narrate(failed, None)

    def _narrate(self, line: Dict[str, Any], job: Optional[Job]) -> None:
        if self.narrate is not None:
            self.narrate(line, job and job.spec.display)

    def _log(self, line: Dict[str, Any], job: Job) -> None:
        """Journal and narrate one record about ``job``."""
        if self.journal is not None:
            self.persist(self.journal.append, line)
        self._narrate(line, job)

    @contextmanager
    def drain_on_signal(self, grace_s: float,
                        on_signal: Callable[[bool], None]):
        """Two-stage SIGINT/SIGTERM handling while the body runs: the
        first signal begins a drain, a repeat cuts the grace period to
        zero; ``on_signal(repeat)`` runs after either.  Handlers can
        be installed only on the main thread and are always restored."""
        def handler(_signum, _frame):
            repeat = self.draining
            self.begin_drain(0.0 if repeat else grace_s)
            on_signal(repeat)

        previous: Dict[int, Any] = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):
                pass  # not the main thread: nothing to install or restore
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    # -- pumping thread ------------------------------------------------

    @property
    def idle(self) -> bool:
        return not (self.running or self.delayed or len(self.queue))

    def pump(self, wait_s: float = 0.5) -> None:
        """One turn: wait up to ``wait_s`` for a run to land or a wake,
        settle everything that landed, start what the workers can take."""
        now = time.monotonic()
        horizon = min([now + wait_s] + [t.not_before for t in self.delayed]
                      + ([self._deadline] if self.draining else []))
        self._settle_landed(max(0.0, horizon - now))
        now = time.monotonic()
        for job in [t for t in self.delayed
                    if self.draining or t.not_before <= now]:
            self.delayed.remove(job)
            self.queue.push(job)
        self._fill()
        if self.draining and now >= self._deadline:
            # Grace expired: the workers may still finish, but nobody
            # waits for them and their futures will be ignored.
            for job in list(self.running):
                self._release(job)
                self._interrupt(job)
        if self.timeout_s is not None:
            self._flag_stragglers(STRAGGLER_FACTOR * self.timeout_s)
        if now - self._tailed_at >= wait_s:  # live progress, once a wait
            self._tailed_at = now
            for job in self.running:
                self._tail(job)

    def _fill(self) -> None:
        # A job leaves the queue only when a worker can take it, so the
        # queue alone orders the work: its rotation and inflight budgets
        # cannot be overtaken by a backlog parked in the pool.  The
        # window is one wider than the workers — the pool's own prefetch
        # depth — because a freed worker would otherwise idle until this
        # thread has woken and dispatched again; at most that one staged
        # job is committed ahead of the queue's decision.  A drain
        # interrupts every queued job at once, whatever the window.
        while self.draining or len(self.running) <= self.workers:
            job = self.queue.pop()
            if job is None:
                break
            if self.draining:  # re-read per job: a signal may set it
                self.queue.job_finished(job.client)
                self._interrupt(job)
            else:
                self._dispatch(job)

    @property
    def pooled(self) -> bool:
        """Workers are up: a thread or process pool :meth:`close` retires."""
        return isinstance(self._pool, (ProcessPoolExecutor,
                                       ThreadPoolExecutor))

    @property
    def pool_broken(self) -> bool:
        """The process pool lost a worker while no run was in flight (an
        idle worker killed between batches): a submit to it would read as
        a worker loss that no spec caused."""
        pool = self._pool
        if not isinstance(pool, ProcessPoolExecutor):
            return False
        return bool(pool._broken) or any(
            proc.exitcode is not None for proc in _workers_of(pool))

    def close(self) -> None:
        """Shut the pool down without waiting for abandoned runs, and
        remove a spool directory this core made."""
        self._close_pool()
        if self._owns_spool and self.spool_dir is not None:
            shutil.rmtree(self.spool_dir, ignore_errors=True)
            self.spool_dir = None

    def _close_pool(self) -> None:
        if self._pool is None:
            return
        if self.pool_broken:
            # A worker that died holding the pool's queue lock leaves the
            # rest unable to read their stop sentinel, and a worker forked
            # under ``drain_on_signal`` shrugs off the pool's SIGTERM: the
            # pool would wait for them for ever.
            for proc in _workers_of(self._pool):
                proc.kill()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _executor(self) -> Executor:
        if self._pool is None:
            if self.mode == "serial":
                self._pool = InlineExecutor()
            elif self.mode == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _dispatch(self, job: Job) -> None:
        # The cache may have gained this entry since submission (another
        # runner or daemon sharing the directory): skip the worker.
        cached = (self.cache.get(job.spec)
                  if self.cache is not None else None)
        if cached is not None:
            self.queue.job_finished(job.client)
            self._finish(job, cached)
            return
        job.attempts += 1
        job.straggler = False
        if job.progress_path is None and any(
                sub.wants_stream for sub in job.subscribers):
            if self.spool_dir is None:
                self.spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
            job.progress_path = os.path.join(self.spool_dir,
                                             f"{job.id}.progress.jsonl")
        self.dispatched += 1
        job.broadcast(record("lifecycle", phase="dispatched",
                             detail={"attempt": job.attempts}),
                      stream_only=True)
        # ``serve_entry`` is looked up at call time: tests substitute it.
        call = (serve_entry, job.spec, job.progress_path, self.timeout_s,
                self.checkpoint_dir, self.run_fn)
        job.started = time.perf_counter()
        pool = self._executor()
        try:
            future = pool.submit(*call)
        except RuntimeError as exc:  # the pool broke before we noticed
            future = Future()
            future.set_exception(exc)
        job.future = future
        self.running[job] = None
        if future.done():  # serial mode ran it here, inside _fill's loop
            self._landed(job, future, pool, refill=False)
        else:
            future.add_done_callback(
                lambda f, t=job: self._events.put((t, f, pool)))

    def _settle_landed(self, wait_s: float) -> None:
        """Handle every queued event, blocking ``wait_s`` for the first."""
        block = wait_s > 0
        while True:
            try:
                event = self._events.get(block, wait_s if block else None)
            except queue.Empty:
                return
            block = False
            if event is not None:
                self._landed(*event)

    def _release(self, job: Job) -> None:
        if len(self.running) > self.workers:
            # The newest job was staged behind the workers (see _fill);
            # the worker this release frees takes it now.
            next(reversed(self.running)).started = time.perf_counter()
        job.future = None
        del self.running[job]
        self.queue.job_finished(job.client)

    def _landed(self, job: Job, future: Future, pool: Executor,
                refill: bool = True) -> None:
        if job.future is not future:
            return  # the drain deadline settled this job already
        self._release(job)
        elapsed = time.perf_counter() - job.started
        outcome = future.exception() or future.result()
        if isinstance(outcome, RunResult):
            outcome.attempts = job.attempts
            outcome.label = job.spec.label
            if refill:
                # The freed worker's next job first: persisting is this
                # thread's time, and a worker must not idle through it.
                self._fill()
            # Persist now, not at batch end: if this process is killed
            # later, the completed work survives as a cache hit.
            if self.cache is not None:
                self.persist(self.cache.put, job.spec, outcome)
            self._finish(job, outcome)
            return
        verdict = classify(outcome, job.attempts, self.retries,
                           job.free_requeued, self.draining)
        if isinstance(outcome, BrokenProcessPool):
            if pool is self._pool:
                # Rebuilt at the next dispatch.  A loss still landing
                # from a pool already replaced must not close its heir.
                self._close_pool()
            self.worker_losses += 1
            self._log(note_record("worker_lost", hash=job.spec_hash,
                                  requeued=verdict == REQUEUE), job)
        if verdict == REQUEUE:
            job.free_requeued = True
            job.attempts -= 1
            self.queue.push(job)
        elif verdict == RETRY:
            self.retried += 1
            job.backoff_s = decorrelated_jitter(
                job.backoff_s, self.backoff_base_s, BACKOFF_CAP_S,
                self._rng)
            job.not_before = time.monotonic() + job.backoff_s
            self.delayed.append(job)
            self._log(note_record("retry", hash=job.spec_hash,
                                  error_type=type(outcome).__name__,
                                  backoff_s=round(job.backoff_s, 3)), job)
        else:
            self._finish(job, self._failure(job, outcome, elapsed))

    def _interrupt(self, job: Job) -> None:
        self.interrupted += 1
        self._finish(job, self._failure(
            job, RunInterrupted("drained before this spec completed"), 0.0))

    def _failure(self, job: Job, exc: BaseException,
                 elapsed: float) -> RunFailure:
        hang_report = getattr(exc, "report", None)
        return RunFailure(
            spec=job.spec,
            spec_hash=job.spec_hash,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=max(job.attempts, 1),
            elapsed_s=elapsed,
            transient=_is_transient(exc),
            hang=hang_report.to_dict() if hang_report is not None else None,
        )

    def _finish(self, job: Job,
                outcome: Union[RunResult, RunFailure]) -> None:
        self._log(outcome_record(outcome), job)
        self._tail(job, final=True)  # the spool's lines precede the outcome
        self.store.finish(job)
        # Count before fanning out: an asker reading the counters right
        # after its outcome arrived must see it.
        if not outcome.ok:
            self.failed += 1
        elif outcome.from_cache:  # the dispatch-time re-check hit
            self.cache_hits += 1
        else:
            self.completed += 1
        job.broadcast(outcome)

    def _tail(self, job: Job, final: bool = False) -> None:
        """Fan the spool's new lines out to stream subscribers; a torn
        final line waits for the next turn."""
        path = job.progress_path
        if path is None:
            return
        with contextlib.suppress(OSError):  # not written yet
            records, job.progress_offset, _ = read_records(
                path, job.progress_offset)
            for line in records:
                job.broadcast(line, stream_only=True)
        if final:
            job.progress_path = None
            with contextlib.suppress(OSError):
                os.unlink(path)

    def _flag_stragglers(self, budget_s: float) -> None:
        now = time.perf_counter()
        for job in self.running:
            if not job.straggler and now - job.started > budget_s:
                job.straggler = True
                self.stragglers += 1
                self._log(note_record(
                    "straggler", hash=job.spec_hash,
                    running_s=round(now - job.started, 3),
                    budget_s=budget_s), job)


__all__ = [
    "ExecutionCore",
    "FairScheduler",
    "Job",
    "JobStore",
    "RunInterrupted",
    "RunTimeout",
    "TransientRunError",
    "classify",
    "decorrelated_jitter",
    "persist",
]
