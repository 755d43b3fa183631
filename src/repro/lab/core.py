"""The execution core: one pool owner, one retry/requeue/drain policy.

Both front ends — :class:`~repro.lab.runner.Runner` (pumped on the
caller's thread over a :class:`FifoQueue`) and the serve daemon (pumped
on its dispatcher thread over a ``FairScheduler``) — drive specs
through one :class:`ExecutionCore`, so a run's fate cannot depend on
the road it travels (``docs/robustness.md``, "Execution core"):

* a task leaves the queue only when a worker can take it (one more is
  staged behind the workers, see :meth:`ExecutionCore.pump`), so the
  queue's order is the order runs start in and a task is in the queue,
  in ``running``, in ``delayed`` or settled — the core alone says which;
* the cache is re-checked at dispatch; a hit never reaches a worker;
* a fresh result is persisted, then journaled, then announced — after
  the worker it freed has been handed its next task; a failed write
  (a full disk) costs durability, never the outcome (``persist``);
* a failure is classified once by :func:`classify`: a died pool worker
  re-queues the spec for free (once per spec, not an attempt), a
  transient error retries within the ``retries`` budget after a
  :func:`decorrelated_jitter` delay held as a not-before time on the
  task (never a sleep), anything else — and everything once draining —
  is a permanent :class:`RunFailure`;
* draining interrupts queued tasks at once and running ones when the
  grace period expires.

Futures' done-callbacks only enqueue an event; :meth:`ExecutionCore.
pump` is the single place a task is settled, so each task reaches its
terminal record exactly once — a future landing after the drain
deadline already settled its task is ignored.
"""

from __future__ import annotations

import queue
import random
import signal
import time
from collections import deque
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from repro.lab.journal import note_record, outcome_record
from repro.lab.results import RunFailure, RunResult
from repro.lab.spec import RunSpec
from repro.sim.progress import SimulationHang


class RunTimeout(RuntimeError):
    """The run exceeded its per-run wall-clock budget."""


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
#: ``Task.started``: time spent queued is not on it.
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


class FifoQueue:
    """Arrival-order task queue; ``FairScheduler`` has the same shape."""

    def __init__(self) -> None:
        self._tasks: deque = deque()

    def push(self, task: "Task") -> None:
        self._tasks.append(task)

    def pop(self) -> Optional["Task"]:
        return self._tasks.popleft() if self._tasks else None

    def job_finished(self, client: str) -> None:
        pass

    def __len__(self) -> int:
        return len(self._tasks)


@dataclass(eq=False)  # identity semantics: tasks key the running set
class Task:
    """One spec's passage through the core (serve's ``Job`` extends it)."""

    spec: RunSpec
    #: Fairness key handed back to the queue's ``job_finished``.
    client: str
    #: Budgeted attempts started so far (a free re-queue is not one).
    attempts: int = field(default=0, init=False)
    free_requeued: bool = field(default=False, init=False)
    backoff_s: float = field(default=0.0, init=False)
    not_before: float = field(default=0.0, init=False)
    #: The in-flight attempt; ``None`` whenever the task is not running.
    future: Optional[Future] = field(default=None, init=False)
    #: When a worker took the attempt in flight (``perf_counter``).
    started: float = field(default=0.0, init=False)
    straggler: bool = field(default=False, init=False)


class ExecutionCore:
    """Queue → dispatch → classify → persist → journal, settled once.

    ``queue`` is anything with ``push / pop / job_finished / __len__``.
    ``prepare(task)`` returns the ``(fn, *args)`` to run in the pool for
    the attempt about to start.  ``listener(kind, task, detail)`` hears
    ``"settled"`` (detail: the RunResult/RunFailure) and ``"note"``
    (detail: a ``note`` record — ``worker_lost``, ``retry`` and
    ``straggler``, journaled too, or ``write_failed``, with ``task``
    None, never journaled and heard on whichever thread wrote).

    :meth:`submit`, :meth:`begin_drain` and :meth:`persist` may be called
    from any thread; everything else belongs to the pumping thread.
    """

    def __init__(self, task_queue, prepare: Callable[[Task], tuple],
                 listener: Callable[[str, Optional[Task], Any], None], *,
                 workers: int, mode: str, cache=None, journal=None,
                 timeout_s: Optional[float] = None, retries: int = 1,
                 backoff_base_s: float = BACKOFF_BASE_S) -> None:
        if timeout_s is not None and not timeout_s > 0:
            # setitimer(..., 0) disarms the alarm; a negative one raises.
            raise ValueError(f"timeout_s must be > 0, got {timeout_s!r}")
        self.queue = task_queue
        self.prepare = prepare
        self.listener = listener
        self.workers = workers
        self.mode = mode
        self.cache = cache
        self.journal = journal
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.draining = False
        self.retried = self.worker_losses = 0
        self.stragglers = self.interrupted = 0
        #: Tasks with an attempt in flight (insertion-ordered set).
        self.running: Dict[Task, None] = {}
        #: Tasks waiting out a retry back-off, then queued again.
        self.delayed: list = []
        self._deadline = 0.0
        self._events: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pool: Optional[Executor] = None
        self._rng = random.Random(0x5EED)

    # -- any thread ----------------------------------------------------

    def submit(self, task: Task) -> None:
        self.queue.push(task)
        self._events.put(None)  # wake the pump

    def begin_drain(self, grace_s: float) -> None:
        """Stop dispatching and retrying; running tasks get ``grace_s``
        (a repeated call can only shorten the deadline)."""
        deadline = time.monotonic() + grace_s
        if self.draining:
            deadline = min(deadline, self._deadline)
        self._deadline = deadline
        self.draining = True
        self._events.put(None)

    def persist(self, write: Callable[..., Any], *args: Any,
                **kwargs: Any) -> None:
        """:func:`persist`, its ``write_failed`` note heard by the listener."""
        failed = persist(write, *args, **kwargs)
        if failed is not None:
            self.listener("note", None, failed)

    def _note(self, task: Task, note: str, **detail: Any) -> None:
        """Announce and journal one decision about ``task``."""
        line = note_record(note, **detail)
        if self.journal is not None:
            self.persist(self.journal.append, line)
        self.listener("note", task, line)

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
        for task in [t for t in self.delayed
                     if self.draining or t.not_before <= now]:
            self.delayed.remove(task)
            self.queue.push(task)
        self._fill()
        if self.draining and now >= self._deadline:
            # Grace expired: the workers may still finish, but nobody
            # waits for them and their futures will be ignored.
            for task in list(self.running):
                self._release(task)
                self._interrupt(task)
        if self.timeout_s is not None:
            self._flag_stragglers(STRAGGLER_FACTOR * self.timeout_s)

    def _fill(self) -> None:
        # A task leaves the queue only when a worker can take it, so the
        # queue alone orders the work: its rotation and inflight budgets
        # cannot be overtaken by a backlog parked in the pool.  The
        # window is one wider than the workers — the pool's own prefetch
        # depth — because a freed worker would otherwise idle until this
        # thread has woken and dispatched again; at most that one staged
        # task is committed ahead of the queue's decision.  A drain
        # interrupts every queued task at once, whatever the window.
        while self.draining or len(self.running) <= self.workers:
            task = self.queue.pop()
            if task is None:
                break
            if self.draining:  # re-read per task: a signal may set it
                self.queue.job_finished(task.client)
                self._interrupt(task)
            else:
                self._dispatch(task)

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
        """Shut the pool down without waiting for abandoned runs."""
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

    def _dispatch(self, task: Task) -> None:
        # The cache may have gained this entry since submission (another
        # runner or daemon sharing the directory): skip the worker.
        cached = (self.cache.get(task.spec)
                  if self.cache is not None else None)
        if cached is not None:
            self.queue.job_finished(task.client)
            self._finish(task, cached)
            return
        task.attempts += 1
        task.straggler = False
        call = self.prepare(task)
        task.started = time.perf_counter()
        pool = self._executor()
        try:
            future = pool.submit(*call)
        except RuntimeError as exc:  # the pool broke before we noticed
            future = Future()
            future.set_exception(exc)
        task.future = future
        self.running[task] = None
        if future.done():  # serial mode ran it here, inside _fill's loop
            self._landed(task, future, pool, refill=False)
        else:
            future.add_done_callback(
                lambda f, t=task: self._events.put((t, f, pool)))

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

    def _release(self, task: Task) -> None:
        if len(self.running) > self.workers:
            # The newest task was staged behind the workers (see _fill);
            # the worker this release frees takes it now.
            next(reversed(self.running)).started = time.perf_counter()
        task.future = None
        del self.running[task]
        self.queue.job_finished(task.client)

    def _landed(self, task: Task, future: Future, pool: Executor,
                refill: bool = True) -> None:
        if task.future is not future:
            return  # the drain deadline settled this task already
        self._release(task)
        elapsed = time.perf_counter() - task.started
        outcome = future.exception() or future.result()
        if isinstance(outcome, RunResult):
            outcome.attempts = task.attempts
            outcome.label = task.spec.label
            if refill:
                # The freed worker's next task first: persisting is this
                # thread's time, and a worker must not idle through it.
                self._fill()
            # Persist now, not at batch end: if this process is killed
            # later, the completed work survives as a cache hit.
            if self.cache is not None:
                self.persist(self.cache.put, task.spec, outcome)
            self._finish(task, outcome)
            return
        verdict = classify(outcome, task.attempts, self.retries,
                           task.free_requeued, self.draining)
        if isinstance(outcome, BrokenProcessPool):
            if pool is self._pool:
                # Rebuilt at the next dispatch.  A loss still landing
                # from a pool already replaced must not close its heir.
                self.close()
            self.worker_losses += 1
            self._note(task, "worker_lost", hash=task.spec.content_hash(),
                       requeued=verdict == REQUEUE)
        if verdict == REQUEUE:
            task.free_requeued = True
            task.attempts -= 1
            self.queue.push(task)
        elif verdict == RETRY:
            self.retried += 1
            task.backoff_s = decorrelated_jitter(
                task.backoff_s, self.backoff_base_s, BACKOFF_CAP_S,
                self._rng)
            task.not_before = time.monotonic() + task.backoff_s
            self.delayed.append(task)
            self._note(task, "retry", hash=task.spec.content_hash(),
                       error_type=type(outcome).__name__,
                       backoff_s=round(task.backoff_s, 3))
        else:
            self._finish(task, self._failure(task, outcome, elapsed))

    def _interrupt(self, task: Task) -> None:
        self.interrupted += 1
        self._finish(task, self._failure(
            task, RunInterrupted("drained before this spec completed"), 0.0))

    def _failure(self, task: Task, exc: BaseException,
                 elapsed: float) -> RunFailure:
        hang_report = getattr(exc, "report", None)
        return RunFailure(
            spec=task.spec,
            spec_hash=task.spec.content_hash(),
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=max(task.attempts, 1),
            elapsed_s=elapsed,
            transient=_is_transient(exc),
            hang=hang_report.to_dict() if hang_report is not None else None,
        )

    def _finish(self, task: Task,
                outcome: Union[RunResult, RunFailure]) -> None:
        if self.journal is not None:
            self.persist(self.journal.append, outcome_record(outcome))
        self.listener("settled", task, outcome)

    def _flag_stragglers(self, budget_s: float) -> None:
        now = time.perf_counter()
        for task in self.running:
            if not task.straggler and now - task.started > budget_s:
                task.straggler = True
                self.stragglers += 1
                self._note(task, "straggler", hash=task.spec.content_hash(),
                           running_s=round(now - task.started, 3),
                           budget_s=budget_s)


__all__ = [
    "ExecutionCore",
    "FifoQueue",
    "RunInterrupted",
    "RunTimeout",
    "Task",
    "TransientRunError",
    "classify",
    "decorrelated_jitter",
    "persist",
]
