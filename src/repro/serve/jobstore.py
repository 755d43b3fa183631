"""Job records and the dedup/subscription store of the serve daemon.

The store is the daemon's single source of truth about work: every
submission funnels through :meth:`JobStore.submit` under one lock, which
is what makes the dedup guarantees airtight:

* a spec whose hash is already **active** (queued or running) attaches
  the new subscriber to the existing job — concurrent duplicate
  submissions trigger exactly one simulation and every subscriber gets
  the one result;
* a spec already in the shared content-addressed **cache** (simulated by
  *any* past client — this daemon, a direct ``lab.Runner``, another
  machine sharing the directory) returns the result immediately with no
  worker dispatch;
* everything else becomes a fresh queued :class:`Job`.

Subscribers are transport-agnostic: anything with a ``send(message) ->
bool`` method (False = peer is gone) and a ``wants_stream`` attribute.
A dead subscriber is dropped from the job; the job itself always runs
to completion — its result still lands in the cache and journal for
the next asker (client disconnect never cancels shared work).

The store keeps a row only while a job is **active**: a terminal job
(done, failed, cancelled — cached submissions are born terminal) is
forgotten at once, its result living on in the cache and with its
subscribers, so a resident daemon's memory does not grow with the jobs
it has served.  ``status`` reads per-state tallies instead.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lab.core import Task
from repro.lab.results import RunFailure, RunResult
from repro.lab.spec import RunSpec

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a job still owns its spec hash for dedup purposes.
ACTIVE_STATES = (QUEUED, RUNNING)


@dataclass(eq=False)  # identity semantics: jobs are mutable registry rows
class Job(Task):
    """One unit of daemon work: the execution core's task (``spec``,
    ``client``, ``attempts``) plus everyone waiting on it."""

    id: str
    spec_hash: str
    priority: int = 0
    state: str = QUEUED
    subscribers: List[Any] = field(default_factory=list)
    result: Optional[RunResult] = None
    failure: Optional[RunFailure] = None
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None
    #: Progress spool the worker writes and the tailer reads.
    progress_path: Optional[str] = None
    #: Bytes of the spool already forwarded to subscribers.
    progress_offset: int = 0

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def broadcast(self, message: Dict[str, Any],
                  stream_only: bool = False) -> int:
        """Send ``message`` to live subscribers; returns deliveries.

        A subscriber whose ``send`` returns False (dead socket) is
        dropped — a client disconnecting mid-stream never disturbs the
        job or its other subscribers.
        """
        delivered = 0
        # Iterate a snapshot and remove only the dead: ``JobStore.submit``
        # may attach a subscriber on another thread while a send blocks,
        # and rewriting the list here would drop it.
        for sub in list(self.subscribers):
            if stream_only and not getattr(sub, "wants_stream", True):
                continue
            if sub.send(message):
                delivered += 1
            else:
                try:
                    self.subscribers.remove(sub)
                except ValueError:
                    pass  # a concurrent broadcast dropped it first
        return delivered


class JobStore:
    """Thread-safe job registry with cache- and in-flight-dedup."""

    def __init__(self, cache=None) -> None:
        #: Optional :class:`~repro.lab.cache.ResultCache` consulted at
        #: submission (and re-checked at dispatch by the daemon).
        self.cache = cache
        self._lock = threading.Lock()
        #: Active (queued or running) jobs by id.
        self._jobs: Dict[str, Job] = {}
        self._active_by_hash: Dict[str, Job] = {}
        #: state -> jobs now in it, terminal states included.
        self._tally: Dict[str, int] = dict.fromkeys(
            (QUEUED, RUNNING, DONE, FAILED, CANCELLED), 0
        )
        self._ids = itertools.count(1)

    def submit(self, spec: RunSpec, client: str, subscriber: Any = None,
               priority: int = 0) -> Tuple[Job, str]:
        """Register one submission; returns ``(job, status)``.

        ``status`` is ``"attached"`` (joined an active job),
        ``"cached"`` (``job.result`` is already populated from the
        cache; terminal), or ``"queued"`` (fresh work for the
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
            cached = self.cache.get(spec) if self.cache is not None else None
            job = Job(
                id=f"j{next(self._ids)}-{spec_hash[:8]}",
                spec=spec, spec_hash=spec_hash, client=client,
                priority=priority,
            )
            if subscriber is not None:
                job.subscribers.append(subscriber)
            if cached is not None:
                job.state = DONE
                job.result = cached
                job.finished_at = time.monotonic()
                self._tally[DONE] += 1
                return job, "cached"
            self._jobs[job.id] = job
            self._active_by_hash[spec_hash] = job
            self._tally[QUEUED] += 1
            return job, "queued"

    def _move(self, job: Job, state: str) -> None:
        """Change ``job``'s state (lock held); a terminal state also
        forgets the row and releases the spec hash."""
        self._tally[job.state] -= 1
        self._tally[state] += 1
        job.state = state
        if state not in ACTIVE_STATES:
            job.finished_at = time.monotonic()
            self._jobs.pop(job.id, None)
            if self._active_by_hash.get(job.spec_hash) is job:
                del self._active_by_hash[job.spec_hash]

    def mark_running(self, job: Job) -> None:
        with self._lock:
            self._move(job, RUNNING)

    def mark_requeued(self, job: Job) -> None:
        with self._lock:
            self._move(job, QUEUED)

    def finish(self, job: Job,
               outcome: "RunResult | RunFailure") -> None:
        """Record the terminal outcome and release the spec hash."""
        with self._lock:
            if isinstance(outcome, RunResult):
                job.result = outcome
                self._move(job, DONE)
            else:
                job.failure = outcome
                self._move(job, FAILED)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a *queued* job (running jobs finish for the cache)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                return None
            self._move(job, CANCELLED)
            return job

    def counts(self) -> Dict[str, int]:
        """Jobs per state since the daemon started (empty states omitted)."""
        with self._lock:
            return {state: n for state, n in self._tally.items() if n}


__all__ = [
    "ACTIVE_STATES",
    "CANCELLED",
    "DONE",
    "FAILED",
    "Job",
    "JobStore",
    "QUEUED",
    "RUNNING",
]
