"""Job records and the dedup/subscription index of the serve daemon.

Every submission funnels through :meth:`JobStore.submit` under one lock,
which is what makes the dedup guarantees airtight:

* a spec whose hash is already **in flight** (submitted, not yet
  settled) attaches the new subscriber to the existing job — concurrent
  duplicate submissions trigger exactly one simulation and every
  subscriber gets the one result;
* a spec already in the shared content-addressed **cache** (simulated by
  *any* past client — this daemon, a direct ``lab.Runner``, another
  machine sharing the directory) returns the result immediately with no
  worker dispatch;
* everything else becomes a fresh :class:`Job` for the scheduler.

Subscribers are transport-agnostic: anything with a ``send(message) ->
bool`` method (False = peer is gone) and a ``wants_stream`` attribute.
A dead subscriber is dropped from the job; the job itself always runs
to completion — its result still lands in the cache and journal for
the next asker (client disconnect never stops shared work).

The store answers one question — is this spec already in flight or
cached — and holds a job only until :meth:`JobStore.finish`, so a
resident daemon's memory does not grow with the jobs it has served.
*Where* a job is (queued, running, waiting out a retry, settled) is the
:class:`~repro.lab.core.ExecutionCore`'s knowledge alone; ``status``
reads it there.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lab.core import Task
from repro.lab.results import RunResult
from repro.lab.spec import RunSpec


@dataclass(eq=False)  # identity semantics: jobs are mutable registry rows
class Job(Task):
    """One unit of daemon work: the execution core's task (``spec``,
    ``client``, ``attempts``) plus everyone waiting on it."""

    id: str
    spec_hash: str
    subscribers: List[Any] = field(default_factory=list)
    #: Set only on a ``"cached"`` submission: the entry that answered it.
    result: Optional[RunResult] = None
    #: Progress spool the worker writes and the tailer reads.
    progress_path: Optional[str] = None
    #: Bytes of the spool already forwarded to subscribers.
    progress_offset: int = 0

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
    """Thread-safe dedup index: the jobs in flight, the cache behind them."""

    def __init__(self, cache=None) -> None:
        #: Optional :class:`~repro.lab.cache.ResultCache` consulted at
        #: submission (and re-checked at dispatch by the daemon).
        self.cache = cache
        self._lock = threading.Lock()
        #: Jobs submitted and not yet finished, by spec hash.
        self._active_by_hash: Dict[str, Job] = {}
        self._ids = itertools.count(1)

    def submit(self, spec: RunSpec, client: str,
               subscriber: Any = None) -> Tuple[Job, str]:
        """Register one submission; returns ``(job, status)``.

        ``status`` is ``"attached"`` (joined a job in flight),
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
                result=cached,
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


__all__ = ["Job", "JobStore"]
