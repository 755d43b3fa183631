"""Fair dispatch order for daemon jobs: FIFO within a client, turns across.

A shared daemon must not let one chatty client starve everyone else:
a fuzz campaign submitting ten thousand seeds and a CLI user asking for
one figure both deserve forward progress.  The :class:`FairScheduler`
therefore keeps **one FIFO per client** and serves clients round-robin,
with a per-client *inflight budget* bounding how many of any client's
jobs may occupy workers at once:

* within a client, arrival order;
* across clients, strict rotation — the client just served goes to the
  back, so B and C each get a turn before A gets a second, and a client
  arriving behind A's backlog waits one turn of A, not the backlog;
* a client at its inflight budget is skipped until one of its runs
  completes, capping the damage of a single client with long jobs.

The order decides something because the execution core pops a job only
when a worker can take it (``ExecutionCore.pump``): what has not been
popped is still here, still subject to the rotation.  The scheduler is
pure data structure — no threads, no clock: the queue of the daemon's
execution core (client threads push, its pump pops).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

from repro.serve.jobstore import Job


class FairScheduler:
    """Per-client FIFOs drained by budgeted round-robin."""

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
        the daemon must call :meth:`job_finished` when the run leaves a
        worker (completion, failure, or a free re-queue).
        """
        budget = self.max_inflight_per_client
        with self._lock:
            for client, queue in self._queues.items():
                inflight = self._inflight.get(client, 0)
                if budget is not None and inflight >= budget:
                    continue
                job = queue.popleft()
                # To the back of the rotation, or out of it when empty.
                del self._queues[client]
                if queue:
                    self._queues[client] = queue
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
            return sum(len(queue) for queue in self._queues.values())

    def pending_by_client(self) -> Dict[str, int]:
        with self._lock:
            return {client: len(queue)
                    for client, queue in self._queues.items()}


__all__ = ["FairScheduler"]
