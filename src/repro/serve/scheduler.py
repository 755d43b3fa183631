"""Fair dispatch order for daemon jobs: priority within, fairness across.

A shared daemon must not let one chatty client starve everyone else:
a fuzz campaign submitting ten thousand seeds and a CLI user asking for
one figure both deserve forward progress.  The :class:`FairScheduler`
therefore keeps **one priority queue per client** and serves clients
round-robin, with a per-client *inflight budget* bounding how many of
any client's jobs may occupy workers at once:

* within a client, higher ``priority`` wins, FIFO among equals;
* across clients, strict rotation — after dispatching one of client A's
  jobs the pointer moves on, so B and C each get a worker before A gets
  a second;
* a client at its inflight budget is skipped until one of its runs
  completes, capping the damage of a single client with long jobs.

The scheduler is pure data structure — no threads, no clock: the queue
of the daemon's execution core (client threads push, its pump pops).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Dict, List, Optional

from repro.serve.jobstore import Job


class FairScheduler:
    """Per-client priority queues drained by budgeted round-robin."""

    def __init__(self, max_inflight_per_client: Optional[int] = None) -> None:
        if max_inflight_per_client is not None and max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1")
        self.max_inflight_per_client = max_inflight_per_client
        self._lock = threading.Lock()
        #: client -> heap of (-priority, seq, job)
        self._queues: Dict[str, List] = {}
        #: round-robin rotation order (clients with pending work).
        self._rotation: List[str] = []
        self._next = 0
        self._inflight: Dict[str, int] = {}
        self._seq = itertools.count()

    def push(self, job: Job) -> None:
        with self._lock:
            queue = self._queues.get(job.client)
            if queue is None:
                queue = self._queues[job.client] = []
                self._rotation.append(job.client)
            heapq.heappush(queue, (-job.priority, next(self._seq), job))

    def pop(self) -> Optional[Job]:
        """Next dispatchable job honoring rotation + budgets, or None.

        Popping counts the job against its client's inflight budget;
        the daemon must call :meth:`job_finished` when the run leaves a
        worker (completion, failure, or a free re-queue).
        """
        with self._lock:
            if not self._rotation:
                return None
            n = len(self._rotation)
            for step in range(n):
                index = (self._next + step) % n
                client = self._rotation[index]
                if self._budget_exhausted(client):
                    continue
                queue = self._queues[client]
                job = self._pop_live(queue)
                if job is None:
                    continue
                self._inflight[client] = self._inflight.get(client, 0) + 1
                self._next = (index + 1) % n
                self._vacuum()
                return job
            self._vacuum()
            return None

    def job_finished(self, client: str) -> None:
        """Release one unit of ``client``'s inflight budget."""
        with self._lock:
            count = self._inflight.get(client, 0)
            if count <= 1:
                self._inflight.pop(client, None)
            else:
                self._inflight[client] = count - 1

    def _budget_exhausted(self, client: str) -> bool:
        budget = self.max_inflight_per_client
        return (budget is not None
                and self._inflight.get(client, 0) >= budget)

    @staticmethod
    def _pop_live(queue: List) -> Optional[Job]:
        """Pop entries until a still-queued job surfaces (skips
        cancelled jobs left in the heap)."""
        while queue:
            _, _, job = heapq.heappop(queue)
            if job.state == "queued":
                return job
        return None

    def _vacuum(self) -> None:
        """Drop empty per-client queues from the rotation (lock held)."""
        if all(self._queues.get(c) for c in self._rotation):
            return
        survivors = [c for c in self._rotation if self._queues.get(c)]
        for client in self._rotation:
            if not self._queues.get(client):
                self._queues.pop(client, None)
        if self._next < len(self._rotation):
            current = self._rotation[self._next % max(len(self._rotation), 1)]
            self._rotation = survivors
            self._next = (survivors.index(current)
                          if current in survivors else 0)
        else:
            self._rotation = survivors
            self._next = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(
                sum(1 for _, _, job in queue if job.state == "queued")
                for queue in self._queues.values()
            )

    def pending_by_client(self) -> Dict[str, int]:
        with self._lock:
            return {
                client: sum(1 for _, _, job in queue
                            if job.state == "queued")
                for client, queue in self._queues.items()
            }


__all__ = ["FairScheduler"]
