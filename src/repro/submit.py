"""One submission API over both execution roads.

Callers that want a simulation executed hold a :class:`~repro.lab.spec.
RunSpec` and should not care *where* it runs — in this process through a
:class:`~repro.lab.runner.Runner`, or in a resident ``repro serve``
daemon shared with every other tool on the machine.  :func:`submit` and
:func:`submit_many` are that indifference point, and the one place the
road is chosen:

    from repro.api import submit

    handle = submit(spec)                             # in-process
    handle = submit(spec, server="/tmp/repro.sock")   # via the daemon

A ``server=`` was given → the daemon, whose worker pool and cache then
stand in for any ``runner=``; otherwise the given or ambient
:class:`Runner`.  A tool can therefore pass both straight through
without asking which applies.

The roads differ only in transport.  A :class:`Runner` is the daemon's
engine (:class:`~repro.lab.core.ExecutionCore`) without a socket: the
same dedup, queue, worker entry, progress spool and settle-once policy.
Either way the caller gets the one :class:`~repro.lab.runner.RunHandle`
— subscribed to the run's job by the engine itself, or by the client
that decodes the daemon's messages — with ``.done``, ``.status``,
``.stream()`` (the progress records the run spooled, from the first on
every call), ``.result()`` / ``.outcome()`` and the same payload.
``stream=False`` means no progress on either road: a job that no
subscriber streams when it is dispatched writes no spool.  In-process
is synchronous-eager: the spec runs to completion on the caller's
thread before :func:`submit` returns.  Served, progress streams back
live.

:class:`SubmitBatch` is the many-spec variant; its :attr:`~SubmitBatch.
report` is an ordinary :class:`~repro.lab.runner.BatchReport`, so sweep
and fuzz code consumes either road's outcomes identically.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Union

from repro.lab.core import persist
from repro.lab.journal import outcome_record, render
from repro.lab.results import RunFailure, RunResult
from repro.lab.runner import (BatchReport, RunFailedError, RunHandle,
                              Runner, _Lent)
from repro.lab.spec import RunSpec


class SubmitBatch:
    """Handles for a batch of submissions, resolvable as a report.

    A batch that opened its own daemon connection closes it when its
    last handle resolves — through :meth:`outcomes`, :meth:`results`,
    :attr:`report` or the handles themselves — and when waiting raises.
    """

    def __init__(self, handles: List[RunHandle], *,
                 report: Optional[BatchReport] = None,
                 owned_client=None) -> None:
        self.handles = handles
        self._report = report
        self._owned_client = owned_client
        self._resolved = 0
        self._submitted_at = time.perf_counter()

    def __len__(self) -> int:
        return len(self.handles)

    def __iter__(self) -> Iterator[RunHandle]:
        return iter(self.handles)

    def outcomes(self, timeout: Optional[float] = None
                 ) -> List[Union[RunResult, RunFailure]]:
        """Every outcome, in submission order (blocks until all done)."""
        try:
            return [h.outcome(timeout) for h in self.handles]
        finally:
            self._release_client()

    def results(self, timeout: Optional[float] = None) -> List[RunResult]:
        """All results; raises :class:`RunFailedError` on any failure."""
        try:
            return [h.result(timeout) for h in self.handles]
        finally:
            self._release_client()

    @property
    def report(self) -> BatchReport:
        """The batch as a :class:`~repro.lab.runner.BatchReport` — the
        shape sweep/fuzz reporting already consumes.  Blocks
        until every handle is terminal."""
        if self._report is None:
            self._report = BatchReport(
                results=self.outcomes(),
                elapsed_s=time.perf_counter() - self._submitted_at,
            )
        return self._report

    def _handle_resolved(self) -> None:
        self._resolved += 1
        if self._resolved == len(self.handles):
            self._release_client()

    def _release_client(self) -> None:
        if self._owned_client is not None:
            self._owned_client.close()
            self._owned_client = None


def submit(
    spec: RunSpec,
    *,
    server=None,
    runner: Optional[Runner] = None,
    client_name: Optional[str] = None,
    stream: bool = True,
) -> RunHandle:
    """Execute one :class:`RunSpec`.

    Args:
        spec: the fully-described simulation to run.
        server: daemon address (Unix-socket path or ``host:port``) or a
            connected :class:`~repro.serve.client.ServeClient`.  Given,
            the spec is submitted to that daemon and ``runner`` is not
            used; ``None``, the spec runs in this process.
        runner: the :class:`Runner` for an in-process run (defaults to
            the ambient :func:`repro.lab.current_runner`).
        client_name: client identity for the daemon's fairness
            accounting.
        stream: ask for the run's progress records; without it the
            handle's ``stream()`` yields none, on either road.
    """
    return submit_many([spec], server=server, runner=runner,
                       client_name=client_name, stream=stream).handles[0]


def submit_many(
    specs: Sequence[RunSpec],
    *,
    server=None,
    runner: Optional[Runner] = None,
    client_name: Optional[str] = None,
    journal=None,
    stream: bool = False,
) -> SubmitBatch:
    """Execute a batch of specs (``server`` / ``runner`` as :func:`submit`).

    In-process the batch is one :meth:`Runner.run_many` call over this
    batch's handles — dedup, cache, retries, journal, and drain
    semantics are exactly the engine's, as they are served.
    Served, every spec goes out over one connection (the daemon
    dedupes and schedules fairly against other clients) and, when
    ``journal`` (an open :class:`~repro.lab.journal.SweepJournal`, as
    for ``run_many``) is given, spec/done/failed records are mirrored
    into it client-side so ``repro sweep --resume`` works on the
    client's journal too; a mirror write that fails (a full disk) is
    noted on the runner's ``progress``, as the runner road notes it,
    and never costs an outcome.
    """
    from repro.lab import current_runner

    handles = [RunHandle(spec, wants_stream=stream) for spec in specs]
    if server is None:
        report = (runner or current_runner()).run_many(_Lent(handles),
                                                        journal=journal)
        return SubmitBatch(handles, report=report)

    from repro.serve.client import ServeClient

    client = server
    if not isinstance(server, ServeClient):
        client = ServeClient(server, name=client_name or "submit")
    # The batch closes a connection opened here, never the caller's.
    batch = SubmitBatch(handles,
                        owned_client=None if client is server else client)

    def mirror(write, *args) -> None:
        # The runner road's rule: a full disk costs the mirror, never
        # an outcome, and is narrated where that road narrates it.
        failed = persist(write, *args)
        if failed is not None:
            progress = (runner or current_runner()).progress
            if progress is not None:
                progress(render(failed))

    try:
        for handle in handles:
            if journal is not None:
                mirror(journal.record_spec, handle.spec)
            handle._batch = batch
            client._submit(handle)
        if journal is not None:
            for handle in batch.handles:  # each the moment it arrives
                mirror(journal.append, outcome_record(handle.outcome()))
    except BaseException:
        batch._release_client()
        raise
    return batch


__all__ = [
    "RunFailedError",
    "RunHandle",
    "SubmitBatch",
    "submit",
    "submit_many",
]
