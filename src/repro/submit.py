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
Either way the caller gets a :class:`RunHandle` — ``.done``,
``.status``, ``.stream()`` (the progress records the run spooled),
``.result()`` / ``.outcome()`` — and the same payload.  In-process is
synchronous-eager: the spec runs to completion on the caller's thread
before :func:`submit` returns.  Served, progress streams back live.

:class:`SubmitBatch` is the many-spec variant; its :attr:`~SubmitBatch.
report` is an ordinary :class:`~repro.lab.runner.BatchReport`, so sweep
and fuzz code consumes either road's outcomes identically.
"""

from __future__ import annotations

import time
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Union)

from repro.lab.core import persist
from repro.lab.journal import outcome_record, render
from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.runner import BatchReport, Runner
from repro.lab.spec import RunSpec


class RunFailedError(LabError):
    """`.result()` was asked for a run that failed; carries the record."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


class RunHandle:
    """One submitted run, whichever road it took.

    ``done`` / ``status`` / ``stream()`` / ``outcome()`` / ``result()``
    behave identically over an in-process run's (already complete)
    :class:`~repro.lab.runner.Inbox` and a daemon's live
    :class:`~repro.serve.client.ServeHandle`.
    """

    def __init__(self, spec: RunSpec, handle,
                 batch: "SubmitBatch") -> None:
        self.spec = spec
        self._handle = handle
        self._outcome: Optional[Union[RunResult, RunFailure]] = None
        #: The batch this handle was submitted in: it may own the
        #: connection and is told when this handle resolves.
        self._batch = batch

    @property
    def done(self) -> bool:
        return self._handle.done

    @property
    def status(self) -> str:
        """Submission status: ``queued``, ``attached`` or ``cached``."""
        return self._handle.status

    def stream(self) -> Iterator[Dict[str, Any]]:
        """Yield progress records (v1 host records: ``lifecycle`` /
        ``sample`` / ``event`` / ``event_gap``) until the run is terminal."""
        for message in self._handle.stream():  # a served one wraps it
            yield message.get("data", message)

    def outcome(self, timeout: Optional[float] = None
                ) -> Union[RunResult, RunFailure]:
        """Block for the terminal record — a result *or* a failure."""
        if self._outcome is None:
            self._outcome = self._handle.outcome(timeout)
            self._batch._handle_resolved()
        return self._outcome

    def result(self, timeout: Optional[float] = None) -> RunResult:
        """Block for the :class:`RunResult`; a failed run raises
        :class:`RunFailedError` carrying the failure record."""
        outcome = self.outcome(timeout)
        if isinstance(outcome, RunFailure):
            raise RunFailedError(outcome)
        return outcome

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._handle.wait(timeout)


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
        stream: ask the daemon for live progress records (an in-process
            handle always has the records its run spooled).
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

    In-process the batch is one :meth:`Runner.run_many` call — dedup,
    cache, retries, journal, and drain semantics are exactly the
    engine's, as they are served.
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

    specs = list(specs)
    if server is None:
        report = (runner or current_runner()).run_many(specs, journal=journal)
        batch = SubmitBatch([], report=report)
        batch.handles = [RunHandle(spec, inbox, batch)
                         for spec, inbox in zip(specs, report.handles)]
        return batch

    from repro.serve.client import ServeClient

    client = server
    if not isinstance(server, ServeClient):
        client = ServeClient(server, name=client_name or "submit")
    # The batch closes a connection opened here, never the caller's.
    batch = SubmitBatch([], owned_client=None if client is server else client)

    def mirror(write, *args) -> None:
        # The runner road's rule: a full disk costs the mirror, never
        # an outcome, and is narrated where that road narrates it.
        failed = persist(write, *args)
        if failed is not None:
            progress = (runner or current_runner()).progress
            if progress is not None:
                progress(render(failed))

    try:
        for spec in specs:
            if journal is not None:
                mirror(journal.record_spec, spec)
            batch.handles.append(RunHandle(
                spec, client.submit(spec, stream=stream), batch))
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
