"""One submission API over every execution backend.

Callers that want a simulation executed hold a :class:`~repro.lab.spec.
RunSpec` and should not care *where* it runs — in this process through a
:class:`~repro.lab.runner.Runner`, or in a resident ``repro serve``
daemon shared with every other tool on the machine.  :func:`submit` and
:func:`submit_many` are that indifference point:

    from repro.api import submit

    handle = submit(spec)                          # in-process (today)
    handle = submit(spec, backend="server",
                    server="/tmp/repro.sock")      # via the daemon

Either way the caller gets a :class:`RunHandle` with the same three
affordances — ``.done``, ``.stream()`` (progress records), and
``.result()`` / ``.outcome()`` — and, by construction, the same
payload: both backends execute through
:func:`repro.lab.runner.execute_run` against the same content-addressed
cache, so a result is bitwise-identical whichever road it traveled.

Backends:

``local``
    Synchronous-eager: the spec runs to completion (through the given
    or ambient :class:`Runner` — cache, retries, timeouts included)
    before :func:`submit` returns, exactly like today's direct calls.
    The handle is already done; ``stream()`` replays the run's obs
    time-series from the result.

``server``
    The spec travels to a ``repro serve`` daemon (address or live
    :class:`~repro.serve.client.ServeClient`), which dedupes it against
    the shared cache and all in-flight work, executes at most once, and
    streams progress back live.

:class:`SubmitBatch` is the many-spec variant; its :attr:`~SubmitBatch.
report` is an ordinary :class:`~repro.lab.runner.BatchReport`, so sweep
/ bench / fuzz code consumes either backend's outcomes identically.
"""

from __future__ import annotations

import time
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Union)

from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.runner import BatchReport, Runner
from repro.lab.spec import RunSpec

#: Valid ``backend=`` values.
BACKENDS = ("local", "server")


class RunFailedError(LabError):
    """`.result()` was asked for a run that failed; carries the record."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def _replay_progress(outcome: Union[RunResult, RunFailure]
                     ) -> List[Dict[str, Any]]:
    """Synthesize the progress feed a server client would have seen.

    The local backend completes before the handle exists, so streaming
    is a replay: lifecycle marks bracketing the obs time-series rows the
    run actually collected (none when the spec skipped obs).
    """
    records: List[Dict[str, Any]] = [
        {"kind": "lifecycle", "phase": "started",
         "spec_hash": outcome.spec_hash},
    ]
    if isinstance(outcome, RunResult):
        series = (outcome.obs or {}).get("series") or {}
        for row in series.get("rows", []):
            records.append({"kind": "sample", "row": row})
        records.append({"kind": "lifecycle", "phase": "finished",
                        "cycles": outcome.cycles})
    else:
        records.append({"kind": "lifecycle", "phase": "failed",
                        "error": outcome.error_type})
    return records


class RunHandle:
    """One submitted run, backend-agnostic.

    ``done`` / ``stream()`` / ``outcome()`` / ``result()`` behave
    identically whether the run executed in-process (already complete)
    or is simulating in a daemon right now (progress arrives live).
    """

    def __init__(self, spec: RunSpec, backend: str, *,
                 outcome: Optional[Union[RunResult, RunFailure]] = None,
                 serve_handle=None, owned_client=None) -> None:
        self.spec = spec
        self.backend = backend
        self._outcome = outcome
        self._serve_handle = serve_handle
        self._owned_client = owned_client

    @property
    def done(self) -> bool:
        if self._outcome is not None:
            return True
        return self._serve_handle is not None and self._serve_handle.done

    @property
    def status(self) -> str:
        """Submission status: ``completed`` (local) or the daemon's
        ``queued`` / ``attached`` / ``cached``."""
        if self._serve_handle is not None:
            return self._serve_handle.status
        return "completed"

    def stream(self) -> Iterator[Dict[str, Any]]:
        """Yield progress records (``kind``: ``lifecycle`` / ``sample``
        / ``event`` / ``event_gap``) until the run is terminal."""
        if self._serve_handle is not None:
            for message in self._serve_handle.stream():
                yield message.get("data", message)
            return
        yield from _replay_progress(self._outcome)

    def outcome(self, timeout: Optional[float] = None
                ) -> Union[RunResult, RunFailure]:
        """Block for the terminal record — a result *or* a failure."""
        if self._outcome is None:
            self._outcome = self._serve_handle.outcome(timeout)
            self._release_client()
        return self._outcome

    def result(self, timeout: Optional[float] = None) -> RunResult:
        """Block for the :class:`RunResult`; a failed run raises
        :class:`RunFailedError` carrying the failure record."""
        outcome = self.outcome(timeout)
        if isinstance(outcome, RunFailure):
            raise RunFailedError(outcome)
        return outcome

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._outcome is not None:
            return True
        return self._serve_handle.wait(timeout)

    def _release_client(self) -> None:
        if self._owned_client is not None:
            self._owned_client.close()
            self._owned_client = None


class SubmitBatch:
    """Handles for a batch of submissions, resolvable as a report."""

    def __init__(self, handles: List[RunHandle], backend: str, *,
                 report: Optional[BatchReport] = None,
                 owned_client=None) -> None:
        self.handles = handles
        self.backend = backend
        self._report = report
        self._owned_client = owned_client

    def __len__(self) -> int:
        return len(self.handles)

    def __iter__(self) -> Iterator[RunHandle]:
        return iter(self.handles)

    def outcomes(self, timeout: Optional[float] = None
                 ) -> List[Union[RunResult, RunFailure]]:
        """Every outcome, in submission order (blocks until all done)."""
        return [h.outcome(timeout) for h in self.handles]

    def results(self, timeout: Optional[float] = None) -> List[RunResult]:
        """All results; raises :class:`RunFailedError` on any failure."""
        return [h.result(timeout) for h in self.handles]

    @property
    def report(self) -> BatchReport:
        """The batch as a :class:`~repro.lab.runner.BatchReport` — the
        shape sweep/bench/fuzz reporting already consumes.  Blocks
        until every handle is terminal."""
        return self._resolve() if self._report is None else self._report

    def _resolve(self, journal=None) -> BatchReport:
        """Wait for every outcome (mirroring each into ``journal`` the
        moment it arrives), build the report, release the client."""
        start = time.perf_counter()
        results = []
        for handle in self.handles:
            results.append(handle.outcome())
            if journal is not None:
                journal.record_outcome(results[-1])
        self._report = BatchReport(
            results=results, elapsed_s=time.perf_counter() - start,
        )
        if self._owned_client is not None:
            self._owned_client.close()
            self._owned_client = None
        return self._report


def _normalize_backend(backend: str, server) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "server" and server is None:
        raise ValueError(
            "backend='server' needs server= (a daemon address or a "
            "connected repro.serve.ServeClient)"
        )
    return backend


def _as_client(server, name: Optional[str]):
    """Return ``(client, owned)`` for an address or live client."""
    from repro.serve.client import ServeClient

    if isinstance(server, ServeClient):
        return server, False
    return ServeClient(server, name=name or "submit"), True


def submit(
    spec: RunSpec,
    *,
    backend: str = "local",
    server=None,
    runner: Optional[Runner] = None,
    client_name: Optional[str] = None,
    stream: bool = True,
    priority: int = 0,
) -> RunHandle:
    """Execute one :class:`RunSpec` on the chosen backend.

    Args:
        spec: the fully-described simulation to run.
        backend: ``"local"`` (in this process, synchronously — the
            handle returns already done) or ``"server"`` (submitted to
            a ``repro serve`` daemon; the handle resolves as the daemon
            reports back).
        server: daemon address (Unix-socket path or ``host:port``) or a
            connected :class:`~repro.serve.client.ServeClient`.
            Required — and only meaningful — for ``backend="server"``.
        runner: the :class:`Runner` for the local backend (defaults to
            the ambient :func:`repro.lab.current_runner`).
        client_name: client identity for the daemon's fairness
            accounting (server backend).
        stream: ask the daemon for live progress records (server
            backend; the local backend can always replay).
        priority: scheduling priority within this client's queue
            (server backend; higher dispatches first).

    Returns:
        A :class:`RunHandle`.
    """
    backend = _normalize_backend(backend, server)
    if backend == "local":
        from repro.lab import current_runner

        run = (runner or current_runner()).run_many([spec])
        return RunHandle(spec, "local", outcome=run.results[0])
    client, owned = _as_client(server, client_name)
    try:
        handle = client.submit(spec, stream=stream, priority=priority)
    except Exception:
        if owned:
            client.close()
        raise
    return RunHandle(spec, "server", serve_handle=handle,
                     owned_client=client if owned else None)


def submit_many(
    specs: Sequence[RunSpec],
    *,
    backend: str = "local",
    server=None,
    runner: Optional[Runner] = None,
    client_name: Optional[str] = None,
    journal=None,
    stream: bool = False,
    priority: int = 0,
) -> SubmitBatch:
    """Execute a batch of specs on the chosen backend.

    The local backend is one :meth:`Runner.run_many` call — cache,
    retries, journal, and drain semantics are exactly today's.  The
    server backend submits every spec over one connection (the daemon
    dedupes and schedules fairly against other clients) and, when
    ``journal`` is given, mirrors spec/done/failed records into it
    client-side so ``repro sweep --resume`` works on the client's
    journal too.
    """
    specs = list(specs)
    backend = _normalize_backend(backend, server)
    if backend == "local":
        from repro.lab import current_runner

        report = (runner or current_runner()).run_many(
            specs, journal=journal
        )
        handles = [
            RunHandle(spec, "local", outcome=outcome)
            for spec, outcome in zip(specs, report.results)
        ]
        return SubmitBatch(handles, "local", report=report)

    from repro.lab.journal import SweepJournal

    client, owned = _as_client(server, client_name)
    own_journal = journal is not None and not isinstance(journal,
                                                        SweepJournal)
    if own_journal:
        journal = SweepJournal(journal, resume=True)
    try:
        handles = []
        for spec in specs:
            if journal is not None:
                journal.record_spec(spec)
            serve_handle = client.submit(spec, stream=stream,
                                         priority=priority)
            handles.append(RunHandle(spec, "server",
                                     serve_handle=serve_handle))
        batch = SubmitBatch(handles, "server",
                            owned_client=client if owned else None)
        if journal is not None:
            batch._resolve(journal)
        return batch
    except Exception:
        if owned:
            client.close()
        raise
    finally:
        if own_journal:
            journal.close()


__all__ = [
    "BACKENDS",
    "RunFailedError",
    "RunHandle",
    "SubmitBatch",
    "submit",
    "submit_many",
]
