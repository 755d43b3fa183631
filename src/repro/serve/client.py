"""Client side of the serve protocol: submit specs, stream progress.

:class:`ServeClient` owns one connection to a :class:`~repro.serve.
daemon.ServeDaemon` and multiplexes any number of outstanding jobs over
it.  A background reader thread routes incoming messages: direct
replies (``accepted``, ``status``, ``pong``, ``shutting_down``,
``error``) resolve in-order RPC waits, while per-job broadcasts
(``progress``, ``result``, ``failure``) are decoded once and sent to
the job's :class:`~repro.lab.runner.RunHandle`\\ s — the handle a local
batch's engine feeds — by ``job_id``.  The correlation is safe because
the daemon answers each request with exactly one direct reply, in
request order, on the connection it arrived on.

Typical use::

    with ServeClient("/tmp/repro.sock", name="sweep") as client:
        handles = [client.submit(spec) for spec in specs]
        for handle in handles:
            for message in handle.stream():
                ...                       # live samples/events
            outcome = handle.outcome()    # RunResult or RunFailure

A handle submitted with ``stream=False`` gets no progress;
``handle.outcome()`` blocks until the daemon broadcasts the terminal
message, streamed or not.  Losing the connection fails
every outstanding handle with :class:`ServeError` — the daemon keeps
running the jobs (their results still reach the shared cache), so
resubmitting after reconnect completes from cache hits.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.lab.core import Job
from repro.lab.results import RunFailure, RunResult
from repro.lab.runner import RunHandle
from repro.lab.spec import RunSpec
from repro.serve import protocol


class ServeError(RuntimeError):
    """The daemon refused a request or the connection was lost."""


class ServeHandle(RunHandle):
    """:meth:`ServeClient.submit`'s handle: :meth:`stream` re-wraps each
    record as its wire ``progress`` message, whose ``data`` the ledger
    reads."""

    def stream(self) -> Iterator[Dict[str, Any]]:
        for item in super().stream():
            yield {"type": "progress", "job_id": self.job_id,
                   "spec_hash": self.spec_hash, "kind": item["kind"],
                   "data": item}


def _decode(message: Dict[str, Any]):
    """A job's broadcast as the item its handles are sent: a progress
    record, the outcome, or the :class:`ServeError` of a message that
    does not decode."""
    kind = message["type"]
    try:
        if kind == "progress":
            return message["data"]
        if kind == "failure":
            return RunFailure.from_record(message["failure"])
        outcome = RunResult.from_dict(message["result"])
        outcome.attempts = message["attempts"]
        outcome.from_cache = message["from_cache"]
        outcome.label = message["label"]
        return outcome
    except (KeyError, TypeError, ValueError) as exc:
        return ServeError(f"{kind} message does not decode: "
                          f"{type(exc).__name__}: {exc}")


def _fan_out(job: Job, item, handles) -> None:
    """Send ``item`` to ``handles`` of ``job``; progress only to those
    that asked for it."""
    progress = isinstance(item, dict)
    for handle in handles:
        if handle.wants_stream or not progress:
            handle.send(job, item)


class ServeClient:
    """One protocol connection to a serve daemon (thread-safe)."""

    def __init__(self, address: str, *, name: Optional[str] = None,
                 connect_timeout_s: Optional[float] = 10.0,
                 rpc_timeout_s: Optional[float] = 60.0) -> None:
        self.address = address
        self.name = name
        self.rpc_timeout_s = rpc_timeout_s
        try:
            sock = protocol.connect(address, timeout_s=connect_timeout_s)
        except OSError as exc:
            # Nothing listening: the same error type a connection lost
            # later raises, so callers handle one.
            raise ServeError(f"{type(exc).__name__}: {exc}") from exc
        self._stream = protocol.MessageStream(sock)
        #: Re-entrant: submit() holds it around its own _rpc().
        self._rpc_lock = threading.RLock()
        self._replies: "queue.Queue" = queue.Queue()
        #: job_id -> the daemon's job as this client sees it: its
        #: subscribers are every handle still waiting on it (a spec
        #: resubmitted while in flight attaches to the same job).  The
        #: entry goes when the job's terminal message is routed, so a
        #: long-lived client holds only its outstanding handles.
        self._jobs: Dict[str, Job] = {}
        #: Progress that arrived before submit() registered the job.
        self._orphans: Dict[str, List[Dict[str, Any]]] = {}
        #: While a submit is in progress: job_id -> terminal item seen
        #: since the request went out.  A result can overtake the
        #: ``accepted`` reply of a resubmission that attached to its
        #: job; the late handle finds it here.  ``None`` between submits.
        self._terminal: Optional[Dict[str, Any]] = None
        self._route_lock = threading.Lock()
        self._closed = False
        # Handshake happens synchronously so a version mismatch raises
        # here, in the caller's frame, not in a background thread.
        try:
            self._stream.send(protocol.hello_message(client=name))
            ack = self._stream.recv()
            if ack is not None and ack.get("type") == "error":
                raise ServeError(ack.get("message", "handshake refused"))
            protocol.check_hello(ack, expected_type="hello_ack")
        except (ServeError, protocol.ProtocolError, OSError) as exc:
            self._stream.close()
            self._stream.close_reader()
            if isinstance(exc, ServeError):
                raise
            raise ServeError(f"{type(exc).__name__}: {exc}") from exc
        self.server_info = ack
        self._reader = threading.Thread(
            target=self._read_loop, name="serve-client-reader", daemon=True
        )
        self._reader.start()

    # -- plumbing ------------------------------------------------------

    def _read_loop(self) -> None:
        error: Exception = ServeError("connection closed by daemon")
        while True:
            try:
                message = self._stream.recv()
            except (protocol.ProtocolError, OSError, ValueError) as exc:
                error = exc
                break
            if message is None:
                break
            job_id = message.get("job_id")
            if message.get("type") in ("progress", "result", "failure") \
                    and job_id is not None:
                self._route(job_id, _decode(message))
            else:
                self._replies.put(message)
        self._stream.close_reader()
        # Connection gone: fail every outstanding wait.
        lost = ServeError(f"connection lost: {error}")
        self._replies.put({"type": "error", "message": str(lost)})
        with self._route_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            _fan_out(job, lost, job.subscribers)

    def _route(self, job_id: str, item) -> None:
        with self._route_lock:
            if isinstance(item, dict):
                job = self._jobs.get(job_id)
                if job is None:
                    self._orphans.setdefault(job_id, []).append(item)
            else:
                job = self._jobs.pop(job_id, None)
                if self._terminal is not None:
                    self._terminal[job_id] = item
            handles = list(job.subscribers) if job is not None else ()
        _fan_out(job, item, handles)

    def _rpc(self, message: Union[Dict[str, Any], bytes],
             kind: Optional[str] = None) -> Dict[str, Any]:
        """Send ``message`` (a ``bytes`` one is an encoded line of type
        ``kind``) and wait for its direct reply."""
        with self._rpc_lock:
            try:
                self._stream.send(message)
            except OSError as exc:
                raise ServeError(f"daemon unreachable: {exc}") from exc
            try:
                reply = self._replies.get(timeout=self.rpc_timeout_s)
            except queue.Empty:
                raise ServeError(
                    f"no reply to {kind or message['type']!r} within "
                    f"{self.rpc_timeout_s}s"
                ) from None
        if reply.get("type") == "error":
            raise ServeError(reply.get("message", "daemon error"))
        return reply

    # -- API -----------------------------------------------------------

    def submit(self, spec: RunSpec, *, stream: bool = True) -> ServeHandle:
        """Submit one :class:`RunSpec`; returns a live handle.

        ``stream=False`` still delivers the terminal result/failure but
        no progress (cheaper for large sweeps)."""
        return self._submit(ServeHandle(spec, wants_stream=stream))

    def _submit(self, handle: RunHandle) -> RunHandle:
        """Submit ``handle.spec`` and subscribe ``handle`` to its job."""
        spec = handle.spec
        with self._rpc_lock:
            with self._route_lock:
                self._terminal = {}
            try:
                # The spec goes out as the canonical text its hash was
                # computed over: serialized once per spec, not per submit.
                reply = self._rpc(protocol.splice(
                    {"type": "submit", "label": spec.label,
                     "stream": handle.wants_stream},
                    "spec", spec.canonical_json()), "submit")
                if reply.get("type") != "accepted":
                    raise ServeError("expected 'accepted', daemon sent "
                                     f"{reply.get('type')!r}")
                job_id = reply["job_id"]
                with self._route_lock:
                    job = self._jobs.get(job_id) or Job(
                        spec=spec, client=self.name, id=job_id,
                        spec_hash=reply["spec_hash"])
                    handle.accepted(job, reply["status"])
                    backlog = self._orphans.pop(job_id, [])
                    if job_id in self._terminal:
                        # Settled before it could be registered: nothing
                        # further will be routed to this handle.
                        backlog.append(self._terminal[job_id])
                    else:
                        job.subscribers.append(handle)
                        self._jobs[job_id] = job
            finally:
                with self._route_lock:
                    self._terminal = None
        for item in backlog:
            _fan_out(job, item, [handle])
        return handle

    def status(self) -> Dict[str, Any]:
        return self._rpc({"type": "status"})

    def ping(self) -> bool:
        return self._rpc({"type": "ping"}).get("type") == "pong"

    def shutdown_daemon(self, drain: bool = True) -> None:
        """Ask the daemon to stop (drain in-flight work by default)."""
        self._rpc({"type": "shutdown", "drain": drain})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stream.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["ServeClient", "ServeError", "ServeHandle"]
