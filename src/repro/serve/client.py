"""Client side of the serve protocol: submit specs, stream progress.

:class:`ServeClient` owns one connection to a :class:`~repro.serve.
daemon.ServeDaemon` and multiplexes any number of outstanding jobs over
it.  A background reader thread routes incoming messages: direct
replies (``accepted``, ``status``, ``pong``, ``shutting_down``,
``error``) resolve in-order RPC waits, while per-job
broadcasts (``progress``, ``result``, ``failure``) are delivered to the
matching :class:`ServeHandle` by ``job_id``.  The correlation is safe
because the daemon answers each request with exactly one direct reply,
in request order, on the connection it arrived on.

Typical use::

    with ServeClient("/tmp/repro.sock", name="sweep") as client:
        handles = [client.submit(spec) for spec in specs]
        for handle in handles:
            for record in handle.stream():
                ...                       # live samples/events
            outcome = handle.outcome()    # RunResult or RunFailure

Handles are also safe to resolve without streaming: ``handle.outcome()``
blocks until the daemon broadcasts the terminal message.  Losing the
connection fails every outstanding handle with :class:`ServeError` —
the daemon keeps running the jobs (their results still reach the shared
cache), so resubmitting after reconnect completes from cache hits.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.lab.results import RunFailure, RunResult
from repro.lab.spec import RunSpec
from repro.serve import protocol

#: Terminal marker on a handle's progress queue.
_SENTINEL = object()


class ServeError(RuntimeError):
    """The daemon refused a request or the connection was lost."""


class ServeHandle:
    """One submitted job as seen by the client."""

    def __init__(self, client: "ServeClient", job_id: str, spec_hash: str,
                 status: str, spec: Optional[RunSpec] = None) -> None:
        self.client = client
        self.job_id = job_id
        self.spec_hash = spec_hash
        #: Submission status: ``queued``, ``attached``, or ``cached``.
        self.status = status
        self.spec = spec
        self._progress: "queue.Queue" = queue.Queue()
        self._done = threading.Event()
        self._outcome: Optional[Union[RunResult, RunFailure]] = None
        self._error: Optional[Exception] = None

    # -- reader-thread side -------------------------------------------

    def _deliver(self, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "progress":
            self._progress.put(message)
        elif kind in ("result", "failure"):
            try:
                if kind == "result":
                    outcome = RunResult.from_dict(message["result"])
                    outcome.attempts = message["attempts"]
                    outcome.from_cache = message["from_cache"]
                    outcome.label = (self.spec.label if self.spec is not None
                                     else message["label"])  # its own
                else:
                    outcome = RunFailure.from_record(message["failure"],
                                                     spec=self.spec)
            except (KeyError, TypeError, ValueError) as exc:
                self._abort(ServeError(
                    f"{kind} message does not decode: "
                    f"{type(exc).__name__}: {exc}"))
                return
            self._finish(outcome)

    def _finish(self, outcome: Union[RunResult, RunFailure]) -> None:
        if self._done.is_set():
            return
        self._outcome = outcome
        self._done.set()
        self._progress.put(_SENTINEL)

    def _abort(self, error: Exception) -> None:
        if self._done.is_set():
            return
        self._error = error
        self._done.set()
        self._progress.put(_SENTINEL)

    # -- consumer side -------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def stream(self) -> Iterator[Dict[str, Any]]:
        """Yield ``progress`` messages until the job reaches a terminal
        state (then call :meth:`outcome` for the result)."""
        while True:
            item = self._progress.get()
            if item is _SENTINEL:
                # Re-arm so a second stream() consumer also terminates.
                self._progress.put(_SENTINEL)
                return
            yield item

    def outcome(self, timeout: Optional[float] = None
                ) -> Union[RunResult, RunFailure]:
        """Block for the terminal outcome (result *or* failure record)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not complete within {timeout}s"
            )
        if self._error is not None:
            raise ServeError(
                f"job {self.job_id} outcome lost: {self._error}"
            ) from self._error
        assert self._outcome is not None
        return self._outcome


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
        #: job_id -> every handle still waiting on it.  A list, not a
        #: single handle: resubmitting a spec this client already has in
        #: flight attaches to the same daemon job (same job_id), and
        #: both handles must resolve.  The entry goes when the job's
        #: terminal message is routed, so a long-lived client holds only
        #: its outstanding handles.
        self._handles: Dict[str, List[ServeHandle]] = {}
        #: Broadcasts that arrived before submit() registered the handle
        #: (the cached-path result can beat the accepted bookkeeping).
        self._orphans: Dict[str, List[Dict[str, Any]]] = {}
        #: While a submit is in progress: job_id -> terminal message
        #: seen since the request went out.  A result can overtake the
        #: ``accepted`` reply of a resubmission that attached to its
        #: job; the late handle finds it here.  ``None`` between submits.
        self._terminal: Optional[Dict[str, Dict[str, Any]]] = None
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
        except ServeError:
            self._stream.close()
            raise
        except (protocol.ProtocolError, OSError) as exc:
            self._stream.close()
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
                error = exc if isinstance(exc, Exception) else error
                break
            if message is None:
                break
            job_id = message.get("job_id")
            if message.get("type") in ("progress", "result", "failure") \
                    and job_id is not None:
                with self._route_lock:
                    if message["type"] != "progress":
                        handles = self._handles.pop(job_id, [])
                        if self._terminal is not None:
                            self._terminal[job_id] = message
                    else:
                        handles = list(self._handles.get(job_id, ()))
                        if not handles:
                            self._orphans.setdefault(job_id, []).append(
                                message)
                for handle in handles:
                    handle._deliver(message)
            else:
                self._replies.put(message)
        # Connection gone: fail every outstanding wait.
        self._replies.put({"type": "error",
                           "message": f"connection lost: {error}"})
        with self._route_lock:
            handles = [h for hs in self._handles.values() for h in hs]
        for handle in handles:
            handle._abort(ServeError(f"connection lost: {error}"))

    def _rpc(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._rpc_lock:
            try:
                self._stream.send(message)
            except OSError as exc:
                raise ServeError(f"daemon unreachable: {exc}") from exc
            try:
                reply = self._replies.get(timeout=self.rpc_timeout_s)
            except queue.Empty:
                raise ServeError(
                    f"no reply to {message.get('type')!r} within "
                    f"{self.rpc_timeout_s}s"
                ) from None
        if reply.get("type") == "error":
            raise ServeError(reply.get("message", "daemon error"))
        return reply

    # -- API -----------------------------------------------------------

    def submit(self, spec: RunSpec, *, stream: bool = True) -> ServeHandle:
        """Submit one :class:`RunSpec`; returns a live handle.

        ``stream=False`` still delivers the terminal result/failure but
        skips per-run progress traffic (cheaper for large sweeps).
        """
        with self._rpc_lock:
            with self._route_lock:
                self._terminal = {}
            try:
                reply = self._rpc({
                    "type": "submit",
                    "spec": spec.to_dict(),
                    "label": spec.label,
                    "stream": stream,
                })
                if reply.get("type") != "accepted":
                    raise ServeError("expected 'accepted', daemon sent "
                                     f"{reply.get('type')!r}")
                job_id = reply["job_id"]
                handle = ServeHandle(self, job_id, reply["spec_hash"],
                                     reply["status"], spec=spec)
                with self._route_lock:
                    backlog = self._orphans.pop(job_id, [])
                    if job_id in self._terminal:
                        # Settled before it could be registered: nothing
                        # further will be routed to this handle.
                        backlog.append(self._terminal[job_id])
                    else:
                        self._handles.setdefault(job_id, []).append(handle)
            finally:
                with self._route_lock:
                    self._terminal = None
        for message in backlog:
            handle._deliver(message)
        return handle

    def submit_many(self, specs, *, stream: bool = True) -> List[ServeHandle]:
        return [self.submit(spec, stream=stream) for spec in specs]

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
