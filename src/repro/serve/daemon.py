"""``repro serve`` — the long-running simulation daemon.

The daemon inverts the lab architecture: instead of every tool owning a
:class:`~repro.lab.runner.Runner`, one resident process owns the worker
pool, the content-addressed result cache, and the durable journal, and
every downstream tool (CLI, benchmarks, fuzzer, tests) becomes a thin
protocol client.  One submission API, shared dedup, shared cache.

Lifecycle of a submission (see ``docs/serve.md``):

1. A client connects (:mod:`repro.serve.protocol` handshake) and sends
   ``submit`` messages carrying serialized RunSpecs.
2. The engine dedupes: an identical spec already in flight gains a
   subscriber instead of a second simulation; a spec in the cache
   returns instantly with no dispatch.
3. Fresh work waits in the fair queue (per-client FIFOs, round-robin,
   inflight budgets) until a worker can take it.
4. While a run is in flight, the lifecycle marks, obs samples and obs
   events its worker spools stream to every subscribed client.
5. The result lands in the cache and journal, then fans out to all
   subscribers: a result as its ``result`` record, a failure as its
   ``failed`` record (:mod:`repro.lab.journal`).

Steps 2–5 are the shared :class:`~repro.lab.core.ExecutionCore`
pumped on the ``serve-dispatch`` thread — the very engine a local
``lab.Runner`` batch pumps on its caller's thread, so the two roads
differ only in transport, which is what this module adds.  The first
SIGTERM/SIGINT *drains*: new submissions are refused, queued jobs are
journaled as interrupted-transient (a resubmitted sweep completes them
from cache hits), in-flight runs get ``grace_s`` to finish and still
reach cache, journal, and clients.  A second signal aborts immediately.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time
from typing import Any, Dict, Optional, Union

from repro.lab.cache import CachedRecord, ResultCache
from repro.lab.core import ExecutionCore, Job
from repro.lab.journal import SweepJournal, note_record, outcome_record, render
from repro.lab.spec import RunSpec
from repro.serve import protocol

#: Counter names exposed by ``status`` (all start at zero): the
#: transport's (``submitted``, ``attached``, ``clients``, submit-time
#: ``cache_hits``) plus the engine's attributes of the same names.
COUNTER_NAMES = (
    "submitted",      # submit messages accepted
    "attached",       # submissions deduped onto an in-flight job
    "cache_hits",     # submissions served from the cache, no dispatch
    "dispatched",     # jobs actually handed to the worker pool
    "completed",      # jobs a worker produced a RunResult for
    "failed",         # jobs that exhausted attempts
    "retried",        # transient failures re-queued
    "worker_losses",  # in-flight jobs re-queued after a pool death
    "clients",        # connections that completed the handshake
)


#: Bounds of the daemon's memo of the specs it built for submissions
#: the cache answered: how many it holds (oldest dropped first) and the
#: longest submit line it keeps.
SPEC_MEMO_ENTRIES = 256
SPEC_MEMO_MAX_BYTES = 16 * 1024


def _outcome_message(job: Job, outcome) -> Union[Dict[str, Any], bytes]:
    """``job``'s terminal message: a result's record with its delivery
    fields beside it, or a failure's ``failed`` record.  A cache entry's
    verified record goes out as the text it is, spliced into the line."""
    message = {"job_id": job.id, "label": job.spec.label}
    if isinstance(outcome, CachedRecord):
        return protocol.splice(
            {"type": "result", **message, "attempts": outcome.attempts,
             "from_cache": outcome.from_cache}, "result", outcome.text)
    if outcome.ok:
        return {"type": "result", **message, "attempts": outcome.attempts,
                "from_cache": outcome.from_cache, "result": outcome.to_dict()}
    return {"type": "failure", **message, "failure": outcome_record(outcome)}


class _Subscription:
    """One client's interest in one job: the engine's subscriber."""

    __slots__ = ("daemon", "conn", "wants_stream")
    #: ``(job, outcome, message)`` last fanned out: a job's subscribers
    #: share one message (read into a local: a race only rebuilds it).
    _last: tuple = (None, None, None)

    def __init__(self, daemon: "ServeDaemon", conn: "_ClientConn",
                 wants_stream: bool) -> None:
        self.daemon, self.conn, self.wants_stream = daemon, conn, wants_stream

    def accepted(self, job: Job, status: str) -> None:
        # Counted before the reply: a client reading ``status`` right
        # after its answer must see this submission.
        self.daemon._count("submitted")
        if status != "queued":
            self.daemon._count(
                "attached" if status == "attached" else "cache_hits")
        messages = [{"type": "accepted", "job_id": job.id,
                     "spec_hash": job.spec_hash, "status": status}]
        if status == "cached":  # both lines leave in one socket write
            messages.append(_outcome_message(job, job.cached))
        self.conn.send(*messages)

    def send(self, job: Job, item) -> bool:
        if isinstance(item, dict):
            # A connection hears a job's progress once, however many of
            # its submissions stream it: the client fans it out.
            if self.conn.streams.setdefault(job.id, self) is not self:
                return True
            return self.conn.send({
                "type": "progress", "job_id": job.id,
                "spec_hash": job.spec_hash, "kind": item["kind"],
                "data": item})
        self.conn.streams.pop(job.id, None)
        last = _Subscription._last
        if last[0] is not job or last[1] is not item:
            last = _Subscription._last = (job, item,
                                          _outcome_message(job, item))
        return self.conn.send(last[2])


class _ClientConn:
    """One accepted connection: framing, identity, liveness."""

    def __init__(self, stream: protocol.MessageStream, peer: str) -> None:
        self.stream = stream
        self.peer = peer
        self.name = peer
        self.alive = True
        #: job id -> the subscription carrying its progress here.
        self.streams: Dict[str, _Subscription] = {}

    def send(self, *messages: Union[Dict[str, Any], bytes]) -> bool:
        if not self.alive:
            return False
        try:
            self.stream.send(*messages)
            return True
        except OSError:
            self.alive = False
            return False

    def close(self) -> None:
        self.alive = False
        self.stream.close()


class ServeDaemon:
    """The simulation-as-a-service job server (``repro serve``)."""

    def __init__(
        self,
        address: str,
        *,
        workers: Optional[int] = None,
        mode: str = "process",
        cache=None,
        journal=None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        max_inflight_per_client: Optional[int] = None,
        grace_s: float = 30.0,
        checkpoint_dir=None,
        spool_dir=None,
        poll_interval_s: float = 0.05,
        progress=None,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        self.address = address
        self.workers = workers if workers and workers > 0 else (
            os.cpu_count() or 1)
        self.mode = mode
        self.cache: Optional[ResultCache] = (
            None if cache is False else cache
            if isinstance(cache, ResultCache) else ResultCache(cache))
        self._journal_path = journal
        self.grace_s = grace_s
        self.poll_interval_s = poll_interval_s
        self.progress = progress

        self.core = ExecutionCore(
            workers=self.workers, mode=self.mode, cache=self.cache,
            timeout_s=timeout_s, retries=retries,
            checkpoint_dir=checkpoint_dir, spool_dir=spool_dir,
            max_inflight_per_client=max_inflight_per_client,
            narrate=self._say)
        self.store, self.scheduler = self.core.store, self.core.queue
        self.counters: Dict[str, int] = dict.fromkeys(
            ("submitted", "attached", "cache_hits", "clients"), 0)
        self._counters_lock = threading.Lock()
        #: submit line -> the spec built from it, for lines whose
        #: submission the cache answered; see :meth:`_handle_submit`.
        self._specs: Dict[bytes, RunSpec] = {}
        self._specs_lock = threading.Lock()

        self._abort = False
        self._stopping = False
        self._started = False
        self._stopped = threading.Event()
        self._listener = None
        self._conns = set()
        self._conns_lock = threading.Lock()
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Bind the listener and start the service threads."""
        if self._started:
            return self
        self._started = True
        started = note_record("serve_start", address=self.address,
                              workers=self.workers, mode=self.mode)
        if self._journal_path is not None:
            self.core.journal = SweepJournal(self._journal_path)
            self.core.journal.append(started)
        self._listener = protocol.create_listener(self.address)
        for name, target in (
            ("serve-accept", self._accept_loop),
            ("serve-dispatch", self._dispatch_loop),
        ):
            threading.Thread(target=target, name=name, daemon=True).start()
        self._say(started)
        return self

    def serve_forever(self) -> int:
        """Blocking entry point: install signal draining and serve.

        Returns 0 after a clean drain, 130 after a two-signal abort.
        """
        self.start()

        def on_signal(repeat: bool) -> None:
            self._abort = self._abort or repeat
            if not repeat:
                self._say(note_record("signal"))

        with self.core.drain_on_signal(self.grace_s, on_signal):
            self._stopped.wait()
        return 130 if self._abort else 0

    def request_shutdown(self, drain: bool = True) -> None:
        """Ask the daemon to stop (thread- and signal-safe)."""
        if not drain:
            self._abort = True
        self.core.begin_drain(self.grace_s if drain else 0.0)

    def join(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    def close(self) -> None:
        """Immediate teardown (tests); prefer :meth:`request_shutdown`."""
        self.request_shutdown(drain=False)
        self._stopped.wait(10.0)

    # -- status --------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._counters_lock:
            counters = {name: self.counters.get(name, 0)
                        + getattr(self.core, name, 0)
                        for name in COUNTER_NAMES}
        # Where the jobs are is the core's knowledge; a job waiting out a
        # retry back-off is on its way back into the queue.
        jobs = {
            "queued": len(self.scheduler) + len(self.core.delayed),
            "running": len(self.core.running),
            "done": counters["cache_hits"] + counters["completed"],
            "failed": counters["failed"],
        }
        return {
            "address": self.address,
            "protocol": protocol.PROTOCOL_VERSION,
            "workers": self.workers,
            "mode": self.mode,
            "cache_dir": str(self.cache.directory) if self.cache else None,
            "uptime_s": round(time.monotonic() - self._started_at, 1),
            "draining": self.core.draining,
            "counters": counters,
            "jobs": {state: n for state, n in jobs.items() if n},
            "pending_by_client": self.scheduler.pending_by_client(),
        }

    # -- internals -----------------------------------------------------

    def _say(self, line: Dict[str, Any], name: Optional[str] = None) -> None:
        if self.progress is not None:
            self.progress("[serve] " + render(line, name))

    def _count(self, name: str) -> None:
        with self._counters_lock:
            self.counters[name] += 1

    # -- accept / client loops ----------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            peer = addr if isinstance(addr, str) and addr else (
                f"{addr[0]}:{addr[1]}" if isinstance(addr, tuple)
                else f"conn-{id(sock) & 0xffff:04x}"
            )
            conn = _ClientConn(protocol.MessageStream(sock), peer)
            thread = threading.Thread(
                target=self._client_loop, args=(conn,),
                name=f"serve-client-{peer}", daemon=True,
            )
            thread.start()

    def _client_loop(self, conn: _ClientConn) -> None:
        stream = conn.stream
        try:
            try:
                hello = protocol.check_hello(stream.recv())
            except protocol.ProtocolError as exc:
                conn.send({"type": "error", "message": str(exc)})
                return
            if hello.get("client"):
                conn.name = str(hello["client"])
            conn.send({"type": "hello_ack",
                       "protocol": protocol.PROTOCOL_VERSION,
                       "server": "repro-serve"})
            self._count("clients")
            with self._conns_lock:
                self._conns.add(conn)
            while conn.alive:
                try:
                    received = stream.recv_line()
                except (protocol.ProtocolError, OSError) as exc:
                    conn.send({"type": "error", "message": str(exc)})
                    break
                if received is None:
                    break
                self._handle_message(conn, *received)
        finally:
            conn.close()
            stream.close_reader()
            with self._conns_lock:
                self._conns.discard(conn)

    def _handle_message(self, conn: _ClientConn, message: Dict[str, Any],
                        line: bytes) -> None:
        kind = message.get("type")
        if kind == "submit":
            self._handle_submit(conn, message, line)
        elif kind == "status":
            conn.send({"type": "status", **self.status()})
        elif kind == "ping":
            conn.send({"type": "pong"})
        elif kind == "shutdown":
            conn.send({"type": "shutting_down",
                       "drain": bool(message.get("drain", True))})
            self.request_shutdown(drain=bool(message.get("drain", True)))
        else:
            conn.send({"type": "error",
                       "message": f"unknown message type {kind!r}"})

    def _handle_submit(self, conn: _ClientConn, message: Dict[str, Any],
                       line: bytes) -> None:
        if self.core.draining:
            conn.send({"type": "error",
                       "message": "daemon is draining; "
                                  "resubmit to a fresh daemon"})
            return
        # A line this daemon has received before, byte for byte, holds
        # the same spec and label: the spec built (and hashed) from it
        # then is reused.  The key is what arrived, never a hash the
        # client claims.
        with self._specs_lock:
            spec = self._specs.get(line)
        if spec is None:
            try:
                spec = RunSpec.from_dict(message["spec"],
                                         label=message.get("label"))
            except (KeyError, TypeError, ValueError) as exc:
                conn.send({"type": "error", "message":
                           f"bad spec: {type(exc).__name__}: {exc}"})
                return
        # A cache hit is answered here, on the client's thread, and never
        # reaches the queue.
        job, status = self.core.submit(spec, conn.name, _Subscription(
            self, conn, wants_stream=bool(message.get("stream", True))))
        if status == "cached" and len(line) <= SPEC_MEMO_MAX_BYTES:
            self._remember_spec(line, spec)
        if self.progress is not None:
            self._say(note_record("submit", job=job.id, status=status,
                                  client=conn.name), spec.display)

    def _remember_spec(self, line: bytes, spec: RunSpec) -> None:
        with self._specs_lock:
            self._specs.pop(line, None)  # re-inserted as newest
            while len(self._specs) >= SPEC_MEMO_ENTRIES:
                del self._specs[next(iter(self._specs))]
            self._specs[line] = spec

    # -- execution (all on the serve-dispatch thread) -----------------

    def _dispatch_loop(self) -> None:
        core = self.core
        try:
            while not core.draining:
                core.pump(self.poll_interval_s)
            if core.journal is not None:
                core.persist(core.journal.append, note_record(
                    "drain", running=len(core.running),
                    queued=len(self.scheduler)))
            while not core.idle:
                core.pump(self.poll_interval_s)
        finally:
            self._stop()

    # -- shutdown ------------------------------------------------------

    def _stop(self) -> None:
        """Tear down once the core has settled every job."""
        self._stopping = True
        if self._listener is not None:
            # close() alone leaves the accept thread blocked in accept();
            # shutdown() wakes it.
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self._listener.close()
            family, target = protocol.parse_address(self.address)
            if family == "unix":
                try:
                    os.unlink(target)
                except OSError:
                    pass
        self.core.close()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        exited = note_record("serve_exit", abort=self._abort,
                             interrupted=self.core.interrupted)
        if self.core.journal is not None:
            self.core.persist(self.core.journal.append, exited)
            self.core.persist(self.core.journal.close)
        self._say(exited)
        self._stopped.set()


__all__ = ["COUNTER_NAMES", "ServeDaemon"]
