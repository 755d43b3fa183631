"""JSON-lines protocol plumbing shared by the daemon and its clients.

One message per line, UTF-8 JSON objects, over either a Unix-domain
socket (an address containing a path separator, or any address that is
not ``host:port``) or localhost TCP (``host:port``).  The first message
on a connection must be a ``hello`` carrying :data:`PROTOCOL_VERSION`;
either side closes with an ``error`` on a mismatch, so incompatible
peers fail in one round trip instead of mid-stream.

Message vocabulary (``type`` field):

================  =====================================================
client → daemon
================  =====================================================
``hello``         ``{protocol, client}`` — handshake, must come first.
``submit``        ``{spec, label, stream}`` — one RunSpec.
``status``        daemon counters + job states.
``ping``          liveness probe.
``shutdown``      drain and stop the daemon (trusted local clients).
================  =====================================================

Any other ``type`` is answered with ``error`` and a field not listed
for a message is ignored.

================  =====================================================
daemon → client
================  =====================================================
``hello_ack``     ``{protocol, server}`` — handshake accepted.
``accepted``      ``{job_id, spec_hash, status}`` with status one of
                  ``queued`` (will simulate), ``attached`` (same spec
                  already in flight; this client subscribes to it), or
                  ``cached`` (result follows immediately, no dispatch).
``progress``      ``{job_id, spec_hash, kind, data}`` — streamed while
                  the run is in flight; ``data`` is one v1 host record
                  (:mod:`repro.lab.journal`): ``lifecycle`` marks, obs
                  ``sample`` rows, ``event`` / ``event_gap`` records.
``result``        ``{job_id, label, attempts, from_cache, result}`` —
                  ``result`` is the run's v1 ``result`` record.
``failure``       ``{job_id, label, failure}`` — ``failure`` is the
                  run's v1 ``failed`` record.
``status``        counters snapshot.
``pong``          liveness reply.
``error``         ``{message}`` — protocol or submission error.
================  =====================================================
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Any, Dict, Optional, Tuple, Union

from repro.lab.spec import _json_default

#: Handshake protocol version; bumped on any incompatible change to the
#: messages (2: a run's outcome travels as its host record).  A record
#: carries its own version (:func:`repro.lab.journal.check`).
PROTOCOL_VERSION = 2

#: Upper bound on one message line; a peer exceeding it is broken (or
#: hostile) and the connection is dropped rather than buffering forever.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer violated the JSON-lines protocol."""


def parse_address(address: str) -> Tuple[str, Any]:
    """Classify ``address`` as ``("unix", path)`` or ``("tcp", (h, p))``.

    ``host:port`` (with an integer port and no path separator) means
    TCP; everything else is a Unix-socket path.
    """
    if not address:
        raise ValueError("empty serve address")
    if os.sep not in address and address.count(":") == 1:
        host, _, port = address.rpartition(":")
        if host and port.isdigit():
            return "tcp", (host, int(port))
    return "unix", address


def create_listener(address: str, backlog: int = 64) -> socket.socket:
    """Bind + listen on ``address`` (stale Unix socket files replaced)."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(target)
        except OSError:
            pass
        sock.bind(target)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
    sock.listen(backlog)
    return sock


def connect(address: str, timeout_s: Optional[float] = None) -> socket.socket:
    """Connect to a daemon at ``address``."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout_s)
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    sock.settimeout(None)
    return sock


def encode(message: Dict[str, Any]) -> bytes:
    """One message as its line, without the newline."""
    return json.dumps(message, separators=(",", ":"),
                      default=_json_default).encode("utf-8")


def splice(message: Dict[str, Any], key: str, text: str) -> bytes:
    """``message`` (not empty) encoded with one more key, ``key``, last,
    whose value is ``text``: JSON that is already encoded and goes in
    verbatim.  The caller vouches that ``text`` is one JSON value."""
    return b"%s,%s:%s}" % (encode(message)[:-1], encode(key),
                           text.encode("utf-8"))


class MessageStream:
    """Thread-safe JSON-lines framing over one connected socket.

    Reads happen from a single thread (the owner's reader loop), which
    calls :meth:`close_reader` when its loop ends; writes may come from
    any thread and are serialized by a lock — a streamed sample and a
    result broadcast never interleave mid-line.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._closed = False

    def send(self, *messages: Union[Dict[str, Any], bytes]) -> None:
        """Write the messages, one line each, in one ``sendall``; a
        ``bytes`` message is a line already encoded (:func:`splice`).
        Raises ``OSError`` on a dead peer."""
        lines = b"".join(
            (message if isinstance(message, bytes) else encode(message))
            + b"\n" for message in messages)
        with self._write_lock:
            self._sock.sendall(lines)

    def recv(self) -> Optional[Dict[str, Any]]:
        """Read one message; ``None`` on EOF (peer closed cleanly)."""
        received = self.recv_line()
        return received and received[0]

    def recv_line(self) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Read one message and the line it was parsed from; ``None`` on
        EOF (peer closed cleanly)."""
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"message exceeds {MAX_LINE_BYTES} bytes; dropping peer"
            )
        try:
            message = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"message is not valid JSON: {exc}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError("message must be an object with a 'type'")
        return message, line

    def close(self) -> None:
        """Tear down the connection (safe from any thread).

        ``shutdown`` first: it unblocks a thread parked in ``recv``
        (readline returns EOF) without touching the buffered reader's
        internal lock — closing the file object from a foreign thread
        while a read is in flight deadlocks in CPython.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close_reader(self) -> None:
        """Close the buffered reader: the reading thread's last call,
        once its loop has ended.  The reader holds the socket's
        descriptor open past :meth:`close`, and only the thread that
        reads may close it (see :meth:`close`)."""
        self._reader.close()


def hello_message(client: Optional[str] = None) -> Dict[str, Any]:
    return {"type": "hello", "protocol": PROTOCOL_VERSION,
            "client": client}


def check_hello(message: Optional[Dict[str, Any]],
                expected_type: str = "hello") -> Dict[str, Any]:
    """Validate the handshake; raises :class:`ProtocolError` on mismatch."""
    if message is None:
        raise ProtocolError("peer closed before the handshake")
    if message.get("type") != expected_type:
        raise ProtocolError(
            f"expected {expected_type!r} first, got {message.get('type')!r}"
        )
    version = message.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} is not supported "
            f"(this side speaks {PROTOCOL_VERSION}); upgrade the older "
            f"side of the connection"
        )
    return message


__all__ = [
    "MAX_LINE_BYTES",
    "MessageStream",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "check_hello",
    "connect",
    "create_listener",
    "encode",
    "hello_message",
    "parse_address",
    "splice",
]
