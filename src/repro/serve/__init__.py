"""Simulation-as-a-service: the ``repro serve`` daemon and its clients.

One resident daemon owns the worker pool, the content-addressed result
cache, and the durable journal; CLI invocations, benchmark sweeps, the
fuzzer, and tests all become thin protocol clients submitting RunSpecs
over a local socket and streaming results back.  See ``docs/serve.md``
for the protocol and lifecycle, and :mod:`repro.submit` for the unified
submission API that picks between in-process and daemon execution.

Layout::

    protocol.py   JSON-lines framing, handshake, addresses
    daemon.py     the ServeDaemon: transport over the lab's engine
    client.py     ServeClient / ServeHandle
    wire.py, jobstore.py, scheduler.py   re-exports the ledger imports
"""

from repro.lab.core import FairScheduler, Job, JobStore
from repro.serve.client import ServeClient, ServeError, ServeHandle
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "FairScheduler",
    "Job",
    "JobStore",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeHandle",
]
