"""Simulation-as-a-service: the ``repro serve`` daemon and its clients.

One resident daemon owns the worker pool, the content-addressed result
cache, and the durable journal; CLI invocations, benchmark sweeps, the
fuzzer, and tests all become thin protocol clients submitting RunSpecs
over a local socket and streaming results back.  See ``docs/serve.md``
for the protocol and lifecycle, and :mod:`repro.submit` for the unified
submission API that picks between in-process and daemon execution.

Layout::

    protocol.py   JSON-lines framing, handshake, addresses
    wire.py       the ledger's names for a result's wire payload
    jobstore.py   dedup + subscription registry (the submission funnel)
    scheduler.py  per-client fair dispatch order
    worker.py     pool entry point + progress spool streaming
    daemon.py     the ServeDaemon itself
    client.py     ServeClient / ServeHandle
"""

from repro.serve.client import ServeClient, ServeError, ServeHandle
from repro.serve.daemon import ServeDaemon
from repro.serve.jobstore import Job, JobStore
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.scheduler import FairScheduler

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
