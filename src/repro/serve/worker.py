"""Pool-worker entry for the serve daemon: execute + stream progress.

:func:`serve_entry` is the module-level (hence picklable) function the
daemon's worker pool runs per job.  It reuses the lab's
:func:`~repro.lab.runner.execute_run` — same build/simulate/validate/
score path, same checkpoint resume, same in-worker SIGALRM timeout — so
a result produced through the daemon is bitwise-identical to one
produced by a direct :class:`~repro.lab.runner.Runner`.

What serve adds is the *progress spool*: an append-only JSONL file per
job of host records (:mod:`repro.lab.journal`) that the worker writes
and the daemon tails, forwarding each to subscribed clients while the
simulation runs — ``lifecycle`` marks always, and, when the spec asks
for obs, the ``sample`` rows and ``event`` records the run collects
(:class:`ProgressWriter` subscribes to its Observability, so the
result's obs payload is unchanged by streaming).  A subscriber is not
state: a checkpoint never contains it, and a run resumed from one
streams from the resume cycle on.  A spec with ``obs=None`` streams
lifecycle marks only: giving it a sampler would change the cached
RunResult for every other client.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from functools import partial
from typing import Any, Deque, Dict, Optional

from repro.lab.journal import SweepJournal, record
from repro.lab.results import RunResult
from repro.lab.runner import _run_with_timeout, execute_run
from repro.lab.spec import RunSpec
from repro.obs import event_to_dict

#: Cap on obs events forwarded per flush — the spool is a progress feed,
#: not an archive (the complete bounded log still rides the RunResult).
MAX_EVENTS_PER_FLUSH = 200


class ProgressWriter:
    """The run's obs tap, spooled for the daemon to tail.

    :meth:`on_row` / :meth:`on_event` make it a live consumer of the
    run's observability (``execute_run(tap=)``).  The spool is advisory
    — a lost line costs a client a progress update, never a result — so
    appends skip the journal's fsync and a failed one is dropped.
    """

    def __init__(self, path) -> None:
        self._spool = SweepJournal(path)
        #: Events since the last flush: the newest, and how many arrived.
        self._pending: Deque[Any] = deque(maxlen=MAX_EVENTS_PER_FLUSH)
        self._arrived = 0

    def _write(self, kind: str, **fields: Any) -> None:
        line = record(kind, **fields)
        # A full disk must not kill the simulation.
        with contextlib.suppress(OSError):
            self._spool.append(line, durable=False)

    def lifecycle(self, phase: str, **detail: Any) -> None:
        self._write("lifecycle", phase=phase, detail=detail)

    def on_row(self, row: Dict[str, Any]) -> None:
        self._write("sample", row=row)
        self.flush_events()

    def on_event(self, event: Any) -> None:
        self._arrived += 1
        self._pending.append(event)

    def flush_events(self) -> None:
        """Forward events that arrived since the last flush (bounded)."""
        skipped = self._arrived - len(self._pending)
        if skipped:
            self._write("event_gap", skipped=skipped)
        for event in self._pending:
            self._write("event", event=event_to_dict(event))
        self._pending.clear()
        self._arrived = 0

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._spool.close()


def serve_entry(spec: RunSpec, progress_path: str,
                timeout_s: Optional[float] = None,
                checkpoint_dir=None) -> RunResult:
    """Execute one job, spooling progress to ``progress_path``.

    Runs in a pool worker (process or thread).  Exceptions propagate to
    the execution core, which owns retry/failure classification.
    """
    writer = ProgressWriter(progress_path)
    writer.lifecycle("started", pid=os.getpid(),
                     spec_hash=spec.content_hash())
    run_fn = partial(execute_run, checkpoint_dir=checkpoint_dir, tap=writer)
    try:
        result = _run_with_timeout(run_fn, spec, timeout_s)
    except BaseException as exc:
        writer.lifecycle("failed", error=type(exc).__name__)
        raise
    else:
        writer.flush_events()  # those after the last sampler row
        writer.lifecycle("finished", cycles=result.cycles,
                         elapsed_s=round(result.elapsed_s, 3))
        return result
    finally:
        writer.close()


__all__ = [
    "MAX_EVENTS_PER_FLUSH",
    "ProgressWriter",
    "serve_entry",
]
