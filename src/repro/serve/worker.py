"""Pool-worker entry for the serve daemon: execute + stream progress.

:func:`serve_entry` is the module-level (hence picklable) function the
daemon's worker pool runs per job.  It reuses the lab's
:func:`~repro.lab.runner.execute_run` — same build/simulate/validate/
score path, same checkpoint resume, same in-worker SIGALRM timeout — so
a result produced through the daemon is bitwise-identical to one
produced by a direct :class:`~repro.lab.runner.Runner`.

What serve adds is the *progress spool*: an append-only JSONL file per
job that the worker writes and the daemon tails, forwarding each line
to subscribed clients while the simulation is still running.  Records:

``{"kind": "lifecycle", "phase": ..., ...}``
    Worker start/finish marks (always written).
``{"kind": "sample", "row": {...}}``
    One obs :class:`~repro.obs.sampler.TimeSeries` row, written the
    moment the interval closes (only when the spec requests obs).
``{"kind": "event", "event": {...}}``
    Obs decision events, flushed in bounded batches on the sampler
    cadence (only when the spec requests obs).

Streaming taps the exact same collection the spec asked for — a
:class:`StreamingObservability` subclass whose sampler forwards each
appended row — so the RunResult's embedded obs payload is unchanged by
streaming (collection and transport are decoupled; the file is a pure
copy).  A spec with ``obs=None`` streams lifecycle marks only: giving
it a sampler would change the cached RunResult for every other client.
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import Any, Dict, Optional

from repro.lab.results import RunResult
from repro.lab.runner import _run_with_timeout, execute_run
from repro.lab.spec import RunSpec, _json_default
from repro.obs import Observability, event_to_dict
from repro.obs.sampler import IntervalSampler

#: Cap on obs events forwarded per flush — the spool is a progress feed,
#: not an archive (the complete bounded log still rides the RunResult).
MAX_EVENTS_PER_FLUSH = 200


class ProgressWriter:
    """Append-only JSONL spool the daemon tails while the run executes.

    Plain buffered appends with a flush per record — the spool is
    advisory (lost lines cost a client a progress update, never a
    result), so it skips the fsync discipline of the durable journal.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, record: Dict[str, Any]) -> None:
        try:
            self._handle.write(
                json.dumps(record, separators=(",", ":"),
                           default=_json_default) + "\n"
            )
            self._handle.flush()
        except (OSError, ValueError):
            pass  # a full disk must not kill the simulation

    def lifecycle(self, phase: str, **detail: Any) -> None:
        self.emit({"kind": "lifecycle", "phase": phase, **detail})

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


class _StreamingSampler(IntervalSampler):
    """IntervalSampler that forwards every appended row to the spool."""

    def __init__(self, *args, writer: ProgressWriter,
                 obs: "StreamingObservability", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._writer = writer
        self._obs = obs
        self._streamed_rows = 0

    def sample(self, now: int) -> None:
        super().sample(now)
        rows = self.series.rows
        while self._streamed_rows < len(rows):
            self._writer.emit({"kind": "sample",
                               "row": rows[self._streamed_rows]})
            self._streamed_rows += 1
        self._obs.flush_events()


class StreamingObservability(Observability):
    """Observability whose sampler mirrors rows/events into the spool.

    Collection is identical to the plain :class:`Observability` built
    from the same config — same sampler math, same bus — so results
    stay bitwise-identical whether or not anyone is watching.
    """

    def __init__(self, config, writer: ProgressWriter) -> None:
        super().__init__(config)
        self._writer = writer
        self._events_streamed = 0

    def begin_run(self, stats, memsys_stats, warp_size: int = 32):
        if self.config.sample_interval > 0:
            self.sampler = _StreamingSampler(
                stats, memsys_stats, self.config.sample_interval,
                warp_size=warp_size, writer=self._writer, obs=self,
            )
        return self.sampler

    def end_run(self, now: int) -> None:
        super().end_run(now)
        self.flush_events()

    def flush_events(self) -> None:
        """Forward events that arrived since the last flush (bounded)."""
        bus = self.bus
        if bus is None:
            return
        fresh = bus.total_events - self._events_streamed
        if fresh <= 0:
            return
        self._events_streamed = bus.total_events
        if fresh > MAX_EVENTS_PER_FLUSH:
            self._writer.emit({"kind": "event_gap",
                               "skipped": fresh - MAX_EVENTS_PER_FLUSH})
            fresh = MAX_EVENTS_PER_FLUSH
        for event in bus.tail(fresh):
            self._writer.emit({"kind": "event",
                               "event": event_to_dict(event)})


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
    obs = (StreamingObservability(spec.obs, writer)
           if spec.obs is not None else None)
    run_fn = partial(execute_run, checkpoint_dir=checkpoint_dir, obs=obs)
    try:
        result = _run_with_timeout(run_fn, spec, timeout_s)
    except BaseException as exc:
        writer.lifecycle("failed", error=type(exc).__name__)
        raise
    else:
        writer.lifecycle("finished", cycles=result.cycles,
                         elapsed_s=round(result.elapsed_s, 3))
        return result
    finally:
        writer.close()


__all__ = [
    "MAX_EVENTS_PER_FLUSH",
    "ProgressWriter",
    "StreamingObservability",
    "serve_entry",
]
