"""What runs in a pool worker: one spec, built, simulated and spooled.

:func:`serve_entry` is the execution core's one worker entry, whichever
front end dispatched the run.  It runs :func:`execute_run` (or a
``Runner(run_fn=)``) under the per-run ``SIGALRM`` timeout and, when
someone streams the run, writes its *progress spool*, a JSONL file of
host records (:mod:`repro.lab.journal`) the core tails: ``lifecycle``
marks always and, when the spec asks for obs, the ``sample`` rows and
``event`` records it collects.  A spec with ``obs=None`` streams
lifecycle marks only: giving it a sampler would change the cached
RunResult.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from collections import deque
from functools import partial
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Optional

from repro.core.ddos import score_result
from repro.kernels import build as build_workload
from repro.lab.journal import SweepJournal, record
from repro.lab.results import RunResult
from repro.lab.spec import RunSpec
from repro.obs import event_to_dict
from repro.obs.events import RunResumed
from repro.sim.checkpoint import CheckpointError, SimCheckpoint
from repro.sim.run import begin_simulation


class RunTimeout(RuntimeError):
    """The run exceeded its per-run wall-clock budget."""


def execute_run(spec: RunSpec, checkpoint_dir=None,
                tap=None) -> RunResult:
    """Build, simulate, validate, and score one spec (worker entry).

    With ``checkpoint_dir``, the simulation autocheckpoints its complete
    machine state to ``<dir>/<spec_hash>.ckpt`` once per
    ``progress_epoch``; if that file already exists — a previous
    attempt was killed or timed out — the run *resumes* from it instead
    of restarting, and a corrupt checkpoint falls back to a fresh run.
    The file is deleted once the run completes.

    ``tap`` is an optional live consumer (``tap.on_event(event)``,
    ``tap.on_row(row)`` — the run's progress spool), subscribed on the
    run's :class:`~repro.obs.Observability` once that is built *or
    restored*, so a resumed run streams from the resume cycle on.  A
    subscriber only reads what the spec asked to collect, so the result
    is the same with or without one.
    """
    spec_hash = spec.content_hash()
    ckpt_path: Optional[Path] = None
    resume_ckpt = None
    if checkpoint_dir is not None:
        ckpt_path = Path(checkpoint_dir) / f"{spec_hash}.ckpt"
        if ckpt_path.is_file():
            try:
                resume_ckpt = SimCheckpoint.load(ckpt_path)
            except CheckpointError:
                # Torn write or stale simulator code: recompute fresh.
                try:
                    ckpt_path.unlink()
                except OSError:
                    pass

    start = time.perf_counter()
    workload = build_workload(spec.kernel, **spec.build_params())
    built = time.perf_counter()

    # One road from here: a Simulation — restored, or begun on the
    # fresh build — is tapped, run, validated and scored the same way.
    if resume_ckpt is not None:
        live = resume_ckpt.restore()
    else:
        live = begin_simulation(workload, config=spec.config,
                                engine=spec.engine, obs=spec.obs,
                                sanitize=spec.sanitize)
    obs = live.obs
    # Live consumers are not state (a pickle drops them), so the tap is
    # attached here: after the Observability is built or restored,
    # before anything is published on it.
    if tap is not None and obs is not None:
        obs.subscribe(tap.on_event, tap.on_row)
    if resume_ckpt is not None and obs is not None and obs.bus is not None:
        obs.bus.publish(RunResumed(
            cycle=live.now, path=str(ckpt_path), spec_hash=spec_hash,
        ))
    sim = live.run(checkpoint_every=True if ckpt_path else None,
                   checkpoint_path=ckpt_path)
    # The workload build is deterministic in (kernel, params, seed), so
    # the fresh build's validator checks a resumed run exactly as it
    # checks an uninterrupted one.
    if spec.validate and not spec.config.magic_locks:
        workload.validate(sim.memory)
    simulated = time.perf_counter()

    ddos_outcome = None
    if spec.config.ddos is not None:
        ddos_outcome = dataclasses.asdict(score_result(spec.kernel, sim))
    end = time.perf_counter()

    if ckpt_path is not None:
        try:
            ckpt_path.unlink()  # completed: the checkpoint is obsolete
        except OSError:
            pass

    return RunResult(
        spec_hash=spec_hash,
        cycles=sim.cycles,
        stats=sim.stats,
        predicted_sibs=sorted(sim.predicted_sibs()),
        ddos=ddos_outcome,
        elapsed_s=end - start,
        phases={
            "build_s": built - start,
            "simulate_s": simulated - built,
            "score_s": end - simulated,
        },
        # Bounded event log: results travel through pickles and the
        # on-disk cache, so cap the embedded raw log (counts and the
        # time series are complete either way).
        obs=(sim.obs.to_dict(max_events=2_000)
             if sim.obs is not None else None),
        sanitizer=(sim.sanitizer.to_dict()
                   if sim.sanitizer is not None else None),
        label=spec.label,
    )


def _run_with_timeout(run_fn: Callable[[RunSpec], RunResult],
                      spec: RunSpec,
                      timeout_s: Optional[float]) -> RunResult:
    """Run ``run_fn(spec)``, enforcing ``timeout_s`` via SIGALRM.

    The alarm is only available on the main thread of a process (true
    for serial mode and for every process-pool worker); thread-mode
    runs fall back to no hard timeout.  The caller's prior SIGALRM
    handler *and* itimer are saved and restored — a host application's
    own alarm is re-armed (minus the time we consumed) rather than
    silently cleared.
    """
    use_alarm = (
        timeout_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return run_fn(spec)

    def _on_alarm(_signum, _frame):
        raise RunTimeout(
            f"run {spec.display} exceeded {timeout_s:.3f}s wall clock"
        )

    try:
        previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # defensive: signal set refused off-main-thread
        return run_fn(spec)
    armed_at = time.monotonic()
    prev_remaining, prev_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout_s
    )
    try:
        return run_fn(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prev_remaining > 0.0:
            # Re-arm the caller's timer with whatever time it has left;
            # if it should already have fired, fire it immediately.
            elapsed = time.monotonic() - armed_at
            signal.setitimer(
                signal.ITIMER_REAL,
                max(prev_remaining - elapsed, 1e-6),
                prev_interval,
            )


#: Cap on obs events forwarded per flush — the spool is a progress feed,
#: not an archive (the complete bounded log still rides the RunResult).
MAX_EVENTS_PER_FLUSH = 200


class ProgressWriter:
    """The run's obs tap, spooled for the execution core to tail.

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


def serve_entry(spec: RunSpec, progress_path: Optional[str],
                timeout_s: Optional[float] = None, checkpoint_dir=None,
                run_fn: Optional[Callable[[RunSpec], RunResult]] = None
                ) -> RunResult:
    """Execute one job, spooling progress to ``progress_path`` (``None``:
    nobody streams the job, so nothing is spooled).

    ``run_fn`` stands in for :func:`execute_run` (then nothing taps the
    run's obs).  Exceptions propagate to the execution core."""
    if progress_path is None:
        return _run_with_timeout(run_fn or partial(
            execute_run, checkpoint_dir=checkpoint_dir), spec, timeout_s)
    writer = ProgressWriter(progress_path)
    writer.lifecycle("started", pid=os.getpid(),
                     spec_hash=spec.content_hash())
    run_fn = run_fn or partial(execute_run, checkpoint_dir=checkpoint_dir,
                               tap=writer)
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
    "RunTimeout",
    "execute_run",
    "serve_entry",
]
