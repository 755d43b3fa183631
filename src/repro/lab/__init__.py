"""``repro.lab`` — parallel experiment orchestration with result caching.

The lab turns "run N independent simulations" into a first-class
operation (see ``docs/lab.md``):

* :class:`RunSpec` — one simulation, content-hashed;
* :class:`Runner` — parallel fan-out with per-run timeouts, bounded
  retries, and structured :class:`RunFailure` records, filling a
  :class:`Batch` (the handles, outcomes and tallies of one batch);
* :class:`ResultCache` — on-disk content-addressed result store keyed
  by spec hash + simulator-code fingerprint.

The harness above the lab (``repro.harness.experiments`` and the sweeps
of ``repro.harness.sweep``) submits every figure, table and sweep
through :func:`repro.submit.submit_many`, which runs a batch on the
*current* runner unless given a runner or a daemon; it defaults to an
in-process serial runner with no cache.  Install a different one —
parallel, cached, instrumented — with :func:`use_runner`:

    from repro.lab import Runner, ResultCache, use_runner
    with use_runner(Runner(workers=4, cache=ResultCache())):
        fig9 = experiments.fig9()
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.lab.cache import (CacheStats, EntryReport, ResultCache,
                             VerifyReport, default_cache_dir)
from repro.lab.journal import (JournalError, JournalState, SweepJournal,
                               load_journal)
from repro.lab.locking import FileLock, LockTimeout
from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.core import (RunInterrupted, RunTimeout, TransientRunError,
                            decorrelated_jitter)
from repro.lab.runner import Batch, Runner
from repro.lab.spec import RunSpec, config_from_dict, config_to_dict
from repro.lab.worker import execute_run
from repro.sim.checkpoint import code_fingerprint

_current_runner: Optional[Runner] = None


def current_runner() -> Runner:
    """The runner experiment code executes through (default: serial)."""
    global _current_runner
    if _current_runner is None:
        _current_runner = Runner(workers=1, mode="serial")
    return _current_runner


@contextlib.contextmanager
def use_runner(runner: Runner) -> Iterator[Runner]:
    """Temporarily install ``runner`` as the current runner."""
    global _current_runner
    previous = _current_runner
    _current_runner = runner
    try:
        yield runner
    finally:
        _current_runner = previous


__all__ = [
    "Batch",
    "CacheStats",
    "EntryReport",
    "FileLock",
    "JournalError",
    "JournalState",
    "LabError",
    "LockTimeout",
    "ResultCache",
    "RunFailure",
    "RunInterrupted",
    "RunResult",
    "RunSpec",
    "RunTimeout",
    "Runner",
    "SweepJournal",
    "TransientRunError",
    "VerifyReport",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "current_runner",
    "decorrelated_jitter",
    "default_cache_dir",
    "execute_run",
    "load_journal",
    "use_runner",
]
